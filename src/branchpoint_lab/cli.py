"""Command-line front end: batch evaluation to CSV/JSON tables.

Every output starts with the header comment `# branchpoint-lab v<version>
<command>`; the readers below skip comment lines, so each file round-trips
through the package's own parsers.  Config precedence is CLI flags over a
JSON config file over built-in defaults.  The config keys are the option
names with underscores (`max_gen`, `re_min`, `log_scale`); a key that names
no option of the subcommand, a value of the wrong type and a switch set to
anything but true or false are invalid parameters.  Exit codes: 0 success,
2 invalid parameters, 3 runtime failure (non-convergence and the like).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from ._quad import QuadConfig
from .cantor import CantorSet, IntervalIndex
from .errors import BranchCutError, SingularPointError, ValidationError
from .frequency import (
    MinimizerSpec,
    Monomial,
    OscillatingPower,
    SeriesFactor,
    SeriesProduct,
    SmoothBlock,
    frequency_curve,
)
from .logcomplex import LogComplex
from .series import (
    SeriesParams,
    branched_product,
    cosine_factor,
    evaluate_many,
    product_zero,
)
from .vanishing import (
    ConstantTarget,
    RealPartTarget,
    _check_ladder,
    default_ladder,
    mass_curve,
    sliding_window_slopes,
)

_VALIDATION_EXIT = 2
_RUNTIME_EXIT = 3
# eval grid points per evaluate_many call (row-major).  Larger blocks hold
# more and are no faster: on the 24 x 24, max_gen 12 grid (2 cores), 256
# take 0.028 s at a 4.3 MB peak, 64 take 0.028 s at 1.3 MB.
_EVAL_BLOCK = 64


def number(text) -> float:
    """float(text) for a finite value; nan and infinities raise ValueError.

    The type of every float flag, so argparse and config values reject them
    like any other bad number."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _parse_complex(text: str) -> complex:
    """'re,im' -> complex."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"expected 're,im', got {text!r}")
    try:
        return complex(number(parts[0]), number(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"bad complex literal {text!r}: {exc}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [number(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad number list {text!r}: {exc}") from None


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Read one of our CSV files back: (column names, string rows)."""
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


def read_json(path: str) -> dict:
    """Read one of our JSON files back, skipping leading comment lines."""
    with open(path, encoding="utf-8") as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    return json.loads(body)


def _write(path: str | None, command: str, head: str, rows: Sequence[str] = ()) -> None:
    """Write the header comment, `head` (a column line or a whole document)
    and `rows` as UTF-8/LF lines to `path`, or to stdout when it is None.

    Callers pass every row already computed, and the file is opened only
    here, so a command that fails creates no file and leaves an existing
    one untouched.
    """
    header = f"# branchpoint-lab v{__version__} {command}"
    text = "".join(line + "\n" for line in (header, head, *rows))
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _merged(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, for every option of `args.command`."""
    options = _COMMANDS[args.command][2]
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValidationError("config file must hold a JSON object")
        if unknown := sorted(set(cfg) - {dest for dest, *_ in options}):
            raise ValidationError(f"config keys {unknown} are not options of {args.command}")
    out = {}
    for dest, kind, default, _ in options:
        flag = getattr(args, dest)
        if flag is not None:
            out[dest] = flag
        elif dest in cfg:
            out[dest] = _config_value(dest, cfg[dest], kind, default)
        else:
            out[dest] = default
    return out


def _config_value(key: str, value, kind, default):
    """A config-file value converted to its option's type, as the flag would be.

    null stands only for a default of None, and a switch takes only true or
    false."""
    if value is None and default is None:
        return None
    choices = (False, True) if kind is bool else kind
    if isinstance(choices, tuple):
        # the type is compared too, since 1 == True
        if value in choices and type(value) is type(choices[0]):
            return value
        raise ValidationError(f"config value {key} = {value!r} is not one of {choices}")
    try:
        # JSON true, lists and objects are no flag value; 2.5 is no int
        if isinstance(value, (bool, list, dict)):
            raise TypeError(value)
        out = kind(value)
        if kind is int and not isinstance(value, str) and out != value:
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"config value {key} = {value!r} is not a valid {kind.__name__}"
        ) from None
    return out


def _row(*fields: float) -> str:
    """One CSV line: each field as the repr of a float, which reads back exactly."""
    return ",".join(repr(float(x)) for x in fields)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cantor(p: dict) -> int:
    cs = CantorSet.build(p["s"], p["depth"])
    sigma = 1.0 if cs.s == 1.0 else cs.s
    table = [
        {"k": k, "sigma": sigma, "cover_sum": cs.cover_sum(k, sigma)}
        for k in range(1, cs.depth + 1)
    ]
    _write(p["output"], "cantor",
           json.dumps({"set": cs.to_json_dict(), "cover_sums": table}, indent=1))
    return 0


def _series_setup(p: dict) -> tuple[SeriesParams, CantorSet]:
    params = SeriesParams(s=p["s"], alpha=p["alpha"], max_gen=p["max_gen"])
    return params, CantorSet.build(params.s, params.max_gen)


def cmd_eval(p: dict) -> int:
    if min(p["nx"], p["ny"]) < 1:
        raise ValidationError(f"nx and ny must be >= 1, got {p['nx']} and {p['ny']}")
    params, cs = _series_setup(p)
    res = np.linspace(p["re_min"], p["re_max"], p["nx"])
    ims = np.linspace(p["im_min"], p["im_max"], p["ny"])
    if res.min() < 0.0:
        raise ValidationError("evaluation grid must stay in the closed right half-plane")
    zs = np.empty(ims.size * res.size, dtype=complex)
    zs.real = np.tile(res, ims.size)
    zs.imag = np.repeat(ims, res.size)
    rows = []
    for start in range(0, zs.size, _EVAL_BLOCK):
        block = zs[start : start + _EVAL_BLOCK]
        v = evaluate_many(params, cs, block)
        for i, z in enumerate(block):
            f = LogComplex(float(v.log_f[i]), float(v.arg_f[i]))
            g = LogComplex(float(v.log_g[i]), float(v.arg_g[i]))
            rows.append(_row(z.real, z.imag, f.log_mag, f.reduced_arg(), g.log_mag,
                             g.reduced_arg(), v.d[i], v.g_tail[i]))
    _write(p["output"], "eval", "re,im,logMag_f,arg_f,logMag_g,arg_g,d_lower,tail_bound", rows)
    return 0


def cmd_zeros(p: dict) -> int:
    if p["max_m"] < 1:
        raise ValidationError(f"max_m must be >= 1, got {p['max_m']}")
    params, cs = _series_setup(p)
    rows = []
    for gen in range(1, params.max_gen + 1):
        for pos in range(1, 2**gen + 1):
            idx = IntervalIndex(gen, pos)
            for m in range(1, p["max_m"] + 1):
                z = product_zero(params, cs, idx, m)
                resid = abs(cosine_factor(params, cs, idx, z))
                g = branched_product(params, cs, z)
                rows.append(f"{gen},{pos},{m}," + _row(z.y, z.log_r, resid, g.value.log_mag))
    _write(p["output"], "zeros", "gen,pos,m,y_tau,log_offset,cos_residual,g_log_mag", rows)
    return 0


def _build_h(p: dict):
    kind = p["h"]
    alpha = 0.5 if p["alpha"] is None else p["alpha"]
    if kind == "monomial":
        return Monomial(P=p["P"])
    if kind == "smooth_block":
        return SmoothBlock(alpha=alpha)
    if kind == "oscillating_power":
        return OscillatingPower(alpha=alpha, P=p["P"])
    params, cs = _series_setup(p)
    cls = SeriesFactor if kind == "series_factor" else SeriesProduct
    return cls(params=params, cs=cs)


def cmd_frequency(p: dict) -> int:
    spec = MinimizerSpec(h=_build_h(p), Q=p["Q"])
    center = _parse_complex(p["center"])
    radii = sorted(_parse_floats(p["radii"]))
    cfg = None if p["rel_tol"] is None else QuadConfig(rel_tol=p["rel_tol"])
    samples = frequency_curve(spec, center, radii, cfg, log_scale=p["log_scale"])
    rows = [
        _row(center.real, center.imag, fs.radius, fs.D, fs.H, fs.I, fs.quadrature_error)
        for fs in samples
    ]
    _write(p["output"], "frequency", "center_re,center_im,r,D,H,I,err", rows)
    return 0


def cmd_vanishing(p: dict) -> int:
    kind = p["target"]
    if kind == "re_f":
        params, cs = _series_setup(p)
        target = RealPartTarget(params=params, cs=cs)
    elif kind == "q_minimizer":
        target = MinimizerSpec(h=_build_h(p), Q=p["Q"])
    else:
        target = ConstantTarget(p["value"])
    center = _parse_complex(p["center"])
    ladder = default_ladder() if p["ladder"] == "default" else _parse_floats(p["ladder"])
    _check_ladder(ladder)  # before the window, and before any quadrature
    width = p["window"]
    if not 2 <= width <= len(ladder):
        raise ValidationError(f"window must lie in [2, {len(ladder)}] (the rungs), got {width}")
    curve = mass_curve(target, center, ladder, QuadConfig(rel_tol=p["rel_tol"]))
    slopes = sliding_window_slopes(curve, width)
    rows = [
        _row(center.real, center.imag, r, lm) + f",{min(i, len(slopes) - 1)}"
        for i, (r, lm) in enumerate(zip(curve.radii, curve.log_mass))
    ]
    rows += [
        f"# slope window {i} (R in [{curve.radii[i + width - 1]:g}, "
        f"{curve.radii[i]:g}]): {slope!r}"
        for i, slope in enumerate(slopes)
    ]
    _write(p["output"], "vanishing", "center_re,center_im,R,logMass,slope_window_id", rows)
    return 0


def _series(max_gen: int) -> tuple:  # the options of SeriesParams; its set is max_gen deep
    return (
        ("s", number, 0.5, "Hausdorff parameter in (0, 1]"),
        ("alpha", number, None, "power-law exponent"),
        ("max_gen", int, max_gen, "truncation generation and stored set depth"),
    )


_H_KINDS = ("monomial", "smooth_block", "oscillating_power", "series_factor", "series_product")
_H = (("h", _H_KINDS, "monomial", None), ("P", int, 1, None), ("Q", int, 2, None))
_IO = (
    ("config", str, None, "JSON config file (flags take precedence)"),
    ("output", str, None, "output path (default: stdout)"),
)

# subcommand -> (handler, help, options): the one declaration of each option,
# from which the parser, the config-file merge and its types all come.  An
# option is (dest, type, default, help); its flag is "--" + dest with "-" for
# "_".  The type is number, int or str, a tuple of allowed strings (choices),
# or bool (a switch that takes no value).
_COMMANDS = {
    "cantor": (cmd_cantor, "emit a boundary set and its cover sums", (
        ("s", number, 0.5, None),
        ("depth", int, 10, None),
        *_IO,
    )),
    "eval": (cmd_eval, "grid evaluation of the decay factor and product", (
        *_series(12),
        ("re_min", number, 0.05, None),
        ("re_max", number, 1.0, None),
        ("im_min", number, -1.0, None),
        ("im_max", number, 1.0, None),
        ("nx", int, 8, None),
        ("ny", int, 8, None),
        *_IO,
    )),
    "zeros": (cmd_zeros, "constructed zeros of the branched product", (
        *_series(6),
        ("max_m", int, 20, None),
        *_IO,
    )),
    "frequency": (cmd_frequency, "Almgren frequency along a radius ladder", (
        *_H,
        *_series(12),
        ("center", str, "0,0", None),
        ("radii", str, "0.5", None),
        ("log_scale", bool, False, None),
        ("rel_tol", number, None, None),
        *_IO,
    )),
    "vanishing": (cmd_vanishing, "L2 mass curves and vanishing-order slopes", (
        ("target", ("re_f", "q_minimizer", "constant"), "re_f", None),
        *_series(12),
        *_H,
        ("value", number, 1.0, None),
        ("center", str, "0,0", None),
        ("ladder", str, "default", None),
        ("window", int, 3, None),
        ("rel_tol", number, 1e-3, None),
        *_IO,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="branchpoint-lab",
        description="Cantor boundary sets, holomorphic decay factors, and "
        "Almgren frequency diagnostics.",
    )
    ap.add_argument("--version", action="version", version=f"branchpoint-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for dest, kind, _, text in options:
            flag = "--" + dest.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_const", const=True, help=text)
            elif isinstance(kind, tuple):
                sp.add_argument(flag, choices=kind, help=text)
            else:
                sp.add_argument(flag, type=kind, help=text)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_merged(args))
    except (ValidationError, BranchCutError, SingularPointError) as exc:
        print(f"branchpoint-lab: invalid parameters: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"branchpoint-lab: runtime failure: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
