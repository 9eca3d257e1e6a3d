"""Command-line front end: batch evaluation to CSV/JSON tables.

Every output starts with the header comment `# branchpoint-lab v<version>
<command>`; the readers below skip comment lines, so each file round-trips
through the package's own parsers.  Config precedence is CLI flags over a
JSON config file over built-in defaults.  Exit codes: 0 success, 2 invalid
parameters, 3 runtime failure (non-convergence and the like).
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
    default_ladder,
    mass_curve,
    sliding_window_slopes,
)

_VALIDATION_EXIT = 2
_RUNTIME_EXIT = 3
# eval grid points per evaluate_many call (row-major).  Larger blocks are
# faster but hold more: on the 24 x 24, max_gen 12 grid (2 cores), 256
# take 0.027 s at a 4.5 MB peak, 64 take 0.040 s at 1.3 MB.
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


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults, for every key in `defaults`."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValidationError("config file must hold a JSON object")
    types = getattr(args, "flag_types", {})
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = _config_value(key, cfg[key], types.get(key))
        else:
            out[key] = default
    return out


def _config_value(key: str, value, kind):
    """A config-file value converted to its flag's type, as the flag would be."""
    if kind is None or value is None:
        return value
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


def cmd_cantor(args: argparse.Namespace) -> int:
    p = _merged(args, {"s": 0.5, "depth": 10, "output": None})
    cs = CantorSet.build(float(p["s"]), int(p["depth"]))
    sigma = 1.0 if cs.s == 1.0 else cs.s
    table = [
        {"k": k, "sigma": sigma, "cover_sum": cs.cover_sum(k, sigma)}
        for k in range(1, cs.depth + 1)
    ]
    _write(p["output"], "cantor",
           json.dumps({"set": cs.to_json_dict(), "cover_sums": table}, indent=1))
    return 0


def _series_setup(p: dict) -> tuple[SeriesParams, CantorSet]:
    params = SeriesParams(
        s=float(p["s"]),
        alpha=None if p.get("alpha") is None else float(p["alpha"]),
        max_gen=int(p["max_gen"]),
    )
    depth = int(p["depth"]) if p.get("depth") is not None else params.max_gen
    return params, CantorSet.build(params.s, depth)


def cmd_eval(args: argparse.Namespace) -> int:
    p = _merged(
        args,
        {
            "s": 0.5,
            "alpha": None,
            "max_gen": 12,
            "depth": None,
            "re_min": 0.05,
            "re_max": 1.0,
            "im_min": -1.0,
            "im_max": 1.0,
            "nx": 8,
            "ny": 8,
            "output": None,
        },
    )
    params, cs = _series_setup(p)
    res = np.linspace(float(p["re_min"]), float(p["re_max"]), int(p["nx"]))
    ims = np.linspace(float(p["im_min"]), float(p["im_max"]), int(p["ny"]))
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


def cmd_zeros(args: argparse.Namespace) -> int:
    p = _merged(
        args,
        {"s": 0.5, "alpha": None, "max_gen": 6, "depth": None, "max_m": 20,
         "output": None},
    )
    params, cs = _series_setup(p)
    rows = []
    for gen in range(1, params.max_gen + 1):
        for pos in range(1, 2**gen + 1):
            idx = IntervalIndex(gen, pos)
            for m in range(1, int(p["max_m"]) + 1):
                z = product_zero(params, cs, idx, m)
                resid = abs(cosine_factor(params, cs, idx, z))
                g = branched_product(params, cs, z)
                rows.append(f"{gen},{pos},{m}," + _row(z.y, z.log_r, resid, g.value.log_mag))
    _write(p["output"], "zeros", "gen,pos,m,y_tau,log_offset,cos_residual,g_log_mag", rows)
    return 0


_H_KINDS = ("monomial", "smooth_block", "oscillating_power", "series_factor",
            "series_product")


def _build_h(p: dict):
    kind = p["h"]
    if kind == "monomial":
        return Monomial(P=int(p["P"]))
    if kind == "smooth_block":
        return SmoothBlock(alpha=float(p["alpha"] if p["alpha"] is not None else 0.5))
    if kind == "oscillating_power":
        return OscillatingPower(
            alpha=float(p["alpha"] if p["alpha"] is not None else 0.5), P=int(p["P"])
        )
    if kind in ("series_factor", "series_product"):
        params, cs = _series_setup(p)
        cls = SeriesFactor if kind == "series_factor" else SeriesProduct
        return cls(params=params, cs=cs)
    raise ValidationError(f"unknown h kind {kind!r}; expected one of {_H_KINDS}")


def cmd_frequency(args: argparse.Namespace) -> int:
    p = _merged(
        args,
        {
            "h": "monomial",
            "P": 1,
            "Q": 2,
            "alpha": None,
            "s": 0.5,
            "max_gen": 12,
            "depth": None,
            "center": "0,0",
            "radii": "0.5",
            "log_scale": False,
            "rel_tol": None,
            "output": None,
        },
    )
    spec = MinimizerSpec(h=_build_h(p), Q=int(p["Q"]))
    center = _parse_complex(str(p["center"]))
    radii = sorted(_parse_floats(str(p["radii"])))
    cfg = None if p["rel_tol"] is None else QuadConfig(rel_tol=float(p["rel_tol"]))
    samples = frequency_curve(spec, center, radii, cfg, log_scale=bool(p["log_scale"]))
    rows = [
        _row(center.real, center.imag, fs.radius, fs.D, fs.H, fs.I, fs.quadrature_error)
        for fs in samples
    ]
    _write(p["output"], "frequency", "center_re,center_im,r,D,H,I,err", rows)
    return 0


_TARGETS = ("re_f", "q_minimizer", "constant")


def cmd_vanishing(args: argparse.Namespace) -> int:
    p = _merged(
        args,
        {
            "target": "re_f",
            "s": 0.5,
            "alpha": None,
            "max_gen": 12,
            "depth": None,
            "h": "monomial",
            "P": 1,
            "Q": 2,
            "value": 1.0,
            "center": "0,0",
            "ladder": "default",
            "window": 3,
            "rel_tol": None,
            "output": None,
        },
    )
    kind = p["target"]
    if kind == "re_f":
        params, cs = _series_setup(p)
        target = RealPartTarget(params=params, cs=cs)
    elif kind == "q_minimizer":
        target = MinimizerSpec(h=_build_h(p), Q=int(p["Q"]))
    elif kind == "constant":
        target = ConstantTarget(float(p["value"]))
    else:
        raise ValidationError(f"unknown target {kind!r}; expected one of {_TARGETS}")
    center = _parse_complex(str(p["center"]))
    ladder = (
        default_ladder() if p["ladder"] == "default" else _parse_floats(str(p["ladder"]))
    )
    cfg = (
        QuadConfig(rel_tol=1e-3)
        if p["rel_tol"] is None
        else QuadConfig(rel_tol=float(p["rel_tol"]))
    )
    curve = mass_curve(target, center, ladder, cfg)
    width = int(p["window"])
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


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file (flags take precedence)")
    sp.add_argument("--output", help="output path (default: stdout)")


def _add_series_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--s", type=number, help="Hausdorff parameter in (0, 1]")
    sp.add_argument("--alpha", type=number, help="power-law exponent")
    sp.add_argument("--max-gen", dest="max_gen", type=int, help="truncation generation")
    sp.add_argument("--depth", type=int, help="stored boundary-set depth")


def _finish(sp: argparse.ArgumentParser, fn) -> None:
    """Bind a subcommand's handler and the types its config values take
    (str for untyped flags; flags that take no value keep the raw value)."""
    types = {a.dest: a.type or str for a in sp._actions if a.nargs != 0}
    sp.set_defaults(fn=fn, flag_types=types)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="branchpoint-lab",
        description="Cantor boundary sets, holomorphic decay factors, and "
        "Almgren frequency diagnostics.",
    )
    ap.add_argument("--version", action="version", version=f"branchpoint-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cantor", help="emit a boundary set and its cover sums")
    sp.add_argument("--s", type=number)
    sp.add_argument("--depth", type=int)
    _add_common(sp)
    _finish(sp, cmd_cantor)

    sp = sub.add_parser("eval", help="grid evaluation of the decay factor and product")
    _add_series_flags(sp)
    for flag in ("--re-min", "--re-max", "--im-min", "--im-max"):
        sp.add_argument(flag, dest=flag[2:].replace("-", "_"), type=number)
    sp.add_argument("--nx", type=int)
    sp.add_argument("--ny", type=int)
    _add_common(sp)
    _finish(sp, cmd_eval)

    sp = sub.add_parser("zeros", help="constructed zeros of the branched product")
    _add_series_flags(sp)
    sp.add_argument("--max-m", dest="max_m", type=int)
    _add_common(sp)
    _finish(sp, cmd_zeros)

    sp = sub.add_parser("frequency", help="Almgren frequency along a radius ladder")
    sp.add_argument("--h", choices=_H_KINDS)
    sp.add_argument("--P", type=int)
    sp.add_argument("--Q", type=int)
    _add_series_flags(sp)
    sp.add_argument("--center")
    sp.add_argument("--radii")
    sp.add_argument("--log-scale", dest="log_scale", action="store_const", const=True)
    sp.add_argument("--rel-tol", dest="rel_tol", type=number)
    _add_common(sp)
    _finish(sp, cmd_frequency)

    sp = sub.add_parser("vanishing", help="L2 mass curves and vanishing-order slopes")
    sp.add_argument("--target", choices=_TARGETS)
    _add_series_flags(sp)
    sp.add_argument("--h", choices=_H_KINDS)
    sp.add_argument("--P", type=int)
    sp.add_argument("--Q", type=int)
    sp.add_argument("--value", type=number)
    sp.add_argument("--center")
    sp.add_argument("--ladder")
    sp.add_argument("--window", type=int)
    sp.add_argument("--rel-tol", dest="rel_tol", type=number)
    _add_common(sp)
    _finish(sp, cmd_vanishing)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, BranchCutError, SingularPointError) as exc:
        print(f"branchpoint-lab: invalid parameters: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"branchpoint-lab: runtime failure: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
