import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from branchpoint_lab import (
    CantorSet,
    MinimizerSpec,
    Monomial,
    SeriesParams,
    __version__,
    branched_product,
    decay_factor,
    frequency,
)
from branchpoint_lab.cli import main, read_json, read_rows


def test_imports_load_no_scipy():
    """The package runs on numpy alone; scipy is only a test reference."""
    import branchpoint_lab

    src = os.path.dirname(os.path.dirname(branchpoint_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for mod in ("branchpoint_lab", "branchpoint_lab.cli"):
        code = f"import sys, {mod}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]", (mod, out.stdout)


def _run_to_file(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--output", str(out)])
    return rc, out


def test_cantor_json(tmp_path):
    rc, out = _run_to_file(tmp_path, "c.json", ["cantor", "--s", "0.5", "--depth", "10"])
    assert rc == 0
    first = out.read_text(encoding="utf-8").splitlines()[0]
    assert first == f"# branchpoint-lab v{__version__} cantor"
    data = read_json(str(out))
    assert len(data["set"]["intervals"]) == 2**11 - 1
    assert all(row["cover_sum"] == pytest.approx(1.0, rel=1e-12) for row in data["cover_sums"])


def test_cantor_borderline_column(tmp_path):
    rc, out = _run_to_file(tmp_path, "c1.json", ["cantor", "--s", "1", "--depth", "8"])
    assert rc == 0
    data = read_json(str(out))
    sums = [row["cover_sum"] for row in data["cover_sums"]]
    for k, v in enumerate(sums, start=1):
        assert v == pytest.approx(2.0 ** (-(k ** (2.0 / 3.0))), rel=1e-12)
    assert all(b < a for a, b in zip(sums, sums[1:]))


def test_cantor_validation_exit_code(capsys):
    rc = main(["cantor", "--s", "1.5", "--depth", "4"])
    assert rc == 2
    assert "(0, 1]" in capsys.readouterr().err


def test_zeros_table(tmp_path):
    rc, out = _run_to_file(
        tmp_path, "z.csv", ["zeros", "--s", "0.5", "--max-gen", "4", "--max-m", "5"]
    )
    assert rc == 0
    header, rows = read_rows(str(out))
    assert header == ["gen", "pos", "m", "y_tau", "log_offset", "cos_residual", "g_log_mag"]
    assert len(rows) == (2 + 4 + 8 + 16) * 5
    assert all(float(r[5]) <= 1e-12 for r in rows)
    assert all(float(r[6]) == -math.inf for r in rows)


def test_eval_grid(tmp_path):
    rc, out = _run_to_file(
        tmp_path,
        "e.csv",
        ["eval", "--s", "0.5", "--max-gen", "8", "--nx", "4", "--ny", "3"],
    )
    assert rc == 0
    header, rows = read_rows(str(out))
    assert header == ["re", "im", "logMag_f", "arg_f", "logMag_g", "arg_g",
                      "d_lower", "tail_bound"]
    assert len(rows) == 12
    for r in rows:
        assert float(r[2]) <= 1e-12  # |f| <= 1 on the half-plane
        assert float(r[6]) > 0.0


def test_frequency_monomial(tmp_path):
    rc, out = _run_to_file(
        tmp_path,
        "f.csv",
        ["frequency", "--h", "monomial", "--P", "1", "--Q", "2",
         "--center", "0,0", "--radii", "0.25,0.5"],
    )
    assert rc == 0
    header, rows = read_rows(str(out))
    assert header == ["center_re", "center_im", "r", "D", "H", "I", "err"]
    for r in rows:
        assert float(r[5]) == pytest.approx(0.5, abs=1e-6)


def test_frequency_off_centre_monomial(tmp_path):
    # the zero of z^3 lies outside both arcs, so phi takes both signs on them
    rc, out = _run_to_file(
        tmp_path,
        "f.csv",
        ["frequency", "--h", "monomial", "--P", "3", "--Q", "2",
         "--center", "0.3,0", "--radii", "0.1,0.2"],
    )
    assert rc == 0
    _, rows = read_rows(str(out))
    spec = MinimizerSpec(h=Monomial(P=3), Q=2)
    for row, r in zip(rows, (0.1, 0.2)):
        fs = frequency(spec, 0.3 + 0j, r)
        assert [float(x) for x in row[3:]] == [fs.D, fs.H, fs.I, fs.quadrature_error]
    assert len(rows) == 2


def test_vanishing_constant(tmp_path):
    rc, out = _run_to_file(
        tmp_path,
        "v.csv",
        ["vanishing", "--target", "constant", "--value", "2.0", "--center", "0,0",
         "--ladder", "0.4,0.2,0.1,0.05", "--window", "2"],
    )
    assert rc == 0
    header, rows = read_rows(str(out))
    assert header == ["center_re", "center_im", "R", "logMass", "slope_window_id"]
    assert len(rows) == 4
    got = float(rows[0][3])
    assert got == pytest.approx(math.log(math.pi * 0.16 * 4.0), abs=1e-6)


def test_vanishing_q_minimizer(tmp_path):
    # |u|^2 = Q|z|^(2P/Q): logMass has slope 2P/Q + 2 = 5 on every window
    rc, out = _run_to_file(
        tmp_path,
        "q.csv",
        ["vanishing", "--target", "q_minimizer", "--h", "monomial", "--P", "3", "--Q", "2",
         "--ladder", "0.2,0.1,0.05"],
    )
    assert rc == 0
    _, rows = read_rows(str(out))
    assert len(rows) == 3
    lines = out.read_text(encoding="utf-8").splitlines()
    slopes = [float(line.rsplit(":", 1)[1]) for line in lines if line.startswith("# slope")]
    assert len(slopes) == 1
    assert slopes[0] == pytest.approx(5.0, abs=1e-8)


@pytest.mark.parametrize("ladder", ["0.1,0.2", "0.2,0.2", "0.2,-0.1"])
def test_vanishing_rejects_a_bad_ladder_before_quadrature(ladder, capsys, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran on an invalid ladder")

    monkeypatch.setattr("branchpoint_lab.vanishing.log_disk_integral", no_quadrature)
    rc = main(["vanishing", "--target", "constant", "--ladder", ladder])
    assert rc == 2
    assert "descending" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["eval", "--nx", "0"], "nx"),
        (["eval", "--nx", "-2"], "nx"),
        (["eval", "--ny", "0"], "ny"),
        (["frequency", "--h", "monomial", "--radii", ","], "radii"),
        (["zeros", "--max-m", "0"], "max_m"),
        (["vanishing", "--window", "0"], "window"),
        (["vanishing", "--window", "13"], "window"),  # the default ladder has 12 rungs
    ],
    ids=["nx_zero", "nx_negative", "ny_zero", "radii_empty", "max_m_zero", "window_zero",
         "window_past_ladder"],
)
def test_empty_sizes_are_invalid_before_any_computation(tmp_path, capsys, monkeypatch, argv, named):
    def no_computation(*args, **kwargs):
        raise AssertionError("computed on an invalid size")

    for name in ("evaluate_many", "product_zero", "mass_curve"):
        monkeypatch.setattr(f"branchpoint_lab.cli.{name}", no_computation)
    # the package's `frequency` attribute is the function, not the module
    monkeypatch.setattr(sys.modules["branchpoint_lab.frequency"], "frequency", no_computation)
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_determinism(tmp_path):
    args = ["eval", "--s", "0.5", "--max-gen", "6", "--nx", "3", "--ny", "3"]
    _, out1 = _run_to_file(tmp_path, "a.csv", args)
    _, out2 = _run_to_file(tmp_path, "b.csv", args)
    assert out1.read_bytes() == out2.read_bytes()


def test_line_endings_are_lf(tmp_path):
    _, out = _run_to_file(tmp_path, "lf.csv",
                          ["zeros", "--s", "0.5", "--max-gen", "2", "--max-m", "2"])
    raw = out.read_bytes()
    assert b"\r" not in raw


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 0.5, "depth": 4}), encoding="utf-8")
    # config supplies both values
    rc, out = _run_to_file(tmp_path, "c2.json", ["cantor", "--config", str(cfg)])
    assert rc == 0
    assert read_json(str(out))["set"]["depth"] == 4
    # an explicit flag overrides the config file
    rc, out = _run_to_file(
        tmp_path, "c3.json", ["cantor", "--config", str(cfg), "--depth", "6"]
    )
    assert rc == 0
    assert read_json(str(out))["set"]["depth"] == 6


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["cantor", "--config", str(cfg)]) == 2


def test_runtime_failure_exit_code(tmp_path, capsys):
    # an absurdly tight tolerance on a rough integrand cannot converge: exit 3
    rc = main(
        ["frequency", "--h", "series_factor", "--s", "0.5", "--max-gen", "10",
         "--Q", "2", "--center", "0,0", "--radii", "0.2", "--rel-tol", "1e-12"]
    )
    assert rc == 3


def test_bad_center_literal():
    rc = main(
        ["frequency", "--h", "monomial", "--P", "1", "--Q", "2", "--center", "zero",
         "--radii", "0.5"]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (["frequency", "--h", "monomial", "--radii", "nan"], None),
        (["frequency", "--h", "monomial", "--center", "nan,0", "--radii", "0.5"], None),
        (["frequency", "--h", "monomial", "--radii", "0.5", "--rel-tol", "nan"], None),
        (["vanishing", "--target", "constant", "--ladder", "0.2,0.1", "--value", "inf"], None),
        (["vanishing", "--target", "constant", "--ladder", "0.2,0.1"], {"value": math.nan}),
    ],
    ids=["radii", "center", "rel_tol", "value", "config_value"],
)
def test_non_finite_numbers_are_invalid(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")  # writes NaN
        argv = argv + ["--config", str(path)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        rc = exc.code
    assert rc == 2


def test_eval_rows_match_pointwise(tmp_path):
    # 72 points: a full 64-point block and a partial one; the tail bound is
    # finite from distance 1 on and infinite near Re z = 0.05
    rc, out = _run_to_file(
        tmp_path, "e.csv",
        ["eval", "--s", "0.5", "--max-gen", "12", "--nx", "9", "--ny", "8", "--re-max", "2"],
    )
    assert rc == 0
    _, rows = read_rows(str(out))
    assert len(rows) == 72
    params = SeriesParams(s=0.5, max_gen=12)
    cs = CantorSet.build(0.5, 12)
    for row in rows:
        re, im, lf, af, lg, ag, d, tail = (float(x) for x in row)
        z = complex(re, im)
        f = decay_factor(params, cs, z)
        g = branched_product(params, cs, z)
        assert lf == f.value.log_mag and af == f.value.reduced_arg()
        assert lg == pytest.approx(g.value.log_mag, rel=1e-14, abs=1e-14)
        assert abs(math.remainder(ag - g.value.reduced_arg(), 2.0 * math.pi)) <= 1e-13
        assert d == cs.dist_to_boundary_rays_many(np.array([z]))[0]
        assert d == cs.dist_to_boundary_rays(z)[0]
        assert tail == g.tail_bound
    assert any(math.isinf(float(r[7])) for r in rows)
    assert any(math.isfinite(float(r[7])) for r in rows)


def test_failed_eval_writes_no_file(tmp_path):
    # the grid touches the boundary set at z = -1j, so eval exits 2
    argv = ["eval", "--re-min", "0", "--nx", "3", "--ny", "3", "--max-gen", "6"]
    rc, out = _run_to_file(tmp_path, "x.csv", argv)
    assert rc == 2
    assert not out.exists()
    out.write_text("earlier table\n", encoding="utf-8")
    assert main(argv + ["--output", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "earlier table\n"


def test_config_value_of_wrong_type_is_invalid(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    for values, argv in (
        ({"P": "x"}, ["frequency", "--h", "monomial", "--radii", "0.5"]),
        ({"max_gen": 2.5}, ["eval", "--nx", "2", "--ny", "2"]),
        ({"depth": [4]}, ["cantor"]),
        ({"s": True}, ["cantor"]),
    ):
        cfg.write_text(json.dumps(values), encoding="utf-8")
        assert main(argv + ["--config", str(cfg)]) == 2
    # a value the flag itself would accept still loads
    cfg.write_text(json.dumps({"depth": "4", "s": 0.5}), encoding="utf-8")
    rc, out = _run_to_file(tmp_path, "c.json", ["cantor", "--config", str(cfg)])
    assert rc == 0
    assert read_json(str(out))["set"]["depth"] == 4
    # an untyped flag takes a string: output 1 names a file, not descriptor 1
    monkeypatch.chdir(tmp_path)
    cfg.write_text(json.dumps({"output": 1, "depth": 2}), encoding="utf-8")
    assert main(["cantor", "--config", str(cfg)]) == 0
    assert read_json(str(tmp_path / "1"))["set"]["depth"] == 2


def test_config_key_that_names_no_option_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "c.json"
    # a misspelt key, and a key that is an option of another subcommand only
    # (eval's set is max_gen deep)
    for values, command, named in (({"dpeth": 3, "s": 0.5}, "cantor", "'dpeth'"),
                                   ({"nx": 4, "ny": 4}, "cantor", "'nx', 'ny'"),
                                   ({"depth": 4}, "eval", "'depth'")):
        cfg.write_text(json.dumps(values), encoding="utf-8")
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_config_switch_takes_only_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # H of z^120 underflows at r = 0.001 unless log_scale is on
    argv = ["frequency", "--P", "120", "--radii", "0.001", "--config", str(cfg)]
    for value in ("no", 1, 0, None, [True]):
        cfg.write_text(json.dumps({"log_scale": value}), encoding="utf-8")
        assert main(argv) == 2
        assert "log_scale" in capsys.readouterr().err
    cfg.write_text(json.dumps({"log_scale": True}), encoding="utf-8")
    rc, out = _run_to_file(tmp_path, "on.csv", argv)
    assert rc == 0
    assert float(read_rows(str(out))[1][0][5]) == pytest.approx(60.0, rel=1e-9)
    # false still loads: the switch stays off, as with no config at all
    cfg.write_text(json.dumps({"log_scale": False}), encoding="utf-8")
    assert main(argv) == 3
    assert "underflows" in capsys.readouterr().err
    small = ["frequency", "--P", "3", "--radii", "0.25,0.5"]
    rc, off = _run_to_file(tmp_path, "off.csv", small + ["--config", str(cfg)])
    rc_flagless, plain = _run_to_file(tmp_path, "plain.csv", small)
    assert rc == rc_flagless == 0
    assert off.read_bytes() == plain.read_bytes()
