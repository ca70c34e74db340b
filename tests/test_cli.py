import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import transonic
import transonic.io as fio
import transonic.reduction as red_mod
from transonic.cli import build_parser, load_config, main
from transonic.grid import Symmetry, derivative, make_grid, zeros
from transonic.kernel import KernelSymbolParams, kernel_residue_eval
from transonic.linearized import _transport_norms
from transonic.lump import EPS_RANGES

SMALL = ["--nx", "64", "--ny", "64", "--Lx", "20", "--Ly", "20"]


def run_cli(args, capsys=None):
    return main(args)


def test_epsilon_guard_exit_code():
    assert main(["construct", "--epsilon", "0.9"] + SMALL) == 1


def test_coarse_grid_guard_is_a_solver_verdict(tmp_path, capsys):
    # eps = 0.1 is in range; the transport amplitude guard fires because a
    # 64-point axis is too coarse for a 40 box, which is a solver verdict
    code = main(["construct", "--nx", "64", "--ny", "64", "--Lx", "40", "--Ly", "40",
                 "--epsilon", "0.1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "GuardViolated"


def test_integral_radii_guard():
    assert main(["kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--mode", "integral", "--Lx", "1.5"]) == 1


def test_lump_check(tmp_path, capsys):
    code = main(["lump-check", "--epsilon", "0.1"] + SMALL + ["--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lump_equation_residual_sup" in out
    assert (tmp_path / "lump.bin").exists()
    assert (tmp_path / "lump.json").exists()


def test_kernel_command(capsys):
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--x", "3", "--y", "2", "--nx", "128", "--ny", "128"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert {"residue_value", "fft_value", "discrepancy"} <= set(rec)


def test_kernel_compares_one_node(capsys):
    # both routes at the grid node nearest (3, 2): (2.5, 2.5) at dx = 1.25
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "1",
                 "--x", "3", "--y", "2", "--nx", "64", "--ny", "64"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["x"] == rec["y"] == 2.5
    p = KernelSymbolParams.normalized(0.2)
    assert rec["residue_value"] == kernel_residue_eval(p, 1, 1, 2.5, 2.5)
    assert rec["residue_value"] == pytest.approx(0.0111427, rel=1e-5)
    assert rec["discrepancy"] == pytest.approx(1.32e-4, rel=1e-2)


def test_kernel_node_at_origin(capsys):
    # (0.3, -0.2) rounds to the node at the origin, where the residue route
    # is singular: a validation error
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "1",
                 "--x", "0.3", "--y", "-0.2", "--nx", "64", "--ny", "64"])
    assert code == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "origin" in rec["message"]


def test_singular_integrand_is_a_solver_verdict(monkeypatch, capsys):
    # the scalar residue integrand divides by sqrt(D) and by powers of the
    # roots; a division by zero inside QUADPACK leaves main() as exit 2 with
    # one JSON line, not as a traceback
    import transonic.kernel as ker

    with pytest.raises(ZeroDivisionError):
        ker._integrand(KernelSymbolParams.normalized(0.2), 0, 0, 1.0)(0.0)
    roots = ker._scalar_roots
    monkeypatch.setattr(ker, "_scalar_roots", lambda p: lambda xi: (*roots(p)(xi)[:2], 0j))
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--x", "3", "--y", "2", "--nx", "64", "--ny", "64"])
    assert code == 2
    rec = _one_error_line(capsys)
    assert rec["error"] == "QuadratureNotConverged" and "singular" in rec["message"]


def test_unsettled_ball_tail_is_a_solver_verdict(monkeypatch, tmp_path, capsys):
    # shells that do not shrink (ratio 1: a diverging ball integral) give
    # no origin-tail estimate, so the scan gives up at its shell cap
    import transonic.kernel as ker

    monkeypatch.setattr(ker, "_ball_shells", lambda p, m, n, r: itertools.repeat(1.0))
    code = main(["kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "1", "--mode", "integral",
                 "--Lx", "2", "--out", str(tmp_path)])
    assert code == 2
    rec = _one_error_line(capsys)
    assert rec["error"] == "QuadratureNotConverged" and "did not settle" in rec["message"]
    assert not (tmp_path / "report.csv").exists()


def test_cli_import_leaves_kernel_layer_out(tmp_path):
    # only kernel and kernel-scan import the kernel layer and scipy.integrate
    # (a subprocess, since the test session has imported both)
    env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]))
    script = (
        "import sys\n"
        "from transonic.cli import main\n"
        "assert not {'transonic.kernel', 'scipy.integrate'} & set(sys.modules)\n"
        "assert main(['kernel', '--epsilon', '0.2', '--m', '1', '--n', '0', '--x', '3',"
        " '--y', '2', '--nx', '64', '--ny', '64']) == 0\n"
        "assert {'transonic.kernel', 'scipy.integrate'} <= set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["m"] == 1


def test_kernel_scan_far(tmp_path, capsys):
    code = main(["kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--mode", "far", "--Lx", "120", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0].startswith("m,n,preset")
    assert len(rows) == 4  # header + three rays


def test_kernel_scan_rows_echo_arguments(tmp_path):
    code = main(["kernel-scan", "--mode", "far", "--preset", "gp", "--m", "2", "--n", "0",
                 "--epsilon", "0.2", "--Lx", "120", "--out", str(tmp_path)])
    assert code == 0
    with (tmp_path / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert (row["m"], row["n"], row["preset"], row["epsilon"]) == ("2", "0", "gp", "0.2")


def test_eigen_and_norms(tmp_path, capsys):
    code = main(["eigen", "--epsilon", "0.1", "--k", "3"] + SMALL + ["--out", str(tmp_path)])
    assert code == 0
    rec = json.loads((tmp_path / "eigen.json").read_text())
    assert rec["negative_count"] == 1
    assert rec["seed"] == 7  # the default when --seed is omitted
    # LOBPCG gets the cosine coefficients inside the 2/3 mask: 21 x 22 at 64^2
    assert rec["unknowns"] == 21 * 22
    assert rec["solver"] == "lobpcg"
    assert rec["block"] == 3 + 1
    code = main(["norms", "--in", str(tmp_path / "phi1.bin"), "--epsilon", "0.1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].split(",")[0] == "a"


def test_eigen_explicit_seed_zero(tmp_path):
    code = main(["eigen", "--epsilon", "0.1", "--k", "3", "--seed", "0"] + SMALL
                + ["--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "eigen.json").read_text())["seed"] == 0


def test_eigen_honours_max_iter(tmp_path, capsys):
    # an iteration budget LOBPCG cannot meet is a solver error, not a silent
    # run at the eigen defaults
    code = main(["eigen", "--epsilon", "0.1", "--k", "3", "--max-iter", "5"] + SMALL
                + ["--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "NotConverged"
    assert not (tmp_path / "eigen.json").exists()


def test_every_package_error_has_one_exit_code():
    # a TransonicError leaves main() as exit 1 (validation) or 2 (solver
    # verdict), never as a traceback
    import inspect

    import transonic.cli as cli
    import transonic.errors as errors

    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.TransonicError) and c is not errors.TransonicError]
    assert len(classes) >= 7
    for c in classes:
        assert (c in cli.VALIDATION_ERRORS) + (c in cli.SOLVER_ERRORS) == 1, c.__name__


@pytest.mark.parametrize("how", ["flag", "config"])
def test_residual_explicit_out(tmp_path, monkeypatch, how):
    # an explicit output directory wins even when it is the default "runs"
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--epsilon", "0.2", "--tol", "1e-6", "--out", "c"] + SMALL) == 0
    if how == "flag":
        out = ["--out", "runs"]
    else:
        (tmp_path / "cfg.json").write_text('{"out_dir": "runs"}')
        out = ["--config", "cfg.json"]
    assert main(["residual", "--in", "c"] + out) == 0
    assert (tmp_path / "runs" / "gp_residual.json").exists()
    assert not (tmp_path / "c" / "gp_residual.json").exists()


def test_config_file_and_override(tmp_path, capsys):
    cfg = {"epsilon": 0.2, "nx": 64, "ny": 64, "Lx": 20, "Ly": 20}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["lump-check", "--config", str(cfg_path), "--epsilon", "0.1",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "lump_check.json").read_text())
    assert rec["epsilon"] == 0.1  # flag wins over config file


def test_unknown_config_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"epsilonn": 0.1}')
    assert main(["lump-check", "--config", str(p)]) == 1


def _one_error_line(capsys) -> dict:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def test_config_top_level_not_object(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('[{"epsilon": 0.1}]')
    assert main(["lump-check", "--config", str(p)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "object" in rec["message"]


def test_config_value_wrong_type(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"nx": "abc"}')
    assert main(["lump-check", "--config", str(p)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "'nx'" in rec["message"]


@pytest.mark.parametrize("command", ["norms", "residual"])
def test_sidecar_missing_key(tmp_path, capsys, command):
    grid = make_grid(16, 16, 5, 5)
    fio.write_field(tmp_path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    sidecar = tmp_path / "phi.json"
    meta = json.loads(sidecar.read_text())
    del meta["Lx"]
    sidecar.write_text(json.dumps(meta))
    flag = str(tmp_path / "phi.bin") if command == "norms" else str(tmp_path)
    assert main([command, "--in", flag, "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "'Lx'" in rec["message"]


@pytest.mark.parametrize("command", ["norms", "residual"])
@pytest.mark.parametrize(
    "key, value", [("nx", "16"), ("nx", 16.0), ("ny", True), ("Lx", None), ("Ly", "5")]
)
def test_sidecar_value_wrong_type(tmp_path, capsys, command, key, value):
    # a grid value of the wrong type is a validation error naming the key,
    # not a TypeError traceback from inside make_grid
    grid = make_grid(16, 16, 5, 5)
    fio.write_field(tmp_path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    fio.write_field(tmp_path, "f2", zeros(grid, Symmetry.EVEN_X_EVEN_Y))
    sidecar = tmp_path / "phi.json"
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    flag = str(tmp_path / "phi.bin") if command == "norms" else str(tmp_path)
    assert main([command, "--in", flag, "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and repr(key) in rec["message"]


# the epsilon just outside each end of every subcommand's range, and just
# inside it where the end is open
EPS_EDGES = {
    "lump-check": (-1e-3, 0.0, 0.499, 0.5),
    "eigen": (-1e-3, 0.0, 0.499, 0.5),
    "norms": (-1e-3, 0.0, 0.499, 0.5),
    "kernel": (0.0, 1e-3, 0.5, 0.501),
    "kernel-scan": (0.0, 1e-3, 0.5, 0.501),
    "construct": (-1e-3, 0.0, 0.3, 0.301),
    "residual": (-1e-3, 0.0, 0.3, 0.301),
}
EPS_FLAGS = {
    "kernel": ["--m", "1", "--n", "0", "--x", "1", "--y", "1"],
    "kernel-scan": ["--m", "1", "--n", "0"],
    "norms": ["--in", "missing.bin"],
    "residual": ["--in", "missing"],
}


@pytest.mark.parametrize("command, side", [(c, s) for c in EPS_EDGES for s in ("low", "high")])
def test_epsilon_range_checked_before_work(tmp_path, capsys, command, side):
    # out of range: exit 1 with one JSON line naming the subcommand's range,
    # before any input is read or output written; the edge itself is accepted
    low_out, low_in, high_in, high_out = EPS_EDGES[command]
    outside, inside = (low_out, low_in) if side == "low" else (high_out, high_in)
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + SMALL + EPS_FLAGS.get(command, [])
    assert main(argv + ["--epsilon", str(outside)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError"
    assert EPS_RANGES[command] in rec["message"] and command in rec["message"]
    assert not out.exists()
    args = build_parser().parse_args(argv + ["--epsilon", str(inside)])
    assert load_config(args).epsilon == inside


def test_residual_checks_the_stored_epsilon(tmp_path, capsys):
    (tmp_path / "report.json").write_text('{"config": {"epsilon": 0.4}}')
    assert main(["residual", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "[0, 0.3]" in rec["message"]


@pytest.mark.parametrize("report", ["{}", '{"config": {}}', "[]"])
def test_residual_report_lacks_epsilon(tmp_path, capsys, report):
    # a report.json without config.epsilon is a validation error, not a traceback
    grid = make_grid(16, 16, 5, 5)
    fio.write_field(tmp_path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    fio.write_field(tmp_path, "f2", zeros(grid, Symmetry.EVEN_X_EVEN_Y))
    (tmp_path / "report.json").write_text(report)
    assert main(["residual", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "config.epsilon" in rec["message"]


@pytest.mark.parametrize("command", ["norms", "residual"])
def test_input_parity_checked(tmp_path, capsys, command):
    # the entry check is the only tag check on fields read from disk
    grid = make_grid(16, 16, 5, 5)
    fio.write_field(tmp_path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    fio.write_field(tmp_path, "f2", zeros(grid, Symmetry.EVEN_X_EVEN_Y))
    values = np.zeros((16, 16))
    values[3, 4] = 1.0  # no partner at the mirrored x index
    values.T.astype("<f8").tofile(tmp_path / "phi.bin")
    flag = str(tmp_path / "phi.bin") if command == "norms" else str(tmp_path)
    assert main([command, "--in", flag, "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "SymmetryViolation" and "odd_x_even_y" in rec["message"]


def test_untagged_sidecar_rejected(tmp_path, capsys):
    # "none" (an untagged field) is not one of the four parity classes
    np.zeros(16 * 16).astype("<f8").tofile(tmp_path / "phi.bin")
    meta = {"nx": 16, "ny": 16, "Lx": 5.0, "Ly": 5.0, "symmetry": "none", "quantity-name": "phi"}
    (tmp_path / "phi.json").write_text(json.dumps(meta))
    assert main(["norms", "--in", str(tmp_path / "phi.bin")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and str(tmp_path / "phi.json") in rec["message"]
    assert all(s.value in rec["message"] for s in Symmetry)


@pytest.mark.slow
def test_construct_residual_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["construct", "--epsilon", "0.2", "--nx", "128", "--ny", "128",
                 "--Lx", "30", "--Ly", "30", "--tol", "1e-7", "--out", str(out)])
    assert code == 0
    for name in ("phi", "f1", "f2", "g1"):
        assert (out / f"{name}.bin").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    # the report's star norm is the star column of norms.csv, one evaluation
    with (out / "norms.csv").open(newline="") as fh:
        (norms,) = csv.DictReader(fh)
    assert report["final_phi_star"] == float(norms["star"])
    capsys.readouterr()
    code = main(["residual", "--in", str(out)])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["res1_sup"] > 0
    assert (out / "gp_residual.json").exists()


def test_norms_of_construct_transport_fields(tmp_path, capsys):
    # f1 and f2 are even in x with no zero x-mean: the three dx^-1 summands,
    # and so star, are nan, and every other norm is reported
    assert main(["construct", "--epsilon", "0.1", "--out", str(tmp_path)] + SMALL) == 0
    for name in ("f1", "f2"):
        capsys.readouterr()
        path = tmp_path / f"{name}.bin"
        assert main(["norms", "--in", str(path), "--epsilon", "0.1"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        f = fio.read_field(path)
        qstar, pstar = _transport_norms(f, partial(derivative, f), 0.1, 0.1)
        assert float(row["qstar"]) == qstar and float(row["pstar"]) == pstar
        assert math.isnan(float(row["star"]))
        assert all(math.isfinite(float(v)) for k, v in row.items() if k != "star")


def test_construct_takes_spectral_f1_once(tmp_path, monkeypatch):
    # the spectral f1 of the state is taken when read, for f1.bin: once per
    # construct, not once per outer step
    calls = []
    f1_from_g1 = red_mod.f1_from_g1
    monkeypatch.setattr(red_mod, "f1_from_g1", lambda g1: calls.append(1) or f1_from_g1(g1))
    assert main(["construct", "--epsilon", "0.1", "--out", str(tmp_path)] + SMALL) == 0
    assert len(calls) == 1


def test_construct_threads_same_bytes(tmp_path):
    # --threads splits scipy.fft transforms across workers; every transform
    # of the package goes through it, and the fields are the same bytes
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["construct", "--epsilon", "0.1", "--threads", threads,
                     "--out", str(out)] + SMALL) == 0
        outs.append(out)
    for f in ("phi.bin", "f1.bin", "f2.bin", "g1.bin"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


@pytest.mark.slow
def test_construct_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["construct", "--epsilon", "0.2", "--nx", "64", "--ny", "64",
                     "--Lx", "20", "--Ly", "20", "--tol", "1e-6",
                     "--out", str(out)]) == 0
        outs.append(out)
    for f in ("phi.bin", "f1.bin", "f2.bin", "g1.bin"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()


def test_residual_grid_flags_checked(tmp_path, capsys):
    # grid flags that differ from the stored grid are a validation error;
    # matching ones are accepted
    run = tmp_path / "c"
    assert main(["construct", "--epsilon", "0.2", "--tol", "1e-6", "--out", str(run)] + SMALL) == 0
    assert main(["residual", "--in", str(run), "--out", str(tmp_path / "r")] + SMALL) == 0
    capsys.readouterr()
    for flag, value in (("--nx", "128"), ("--Ly", "25")):
        assert main(["residual", "--in", str(run), flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        rec = json.loads(err[0])
        assert rec["error"] == "ValueError" and flag in rec["message"]
    assert not (run / "gp_residual.json").exists()


@pytest.mark.parametrize("f2_grid", [(16, 16, 6.0, 5.0), (32, 16, 5.0, 5.0)], ids=["Lx", "nx"])
def test_residual_f2_grid_checked(tmp_path, capsys, f2_grid):
    # f2 from another box is a validation error naming both grids, not a
    # residual on phi's grid or a broadcast error
    fio.write_field(tmp_path, "phi", zeros(make_grid(16, 16, 5, 5), Symmetry.ODD_X_EVEN_Y))
    fio.write_field(tmp_path, "f2", zeros(make_grid(*f2_grid), Symmetry.EVEN_X_EVEN_Y))
    assert main(["residual", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError"
    assert "f2.json" in rec["message"] and "phi.json" in rec["message"]
    assert not (tmp_path / "o" / "gp_residual.json").exists()


def test_residual_grid_inside_edge_margin(tmp_path, capsys):
    # a 16^2 construction leaves no interior for the GP check: one error
    # line naming the grid and the margin, not numpy's empty-reduction error
    run = tmp_path / "c"
    grid = ["--nx", "16", "--ny", "16", "--Lx", "5", "--Ly", "5"]
    assert main(["construct", "--epsilon", "0.1", "--out", str(run)] + grid) == 0
    capsys.readouterr()
    assert main(["residual", "--in", str(run)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError"
    assert "EDGE_MARGIN" in rec["message"] and "nx = 16" in rec["message"]
    assert not (run / "gp_residual.json").exists()


def test_diverging_transport_one_error_line(tmp_path):
    # a diverging transport Picard stops at the first non-finite change; no
    # numpy warning reaches stderr (a subprocess, since pytest captures
    # warnings before they are printed)
    env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "transonic.cli", "construct", "--nx", "32", "--ny", "32",
         "--Lx", "40", "--Ly", "40", "--epsilon", "0.3", "--out", str(tmp_path / "c")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1
    rec = json.loads(err[0])
    assert rec["error"] == "NotConverged" and "diverged" in rec["message"]


@pytest.mark.parametrize("k", [6, 12])
def test_eigen_small_grid_dense_path(tmp_path, k):
    # at 16^2 the in-mask block (30 unknowns) is below five block widths
    # (5 (k + 1) = 35 and 65), so scipy solves it densely; its warning must
    # not reach stderr (a subprocess, since pytest captures warnings before
    # they are printed)
    env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "transonic.cli", "eigen", "--nx", "16", "--ny", "16",
         "--Lx", "10", "--Ly", "10", "--epsilon", "0.1", "--k", str(k),
         "--out", str(tmp_path / "e")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rec = json.loads((tmp_path / "e" / "eigen.json").read_text())
    assert rec["solver"] == "dense" and rec["iterations"] == 0
    assert rec["block"] == 0
    assert rec["unknowns"] == 5 * 6
    assert len(rec["eigenvalues"]) == k and rec["negative_count"] == 1
