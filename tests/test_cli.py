import csv
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import transonic
import transonic.cli as cli_mod
import transonic.grid as grid_module
import transonic.io as fio
import transonic.kernel as ker_mod
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


def test_integral_radii_guard(tmp_path, monkeypatch):
    # rejected before the default output directory "runs" is made
    monkeypatch.chdir(tmp_path)
    assert main(["kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--mode", "integral", "--Lx", "1.5"]) == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("m, n", [(0, 0), (4, 0)])
def test_kernel_scan_order_checked_before_output(tmp_path, capsys, m, n):
    # an order the residue route does not take leaves no output directory
    out = tmp_path / "out"
    assert main(["kernel-scan", "--epsilon", "0.2", "--m", str(m), "--n", str(n),
                 "--out", str(out)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and f"({m}, {n})" in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 300])
def test_eigen_count_checked_before_output(tmp_path, capsys, k):
    # a 16^2 grid has (16/2)(16/2 + 1) = 72 coefficients in the subspace
    out = tmp_path / "out"
    assert main(["eigen", "--nx", "16", "--ny", "16", "--Lx", "10", "--Ly", "10",
                 "--epsilon", "0.1", "--k", str(k), "--out", str(out)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "[2, 72]" in rec["message"]
    assert not out.exists()


def test_lump_check(tmp_path, capsys):
    code = main(["lump-check", "--epsilon", "0.1"] + SMALL + ["--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lump_equation_residual_sup" in out
    assert (tmp_path / "lump.bin").exists()
    assert (tmp_path / "lump.json").exists()


# the flags besides --Lx each subcommand that reads --Lx needs
LX_FLAGS = {
    "lump-check": SMALL,
    "kernel": SMALL + ["--m", "1", "--n", "0", "--x", "1", "--y", "1"],
    "kernel-scan": ["--m", "1", "--n", "0"],
    "eigen": SMALL,
    "construct": SMALL,
}


@pytest.mark.parametrize("command, flag", [(c, f) for c in sorted(LX_FLAGS) for f in ("--Lx", "--Ly")
                                           if (c, f) != ("kernel-scan", "--Ly")])
@pytest.mark.parametrize("value", ["inf", "nan", "-5", "0"])
def test_halfwidth_must_be_finite_and_positive(tmp_path, capsys, command, flag, value):
    # refused before any work and before the output directory is made,
    # including by kernel-scan, which builds no grid from --Lx
    out = tmp_path / "out"
    argv = [command] + LX_FLAGS[command] + [flag, value]
    assert main(argv + (["--out", str(out)] if command != "kernel" else [])) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and flag[2:] in rec["message"]
    assert not out.exists()


@pytest.mark.parametrize("x, y", [(1e9, 2.0), (-10.5, 2.0), (3.0, 10.01), (math.inf, 0.0),
                                  (math.nan, 1.0)])
def test_kernel_point_outside_the_box(capsys, x, y):
    # |x| > Lx or |y| > Ly is refused, not wrapped onto a node inside the box
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "0", "--x", str(x),
                 "--y", str(y), "--nx", "16", "--ny", "16", "--Lx", "10", "--Ly", "10"])
    assert code == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "outside" in rec["message"]


def test_kernel_point_on_the_box_edge(capsys):
    # |x| = Lx is inside: x = Lx is the node -Lx, its periodic copy
    assert main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "0", "--x", "10",
                 "--y", "-10", "--nx", "16", "--ny", "16", "--Lx", "10", "--Ly", "10"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["x"] == rec["y"] == -10.0


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
    # the scalar residue integrand divides by sqrt(ab) and by the root gap
    # t of each node's row; a division by zero inside QUADPACK leaves main()
    # as exit 2 with one JSON line, not as a traceback
    import transonic.kernel as ker

    with pytest.raises(ZeroDivisionError):
        ker._integrand(KernelSymbolParams.normalized(0.2), 0, 0, 1.0)(0.0)
    rows = ker._row_builder
    monkeypatch.setattr(ker, "_row_builder",
                        lambda p, m, n: lambda xi: (*rows(p, m, n)(xi)[:2], 0.0, 1.0, 1.0))
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


def test_no_subcommand_loads_scipy_linalg(tmp_path):
    # construct and residual load none of scipy.sparse.linalg, scipy.linalg,
    # scipy.integrate and the kernel layer; eigen, whose LOBPCG is the
    # package's own, loads neither linalg either
    env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]))
    script = (
        "import sys\n"
        "from transonic.cli import main\n"
        "late = {'scipy.sparse.linalg', 'scipy.linalg', 'scipy.integrate', 'transonic.kernel'}\n"
        "assert not late & set(sys.modules), late & set(sys.modules)\n"
        "grid = ['--nx', '64', '--ny', '64', '--Lx', '20', '--Ly', '20']\n"
        "assert main(['construct', '--out', 'c'] + grid) == 0\n"
        "assert main(['residual', '--in', 'c']) == 0\n"
        "assert not late & set(sys.modules), late & set(sys.modules)\n"
        "assert main(['eigen', '--out', 'e'] + grid) == 0\n"
        "assert not late & set(sys.modules), late & set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_construct_bytes_independent_of_blas_threads(tmp_path):
    # MINRES sums its inner products pairwise, not by BLAS dot; at 256^2 the
    # BLAS dot's thread count changed every field, at 64^2 none
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "transonic.cli", "construct",
                               "--epsilon", "0.1", "--nx", "256", "--ny", "256",
                               "--out", f"t{threads}"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for f in ("phi.bin", "f1.bin", "f2.bin", "g1.bin"):
        assert (tmp_path / "t1" / f).read_bytes() == (tmp_path / "t2" / f).read_bytes(), f


@pytest.mark.slow
def test_eigen_bytes_independent_of_blas_threads(tmp_path):
    # LOBPCG's products are BLAS matrix-matrix ones, whose sums do not follow
    # the thread count; scipy's lobpcg changed phi0 and phi1 at 512^2, at
    # 64^2 (and 256^2) it did not
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "transonic.cli", "eigen",
                               "--epsilon", "0.1", "--nx", "512", "--ny", "512", "--k", "4",
                               "--seed", "2", "--out", f"t{threads}"],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for f in ("phi0.bin", "phi1.bin"):
        assert (tmp_path / "t1" / f).read_bytes() == (tmp_path / "t2" / f).read_bytes(), f


@pytest.mark.parametrize("eps", ["1e-12", "1e-10"])
def test_construct_at_tiny_epsilon(tmp_path, eps):
    # inside construct's [0, 0.3]: phi is rounding error there, which the
    # transport guard's floor lets through
    assert main(["construct", "--epsilon", eps, "--out", str(tmp_path)] + SMALL) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] and report["final_phi_star"] < 1e-12


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


# value checks made before any work: argv (with {out}, {in} and the config
# files {mode} and {tol} filled in), and a fragment of the message
REFUSALS = {
    "construct-delta-0": (["construct", *SMALL, "--delta", "0", "--out", "{out}"], "delta"),
    "norms-delta-high": (["norms", "--delta", "0.6", "--in", "{in}/phi.bin"], "delta"),
    "construct-tol-0": (["construct", *SMALL, "--tol", "0", "--out", "{out}"], "tol"),
    "eigen-tol-negative": (["eigen", *SMALL, "--tol", "-1e-7", "--out", "{out}"], "tol"),
    "construct-tol-inf": (["construct", *SMALL, "--tol", "inf", "--out", "{out}"], "tol"),
    "construct-tol-nan": (["construct", *SMALL, "--tol", "nan", "--out", "{out}"], "tol"),
    "eigen-tol-inf": (["eigen", *SMALL, "--tol", "inf", "--out", "{out}"], "tol"),
    "eigen-tol-nan": (["eigen", *SMALL, "--tol", "nan", "--out", "{out}"], "tol"),
    "config-tol-nan": (["construct", *SMALL, "--config", "{tol}", "--out", "{out}"], "tol"),
    "construct-max-iter-0": (["construct", *SMALL, "--max-iter", "0", "--out", "{out}"],
                             "max-iter"),
    "eigen-max-iter-0": (["eigen", *SMALL, "--max-iter", "0", "--out", "{out}"], "max-iter"),
    "config-mode-choice": (["kernel-scan", "--m", "1", "--n", "0", "--config", "{mode}",
                            "--out", "{out}"], "'mode'"),
    "short-bin": (["residual", "--in", "{in}", "--out", "{out}"], "samples"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_before_output(tmp_path, capsys, monkeypatch, case):
    # exit 1 with one JSON line before any work and before the output
    # directory is made; the input's phi.bin holds one sample fewer than its
    # sidecar says
    for mod, name in ((cli_mod, "outer_fixed_point"), (cli_mod, "eigen_extremes"),
                      (cli_mod, "norm_suite"), (ker_mod, "decay_scan"),
                      (cli_mod, "gp_system_residual")):
        monkeypatch.setattr(mod, name, _refuse)
    src = tmp_path / "in"
    fio.write_field(src, "phi", zeros(make_grid(16, 16, 5, 5), Symmetry.ODD_X_EVEN_Y))
    (src / "phi.bin").write_bytes((src / "phi.bin").read_bytes()[:-8])
    (tmp_path / "mode.json").write_text('{"mode": "sideways"}')
    (tmp_path / "tol.json").write_text('{"tol": NaN}')
    out = tmp_path / "out"
    argv, fragment = REFUSALS[case]
    filled = [a.format(out=out, mode=tmp_path / "mode.json", tol=tmp_path / "tol.json",
                       **{"in": src}) for a in argv]
    assert main(filled) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and fragment in rec["message"], rec
    assert not out.exists()


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


def test_config_threads_key_unknown(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text('{"threads": 2}')
    assert main(["lump-check", "--config", str(p)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "'threads'" in rec["message"]


@pytest.mark.parametrize("argv", [["--threads", "2"], ["--nx", "abc"], ["--bogus"]],
                         ids=["threads", "bad-int", "unknown"])
def test_usage_error_one_json_line(capsys, argv):
    # argparse's own exit is 2, the solver-verdict code, with its usage text;
    # a usage error leaves as a validation error instead
    assert main(["construct"] + argv) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and argv[0] in rec["message"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


def _in_flags(path, command):
    """norms reads phi.bin from ``path``; residual reads the directory and
    writes into ``path``/o."""
    if command == "norms":
        return ["--in", str(path / "phi.bin")]
    return ["--in", str(path), "--out", str(path / "o")]


@pytest.mark.parametrize("command", ["norms", "residual"])
def test_sidecar_missing_key(tmp_path, capsys, command):
    grid = make_grid(16, 16, 5, 5)
    fio.write_field(tmp_path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    sidecar = tmp_path / "phi.json"
    meta = json.loads(sidecar.read_text())
    del meta["Lx"]
    sidecar.write_text(json.dumps(meta))
    assert main([command] + _in_flags(tmp_path, command)) == 1
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
    assert main([command] + _in_flags(tmp_path, command)) == 1
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
    "residual": (0.0, 1e-3, 0.3, 0.301),
}
# the flags each subcommand needs besides epsilon, all of them flags it reads
EPS_FLAGS = {
    "lump-check": SMALL,
    "eigen": SMALL,
    "norms": ["--in", "missing.bin"],
    "kernel": SMALL + ["--m", "1", "--n", "0", "--x", "1", "--y", "1"],
    "kernel-scan": ["--Lx", "20", "--m", "1", "--n", "0"],
    "construct": SMALL,
}


def _construction(path, epsilon=None, n=64, L=20):
    """A construct directory of zero fields; report.json stores ``epsilon``."""
    grid = make_grid(n, n, L, L)
    fio.write_field(path, "phi", zeros(grid, Symmetry.ODD_X_EVEN_Y))
    fio.write_field(path, "f2", zeros(grid, Symmetry.EVEN_X_EVEN_Y))
    if epsilon is not None:
        (path / "report.json").write_text(json.dumps({"config": {"epsilon": epsilon}}))
    return path


class _Reached(Exception):
    pass


def _reached(state, f2):
    raise _Reached(state.eps)


@pytest.mark.parametrize("command, side", [(c, s) for c in EPS_EDGES for s in ("low", "high")])
def test_epsilon_range_checked_before_work(tmp_path, capsys, monkeypatch, command, side):
    # out of range: exit 1 with one JSON line naming the subcommand's range,
    # before any output is written; the edge itself is accepted.  residual
    # reads epsilon from report.json, every other subcommand from --epsilon
    low_out, low_in, high_in, high_out = EPS_EDGES[command]
    outside, inside = (low_out, low_in) if side == "low" else (high_out, high_in)
    out = tmp_path / "out"
    reads_out = command not in ("kernel", "norms")
    if command == "residual":
        run = tmp_path / "c"
        _construction(run, outside)
        assert main(["residual", "--in", str(run), "--out", str(out)]) == 1
    else:
        argv = [command] + EPS_FLAGS[command] + (["--out", str(out)] if reads_out else [])
        assert main(argv + ["--epsilon", str(outside)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError"
    assert EPS_RANGES[command] in rec["message"] and command in rec["message"]
    assert not out.exists()
    if command == "residual":
        _construction(run, inside)
        monkeypatch.setattr(cli_mod, "gp_system_residual", _reached)
        with pytest.raises(_Reached) as hit:
            main(["residual", "--in", str(run), "--out", str(out)])
        assert hit.value.args == (inside,)
    else:
        args = build_parser().parse_args(argv + ["--epsilon", str(inside)])
        assert load_config(args).epsilon == inside


def test_residual_checks_the_stored_epsilon(tmp_path, capsys):
    _construction(tmp_path, 0.4, n=16, L=5)
    assert main(["residual", "--in", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "(0, 0.3]" in rec["message"]


@pytest.mark.parametrize("report", ["{}", '{"config": {}}', "[]", '{"config": {"epsilon": [0.1]}}',
                                    '{"config": {"epsilon": true}}'])
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
    assert main([command] + _in_flags(tmp_path, command)) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "SymmetryViolation" and "odd_x_even_y" in rec["message"]


def test_missing_field_names_the_bin(tmp_path, capsys):
    # neither file exists: the error names the .bin that was asked for
    missing = tmp_path / "nothere.bin"
    assert main(["norms", "--in", str(missing)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "FileNotFoundError" and str(missing) in rec["message"]


def test_untagged_sidecar_rejected(tmp_path, capsys):
    # "none" (an untagged field) is not one of the four parity classes
    np.zeros(16 * 16).astype("<f8").tofile(tmp_path / "phi.bin")
    meta = {"nx": 16, "ny": 16, "Lx": 5.0, "Ly": 5.0, "symmetry": "none", "quantity-name": "phi"}
    (tmp_path / "phi.json").write_text(json.dumps(meta))
    assert main(["norms", "--in", str(tmp_path / "phi.bin")]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and str(tmp_path / "phi.json") in rec["message"]
    assert all(s.value in rec["message"] for s in Symmetry)


def _refuse(*args, **kwargs):
    raise AssertionError("the work ran before the output directory was made")


@pytest.mark.parametrize("command", ["lump-check", "construct", "eigen", "kernel-scan", "residual"])
def test_output_path_that_is_a_file(tmp_path, capsys, monkeypatch, command):
    # an --out naming an existing file fails before any work, as one JSON line
    for mod, name in ((cli_mod, "kpi_residual"), (cli_mod, "outer_fixed_point"),
                      (cli_mod, "eigen_extremes"), (ker_mod, "decay_scan"),
                      (cli_mod, "gp_system_residual")):
        monkeypatch.setattr(mod, name, _refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "residual":
        argv = ["--in", str(_construction(tmp_path / "c", 0.1))]
    else:
        argv = ["--epsilon", "0.1"] + EPS_FLAGS[command]
    assert main([command, "--out", str(blocker)] + argv) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "FileExistsError" and str(blocker) in rec["message"]


def test_construct_checks_no_field_it_builds(tmp_path, monkeypatch):
    # every field of a construction is built in its class (``grid._tagged``),
    # so the public constructor's parity check never runs
    calls = []
    real = grid_module._symmetry_defect
    monkeypatch.setattr(grid_module, "_symmetry_defect", lambda *a: calls.append(a) or real(*a))
    assert main(["construct", "--epsilon", "0.1", "--out", str(tmp_path)] + SMALL) == 0
    assert not calls


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


@pytest.fixture(scope="module")
def construction(tmp_path_factory):
    """A 64^2, Lx = Ly = 20 construction at epsilon 0.2: neither the default
    grid nor the default epsilon."""
    run = tmp_path_factory.mktemp("construct") / "c"
    assert main(["construct", "--epsilon", "0.2", "--tol", "1e-6", "--out", str(run)] + SMALL) == 0
    return run


def test_residual_grid_flags_checked(construction, tmp_path, capsys, monkeypatch):
    # residual takes no grid flag, not even a matching one: it runs on the
    # grid of the stored fields
    for flags in (SMALL, ["--nx", "128"], ["--Ly", "25"]):
        assert main(["residual", "--in", str(construction), "--out", str(tmp_path / "r")]
                    + flags) == 1
        rec = _one_error_line(capsys)
        assert rec["error"] == "ValueError"
        assert rec["message"] == f"transonic residual does not read {' '.join(flags)}"
    assert not (tmp_path / "r").exists()
    grids = []
    real = cli_mod.gp_system_residual
    monkeypatch.setattr(cli_mod, "gp_system_residual",
                        lambda state, f2: grids.append(state.grid) or real(state, f2))
    assert main(["residual", "--in", str(construction), "--out", str(tmp_path / "r")]) == 0
    assert grids == [make_grid(64, 64, 20, 20)]


def test_residual_epsilon_flag_checked(construction, tmp_path, capsys):
    # residual takes no --epsilon: it runs at the construction's, 0.2, not
    # at the default 0.1
    assert main(["residual", "--in", str(construction), "--epsilon", "0.2"]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError" and "--epsilon 0.2" in rec["message"]
    assert not (construction / "gp_residual.json").exists()
    assert main(["residual", "--in", str(construction), "--out", str(tmp_path / "r")]) == 0
    assert json.loads(capsys.readouterr().out)["eps"] == 0.2


def test_residual_needs_report(construction, tmp_path, capsys):
    # without report.json there is no epsilon to run at: exit 1 naming the
    # file, and nothing written
    run = tmp_path / "c"
    shutil.copytree(construction, run)
    (run / "report.json").unlink()
    before = sorted(run.iterdir())
    assert main(["residual", "--in", str(run)]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "FileNotFoundError" and str(run / "report.json") in rec["message"]
    assert sorted(run.iterdir()) == before


# the value flags each subcommand reads, as README's flag table lists them
READS = {
    "lump-check": {"--epsilon", "--nx", "--ny", "--Lx", "--Ly", "--out"},
    "kernel": {"--epsilon", "--nx", "--ny", "--Lx", "--Ly", "--preset", "--m", "--n", "--x",
               "--y"},
    "kernel-scan": {"--epsilon", "--Lx", "--preset", "--out", "--m", "--n", "--mode"},
    "eigen": {"--epsilon", "--nx", "--ny", "--Lx", "--Ly", "--tol", "--max-iter", "--seed",
              "--out", "--k"},
    "norms": {"--epsilon", "--delta", "--in"},
    "construct": {"--epsilon", "--nx", "--ny", "--Lx", "--Ly", "--delta", "--tol", "--max-iter",
                  "--out"},
    "residual": {"--in", "--out"},
}
# a valid value of every value flag
VALUES = {"--epsilon": "0.2", "--nx": "64", "--ny": "64", "--Lx": "20", "--Ly": "20",
          "--delta": "0.2", "--tol": "1e-6", "--max-iter": "50", "--seed": "3", "--preset": "gp",
          "--mode": "near", "--k": "3", "--m": "1", "--n": "0", "--x": "3", "--y": "2",
          "--in": "c", "--out": "o"}
REQUIRED = {"kernel": ["--m", "--n", "--x", "--y"], "kernel-scan": ["--m", "--n"],
            "norms": ["--in"], "residual": ["--in"]}


def _argv(command, flags):
    return [command] + [a for f in flags for a in (f, VALUES[f])]


@pytest.mark.parametrize("command, flag",
                         [(c, f) for c in READS for f in sorted(set(VALUES) - READS[c])])
def test_unread_flag_rejected(tmp_path, monkeypatch, capsys, command, flag):
    # a value flag the subcommand does not read is a usage error, before any
    # output directory is made
    monkeypatch.chdir(tmp_path)
    flags = REQUIRED.get(command, []) + (["--out"] if "--out" in READS[command] else [])
    assert main(_argv(command, flags + [flag])) == 1
    rec = _one_error_line(capsys)
    assert rec == {"error": "ValueError",
                   "message": f"transonic {command} does not read {flag} {VALUES[flag]}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(READS))
def test_every_flag_read_is_taken(command):
    args = load_config(build_parser().parse_args(_argv(command, sorted(READS[command]))))
    assert args.command == command


@pytest.mark.parametrize("command, key", [("eigen", "delta"), ("residual", "epsilon")])
def test_unread_config_key_rejected(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: 0.2}))
    flags = REQUIRED.get(command, []) + ["--out"]
    assert main(_argv(command, flags) + ["--config", "cfg.json"]) == 1
    rec = _one_error_line(capsys)
    assert rec["error"] == "ValueError"
    assert repr(key) in rec["message"] and command in rec["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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


def test_quadpack_warning_is_one_error_line(tmp_path):
    # QUADPACK's roundoff warning on a ball-scan panel is the solver verdict
    # QuadratureNotConverged, and none of its lines reach stderr (a
    # subprocess, since pytest captures warnings before they are printed)
    env = dict(os.environ, PYTHONPATH=str(Path(transonic.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "transonic.cli", "kernel-scan", "--epsilon", "0.2",
         "--mode", "integral", "--m", "3", "--n", "0", "--out", str(tmp_path / "ks")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1
    rec = json.loads(err[0])
    assert rec["error"] == "QuadratureNotConverged" and "QUADPACK" in rec["message"]


@pytest.mark.parametrize("k", [6, 12])
def test_eigen_small_grid_dense_path(tmp_path, k):
    # at 16^2 the in-mask block (30 unknowns) is below five block widths
    # (5 (k + 1) = 35 and 65), so it is solved densely; nothing may reach
    # stderr (a subprocess, since pytest captures warnings before
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
