import json

import pytest

import transonic.io as fio
import transonic.kernel as K
from transonic.cli import main
from transonic.grid import Symmetry, make_grid, zeros

SMALL = ["--nx", "64", "--ny", "64", "--Lx", "20", "--Ly", "20"]


def run_cli(args, capsys=None):
    return main(args)


def test_epsilon_guard_exit_code():
    assert main(["construct", "--epsilon", "0.9"] + SMALL) == 1


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


def test_kernel_scan_far(tmp_path, capsys):
    code = main(["kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--mode", "far", "--Lx", "120", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0].startswith("m,n,preset")
    assert len(rows) == 4  # header + three rays


def test_eigen_and_norms(tmp_path, capsys):
    code = main(["eigen", "--epsilon", "0.1", "--k", "3"] + SMALL + ["--out", str(tmp_path)])
    assert code == 0
    rec = json.loads((tmp_path / "eigen.json").read_text())
    assert rec["negative_count"] == 1
    assert rec["seed"] == 7  # the default when --seed is omitted
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


def test_kernel_fft_imaginary_residue_exit(monkeypatch, capsys):
    ratio = K._symbol_ratio
    # a purely imaginary inverse transform: the realness check must fire
    monkeypatch.setattr(K, "_symbol_ratio", lambda *a: 1j * ratio(*a))
    code = main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "0",
                 "--x", "3", "--y", "2", "--nx", "32", "--ny", "32"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ImaginaryResidue"


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
    capsys.readouterr()
    code = main(["residual", "--in", str(out)])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["res1_sup"] > 0
    assert (out / "gp_residual.json").exists()


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
