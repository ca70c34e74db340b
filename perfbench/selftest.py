"""
Self-tests of the benchmark on tiny grids and one ray scan.

    python3 perfbench/selftest.py

Run from the repository root (about 10 s).  Checks that tracing leaves
every output byte-identical, that a perturbed reference value is flagged,
and that a non-zero exit, a run stopped at its time limit or a changed
.bin hash counts as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from run import Rep, run_rep, tally  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work" / "selftest"

TINY_CONSTRUCT = (
    "construct", "--epsilon", "0.2", "--nx", "64", "--ny", "64",
    "--Lx", "20", "--Ly", "20", "--tol", "1e-6", "--out", "{out}",
)
TINY_EIGEN = ("eigen", "--epsilon", "0.1", "--nx", "64", "--ny", "64", "--Lx", "20",
              "--Ly", "20", "--k", "3", "--seed", "3", "--out", "{out}")
RAY = ("kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "0", "--mode", "far", "--out", "{out}")

TINY = W.Workload("tiny", (
    W.Command("construct", TINY_CONSTRUCT),
    W.Command("residual", ("residual", "--in", "{rep}/construct", "--out", "{out}")),
    W.Command("eigen", TINY_EIGEN),
    W.Command("ray", RAY),
))


def snapshot(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.plain = run_rep(TINY, SRC, WORK, "same", trace=False)
        cls.plain_files = snapshot(WORK / "same")
        cls.traced = run_rep(TINY, SRC, WORK, "same", trace=True)
        cls.traced_files = snapshot(WORK / "same")
        cls.out = WORK / "kept"
        shutil.copytree(WORK / "same", cls.out)

    def test_commands_succeed(self):
        self.assertEqual(self.plain.failures, {})
        self.assertEqual(self.traced.failures, {})

    def test_tracing_changes_no_output_byte(self):
        self.assertTrue(any(name.endswith(".bin") for name in self.plain_files))
        self.assertEqual(sorted(self.plain_files), sorted(self.traced_files))
        for name, data in self.plain_files.items():
            self.assertEqual(data, self.traced_files[name], name)

    def test_trace_records_layers(self):
        spans = self.traced.result["spans"]
        counts = self.traced.result["counts"]
        for name in ("cli.construct", "cli.eigen", "cli.kernel-scan", "grid.RealField2D",
                     "reduction.outer_fixed_point", "linearized.lobpcg",
                     "kernel.kernel_residue_eval", "io.write_field"):
            self.assertGreater(spans.get(name, {}).get("calls", 0), 0, name)
        self.assertGreater(counts["linearized.lobpcg.A.cols"], 0)
        self.assertGreater(counts["kernel.quad.integrand_evals"], 0)
        for rec in spans.values():
            self.assertGreaterEqual(rec["self_s"], -1e-9)
            self.assertLessEqual(rec["self_s"], rec["total_s"] + 1e-9)

    def test_reference_values_and_perturbations(self):
        report = json.loads((self.out / "construct" / "report.json").read_text())
        gp = json.loads((self.out / "residual" / "gp_residual.json").read_text())
        eig = json.loads((self.out / "eigen" / "eigen.json").read_text())
        ref = {
            "iterations": report["iterations"],
            "converged": report["converged"],
            "final_phi_star": report["final_phi_star"],
            "energy": gp["energy"],
            "alpha": gp["alpha"],
            "gp_res_sup": W.gp_res_sup(gp),
        }
        eref = {k: eig[k] for k in ("lambda1", "lambda2", "negative_count")}
        self.assertEqual(W.check_construct(self.out / "construct", ref), [])
        self.assertEqual(W.check_residual(self.out / "residual", ref), [])
        self.assertEqual(W.check_eigen(self.out / "eigen", eref), [])

        perturbed = [
            ("final_phi_star", ref["final_phi_star"] * (1 + 1e-4), W.check_construct, "construct"),
            ("iterations", ref["iterations"] + 1, W.check_construct, "construct"),
            ("energy", ref["energy"] * (1 + 1e-4), W.check_residual, "residual"),
            ("gp_res_sup", ref["gp_res_sup"] * 0.9, W.check_residual, "residual"),
        ]
        for key, value, check, cmd in perturbed:
            with self.subTest(key=key):
                self.assertNotEqual(check(self.out / cmd, {**ref, key: value}), [])
        self.assertNotEqual(
            W.check_eigen(self.out / "eigen", {**eref, "lambda1": eref["lambda1"] + 1e-2}), [])
        self.assertNotEqual(
            W.check_eigen(self.out / "eigen", {**eref, "negative_count": 2}), [])

        slopes = tuple(float(r["fitted_slope"]) for r in W.csv_rows(self.out / "ray" / "report.csv"))
        self.assertEqual(W.slope_check(slopes)(self.out / "ray"), [])
        moved = (slopes[0] + 1e-4,) + slopes[1:]
        self.assertNotEqual(W.slope_check(moved)(self.out / "ray"), [])

    def test_nonzero_exit_is_a_failure(self):
        bad = W.Workload("bad", (
            W.Command("construct", ("construct", "--epsilon", "0.9", "--nx", "16", "--ny", "16",
                                    "--out", "{out}")),
        ))
        rep = run_rep(bad, SRC, WORK, "bad", trace=False)
        self.assertEqual(rep.result["commands"][0]["code"], 1)
        attempted, failed, reasons = tally(bad, [rep])
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("exit code 1", reasons["rep0/construct"])

    def test_run_stopped_at_the_time_limit_is_a_failure(self):
        rep = run_rep(TINY, SRC, WORK, "late", False, deadline=time.monotonic() + 0.2)
        self.assertEqual(rep.result, {})
        attempted, failed, _ = tally(TINY, [rep])
        self.assertEqual((attempted, failed), (4, 4))

    def test_hash_mismatch_is_a_failure(self):
        one = W.Workload("one", (TINY.commands[0],))
        rep_dir = WORK / "hash"
        shutil.rmtree(rep_dir, ignore_errors=True)
        shutil.copytree(self.out / "construct", rep_dir / "construct")
        result = {"commands": [{"name": "construct", "code": 0}]}
        first = Rep(one, rep_dir, result)
        phi = rep_dir / "construct" / "phi.bin"
        data = bytearray(phi.read_bytes())
        data[0] ^= 1
        phi.write_bytes(bytes(data))
        second = Rep(one, rep_dir, result)
        self.assertEqual(tally(one, [first, first])[:2], (2, 0))
        attempted, failed, reasons = tally(one, [first, second])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("rep1/construct", reasons)


if __name__ == "__main__":
    if not (SRC / "transonic" / "cli.py").is_file():
        sys.exit("run from the repository root")
    unittest.main()
