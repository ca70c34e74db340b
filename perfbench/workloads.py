"""
Benchmark workloads: CLI sequences, reference values and output checks.

Each workload is a sequence of ``transonic`` CLI calls made in one process.
Reference values were recorded from the package as first committed
(2 vCPU Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  Tolerances come
from the acceptance tests where one exists (lambda1: the frozen constant's
5e-3 in ``test_06_morse_index``); elsewhere they were fixed before any
benchmark run, well above the run-to-run and seed-to-seed differences
(about 1e-14 relative).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REL_TOL = 1e-6          # final_phi_star, energy, alpha, lambda2, ball integral
SLOPE_ABS_TOL = 1e-6    # fitted decay slopes
LAMBDA1_ABS_TOL = 5e-3  # test_06_morse_index frozen constant tolerance
GP_RES_SLACK = 1e-2     # gp_res_sup may not grow by more than 1 %

Check = Callable[[Path], list]


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``argv`` may hold ``{out}``, the command's own output
    directory, and ``{rep}``, the directory of the whole sequence."""

    name: str
    argv: tuple
    check: Check = field(default=lambda out: [])

    def resolve(self, rep_dir: Path) -> list:
        return [a.format(out=rep_dir / self.name, rep=rep_dir) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    uses_seed: bool = False


def _rel_ok(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


def _compare(label: str, value, ref, ok: bool) -> list:
    return [] if ok else [f"{label}: {value!r} (reference {ref!r})"]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return exc


# -- construct ------------------------------------------------------------------

CONSTRUCT_REF = {
    "iterations": 7,
    "converged": True,
    "final_phi_star": 1.618790294645953,
    "energy": 0.9917019818021834,
    "alpha": -2.836039401157746,
    "gp_res_sup": 3.926346669486103e-06,
}


def check_construct(out: Path, ref=CONSTRUCT_REF) -> list:
    rec = _read_json(out / "report.json")
    if isinstance(rec, Exception):
        return [f"report.json: {rec}"]
    return (
        _compare("iterations", rec["iterations"], ref["iterations"],
                 rec["iterations"] == ref["iterations"])
        + _compare("converged", rec["converged"], ref["converged"],
                   rec["converged"] is ref["converged"])
        + _compare("final_phi_star", rec["final_phi_star"], ref["final_phi_star"],
                   _rel_ok(rec["final_phi_star"], ref["final_phi_star"], REL_TOL))
    )


def gp_res_sup(rec: dict) -> float:
    """max(res1_sup, res2_sup) of a gp_residual.json record."""
    return max(rec["res1_sup"], rec["res2_sup"])


def check_residual(out: Path, ref=CONSTRUCT_REF) -> list:
    rec = _read_json(out / "gp_residual.json")
    if isinstance(rec, Exception):
        return [f"gp_residual.json: {rec}"]
    sup = gp_res_sup(rec)
    return (
        _compare("energy", rec["energy"], ref["energy"],
                 _rel_ok(rec["energy"], ref["energy"], REL_TOL))
        + _compare("alpha", rec["alpha"], ref["alpha"],
                   _rel_ok(rec["alpha"], ref["alpha"], REL_TOL))
        + _compare("gp_res_sup", sup, ref["gp_res_sup"],
                   sup <= ref["gp_res_sup"] * (1.0 + GP_RES_SLACK))
    )


# -- spectrum -------------------------------------------------------------------

SPECTRUM_REF = {"lambda1": -6.621896599699584, "lambda2": 1.9129129671983052, "negative_count": 1}


def check_eigen(out: Path, ref=SPECTRUM_REF) -> list:
    rec = _read_json(out / "eigen.json")
    if isinstance(rec, Exception):
        return [f"eigen.json: {rec}"]
    return (
        _compare("lambda1", rec["lambda1"], ref["lambda1"],
                 abs(rec["lambda1"] - ref["lambda1"]) <= LAMBDA1_ABS_TOL)
        + _compare("lambda2", rec["lambda2"], ref["lambda2"],
                   _rel_ok(rec["lambda2"], ref["lambda2"], REL_TOL))
        + _compare("negative_count", rec["negative_count"], ref["negative_count"],
                   rec["negative_count"] == ref["negative_count"])
    )


def eigen_seed(seed: int) -> int:
    """LOBPCG start-block seed for workload ``seed``; ``eigen`` maps --seed 0
    to 7, so the result is kept non-zero."""
    return 1 + seed % 1_000_000


# -- kernel-scan ------------------------------------------------------------------

BALL_REF = 0.41542914237237066

# (m, n) -> mode -> fitted slopes on the rays 0.35, 0.8, 1.2
SLOPE_REF = {
    (1, 0): {"far": (-1.0363712728917862, -0.9257892361194661, -0.8456831408194442),
             "near": (0.5914589389091648, 0.5211590583933128, 0.49259797929615395)},
    (2, 0): {"far": (-2.018320613788795, -3.2948023866747906, -1.9341279413251187),
             "near": (-0.4546324826302161, -0.48962963675904275, -0.5096098890184093)},
    (3, 0): {"far": (-1.6325685340257223, -3.057480632466855, -2.5407361846815357),
             "near": (-1.0520959933230851, -1.0311764888766897, -1.0210396964511812)},
    (0, 1): {"far": (-1.0334429360636868, -1.0498515213243003, -0.9798158766820765),
             "near": (0.43079999320365586, 0.29709960817760594, 0.24017210390704768)},
    (0, 2): {"far": (-2.19443970981344, -3.3036767842518047, -1.9889989760010138),
             "near": (-0.9910936093060471, -0.8738492473275351, -0.9183385289917623)},
    (0, 3): {"far": (-3.1992612730207863, -2.7270623705880452, -3.097039328665769),
             "near": (-1.3425766026963615, -1.5964471057350536, -1.6741224518071431)},
    (1, 1): {"far": (-2.1894701485160195, -1.9727326956638878, -1.7611627176810625),
             "near": (-0.14128695389754148, -0.21115047890149524, -0.24037381887967632)},
    (1, 2): {"far": (-3.4019887997023646, -3.1846122601317006, -2.6950387532964672),
             "near": (-1.0388167301305038, -1.1093861216649297, -1.1340722732191888)},
}


def csv_rows(path: Path):
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        return exc


def check_ball(out: Path, ref: float = BALL_REF) -> list:
    rows = csv_rows(out / "report.csv")
    if isinstance(rows, Exception):
        return [f"report.csv: {rows}"]
    if len(rows) != 1:
        return [f"report.csv: expected one radius, found {len(rows)}"]
    val = float(rows[0]["integral"])
    return _compare("ball integral", val, ref, _rel_ok(val, ref, REL_TOL))


def slope_check(ref: tuple) -> Check:
    def check(out: Path) -> list:
        rows = csv_rows(out / "report.csv")
        if isinstance(rows, Exception):
            return [f"report.csv: {rows}"]
        got = tuple(float(r["fitted_slope"]) for r in rows)
        if len(got) != len(ref):
            return [f"slopes: {got!r} (reference {ref!r})"]
        bad = [
            (g, r) for g, r in zip(got, ref)
            if not (math.isnan(g) and math.isnan(r)) and not abs(g - r) <= SLOPE_ABS_TOL
        ]
        return [f"slope: {g!r} (reference {r!r})" for g, r in bad]

    return check


# -- the benchmark's workloads ----------------------------------------------------


def _construct_commands() -> tuple:
    return (
        Command("construct", ("construct", "--epsilon", "0.1", "--nx", "256", "--ny", "256",
                              "--out", "{out}"), check_construct),
        # --out must be explicit: residual compares out_dir with the literal "runs"
        Command("residual", ("residual", "--in", "{rep}/construct", "--out", "{out}"),
                check_residual),
    )


def _kernel_scan_commands() -> tuple:
    cmds = [Command("ball", ("kernel-scan", "--epsilon", "0.2", "--m", "1", "--n", "1",
                             "--mode", "integral", "--Lx", "2", "--out", "{out}"), check_ball)]
    for (m, n), modes in SLOPE_REF.items():
        for mode, ref in modes.items():
            cmds.append(Command(f"ray-{m}{n}-{mode}",
                                ("kernel-scan", "--epsilon", "0.2", "--m", str(m), "--n", str(n),
                                 "--mode", mode, "--out", "{out}"), slope_check(ref)))
    return tuple(cmds)


def _spectrum_commands(seed: int) -> tuple:
    return (
        Command("eigen", ("eigen", "--epsilon", "0.1", "--nx", "512", "--ny", "512", "--k", "4",
                          "--seed", str(eigen_seed(seed)), "--out", "{out}"), check_eigen),
    )


def workload(name: str, seed: int) -> Workload:
    """The named workload with its inputs made from ``seed``.  Only
    ``spectrum`` has a random input (the LOBPCG start block).

    The three stress disjoint layers, so a change to one layer has a
    workload that exercises it and others that bypass it: ``construct``
    runs grid, lump, the linear solve, reduction and gp but no kernel;
    ``spectrum`` runs LOBPCG on raw FFT closures (a 14 MB block at 512^2,
    well above the 2 MB per-core L2) without RealField2D chains or
    reduction; ``kernel-scan`` runs only the kernel layer, the ball through
    many near-axis residue evaluations, the rays through few off-axis ones.
    """
    if name == "construct":
        return Workload(name, _construct_commands())
    if name == "spectrum":
        return Workload(name, _spectrum_commands(seed), uses_seed=True)
    if name == "kernel-scan":
        return Workload(name, _kernel_scan_commands())
    raise KeyError(name)


WORKLOADS = ("construct", "spectrum", "kernel-scan")
