"""
Benchmark of the transonic CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``construct``, ``spectrum``,
``kernel-scan``.  Every run is a fresh single-threaded process (BLAS and
OpenMP threads pinned to 1, no ``--threads``) that calls
``transonic.cli.main`` for each command of the workload's sequence.

``--trace 0`` repeats the sequence in fresh processes until ``--seconds``
have passed (at least once) and reports medians over the repetitions:

* ``wall_s``: first CLI call of the sequence to the last return;
* ``cpu_s``: user + system CPU time of the run process in that interval;
* ``peak_rss_mb``: peak resident memory of the run process;
* ``setup_s``: process start to ``transonic.cli`` and its dependencies
  imported, over five import-only processes and the run processes.

``--trace 1`` runs the sequence once untraced and once traced
(``spans.py``) and reports the per-layer metrics and the trace overhead
(traced minus untraced ``wall_s``).  Every command's outputs are
checked against reference values, and every ``.bin`` file must hash the
same in each repetition; a non-zero exit, a failed check or a hash
mismatch counts the command as failed.

Outputs go to ``.perfbench_work/<workload>/`` (spans in ``trace.jsonl``,
the full record in ``result.json``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, gp_res_sup, workload  # noqa: E402

SETUP_PROBES = 5  # import-only processes per run, for the setup_s median
RUN_BUDGET_S = 170  # children still running then are killed: a run ends within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# spans whose calls / total_s / self_s are per-layer metrics
_SPAN_FIELDS = {
    "grid.RealField2D": ("calls", "self_s"),
    "grid.derivative": ("calls", "self_s"),
    "grid.dealias": ("calls", "self_s"),
    "grid.symmetrize": ("calls", "self_s"),
    "grid.product_dealiased": ("calls", "self_s"),
    "lump.lump_derivative": ("calls", "self_s"),
    "lump.sample_lump": ("calls",),
    "linearized.solve_linearized": ("calls", "total_s", "self_s"),
    "linearized.apply_linearized": ("calls",),
    "linearized.minres": ("calls",),
    "linearized.star_norm_proxy": ("total_s",),
    "linearized.eigen_extremes": ("total_s",),
    "linearized.lobpcg": ("total_s",),
    "reduction.outer_fixed_point": ("total_s",),
    "reduction.solve_f2": ("calls", "self_s"),
    "reduction.assemble_rhs": ("total_s",),
    "reduction.transport_residual": ("total_s",),
    "kernel.kernel_residue_eval": ("calls", "self_s"),
    "kernel.integral_scan": ("total_s",),
    "kernel.decay_scan": ("total_s",),
    "kernel.kernel_fft": ("total_s",),
    "gp.gp_system_residual": ("total_s",),
    "io.write_field": ("calls", "total_s"),
    "cli.construct": ("total_s",),
    "cli.residual": ("total_s",),
    "cli.eigen": ("total_s",),
    "cli.kernel-scan": ("total_s",),
}
# metric -> tracer counter
_COUNTS = {
    "grid.fft.calls": "grid.fft.calls",
    "grid.fft.points": "grid.fft.points",
    "linearized.minres.iters": "linearized.minres.iters",
    "linearized.fft.calls": "linearized.fft.calls",
    "linearized.fft.points": "linearized.fft.points",
    "linearized.lobpcg.A_calls": "linearized.lobpcg.A.calls",
    "linearized.lobpcg.A_cols": "linearized.lobpcg.A.cols",
    "linearized.lobpcg.M_cols": "linearized.lobpcg.M.cols",
    "reduction.picard_iters": "reduction.picard_iters",
    "kernel.quad.calls": "kernel.quad.calls",
    "kernel.quad.integrand_evals": "kernel.quad.integrand_evals",
    "io.bytes_written": "io.bytes_written",
}
# metrics computed from the run as a whole, in ``per_layer``
_DERIVED = {
    "linearized.lobpcg.apply_s": "s",
    "reduction.outer_iters": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {f"{name}.{f}": "count" if f == "calls" else "s"
             for name, fields in _SPAN_FIELDS.items() for f in fields}
    units.update({m: "B" if m == "io.bytes_written" else "count" for m in _COUNTS})
    units.update(_DERIVED)
    return units


PER_LAYER = per_layer_units()


# -- environment --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("TRANSONIC_THREADS", None)  # the CLI reads it when --threads is absent
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "threads": {**{v: "1" for v in THREAD_VARS}, "cli --threads": "default (1)"},
    }


# -- one process -------------------------------------------------------------------


def spawn(spec: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run child.py on ``spec``, killing it at ``deadline`` (a monotonic
    time); returns its result, or {} if it produced none."""
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec = {**spec, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    with open(work / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t_spawn)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=str(work),
        )
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return {}
    return json.loads(result_path.read_text())


def bin_hashes(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.bin"))
    }


class Rep:
    """Outcome of one run of a workload's command sequence."""

    def __init__(self, wl: Workload, rep_dir: Path, result: dict):
        self.result = result
        self.failures: dict[str, list] = {}
        self.hashes: dict[str, dict] = {}
        codes = {c["name"]: c["code"] for c in result.get("commands", [])}
        for cmd in wl.commands:
            out = rep_dir / cmd.name
            code = codes.get(cmd.name)
            if code != 0:
                self.failures[cmd.name] = [
                    "no result from the run process" if code is None else f"exit code {code}"]
                continue
            problems = cmd.check(out)
            if problems:
                self.failures[cmd.name] = problems
            self.hashes[cmd.name] = bin_hashes(out) if out.is_dir() else {}


def run_rep(wl: Workload, src: Path, work: Path, tag: str, trace: bool,
            deadline: float | None = None) -> Rep:
    rep_dir = work / tag
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spec = {
        "src": str(src),
        "commands": [{"name": c.name, "argv": c.resolve(rep_dir)} for c in wl.commands],
        "trace": str(work / "trace.jsonl") if trace else None,
    }
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    return Rep(wl, rep_dir, spawn(spec, work, tag, deadline))


def tally(wl: Workload, reps: list) -> tuple[int, int, dict]:
    """Attempted and failed command counts, with the reasons.  A command
    fails in a repetition if it failed its checks there or if its .bin files
    hash differently from the first repetition that produced them."""
    attempted = failed = 0
    reasons: dict[str, list] = {}
    first: dict[str, dict] = {}
    for i, rep in enumerate(reps):
        for cmd in wl.commands:
            attempted += 1
            why = list(rep.failures.get(cmd.name, []))
            h = rep.hashes.get(cmd.name)
            if h is not None:
                ref = first.setdefault(cmd.name, h)
                if h != ref:
                    why.append("bin hashes differ from the first repetition")
            if why:
                failed += 1
                reasons[f"rep{i}/{cmd.name}"] = why
    return attempted, failed, reasons


# -- metrics --------------------------------------------------------------------------


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else math.nan


def end_to_end(reps: list, setup_samples: list) -> dict:
    ok = [r.result for r in reps if "wall_s" in r.result]
    vals = {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median(setup_samples),
        "cpu_s": _median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    return {k: {"value": vals[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(traced: dict, untraced: dict, outer_iters: int) -> dict:
    spans = traced.get("spans", {})
    counts = traced.get("counts", {})
    values = {f"{name}.{f}": spans.get(name, {}).get(f, 0)
              for name, fields in _SPAN_FIELDS.items() for f in fields}
    values.update({m: counts.get(key, 0) for m, key in _COUNTS.items()})
    values.update({
        "linearized.lobpcg.apply_s": sum(spans.get(f"linearized.lobpcg.{op}", {}).get("total_s", 0.0)
                                         for op in ("A", "M")),
        "reduction.outer_iters": outer_iters,
        "trace.overhead_s": traced.get("wall_s", math.nan) - untraced.get("wall_s", math.nan),
        "trace.spans": sum(s["calls"] for s in spans.values()),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _outer_iters(rep_dir: Path) -> int:
    try:
        return json.loads((rep_dir / "construct" / "report.json").read_text())["iterations"]
    except (OSError, ValueError, KeyError):
        return 0


# -- main -------------------------------------------------------------------------------


def bench(wl: Workload, seed: int, root: Path, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    src = root / "src"
    work = root / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probes = [spawn({"src": str(src), "setup_only": True}, work, f"setup{i}", deadline)
              for i in range(SETUP_PROBES)]
    setup_samples = [p["setup_s"] for p in probes if "setup_s" in p]

    reps: list[Rep] = []
    if trace:
        reps.append(run_rep(wl, src, work, "rep0", False, deadline))
        reps.append(run_rep(wl, src, work, "rep1", True, deadline))
    else:
        t0 = time.monotonic()
        while not reps or time.monotonic() - t0 < seconds:
            reps.append(run_rep(wl, src, work, f"rep{len(reps)}", False, deadline))
    setup_samples += [r.result["setup_s"] for r in reps if "setup_s" in r.result]

    attempted, failed, reasons = tally(wl, reps)
    versions = next((p for p in probes if "python" in p), {})
    rec = {
        "workload": wl.name,
        "seed": seed,
        "seed_used": wl.uses_seed,
        "environment": environment(versions),
        "repetitions": len(reps),
        "measured": sum("wall_s" in r.result for r in reps),
        "commands": [c.resolve(Path("{rep}")) for c in wl.commands],
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "setup_samples": setup_samples,
        "rep_wall_s": [r.result.get("wall_s") for r in reps],
    }
    if trace:
        rec["metrics"] = per_layer(reps[1].result, reps[0].result, _outer_iters(work / "rep1"))
    else:
        rec["metrics"] = end_to_end(reps, setup_samples)
        if wl.name == "construct" and not reasons:
            gp = work / f"rep{len(reps) - 1}" / "residual" / "gp_residual.json"
            rec["gp_res_sup"] = gp_res_sup(json.loads(gp.read_text()))
    (work / "result.json").write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "transonic" / "cli.py").is_file():
        print(f"perfbench: no transonic package under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    wl = workload(args.workload, args.seed)
    rec = bench(wl, args.seed, root, args.seconds, bool(args.trace))
    if rec["measured"] < (2 if args.trace else 1):  # a traced run needs both of its runs
        print(f"perfbench: a run of {wl.name} produced no result; see "
              f".perfbench_work/{wl.name}/*.log", file=sys.stderr)
        return 1

    env = rec["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name}: seed {args.seed} "
          f"({'used' if wl.uses_seed else 'no random input; seed not used'}), "
          f"{rec['repetitions']} repetition(s), trace {args.trace}")
    for name, m in rec["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_frac: {rec['failed'] / max(rec['attempted'], 1):.6g} "
          f"({rec['failed']} of {rec['attempted']} commands)")
    if "gp_res_sup" in rec:
        print(f"gp_res_sup: {rec['gp_res_sup']:.6e} (dimensionless)")
    for where, why in rec["failures"].items():
        print(f"FAILED {where}: {'; '.join(why)}")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
