"""
Record the benchmark as committed files: one ``BENCH_<workload>.json`` each.

    python3 tools/bench_record.py [--repo DIR] [--parent DIR] [--out DIR]

For every workload of the benchmark it runs ``perfbench/run.py --seconds
10`` (the benchmark's run length) in ``--repo`` (default: the repository
holding this script) ``ROUNDS`` times with ``--trace 0`` and then once with
``--trace 1``, and writes ``<out>/BENCH_<workload>.json`` holding:

* ``machine``: CPU model and count, platform, and the thread settings of
  the harness;
* ``versions``: Python, numpy and scipy as the run processes saw them;
* ``revision``: the git revision of the checkout and whether its tree had
  uncommitted changes when the recording started (the records it writes
  into ``bench/`` do not count);
* ``end_to_end``: per metric the median, the quartiles and the samples of
  the untraced runs (``setup_s`` also over the import-only probes);
* ``correct``, ``attempted``, ``failed``: the harness's checks of all runs;
* ``per_layer``: the per-layer metrics of the traced run.

It then times, once per checkout and with one BLAS thread, two steps the
harness does not run, into ``<out>/BENCH_steps.json``: an in-process
``construct --epsilon 0.1`` at 512^2 (wall time, peak RSS and outer
iterations) and the tier-1 suite (``pytest -q`` from the checkout, its wall
time and summary line).

With ``--parent``, a checkout of the parent commit, every run is made on
both checkouts in turn, the first of each pair alternating (the two steps
too), and the parent's files go to ``<out>/parent/``: medians of runs minutes apart drift
by tens of percent on this kind of machine, so only files recorded
interleaved compare.  ``--out`` defaults to ``bench/`` in the current
directory.  The harness is only run, never changed; its work directory
``.perfbench_work/`` is left in each checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("construct", "spectrum", "kernel-scan")
SECONDS = 10
ROUNDS = 2
RUN_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the in-process construct step: prints its timing record as the last line
CONSTRUCT_512 = """
import json, resource, tempfile, time
from transonic.cli import main
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    code = main(["construct", "--epsilon", "0.1", "--nx", "512", "--ny", "512", "--out", out])
    wall = time.perf_counter() - t0
    iterations = json.load(open(out + "/report.json"))["iterations"] if code == 0 else None
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": rss, "iterations": iterations}))
"""


def git(repo: Path, *args: str) -> str:
    out = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def revision(repo: Path) -> dict:
    return {
        "commit": git(repo, "rev-parse", "HEAD") or None,
        "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
    }


def harness(repo: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` call; returns the JSON of its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {repo} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(samples: list) -> dict:
    """Median and quartiles (inclusive method) of ``samples``."""
    if len(samples) < 2:
        q1 = q3 = samples[0] if samples else None
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": statistics.median(samples) if samples else None,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def untraced_samples(work: Path) -> tuple[dict, dict]:
    """Per-run samples of the end-to-end metrics, and the run processes'
    versions, from the result files of an untraced harness run."""
    results = [json.loads(p.read_text()) for p in sorted(work.glob("*.result.json"))]
    runs = [r for r in results if "wall_s" in r]
    samples = {m: [r[m] for r in runs] for m in RUN_METRICS}
    samples["setup_s"] = [r["setup_s"] for r in results if "setup_s" in r]
    versions = next(({k: r[k] for k in ("python", "numpy", "scipy")}
                     for r in results if "python" in r), {})
    return samples, versions


class Recording:
    """The runs of one workload on one checkout, gathered round by round."""

    def __init__(self, repo: Path, workload: str, rev: dict):
        self.repo, self.workload, self.rev = repo, workload, rev
        self.plain: list[dict] = []
        self.samples: dict[str, list] = {}
        self.versions: dict = {}

    def run_plain(self) -> None:
        self.plain.append(harness(self.repo, self.workload, 0))
        samples, self.versions = untraced_samples(self.repo / ".perfbench_work" / self.workload)
        for m, values in samples.items():
            self.samples.setdefault(m, []).extend(values)

    def result(self) -> dict:
        work = self.repo / ".perfbench_work" / self.workload
        env = json.loads((work / "result.json").read_text())["environment"]
        traced = harness(self.repo, self.workload, 1)
        runs = self.plain + [traced]
        return {
            "workload": self.workload,
            "command": f"python3 perfbench/run.py --workload {self.workload} "
                       f"--seconds {SECONDS} --trace 0 (x{ROUNDS}) then --trace 1",
            "machine": {
                "cpu_model": env["cpu_model"],
                "nproc": env["nproc"],
                "platform": platform.platform(),
                "threads": env["threads"],
            },
            "versions": self.versions,
            "revision": self.rev,
            "end_to_end": {m: {"unit": spec["unit"], **summary(self.samples[m])}
                           for m, spec in self.plain[0]["metrics"].items()},
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": traced["metrics"],
        }


def step(repo: Path, args: list) -> tuple[subprocess.CompletedProcess, float]:
    """``python args`` in ``repo`` with its ``src`` on the path and one BLAS
    thread; returns the process and its wall time."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(repo / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=repo, env=env,
                          capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def construct_512(repo: Path) -> dict:
    proc, _ = step(repo, ["-c", CONSTRUCT_512])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"construct at 512^2 in {repo} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def tier1(repo: Path) -> dict:
    proc, wall = step(repo, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"])
    lines = proc.stdout.strip().splitlines()
    return {"exit": proc.returncode, "wall_s": wall, "summary": lines[-1] if lines else ""}


def record_steps(outs: dict, revs: dict) -> None:
    """Time the two fixed steps once per checkout and write ``BENCH_steps.json``."""
    results = {repo: {"revision": revs[repo], "threads": ONE_THREAD} for repo in outs}
    for i, (name, fn) in enumerate((("construct_512", construct_512), ("tier1", tier1))):
        for repo in list(outs)[:: -1 if i % 2 else 1]:
            results[repo][name] = fn(repo)
    for repo, out in outs.items():
        path = out / "BENCH_steps.json"
        path.write_text(json.dumps(results[repo], indent=1, sort_keys=True) + "\n")
        rec = results[repo]
        print(f"{path}: construct 512^2 {rec['construct_512']['wall_s']:.3g} s, "
              f"tier-1 {rec['tier1']['wall_s']:.3g} s ({rec['tier1']['summary']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    ap.add_argument("--out", type=Path, default=Path("bench"))
    args = ap.parse_args(argv)
    outs = {args.repo.resolve(): args.out}
    if args.parent:
        outs[args.parent.resolve()] = args.out / "parent"
    revs = {repo: revision(repo) for repo in outs}
    for out in outs.values():
        out.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        recs = [Recording(repo, workload, revs[repo]) for repo in outs]
        for r in range(ROUNDS):
            for rec in recs[:: 1 if r % 2 else -1]:
                rec.run_plain()
        for rec in recs:
            result = rec.result()
            path = outs[rec.repo] / f"BENCH_{workload}.json"
            path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            wall = result["end_to_end"]["wall_s"]
            print(f"{path}: wall_s median {wall['median']:.4g} s "
                  f"[{wall['q1']:.4g}, {wall['q3']:.4g}] over {wall['n']} runs, "
                  f"correct {result['correct']}")
    record_steps(outs, revs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
