"""
One benchmark run: a fresh process that imports the package, calls
``transonic.cli.main`` for each command of a sequence, and writes what it
measured to a JSON file.

    python3 perfbench/child.py SPEC.json SPAWN_TIME

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so set-up
time covers interpreter start and every import.  SPEC holds ``src`` (the
directory holding the ``transonic`` package), ``commands`` (a list of
``{"name", "argv"}``), ``result`` (output path), ``trace`` (a JSON-lines
path, or null for an untraced run) and ``setup_only``.
"""

import sys
import time

SPAWN = float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

with open(sys.argv[1]) as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, SPEC["src"])

import numpy  # noqa: E402
import scipy  # noqa: E402
import transonic.cli  # noqa: E402

READY = time.monotonic()


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run() -> dict:
    out = {
        "setup_s": READY - SPAWN,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if SPEC.get("setup_only"):
        return out
    tracer = None
    if SPEC.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for cid, cmd in enumerate(SPEC["commands"]):
        ctx = tracer.command(cid, cmd["argv"][0]) if tracer else nullcontext()
        c0 = time.perf_counter()
        with ctx:
            try:
                code = transonic.cli.main(cmd["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error: record it, run the rest
                traceback.print_exc()
                code = -1
        codes.append({"name": cmd["name"], "code": code, "wall_s": time.perf_counter() - c0})
        sys.stdout.flush()
    t1 = time.perf_counter()
    cpu1 = _cpu()
    if tracer:
        tracer.uninstall()
        tracer.write_jsonl(SPEC["trace"])
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
    out.update(
        commands=codes,
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


if __name__ == "__main__":
    result = run()
    tmp = SPEC["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, SPEC["result"])
