"""
Unified command-line entry point.

Each subcommand takes only the value flags it reads (``COMMANDS``, drawn
from the one table ``FLAGS``); any other flag is a usage error.  A flag not
given takes its value from the JSON file of ``--config``, whose keys must be
flags of the subcommand, else from the subcommand's own default, else from
``FLAGS``.  Every subcommand runs one pipeline, writes fields as .bin/.json
pairs plus JSON/CSV reports into the output directory, and exits 0 on
success, 1 on usage and validation errors, 2 on solver non-convergence.
Reruns with identical configuration are bit-identical: no timestamps, sorted
keys, fixed iteration orders, and any sampling uses the recorded seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import io as fio
from .errors import (
    GridMismatch,
    GuardViolated,
    MultipleNegative,
    NonZeroMean,
    NotConverged,
    QuadratureNotConverged,
    SymmetryViolation,
)
from .grid import _tagged, make_grid
from .linearized import _check_eigen_count, eigen_extremes, make_linearized_operator, norm_suite
from .lump import (KernelSymbolParams, LumpParams, check_eps, kpi_residual,
                   linearized_kernel_residuals, sample_lump)
from .reduction import ReductionState, outer_fixed_point, transport_residual
from .gp import gp_system_residual

# OSError: an input that cannot be read or an output directory that cannot be made
VALIDATION_ERRORS = (ValueError, SymmetryViolation, NonZeroMean, GridMismatch, OSError)
# eps is range-checked before any work, so a GuardViolated (the transport
# amplitude guard of ``solve_f2``) says the grid is too coarse: a solver verdict
SOLVER_ERRORS = (NotConverged, QuadratureNotConverged, MultipleNegative, GuardViolated)

# Every value flag, by the name it is read under (also its config key):
# (option, type or tuple of choices, default, help); no default: required.
FLAGS = {
    "epsilon": ("--epsilon", float, 0.1, "small parameter; wave speed sqrt(2) - epsilon^2"),
    "nx": ("--nx", int, 512, "grid points in x"),
    "ny": ("--ny", int, 512, "grid points in y"),
    "Lx": ("--Lx", float, 40.0, "box half-width in x"),
    "Ly": ("--Ly", float, 40.0, "box half-width in y"),
    "delta": ("--delta", float, 0.1, "weight exponent of the norms, in (0, 0.5]"),
    "tol": ("--tol", float, 1e-8, "solver tolerance"),
    "max_iter": ("--max-iter", int, 200, "solver iteration budget"),
    "seed": ("--seed", int, 7, "seed of the random start block"),
    "preset": ("--preset", ("normalized", "gp"), "normalized", "kernel symbol"),
    "mode": ("--mode", ("far", "near", "integral"), "far", "scan"),
    "k": ("--k", int, 4, "number of eigenpairs"),
    "m": ("--m", int, None, "x-derivative order"),
    "n": ("--n", int, None, "y-derivative order"),
    "x": ("--x", float, None, "x of the evaluation point"),
    "y": ("--y", float, None, "y of the evaluation point"),
    "input": ("--in", str, None, "input field (.bin) or construct directory"),
    "out_dir": ("--out", str, "runs", "output directory"),
}
GRID = ("nx", "ny", "Lx", "Ly")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so it leaves ``main`` as one
    JSON line with exit 1; the subparsers are made of this class too."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="transonic")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, text, reads, own) in COMMANDS.items():
        # no abbreviations: eigen would read --m as --max-iter
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for name in reads:
            option, kind, default, info = FLAGS[name]
            choices = kind if isinstance(kind, tuple) else None
            shown = own.get(name, default)
            p.add_argument(option, dest=name, type=str if choices else kind, choices=choices,
                           required=default is None,
                           help=info if shown is None else f"{info} (default {shown})")
        p.add_argument("--config", help="JSON file of values for these flags, keyed by name "
                                         "(max_iter, out_dir for --out, input for --in); "
                                         "flags win")
    return ap


def load_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fills each flag of the subcommand that was not given, from the config
    file or the defaults, and checks the values before any work."""
    _, _, reads, own = COMMANDS[args.command]
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: top level must be a JSON object")
    data = {k.replace("-", "_"): v for k, v in data.items()}
    for key, v in data.items():
        if key not in reads:
            raise ValueError(f"config key {key!r} is not a flag of {args.command}")
        kind = FLAGS[key][1]
        # JSON writes whole floats as integers; bool is an int subclass
        if isinstance(kind, tuple):
            if v not in kind:
                raise ValueError(f"config key {key!r} must be one of {kind}, got {v!r}")
        elif isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {v!r}")
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, data.get(name, own.get(name, FLAGS[name][2])))
    if "epsilon" in reads:
        check_eps(args.epsilon, args.command)
    for name in ("Lx", "Ly", "tol"):
        if name in reads and not 0.0 < getattr(args, name) < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {getattr(args, name)}")
    if "delta" in reads and not (0.0 < args.delta <= 0.5):
        raise ValueError("delta must lie in (0, 0.5]")
    if "max_iter" in reads and args.max_iter < 1:
        raise ValueError(f"max-iter must be positive, got {args.max_iter}")
    return args


def _grid(args):
    return make_grid(args.nx, args.ny, args.Lx, args.Ly)


def _output_dir(path) -> Path:
    """The output directory, made before any work, so that a path which
    cannot be one fails at once (an OSError) rather than after the run."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_row(fh, row: dict, **lead) -> None:
    """A CSV header and one row: the ``lead`` columns, then ``row``'s by sorted key."""
    keys = sorted(row)
    w = csv.writer(fh)
    w.writerow([*lead, *keys])
    w.writerow([*lead.values(), *(row[k] for k in keys)])


def cmd_lump_check(args) -> int:
    grid = _grid(args)
    out = _output_dir(args.out_dir)
    params = LumpParams.from_epsilon(args.epsilon)
    resid = kpi_residual(params, grid)
    kx, ky = linearized_kernel_residuals(params, grid)
    sups = {
        "lump_equation_residual_sup": float(np.max(np.abs(resid.data))),
        "kernel_mode_x_residual_sup": float(np.max(np.abs(kx.data))),
        "kernel_mode_y_residual_sup": float(np.max(np.abs(ky.data))),
        "epsilon": args.epsilon,
    }
    fio.write_field(out, "lump", sample_lump(params, grid))
    _write_json(out / "lump_check.json", sups)
    for k in sorted(sups):
        print(f"{k}: {sups[k]:.6e}" if isinstance(sups[k], float) else f"{k}: {sups[k]}")
    return 0


def cmd_kernel(args) -> int:
    # the kernel layer, and with it scipy.integrate, loads here, not at start-up
    from .kernel import kernel_fft, kernel_residue_eval
    p = getattr(KernelSymbolParams, args.preset)(args.epsilon)
    grid = _grid(args)
    if not (abs(args.x) <= grid.Lx and abs(args.y) <= grid.Ly):
        raise ValueError(f"point ({args.x}, {args.y}) is outside the box [-Lx, Lx] x [-Ly, Ly]")
    # both routes at the grid node nearest (x, y)
    i = int(round((args.x + grid.Lx) / grid.dx)) % grid.nx
    j = int(round((args.y + grid.Ly) / grid.dy)) % grid.ny
    v_res = kernel_residue_eval(p, args.m, args.n, grid.x[i], grid.y[j])
    v_fft = float(kernel_fft(p, grid, args.m, args.n).values[i, j])
    rec = {
        "m": args.m,
        "n": args.n,
        "x": grid.x[i],
        "y": grid.y[j],
        "preset": args.preset,
        "epsilon": args.epsilon,
        "residue_value": v_res,
        "fft_value": v_fft,
        "discrepancy": abs(v_res - v_fft),
    }
    print(json.dumps(rec, indent=1, sort_keys=True))
    return 0


def cmd_kernel_scan(args) -> int:
    from .kernel import _check_order, decay_scan, integral_scan
    _check_order(args.m, args.n)
    p = getattr(KernelSymbolParams, args.preset)(args.epsilon)
    if args.mode == "far":
        radii = np.geomspace(max(2.0, args.Lx / 8.0), args.Lx / 2.0, 10)
    elif args.mode == "near":
        radii = np.geomspace(1e-3, 0.5, 10)
    else:
        radii = [r for r in (1.0, 2.0, 4.0, 8.0) if r <= args.Lx / 2.0]
        if not radii:
            raise ValueError("Lx too small for the integral scan radii")
    path = _output_dir(args.out_dir) / "report.csv"
    if args.mode in ("far", "near"):
        angles = (0.35, 0.8, 1.2)
        rep = decay_scan(p, args.m, args.n, radii, angles)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "n", "preset", "epsilon", "ray_angle", "fitted_slope",
                        "bound_slope", "max_prefactor"])
            for th, sl in zip(angles, rep.fitted_slope_per_ray):
                w.writerow([args.m, args.n, args.preset, args.epsilon, th, sl,
                            rep.bound_slope, rep.max_prefactor])
        print(f"slopes: {rep.fitted_slope_per_ray} (bound {rep.bound_slope})")
    else:
        rows = [(r, integral_scan(p, args.m, args.n, r)) for r in radii]
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "n", "preset", "epsilon", "radius", "integral"])
            for r, v in rows:
                w.writerow([args.m, args.n, args.preset, args.epsilon, r, v])
        print("integrals:", rows)
    print(f"wrote {path}")
    return 0


def cmd_eigen(args) -> int:
    grid = _grid(args)
    _check_eigen_count(args.k, grid)
    out = _output_dir(args.out_dir)
    op = make_linearized_operator(args.epsilon, grid)
    res = eigen_extremes(op, k=args.k, seed=args.seed, tol=args.tol, max_iter=args.max_iter)
    fio.write_field(out, "phi0", res.phi0)
    fio.write_field(out, "phi1", res.phi1)
    rec = {f.name: getattr(res, f.name) for f in fields(res) if f.name not in ("phi0", "phi1")}
    # eigen_extremes raises unless exactly one eigenvalue is negative
    rec.update(lambda1=res.eigenvalues[0], negative_count=1, epsilon=args.epsilon, seed=args.seed)
    _write_json(out / "eigen.json", rec)
    print(f"lambda1 = {res.eigenvalues[0]:.8f}")
    print(f"lambda2 = {res.lambda2:.8f}")
    print("negative_count = 1")
    return 0


def cmd_norms(args) -> int:
    field = fio.read_field(Path(args.input))
    _write_row(sys.stdout, asdict(norm_suite(field, args.epsilon, args.delta)))
    return 0


def cmd_construct(args) -> int:
    grid = _grid(args)
    out = _output_dir(args.out_dir)
    state, f2, report = outer_fixed_point(
        args.epsilon, grid, tol=args.tol, max_iter=args.max_iter, delta=args.delta
    )
    fio.write_field(out, "phi", state.phi)
    fio.write_field(out, "g1", state.g1)
    fio.write_field(out, "f1", state.f1)
    fio.write_field(out, "f2", f2)
    # phi's data alone, so `norms` on phi.bin gives these bits: the solve's phi
    # keeps the spectrum it was inverted from, which differs in the last bits
    written = _tagged(grid, state.phi.data, state.phi.symmetry)
    suite = norm_suite(written, args.epsilon, args.delta)
    rec = {
        "config": {name: getattr(args, name) for name in COMMANDS["construct"][2]},
        **asdict(report),
        "final_phi_star": suite.star,
        # outer_fixed_point raises on every exit but convergence
        "converged": True,
        "transport_residual_sup": transport_residual(state, f2),
    }
    _write_json(out / "report.json", rec)
    with (out / "norms.csv").open("w", newline="") as fh:
        _write_row(fh, asdict(suite), field="phi")
    print(f"converged in {report.iterations} iterations; "
          f"final weighted norm {suite.star:.6e}")
    print(f"wrote {out}/phi.bin f1.bin f2.bin g1.bin report.json norms.csv")
    return 0


def cmd_residual(args) -> int:
    # epsilon and the grid are the construction's: report.json and the sidecars
    indir = Path(args.input)
    phi = fio.read_field(indir / "phi.bin")
    f2 = fio.read_field(indir / "f2.bin")
    if f2.grid != phi.grid:
        raise ValueError(
            f"{indir / 'f2.json'} grid {f2.grid} differs from "
            f"{indir / 'phi.json'} grid {phi.grid}"
        )
    report_path = indir / "report.json"  # a missing one is an OSError naming it
    stored = json.loads(report_path.read_text())
    config = stored.get("config") if isinstance(stored, dict) else None
    eps = config.get("epsilon") if isinstance(config, dict) else None
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ValueError(f"{report_path}: report lacks a numeric 'config.epsilon'")
    eps = float(eps)
    check_eps(eps, "residual")
    # after the reads, which check the input directory, before the work
    out = _output_dir(args.out_dir or indir)
    rpt = gp_system_residual(ReductionState(eps, phi.grid, phi=phi), f2)
    rec = asdict(rpt)
    _write_json(out / "gp_residual.json", rec)
    with (out / "gp_residual.csv").open("w", newline="") as fh:
        _write_row(fh, rec)
    print(json.dumps(rec, indent=1, sort_keys=True))
    return 0


# subcommand: (handler, help, the flags it reads, its own defaults)
COMMANDS = {
    "lump-check": (cmd_lump_check, "lump equation and kernel-mode residuals",
                   ("epsilon", *GRID, "out_dir"), {}),
    "kernel": (cmd_kernel, "evaluate one kernel derivative by both routes",
               ("epsilon", *GRID, "preset", "m", "n", "x", "y"), {}),
    "kernel-scan": (cmd_kernel_scan, "decay/integral scans of the kernel",
                    ("epsilon", "Lx", "preset", "out_dir", "m", "n", "mode"), {}),
    "eigen": (cmd_eigen, "extremal eigenpairs of the reduced operator",
              ("epsilon", *GRID, "tol", "max_iter", "seed", "out_dir", "k"),
              {"tol": 1e-7, "max_iter": 600}),
    "norms": (cmd_norms, "weighted norm suite of a stored field",
              ("epsilon", "delta", "input"), {}),
    "construct": (cmd_construct, "run the full fixed-point construction",
                  ("epsilon", *GRID, "delta", "tol", "max_iter", "out_dir"), {}),
    # no default --out: the report goes into the input directory
    "residual": (cmd_residual, "back-substitution report for a construct directory",
                 ("input", "out_dir"), {"out_dir": None}),
}


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            raise ValueError(f"transonic {args.command} does not read {' '.join(unread)}")
        code = COMMANDS[args.command][0](load_config(args))
    except VALIDATION_ERRORS + SOLVER_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, VALIDATION_ERRORS) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
