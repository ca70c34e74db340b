"""
Unified command-line entry point.

Every subcommand reads the shared numeric flags (optionally seeded from a
JSON config file; explicit flags win), runs one pipeline, writes fields as
.bin/.json pairs plus JSON/CSV reports into the output directory, and exits
0 on success, 1 on usage and validation errors, 2 on solver non-convergence.
Reruns with identical configuration are bit-identical: no timestamps, sorted
keys, fixed iteration orders, and any sampling uses the recorded seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
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
from .grid import make_grid
from .linearized import make_linearized_operator, eigen_extremes, norm_suite
from .lump import LumpParams, check_eps, kpi_residual, linearized_kernel_residuals, sample_lump
from .reduction import ReductionState, outer_fixed_point, transport_residual
from .gp import gp_system_residual

# OSError: an input that cannot be read or an output directory that cannot be made
VALIDATION_ERRORS = (ValueError, SymmetryViolation, NonZeroMean, GridMismatch, OSError)
# eps is range-checked before any work, so a GuardViolated (the transport
# amplitude guard of ``solve_f2``) says the grid is too coarse: a solver verdict
SOLVER_ERRORS = (NotConverged, QuadratureNotConverged, MultipleNegative, GuardViolated)


@dataclass
class RunConfig:
    epsilon: float = 0.1
    nx: int = 512
    ny: int = 512
    Lx: float = 40.0
    Ly: float = 40.0
    delta: float = 0.1
    tol: float = 1e-8
    max_iter: int = 200
    preset: str = "normalized"
    out_dir: str = "runs"
    seed: int = 0
    # names set by --config or by a flag (``load_config``); not a field, so
    # ``asdict`` and the reports leave it out
    given = frozenset()

    def validate(self, command: str) -> None:
        check_eps(self.epsilon, command)
        if self.preset not in ("normalized", "gp"):
            raise ValueError(f"unknown preset {self.preset!r}")
        if not (0.0 < self.delta <= 0.5):
            raise ValueError("delta must lie in (0, 0.5]")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol and max-iter must be positive")

    def grid(self):
        return make_grid(self.nx, self.ny, self.Lx, self.Ly)

    def symbol_params(self):
        # only kernel and kernel-scan import the kernel layer (and with it
        # scipy.integrate): here and in their handlers, not at start-up
        from .kernel import KernelSymbolParams
        if self.preset == "gp":
            return KernelSymbolParams.gp(self.epsilon)
        return KernelSymbolParams.normalized(self.epsilon)


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--Lx", type=float)
    p.add_argument("--Ly", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--preset", choices=("normalized", "gp"))
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--config", help="JSON file with RunConfig defaults")
    p.add_argument("--seed", type=int)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so it leaves ``main`` as one
    JSON line with exit 1; the subparsers are made of this class too."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="transonic")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lump-check", help="lump equation and kernel-mode residuals")
    _add_shared_flags(p)

    p = sub.add_parser("kernel", help="evaluate one kernel derivative by both routes")
    _add_shared_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("kernel-scan", help="decay/integral scans of the kernel")
    _add_shared_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("far", "near", "integral"), default="far")

    p = sub.add_parser("eigen", help="extremal eigenpairs of the reduced operator")
    _add_shared_flags(p)
    p.add_argument("--k", type=int, default=4)

    p = sub.add_parser("norms", help="weighted norm suite of a stored field")
    _add_shared_flags(p)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("construct", help="run the full fixed-point construction")
    _add_shared_flags(p)

    p = sub.add_parser("residual", help="back-substitution report for a construct directory")
    _add_shared_flags(p)
    p.add_argument("--in", dest="indir", required=True)
    return ap


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    given = set()
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: top level must be a JSON object")
        for k, v in data.items():
            key = k.replace("-", "_")
            if key not in {f.name for f in fields(RunConfig)}:
                raise ValueError(f"unknown config key {k!r}")
            kind = type(getattr(cfg, key))
            # JSON writes whole floats as integers; bool is an int subclass
            if isinstance(v, bool) or not isinstance(v, (int, float) if kind is float else kind):
                raise ValueError(f"config key {k!r} must be {kind.__name__}, got {v!r}")
            setattr(cfg, key, v)
            given.add(key)
    for key in vars(cfg):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
            given.add(key)
    cfg.given = frozenset(given)
    cfg.validate(args.command)
    return cfg


def _output_dir(path) -> Path:
    """The output directory, made before any work, so that a path which
    cannot be one fails at once (an OSError) rather than after the run."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def cmd_lump_check(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    out = _output_dir(cfg.out_dir)
    params = LumpParams.from_epsilon(cfg.epsilon)
    resid = kpi_residual(params, grid)
    kx, ky = linearized_kernel_residuals(params, grid)
    sups = {
        "lump_equation_residual_sup": float(np.max(np.abs(resid.data))),
        "kernel_mode_x_residual_sup": float(np.max(np.abs(kx.data))),
        "kernel_mode_y_residual_sup": float(np.max(np.abs(ky.data))),
        "epsilon": cfg.epsilon,
    }
    fio.write_field(out, "lump", sample_lump(params, grid))
    _write_json(out / "lump_check.json", sups)
    for k in sorted(sups):
        print(f"{k}: {sups[k]:.6e}" if isinstance(sups[k], float) else f"{k}: {sups[k]}")
    return 0


def cmd_kernel(cfg: RunConfig, args) -> int:
    from .kernel import kernel_fft, kernel_residue_eval
    p = cfg.symbol_params()
    grid = cfg.grid()
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
        "preset": cfg.preset,
        "epsilon": cfg.epsilon,
        "residue_value": v_res,
        "fft_value": v_fft,
        "discrepancy": abs(v_res - v_fft),
    }
    print(json.dumps(rec, indent=1, sort_keys=True))
    return 0


def cmd_kernel_scan(cfg: RunConfig, args) -> int:
    from .kernel import decay_scan, integral_scan
    p = cfg.symbol_params()
    if args.mode == "far":
        radii = np.geomspace(max(2.0, cfg.Lx / 8.0), cfg.Lx / 2.0, 10)
    elif args.mode == "near":
        radii = np.geomspace(1e-3, 0.5, 10)
    else:
        radii = [r for r in (1.0, 2.0, 4.0, 8.0) if r <= cfg.Lx / 2.0]
        if not radii:
            raise ValueError("Lx too small for the integral scan radii")
    path = _output_dir(cfg.out_dir) / "report.csv"
    if args.mode in ("far", "near"):
        angles = (0.35, 0.8, 1.2)
        rep = decay_scan(p, args.m, args.n, radii, angles)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "n", "preset", "epsilon", "ray_angle", "fitted_slope",
                        "bound_slope", "max_prefactor"])
            for th, sl in zip(angles, rep.fitted_slope_per_ray):
                w.writerow([args.m, args.n, cfg.preset, cfg.epsilon, th, sl,
                            rep.bound_slope, rep.max_prefactor])
        print(f"slopes: {rep.fitted_slope_per_ray} (bound {rep.bound_slope})")
    else:
        rows = [(r, integral_scan(p, args.m, args.n, r)) for r in radii]
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "n", "preset", "epsilon", "radius", "integral"])
            for r, v in rows:
                w.writerow([args.m, args.n, cfg.preset, cfg.epsilon, r, v])
        print("integrals:", rows)
    print(f"wrote {path}")
    return 0


def cmd_eigen(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    out = _output_dir(cfg.out_dir)
    op = make_linearized_operator(cfg.epsilon, grid)
    seed = cfg.seed if "seed" in cfg.given else 7
    # the eigen solver keeps its own tol/max-iter defaults unless they are given
    budget = {key: getattr(cfg, key) for key in ("tol", "max_iter") if key in cfg.given}
    res = eigen_extremes(op, k=args.k, seed=seed, **budget)
    fio.write_field(out, "phi0", res.phi0)
    fio.write_field(out, "phi1", res.phi1)
    rec = {
        "lambda1": res.eigenvalues[0],
        "lambda2": res.lambda2,
        # eigen_extremes raises unless exactly one eigenvalue is negative
        "negative_count": 1,
        "eigenvalues": list(res.eigenvalues),
        "epsilon": cfg.epsilon,
        "iterations": res.iterations,
        "block": res.block,
        "max_residual": res.max_residual,
        "unknowns": res.unknowns,
        "solver": res.solver,
        "seed": seed,
    }
    _write_json(out / "eigen.json", rec)
    print(f"lambda1 = {res.eigenvalues[0]:.8f}")
    print(f"lambda2 = {res.lambda2:.8f}")
    print("negative_count = 1")
    return 0


def cmd_norms(cfg: RunConfig, args) -> int:
    field = fio.read_field(Path(args.infile))
    suite = norm_suite(field, cfg.epsilon, cfg.delta)
    row = asdict(suite)
    keys = sorted(row)
    w = csv.writer(sys.stdout)
    w.writerow(keys)
    w.writerow([row[k] for k in keys])
    return 0


def cmd_construct(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    out = _output_dir(cfg.out_dir)
    state, f2, report = outer_fixed_point(
        cfg.epsilon, grid, tol=cfg.tol, max_iter=cfg.max_iter, delta=cfg.delta
    )
    fio.write_field(out, "phi", state.phi)
    fio.write_field(out, "g1", state.g1)
    fio.write_field(out, "f1", state.f1)
    fio.write_field(out, "f2", f2)
    suite = norm_suite(state.phi, cfg.epsilon, cfg.delta)
    rec = {
        "config": asdict(cfg),
        "iterations": report.iterations,
        "update_star_norms": list(report.update_star_norms),
        "contraction_ratios": list(report.contraction_ratios),
        "final_phi_star": suite.star,
        # outer_fixed_point raises on every exit but convergence
        "converged": True,
        "picard_passes": list(report.picard_passes),
        "minres_iterations": list(report.minres_iterations),
        "transport_residual_sup": transport_residual(state, f2),
    }
    _write_json(out / "report.json", rec)
    with (out / "norms.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        row = asdict(suite)
        keys = sorted(row)
        w.writerow(["field"] + keys)
        w.writerow(["phi"] + [row[k] for k in keys])
    print(f"converged in {report.iterations} iterations; "
          f"final weighted norm {suite.star:.6e}")
    print(f"wrote {out}/phi.bin f1.bin f2.bin g1.bin report.json norms.csv")
    return 0


def cmd_residual(cfg: RunConfig, args) -> int:
    indir = Path(args.indir)
    report_path = indir / "report.json"
    if report_path.exists():
        stored = json.loads(report_path.read_text())
        config = stored.get("config") if isinstance(stored, dict) else None
        if not isinstance(config, dict) or "epsilon" not in config:
            raise ValueError(f"{report_path}: report lacks 'config.epsilon'")
        eps = float(config["epsilon"])
        check_eps(eps, "residual")
        if "epsilon" in cfg.given and cfg.epsilon != eps:
            raise ValueError(
                f"--epsilon {cfg.epsilon} differs from the stored epsilon "
                f"({eps} in {report_path})"
            )
    else:
        eps = cfg.epsilon
    phi = fio.read_field(indir / "phi.bin")
    for key in ("nx", "ny", "Lx", "Ly"):
        if key in cfg.given and getattr(cfg, key) != getattr(phi.grid, key):
            raise ValueError(
                f"--{key} {getattr(cfg, key)} differs from the stored grid "
                f"({key} = {getattr(phi.grid, key)} in {indir / 'phi.json'})"
            )
    f2 = fio.read_field(indir / "f2.bin")
    if f2.grid != phi.grid:
        raise ValueError(
            f"{indir / 'f2.json'} grid {f2.grid} differs from "
            f"{indir / 'phi.json'} grid {phi.grid}"
        )
    # after the reads, which check the input directory, before the work
    out = _output_dir(cfg.out_dir if "out_dir" in cfg.given else indir)
    rpt = gp_system_residual(ReductionState(eps, phi.grid, phi=phi), f2)
    rec = asdict(rpt)
    _write_json(out / "gp_residual.json", rec)
    with (out / "gp_residual.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        keys = sorted(rec)
        w.writerow(keys)
        w.writerow([rec[k] for k in keys])
    print(json.dumps(rec, indent=1, sort_keys=True))
    return 0


HANDLERS = {
    "lump-check": cmd_lump_check,
    "kernel": cmd_kernel,
    "kernel-scan": cmd_kernel_scan,
    "eigen": cmd_eigen,
    "norms": cmd_norms,
    "construct": cmd_construct,
    "residual": cmd_residual,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        code = HANDLERS[args.command](cfg, args)
    except VALIDATION_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except SOLVER_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
