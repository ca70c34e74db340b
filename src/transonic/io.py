"""
Binary field format shared by all CLI tools.

A field is stored as a header-free little-endian float64 array, row-major
with x fastest, next to a JSON sidecar carrying the grid and tag metadata:
{nx, ny, Lx, Ly, symmetry, quantity-name}, where symmetry is one of the
four parity classes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .grid import RealField2D, Symmetry, make_grid


def write_field(directory: Path, name: str, f: RealField2D) -> Path:
    """Write name.bin + name.json into ``directory``; returns the .bin path."""
    bin_path = Path(directory) / f"{name}.bin"
    bin_path.parent.mkdir(parents=True, exist_ok=True)
    # values[i, j] = f(x_i, y_j); x fastest in a row-major file means the
    # x index must be last, hence the transpose
    data = np.ascontiguousarray(f.values.T, dtype="<f8")
    data.tofile(bin_path)
    sidecar = {
        "nx": f.grid.nx,
        "ny": f.grid.ny,
        "Lx": f.grid.Lx,
        "Ly": f.grid.Ly,
        "symmetry": f.symmetry.value,
        "quantity-name": name,
    }
    bin_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True) + "\n")
    return bin_path


def read_field(bin_path: Path) -> RealField2D:
    """Read a field from its .bin path; the sidecar sits next to it."""
    bin_path = Path(bin_path)
    json_path = bin_path.with_suffix(".json")
    raw = np.fromfile(bin_path, dtype="<f8")  # a missing .bin is an OSError naming it
    meta = json.loads(json_path.read_text())
    for key in ("nx", "ny", "Lx", "Ly", "symmetry"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValueError(f"{json_path}: sidecar lacks {key!r}")
    for key, kinds, what in (
        ("nx", int, "an integer"),
        ("ny", int, "an integer"),
        ("Lx", (int, float), "a finite real number"),
        ("Ly", (int, float), "a finite real number"),
    ):
        v = meta[key]
        finite = not isinstance(v, float) or math.isfinite(v)
        if isinstance(v, bool) or not isinstance(v, kinds) or not finite:
            raise ValueError(f"{json_path}: sidecar {key!r} is {v!r}, not {what}")
    classes = [s.value for s in Symmetry]
    if meta["symmetry"] not in classes:
        raise ValueError(f"{json_path}: sidecar 'symmetry' is {meta['symmetry']!r}, "
                         f"not one of the parity classes {', '.join(classes)}")
    grid = make_grid(meta["nx"], meta["ny"], meta["Lx"], meta["Ly"])
    if raw.size != grid.nx * grid.ny:
        raise ValueError(
            f"{bin_path}: expected {grid.nx * grid.ny} samples, found {raw.size}"
        )
    values = raw.reshape(grid.ny, grid.nx).T
    return RealField2D(grid, values, Symmetry(meta["symmetry"]))
