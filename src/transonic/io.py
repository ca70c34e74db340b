"""
Binary field format shared by all CLI tools.

A field is stored as a header-free little-endian float64 array, row-major
with x fastest, next to a JSON sidecar carrying the grid and tag metadata:
{nx, ny, Lx, Ly, symmetry, quantity-name}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import RealField2D, Symmetry, make_grid


def field_paths(directory: Path, name: str) -> tuple[Path, Path]:
    d = Path(directory)
    return d / f"{name}.bin", d / f"{name}.json"


def write_field(directory: Path, name: str, f: RealField2D) -> Path:
    """Write name.bin + name.json into ``directory``; returns the .bin path."""
    bin_path, json_path = field_paths(directory, name)
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
    json_path.write_text(json.dumps(sidecar, indent=1, sort_keys=True) + "\n")
    return bin_path


def read_field(bin_path: Path) -> RealField2D:
    """Read a field from its .bin path; the sidecar sits next to it."""
    bin_path = Path(bin_path)
    json_path = bin_path.with_suffix(".json")
    meta = json.loads(json_path.read_text())
    for key in ("nx", "ny", "Lx", "Ly", "symmetry"):
        if not isinstance(meta, dict) or key not in meta:
            raise ValueError(f"{json_path}: sidecar lacks {key!r}")
    grid = make_grid(meta["nx"], meta["ny"], meta["Lx"], meta["Ly"])
    raw = np.fromfile(bin_path, dtype="<f8")
    if raw.size != grid.nx * grid.ny:
        raise ValueError(
            f"{bin_path}: expected {grid.nx * grid.ny} samples, found {raw.size}"
        )
    values = raw.reshape(grid.ny, grid.nx).T
    return RealField2D(grid, values, Symmetry(meta["symmetry"]))
