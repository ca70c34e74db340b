"""
Periodic grids and scalar fields with declared parity.

All spatial operations in the package run on a uniform periodic box
[-Lx, Lx) x [-Ly, Ly) with power-of-two point counts, so that Fourier
differentiation, antidifferentiation and dealiased products are exact for
band-limited data.  Fields are immutable after construction; every operation
is a pure function returning a new field.

Every :class:`RealField2D` carries one of the four parity classes and holds
only its quarter box, the samples x = i dx, y = j dy for i, j = 0..n/2 (x
in [0, Lx], y in [0, Ly]; the node Lx is the periodic copy of -Lx), from
which the parity fixes the whole period.  An odd axis holds exact zeros at
0 and n/2, so fields of any two classes have the same shape and pointwise
algebra on them stays in its class.  ``values`` unfolds the full grid on
demand.

Invariant: every :class:`RealField2D` is exactly parity-symmetric.  The
class is checked only where data enter, in the public constructor (hence
``io.read_field``); operations whose output parity follows from algebra
build through ``_tagged``, which trusts it and adopts their array with no
copy.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial

import numpy as np
from scipy import fft as sfft

from .errors import GridMismatch, NonZeroMean, SymmetryViolation

SYMMETRY_TOL = 1e-10
ZERO_MEAN_TOL = 1e-8


class Symmetry(str, enum.Enum):
    """Parity class of a real field: parity in x crossed with parity in y.

    Each member asserts f(-x,y) = +/- f(x,y) and f(x,-y) = +/- f(x,y)
    pointwise on the grid.
    """

    ODD_X_EVEN_Y = "odd_x_even_y"
    EVEN_X_EVEN_Y = "even_x_even_y"
    ODD_X_ODD_Y = "odd_x_odd_y"
    EVEN_X_ODD_Y = "even_x_odd_y"

    @property
    def x_parity(self) -> int:
        """+1 even, -1 odd."""
        return -1 if self.value.startswith("odd_x") else 1

    @property
    def y_parity(self) -> int:
        return -1 if self.value.endswith("odd_y") else 1

    @staticmethod
    def from_parities(px: int, py: int) -> "Symmetry":
        x = "odd_x" if px < 0 else "even_x"
        y = "odd_y" if py < 0 else "even_y"
        return Symmetry(f"{x}_{y}")

    def differentiated(self, m: int, n: int) -> "Symmetry":
        """Parity class of the (m, n)-th partial derivative: x-parity times
        (-1)^m, y-parity times (-1)^n."""
        return Symmetry.from_parities(self.x_parity * (-1) ** m, self.y_parity * (-1) ** n)

    def product(self, other: "Symmetry") -> "Symmetry":
        return Symmetry.from_parities(
            self.x_parity * other.x_parity, self.y_parity * other.y_parity
        )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on [-Lx, Lx) x [-Ly, Ly).

    Points are x_j = (j - nx/2) dx, y_k = (k - ny/2) dy, dx = 2Lx/nx and
    dy = 2Ly/ny, exactly symmetric about 0; the wavenumbers kx = pi*k/Lx and
    ky = pi*k/Ly, k = 0..n/2, and the dealias mask index the quarter box's spectrum.
    """

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self):
        if not (_is_power_of_two(self.nx) and self.nx >= 16):
            raise ValueError(f"nx must be a power of two >= 16, got {self.nx}")
        if not (_is_power_of_two(self.ny) and self.ny >= 16):
            raise ValueError(f"ny must be a power of two >= 16, got {self.ny}")
        if not (0 < self.Lx < math.inf and 0 < self.Ly < math.inf):
            raise ValueError(f"half-widths must be finite and positive: Lx={self.Lx}, Ly={self.Ly}")

    @cached_property
    def dx(self) -> float:
        return 2.0 * self.Lx / self.nx

    @cached_property
    def dy(self) -> float:
        return 2.0 * self.Ly / self.ny

    @cached_property
    def x(self) -> np.ndarray:
        return self.dx * (np.arange(self.nx) - self.nx // 2)

    @cached_property
    def y(self) -> np.ndarray:
        return self.dy * (np.arange(self.ny) - self.ny // 2)

    @cached_property
    def kx(self) -> np.ndarray:
        """Wavenumbers pi*k/Lx along axis 0, k = 0..nx/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.nx, d=self.dx)

    @cached_property
    def ky(self) -> np.ndarray:
        """Wavenumbers pi*k/Ly along axis 1, k = 0..ny/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.dy)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask (nx/2+1, ny/2+1): k <= n/3 on both axes."""
        mx, my = (np.arange(n // 2 + 1) <= n // 3 for n in (self.nx, self.ny))
        return mx[:, None] & my[None, :]


def make_grid(nx: int, ny: int, Lx: float, Ly: float) -> Grid2D:
    """Build a periodic grid; rejects non-power-of-two sizes and Lx, Ly not in (0, inf)."""
    return Grid2D(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly))


def _reflect(v: np.ndarray, axis: int) -> np.ndarray:
    """Periodic samples mirrored about index 0 along ``axis``: j -> -j mod n,
    the extension under which the DFT of even (odd) data is a DCT-I (DST-I)."""
    v = np.moveaxis(v, axis, 0)
    return np.moveaxis(np.concatenate([v[:1], v[:0:-1]]), 0, axis)


def _quarter_axes(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of the quarter box, x as a column and y as a row."""
    return grid.dx * np.arange(grid.nx // 2 + 1.0)[:, None], grid.dy * np.arange(grid.ny // 2 + 1.0)


def _stored(vals: np.ndarray) -> np.ndarray:
    """The quarter-box samples of full-grid ``vals`` a field stores, fresh."""
    return vals[np.ix_(*(np.r_[n // 2 : n, 0] for n in vals.shape[:2]))]


def _kept(parity: int) -> slice:
    """Indices of a quarter axis that fix data of ``parity``: 0..n/2, or 1..n/2-1 if odd."""
    return slice(None) if parity > 0 else slice(1, -1)


def _quarter(q: np.ndarray, px: int, py: int) -> np.ndarray:
    """The samples that fix data of parities (px, py) in its stored quarter."""
    return q[_kept(px), _kept(py)]


def _padded(k: np.ndarray, px: int, py: int) -> np.ndarray:
    """Inverse of ``_quarter``: the stored quarter, zero at the ends of an odd axis."""
    if px > 0 and py > 0:
        return k
    q = np.zeros((k.shape[0] + 2 * (px < 0), k.shape[1] + 2 * (py < 0)) + k.shape[2:])
    q[_kept(px), _kept(py)] = k
    return q


def _unfold(q: np.ndarray, px: int, py: int) -> np.ndarray:
    """The full period of data of parities (px, py) from its stored quarter:
    per axis the node -L (the copy of L), the mirror image of 1..n/2-1 times
    the parity, then 0..n/2-1."""
    for axis, p in enumerate((px, py)):
        v = np.moveaxis(q, axis, 0)
        q = np.moveaxis(np.concatenate([v[-1:], p * v[-2:0:-1], v[:-1]]), 0, axis)
    return q


def _halo_stencil(v: np.ndarray, c: np.ndarray, axis: int, parity: int) -> np.ndarray:
    """sum_k c[k] v[i + k - w], w = len(c) // 2, along ``axis`` of samples
    from node 0 on, continued below it by ``parity``; the last w are nan."""
    w = len(c) // 2
    v = np.moveaxis(v, axis, 0)
    ext = np.concatenate([parity * v[w:0:-1], v, np.full_like(v[:w], np.nan)])
    n = len(v)
    return np.moveaxis(sum(ck * ext[k : k + n] for k, ck in enumerate(c) if ck != 0.0), 0, axis)


def _symmetry_defect(values: np.ndarray, symmetry: Symmetry) -> float:
    """Max relative deviation of ``values`` from its declared parity."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for axis, p in enumerate((symmetry.x_parity, symmetry.y_parity)):
        worst = max(worst, float(np.max(np.abs(_reflect(values, axis) - p * values))))
    return worst / scale


@dataclass(frozen=True)
class RealField2D:
    """A real scalar field sampled on a :class:`Grid2D`, exactly in the
    parity class ``symmetry``.

    The public constructor, ``RealField2D(grid, values, symmetry)`` with all
    nx x ny samples, is where data enter: it checks shape, finiteness and
    the class to ``SYMMETRY_TOL`` relative, projects the sub-tolerance
    remainder away and keeps the quarter box (module docstring) in
    ``data``.  Package operations build through ``_tagged`` instead.
    """

    grid: Grid2D
    data: np.ndarray = field(repr=False)
    symmetry: Symmetry

    def __post_init__(self):
        vals = np.asarray(self.data, dtype=np.float64)
        if vals.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        defect = _symmetry_defect(vals, self.symmetry)
        if defect > SYMMETRY_TOL:
            raise SymmetryViolation(
                f"declared {self.symmetry.value} violated: relative defect "
                f"{defect:.3e} > {SYMMETRY_TOL:.1e}"
            )
        # make the parity exact so downstream arithmetic stays exactly
        # symmetric even through cancellation-heavy differences
        if defect > 0.0:
            vals = _project_parity(vals, self.symmetry)
        data = _stored(vals)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @cached_property
    def values(self) -> np.ndarray:
        """All nx x ny samples, read-only: ``data`` unfolded."""
        vals = _unfold(self.data, self.symmetry.x_parity, self.symmetry.y_parity)
        vals.flags.writeable = False
        return vals

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``_spectrum(self)``, taken once: every multiplier on the field reads it."""
        return _spectrum(self)

    # -- small arithmetic helpers (pointwise, in one class) -----------------
    def __add__(self, other: "RealField2D") -> "RealField2D":
        return _combined(np.add, self, other, _same_class(self, other))

    def __sub__(self, other: "RealField2D") -> "RealField2D":
        return _combined(np.subtract, self, other, _same_class(self, other))

    def scaled(self, c: float) -> "RealField2D":
        return _tagged(self.grid, c * self.data, self.symmetry)


@dataclass(frozen=True)
class ComplexField2D:
    """Complex field stored as a (re, im) pair on a common grid."""

    re: RealField2D
    im: RealField2D

    def __post_init__(self):
        if self.re.grid != self.im.grid:
            raise GridMismatch("re and im parts live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.re.grid


def _check_same_grid(f: RealField2D, g: RealField2D) -> None:
    if f.grid != g.grid:
        raise GridMismatch("fields are on different grids")


def _same_class(f: RealField2D, g: RealField2D) -> Symmetry:
    """The class of ``f`` and ``g``; a sum of two classes is in none."""
    if f.symmetry is not g.symmetry:
        raise SymmetryViolation(f"{f.symmetry.value} and {g.symmetry.value} fields do not add")
    return f.symmetry


def _tagged(grid: Grid2D, vals: np.ndarray, symmetry: Symmetry) -> RealField2D:
    """Field adopting ``vals``, fresh stored samples of data exactly in the
    class ``symmetry`` by construction: made read-only, not copied or checked."""
    vals.flags.writeable = False
    f = object.__new__(RealField2D)
    vars(f).update(grid=grid, data=vals, symmetry=symmetry)
    return f


def _combined(op, f: RealField2D, g: RealField2D, symmetry: Symmetry) -> RealField2D:
    """``op(f, g)`` pointwise on the quarters, tagged ``symmetry``; ``op`` is
    linear, so when both keep a spectrum the result keeps ``op`` of them."""
    _check_same_grid(f, g)
    h = _tagged(f.grid, op(f.data, g.data), symmetry)
    if "spectrum" in vars(f) and "spectrum" in vars(g):
        hat = op(f.spectrum, g.spectrum)
        hat.flags.writeable = False
        vars(h)["spectrum"] = hat
    return h


def _project_parity(vals: np.ndarray, symmetry: Symmetry) -> np.ndarray:
    """Orthogonal projection of full-grid data onto the parity class
    ``symmetry``, exactly symmetric: data that enter are made exact here."""
    for axis, p in enumerate((symmetry.x_parity, symmetry.y_parity)):
        vals = 0.5 * (vals + p * _reflect(vals, axis))
    return vals


def _multiplied(f: RealField2D, symmetry: Symmetry, *factors: np.ndarray) -> RealField2D:
    """The Fourier multiplier ``factors`` (on the wavenumbers k = 0..n/2 of ``Grid2D``; their
    product, one at least) acting on ``f``, tagged ``symmetry``: every spectral operation of
    the package on fields, as ``_phased`` and ``_inverse``.  On the stored quarters the DFT of
    even (odd) data on k = 0..n/2 (1..n/2-1) is the DCT-I (-i times the DST-I) of its samples
    (Martucci 1994), so the output is in its class by construction."""
    return _inverse(_phased(f, symmetry, *factors), f.grid, symmetry)


def _spectrum(f: RealField2D) -> np.ndarray:
    """The DCT-I/DST-I of ``f``'s stored quarter, zero at the ends of an odd
    axis, fresh and read-only; read it as ``f.spectrum``, which keeps it."""
    pin = (f.symmetry.x_parity, f.symmetry.y_parity)
    q = _quarter(f.data, *pin)
    for axis, p in enumerate(pin):
        q = (sfft.dct if p > 0 else sfft.dst)(q, type=1, axis=axis, overwrite_x=axis > 0)
    hat = _padded(q, *pin)
    hat.flags.writeable = False
    return hat


def _phased(f: RealField2D, symmetry: Symmetry, *factors: np.ndarray) -> np.ndarray:
    """``factors`` times ``f.spectrum`` as the spectrum of class ``symmetry``: each complex
    factor (one per axis at most, varying along it) is made real by the classes' phases."""
    pin, pout = (f.symmetry.x_parity, f.symmetry.y_parity), (symmetry.x_parity, symmetry.y_parity)
    hat = f.spectrum
    for factor in factors:
        if np.iscomplexobj(factor):
            axis = int(factor.shape[0] == 1)
            # phase(in) / phase(out), with phase(even) = 1 and phase(odd) = -i
            factor = ((-1j) ** ((pin[axis] - pout[axis]) // -2) * factor).real
        hat = hat * factor
    return hat


def _inverse(hat: np.ndarray, grid: Grid2D, symmetry: Symmetry) -> RealField2D:
    """The field of class ``symmetry`` on ``grid`` with spectrum ``hat``, which is not written."""
    pout = (symmetry.x_parity, symmetry.y_parity)
    q = _quarter(hat, *pout)
    for axis, p in enumerate(pout):
        q = (sfft.idct if p > 0 else sfft.idst)(q, type=1, axis=axis, overwrite_x=axis > 0)
    return _tagged(grid, _padded(q, *pout), symmetry)


def _ik_power(k: np.ndarray, order: int) -> np.ndarray:
    """(i k)^order on one wavenumber axis k = 0..n/2; for odd orders the
    Nyquist entry, the last, is zeroed so that real data stay real."""
    factor = (1j * k) ** order
    if order % 2 == 1:
        factor[-1] = 0.0
    return factor


def _check_zero_x_mean(f: RealField2D, what: str) -> None:
    """Raise NonZeroMean unless every y-line of ``f`` has zero x-mean (over
    the full grid, read off the quarter by ``_trapezoid``) to ``ZERO_MEAN_TOL``
    of its sup, as the zero-mode-free dx^-1 requires (odd-in-x data have it exactly)."""
    if f.symmetry.x_parity < 0:
        return
    scale = float(np.max(np.abs(f.data)))
    worst = float(np.max(np.abs(_trapezoid(f.grid.nx) @ f.data / f.grid.nx)))
    if worst > ZERO_MEAN_TOL * scale:
        raise NonZeroMean(f"{what}: x-line mean {worst:.3e} exceeds {ZERO_MEAN_TOL:.1e} * sup")


def derivative(f: RealField2D, m: int, n: int) -> RealField2D:
    """Spectral partial derivative d^m/dx^m d^n/dy^n.

    Fourier coefficients are multiplied by (i xi1)^m (i xi2)^n; Nyquist rows
    are zeroed for odd orders so the result stays real-valued.  The symmetry
    tag is ``f.symmetry.differentiated(m, n)``.
    """
    if not (0 <= m <= 4 and 0 <= n <= 4):
        raise ValueError("derivative orders must satisfy 0 <= m, n <= 4")
    if m == 0 and n == 0:
        return f
    # (i k)^0 is 1: an order 0 factor leaves the spectrum's bits as they are
    return _multiplied(f, f.symmetry.differentiated(m, n),
                       _ik_power(f.grid.kx, m)[:, None], _ik_power(f.grid.ky, n)[None, :])


def spectral_table(f: RealField2D) -> Callable[[int, int], RealField2D]:
    """(m, n) -> ``derivative(f, m, n)``, memoized: every order reads the
    spectrum ``f`` keeps, and costs one product and one inverse transform."""
    return cache(partial(derivative, f))


def antiderivative_x(f: RealField2D) -> RealField2D:
    """Zero-mode-free x-antiderivative: divide by (i xi1), drop the xi1 = 0 row.

    Requires zero x-mean on every y-line (relative to the field's sup), which
    holds automatically for odd-in-x data.  For integrands decaying in x this
    coincides with -int_x^inf f ds up to truncation error.
    """
    _check_zero_x_mean(f, "antiderivative_x")
    grid = f.grid
    inv = np.zeros_like(grid.kx, dtype=np.complex128)
    nz = grid.kx != 0.0
    inv[nz] = 1.0 / (1j * grid.kx[nz])
    inv[-1] = 0.0
    return _multiplied(f, f.symmetry.differentiated(1, 0), inv[:, None])


def dealias(f: RealField2D) -> RealField2D:
    """Truncate the spectrum with the 2/3 rule."""
    return _multiplied(f, f.symmetry, f.grid.dealias_mask)


def weighted_sup(f: RealField2D, p: float, delta: float) -> float:
    """sup over the grid of (1 + r)^(p - delta) |f|."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if not (0 <= delta < 1):
        raise ValueError("delta must lie in [0, 1)")
    return float(np.max(_radial_weight(f.grid, p - delta) * np.abs(f.data)))


@lru_cache(maxsize=8)
def _radial_weight(grid: Grid2D, power: float) -> np.ndarray:
    """(1 + r)^power on the quarter box, memoized: the norm suite asks for a
    few powers over and over."""
    w = (1.0 + np.hypot(*_quarter_axes(grid))) ** power
    w.flags.writeable = False
    return w


def _trapezoid(n: int) -> np.ndarray:
    """(1, 2, ..., 2, 1): the grid points each sample of a quarter axis stands for."""
    return np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]


@lru_cache(maxsize=8)
def _multiplicity(grid: Grid2D) -> np.ndarray:
    """The grid points each quarter-box sample of an even/even field stands
    for: ``_trapezoid`` per axis."""
    w = np.outer(_trapezoid(grid.nx), _trapezoid(grid.ny))
    w.flags.writeable = False
    return w


def l2_norm(f: RealField2D) -> float:
    """sqrt(sum f^2 dx dy): the rectangle rule, exact for the periodic box."""
    return math.sqrt(inner(f, f))


def inner(f: RealField2D, g: RealField2D) -> float:
    """L2 inner product with the grid measure; exactly 0 for a product odd in x or y."""
    _check_same_grid(f, g)
    if f.symmetry.product(g.symmetry) is not Symmetry.EVEN_X_EVEN_Y:
        return 0.0
    total = np.sum(_multiplicity(f.grid) * f.data * g.data)
    return float(total * f.grid.dx * f.grid.dy)


def _sampled(grid: Grid2D, vals: np.ndarray, symmetry: Symmetry) -> RealField2D:
    """Field from closed-form samples on ``_quarter_axes``: along an odd axis
    the nodes 0 and L (the periodic copy of -L) are set to 0."""
    if symmetry.x_parity < 0:
        vals[[0, -1]] = 0.0
    if symmetry.y_parity < 0:
        vals[:, [0, -1]] = 0.0
    return _tagged(grid, vals, symmetry)


def zeros(grid: Grid2D, symmetry: Symmetry) -> RealField2D:
    return _tagged(grid, np.zeros((grid.nx // 2 + 1, grid.ny // 2 + 1)), symmetry)
