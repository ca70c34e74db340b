"""
End-to-end verification in the original travelling-wave variables.

``assemble_phi`` lifts a constructed state to the complex wave profile
Phi = (1 + e^2 f1 + e^4 f2) + i e g1 on the stretched grid;
``gp_system_residual`` back-substitutes into the coupled real system (the
stretched form of the travelling-wave equation) and reports sup and weighted
sup norms, the energy, the far-field dipole fit and the distance of Phi from
its first-order transonic approximation.  This is the module that closes the
loop: every algebraic identity used inside the construction is verified here
against the equation the construction set out to solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolation
from .grid import ComplexField2D, Grid2D, RealField2D, Symmetry, _tagged, _unfold
from .lump import SQRT2
from .reduction import ReductionState, f1_derivative

EDGE_MARGIN = 8


@dataclass(frozen=True)
class GpResidualReport:
    """Back-substitution record of a constructed state."""

    eps: float
    c: float
    res1_sup: float
    res2_sup: float
    res1_weighted: float
    res2_weighted: float
    energy: float
    alpha: float
    beta: float
    farfield_fit_residual: float
    theorem_gap: float


def assemble_phi(state: ReductionState, f2: RealField2D) -> ComplexField2D:
    """Phi = (1 + e^2 f1 + e^4 f2) + i e g1 on the stretched grid."""
    if f2.symmetry is not Symmetry.EVEN_X_EVEN_Y:
        raise SymmetryViolation("assemble_phi expects an even_x_even_y f2")
    e2 = state.eps**2
    re = _tagged(state.grid, 1.0 + e2 * state.f1.data + e2**2 * f2.data, Symmetry.EVEN_X_EVEN_Y)
    im = state.g1.scaled(state.eps)
    return ComplexField2D(re=re, im=im)


def _interior(g: Grid2D) -> tuple[slice, slice]:
    """Index window EDGE_MARGIN nodes in from the box boundary, where sups and
    the energy are taken; ValueError when the grid leaves it empty."""
    m = EDGE_MARGIN
    if min(g.nx, g.ny) <= 2 * m:
        raise ValueError(
            f"grid nx = {g.nx}, ny = {g.ny} leaves no interior inside the "
            f"EDGE_MARGIN = {m} edge nodes: nx and ny must exceed {2 * m}"
        )
    return slice(m, g.nx - m), slice(m, g.ny - m)


def _fd_derivative(vals: np.ndarray, h: float, axis: int, order: int = 1) -> np.ndarray:
    """Non-wrapping centered finite difference (6th order interior, shifted
    one-sided stencils at the edges).

    Sampled slowly-decaying fields are not periodic; spectral differentiation
    would ring at the box seam, so pointwise verification uses plain stencils.
    """
    if axis == 1:
        return _fd_derivative(vals.T, h, 0, order).T
    n = vals.shape[0]
    out = np.empty_like(vals)
    if order == 1:
        c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    elif order == 2:
        c = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h * h)
    else:
        raise ValueError("order must be 1 or 2")
    w = 3
    core = sum(ck * vals[k : n - 2 * w + k, :] for k, ck in enumerate(c))
    out[w : n - w, :] = core
    # one-sided edges by polynomial fit through the nearest 7 samples
    x = h * np.arange(7)
    for i in range(w):
        coeffs_lo = _fd_onesided(x, i * h, order)
        coeffs_hi = _fd_onesided(x, (6 - i) * h, order)
        out[i, :] = coeffs_lo @ vals[:7, :]
        out[n - 1 - i, :] = coeffs_hi @ vals[-7:, :]
    return out


def _fd_onesided(x: np.ndarray, at: float, order: int) -> np.ndarray:
    V = np.vander(x - at, increasing=True)
    inv = np.linalg.inv(V.T)
    fact = math.factorial(order)
    return inv[:, order] * fact


def gp_system_residual(state: ReductionState, f2: RealField2D) -> "GpResidualReport":
    """Residuals of the coupled stretched system for the assembled profile.

    r1 =  c e dx g + e^4 dyy f + e^2 dxx f - (f^2 + g^2 - 1) f
    r2 = -c e dx f + e^4 dyy g + e^2 dxx g - (f^2 + g^2 - 1) g

    g = e (q + phi), f = 1 + e^2 f1 + e^4 f2 with f1 slaved to g1: every
    combination reduces to lump derivatives (exact) and phi derivatives
    (spectral, phi is grid-native), both from the state's derivative table,
    and f2 derivatives (finite differences: the transport solution is not
    band-limited and must not wrap).  The table's quarter-box orders are
    unfolded to the full grid, where the stencils run.

    Sups are taken over the interior window (EDGE_MARGIN nodes in from the
    box boundary): the sampled profile is not periodic and the outermost ring
    carries seam artifacts of the finite box rather than equation error.
    """
    eps = state.eps
    e2 = eps * eps
    e4 = e2 * e2
    c = state.c
    g = state.grid
    win = _interior(g)
    d = state.derivs

    orders = ((0, 0), (1, 0), (2, 0), (0, 2))
    # the stored orders, all even in y, unfolded by their x-parity
    full = lambda vals, px, m: _unfold(vals, px * (-1) ** m, 1)
    g1, g1_x, g1_xx, g1_yy = (full(d.g1_d(*mn), -1, mn[0]) for mn in orders)
    f1, f1_x, f1_xx, f1_yy = (full(f1_derivative(d.g1_d, *mn), 1, mn[0]) for mn in orders)

    fv = 1.0 + e2 * f1 + e4 * f2.values
    gv = eps * g1
    f_x = e2 * f1_x + e4 * _fd_derivative(f2.values, g.dx, 0, 1)
    f_xx = e2 * f1_xx + e4 * _fd_derivative(f2.values, g.dx, 0, 2)
    f_yy = e2 * f1_yy + e4 * _fd_derivative(f2.values, g.dy, 1, 2)
    g_x = eps * g1_x
    g_xx = eps * g1_xx
    g_yy = eps * g1_yy

    bulk = fv**2 + gv**2 - 1.0
    r1 = c * eps * g_x + e4 * f_yy + e2 * f_xx - bulk * fv
    r2 = -c * eps * f_x + e4 * g_yy + e2 * g_xx - bulk * gv

    wgt = (1.0 + g.r) ** 3

    q = full(d.q_d(0, 0), -1, 0)
    gap_field = np.sqrt((fv - 1.0) ** 2 + (gv - eps * q) ** 2) / e2

    phi_c = assemble_phi(state, f2)
    alpha, beta, fit_res = farfield_fit(phi_c, eps)

    return GpResidualReport(
        eps=eps,
        c=c,
        res1_sup=float(np.max(np.abs(r1[win]))),
        res2_sup=float(np.max(np.abs(r2[win]))),
        res1_weighted=float(np.max((wgt * np.abs(r1))[win])),
        res2_weighted=float(np.max((wgt * np.abs(r2))[win])),
        energy=energy(phi_c, eps),
        alpha=alpha,
        beta=beta,
        farfield_fit_residual=fit_res,
        theorem_gap=float(np.max(gap_field)),
    )


def energy(phi: ComplexField2D, eps: float) -> float:
    """Hamiltonian energy in the original (unstretched) variables.

    Gradient terms pick up the chain-rule factors of the stretching
    (d/dx_orig = e d/dx, d/dy_orig = e^2 d/dy) and the inverse Jacobian
    1/e^3 of the area element.  Derivatives are non-wrapping finite
    differences, which keeps the value exactly invariant under a global
    phase rotation and free of periodic-seam energy.
    """
    g = phi.grid
    win = _interior(g)
    e2 = eps * eps
    fx = _fd_derivative(phi.re.values, g.dx, 0, 1)
    fy = _fd_derivative(phi.re.values, g.dy, 1, 1)
    gx = _fd_derivative(phi.im.values, g.dx, 0, 1)
    gy = _fd_derivative(phi.im.values, g.dy, 1, 1)
    grad_sq = e2 * (fx**2 + gx**2) + e2**2 * (fy**2 + gy**2)
    quart = (phi.re.values**2 + phi.im.values**2 - 1.0) ** 2
    dens = 0.5 * grad_sq + 0.25 * quart
    # quadrature over the interior window: the outermost ring holds the
    # box-edge seam of sampled slowly-decaying fields, not physical density
    return float(np.sum(dens[win]) * g.dx * g.dy / eps**3)


def farfield_fit(phi: ComplexField2D, eps: float) -> tuple[float, float, float]:
    """Least-squares dipole fit of |z| Im(Phi - 1) on a boundary ring.

    The model is the subsonic far-field form in original variables,
    (alpha x + beta y) sqrt(x^2+y^2) / (x^2 + (1 - c^2/2) y^2), sampled on
    the stretched grid ring r in [0.6, 0.9] min(Lx, Ly); beta vanishes for
    the even-in-y family.  Returns (alpha, beta, relative fit residual).
    """
    g = phi.grid
    c = SQRT2 - eps**2
    rmin = 0.6 * min(g.Lx, g.Ly)
    rmax = 0.9 * min(g.Lx, g.Ly)
    ring = (g.r >= rmin) & (g.r <= rmax)
    if not np.any(ring):
        raise ValueError("boundary ring is empty")
    xt = g.X[ring] / eps
    yt = g.Y[ring] / eps**2
    rt = np.hypot(xt, yt)
    denom = xt**2 + (1.0 - c * c / 2.0) * yt**2
    b1 = xt * rt / denom
    b2 = yt * rt / denom
    data = rt * phi.im.values[ring]
    A = np.vstack([b1, b2]).T
    sol, *_ = np.linalg.lstsq(A, data, rcond=None)
    fit = A @ sol
    resid = float(np.linalg.norm(data - fit) / (np.linalg.norm(data) + 1e-300))
    return float(sol[0]), float(sol[1]), resid
