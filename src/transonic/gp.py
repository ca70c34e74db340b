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

Everything here runs on the stored quarter boxes of the parity-tagged
inputs: the finite-difference stencils continue each field across x = 0 and
y = 0 by its parity, sups read the quarter nodes whose images fill the
interior window, and the energy and the far-field fit weight each node by
the grid points it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SymmetryViolation
from .grid import (
    ComplexField2D,
    Grid2D,
    RealField2D,
    Symmetry,
    _halo_stencil,
    _multiplicity,
    _quarter_axes,
    _radial_weight,
    _tagged,
    _trapezoid,
)
from .lump import wave_speed
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
    """The quarter-box nodes 0..n/2 - EDGE_MARGIN of each axis, where sups and
    the energy are taken: their images are the full-grid window
    [EDGE_MARGIN, n - EDGE_MARGIN), EDGE_MARGIN nodes in from the box
    boundary, whose far end holds the last node's -x image only.
    ValueError when the grid leaves the window empty."""
    m = EDGE_MARGIN
    if min(g.nx, g.ny) <= 2 * m:
        raise ValueError(
            f"grid nx = {g.nx}, ny = {g.ny} leaves no interior inside the "
            f"EDGE_MARGIN = {m} edge nodes: nx and ny must exceed {2 * m}"
        )
    return slice(0, g.nx // 2 - m + 1), slice(0, g.ny // 2 - m + 1)


def _fd_derivative(f: RealField2D, axis: int, order: int = 1) -> np.ndarray:
    """Non-wrapping centered 6th-order difference for the first (``order`` 1)
    or second (``order`` 2) derivative of ``f`` along ``axis``, on its stored
    quarter (``grid._halo_stencil``): a three-node halo below node 0
    continues the samples by their parity, and the last three nodes, outside
    every ``_interior`` window, are nan.

    Sampled slowly-decaying fields are not periodic; spectral differentiation
    would ring at the box seam, so pointwise verification uses plain stencils.
    """
    h = (f.grid.dx, f.grid.dy)[axis]
    if order == 1:
        c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    else:
        c = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h * h)
    return _halo_stencil(f.data, c, axis, (f.symmetry.x_parity, f.symmetry.y_parity)[axis])


def gp_system_residual(state: ReductionState, f2: RealField2D) -> "GpResidualReport":
    """Residuals of the coupled stretched system for the assembled profile.

    r1 =  c e dx g + e^4 dyy f + e^2 dxx f - (f^2 + g^2 - 1) f
    r2 = -c e dx f + e^4 dyy g + e^2 dxx g - (f^2 + g^2 - 1) g

    g = e (q + phi), f = 1 + e^2 f1 + e^4 f2 with f1 slaved to g1: every
    combination reduces to lump derivatives (exact) and phi derivatives
    (spectral, phi is grid-native), both from the state's derivative table,
    and f2 derivatives (finite differences: the transport solution is not
    band-limited and must not wrap).  All of it runs on the stored quarter
    box: the table's orders as they are stored, the f2 stencils across the
    parity halo of ``_fd_derivative``.

    Sups are taken over the interior window (``_interior``, EDGE_MARGIN
    nodes in from the box boundary): the sampled profile is not periodic and
    the outermost ring carries seam artifacts of the finite box rather than
    equation error.  ``theorem_gap`` is the sup over the whole box.
    """
    eps = state.eps
    e2 = eps * eps
    e4 = e2 * e2
    c = state.c
    g = state.grid
    win = _interior(g)
    phi_c = assemble_phi(state, f2)

    orders = ((0, 0), (1, 0), (2, 0), (0, 2))
    g1, g1_x, g1_xx, g1_yy = (state.g1_d(*mn) for mn in orders)
    f1, f1_x, f1_xx, f1_yy = (f1_derivative(state.g1_d, *mn) for mn in orders)

    fv = 1.0 + e2 * f1 + e4 * f2.data
    gv = eps * g1
    f_x = e2 * f1_x + e4 * _fd_derivative(f2, 0, 1)
    f_xx = e2 * f1_xx + e4 * _fd_derivative(f2, 0, 2)
    f_yy = e2 * f1_yy + e4 * _fd_derivative(f2, 1, 2)
    g_x = eps * g1_x
    g_xx = eps * g1_xx
    g_yy = eps * g1_yy

    bulk = fv**2 + gv**2 - 1.0
    r1 = np.abs(c * eps * g_x + e4 * f_yy + e2 * f_xx - bulk * fv)[win]
    r2 = np.abs(-c * eps * f_x + e4 * g_yy + e2 * g_xx - bulk * gv)[win]

    wgt = _radial_weight(g, 3.0)[win]

    gap_field = np.sqrt((fv - 1.0) ** 2 + (gv - eps * state.q_d(0, 0)) ** 2) / e2

    alpha, beta, fit_res = farfield_fit(phi_c, eps)

    return GpResidualReport(
        eps=eps,
        c=c,
        res1_sup=float(np.max(r1)),
        res2_sup=float(np.max(r2)),
        res1_weighted=float(np.max(wgt * r1)),
        res2_weighted=float(np.max(wgt * r2)),
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
    fx, fy = (_fd_derivative(phi.re, axis, 1)[win] for axis in (0, 1))
    gx, gy = (_fd_derivative(phi.im, axis, 1)[win] for axis in (0, 1))
    grad_sq = e2 * (fx**2 + gx**2) + e2**2 * (fy**2 + gy**2)
    quart = (phi.re.data[win] ** 2 + phi.im.data[win] ** 2 - 1.0) ** 2
    dens = 0.5 * grad_sq + 0.25 * quart
    # quadrature over the interior window: the outermost ring holds the
    # box-edge seam of sampled slowly-decaying fields, not physical density.
    # The density is even in x and y; each window node stands for its images
    # inside [EDGE_MARGIN, n - EDGE_MARGIN): (1, 2, ..., 2, 1) per axis
    m2 = 2 * EDGE_MARGIN
    wgt = np.outer(_trapezoid(g.nx - m2), _trapezoid(g.ny - m2))
    return float(np.sum(wgt * dens) * g.dx * g.dy / eps**3)


def farfield_fit(phi: ComplexField2D, eps: float) -> tuple[float, float, float]:
    """Least-squares dipole fit of |z| Im(Phi - 1) on a boundary ring.

    The model is the subsonic far-field form in original variables,
    (alpha x + beta y) sqrt(x^2+y^2) / (x^2 + (1 - c^2/2) y^2), sampled on
    the stretched grid ring r in [0.6, 0.9] min(Lx, Ly), never empty since
    n >= 16 puts the shorter axis's spacing at most L/8.  The fit runs on the
    quarter box, each node weighted by the grid points it stands for
    (``grid._multiplicity``).  Im Phi is odd in x and even in y, so the
    beta column, odd in y, is orthogonal over the symmetric ring to both the
    data and the alpha column: beta is exactly 0, and alpha is the one-column
    fit.  Returns (alpha, beta, relative fit residual).
    """
    if phi.im.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("farfield_fit expects an odd_x_even_y Im(Phi)")
    g = phi.grid
    c = wave_speed(eps)
    rmin = 0.6 * min(g.Lx, g.Ly)
    rmax = 0.9 * min(g.Lx, g.Ly)
    x, y = _quarter_axes(g)
    r = np.hypot(x, y)
    ring = (r >= rmin) & (r <= rmax)
    xt = np.broadcast_to(x, r.shape)[ring] / eps
    yt = np.broadcast_to(y, r.shape)[ring] / eps**2
    rt = np.hypot(xt, yt)
    b1 = xt * rt / (xt**2 + (1.0 - c * c / 2.0) * yt**2)
    data = rt * phi.im.data[ring]
    wgt = _multiplicity(g)[ring]
    alpha = float(np.sum(wgt * b1 * data) / np.sum(wgt * b1 * b1))
    resid = np.sqrt(np.sum(wgt * (data - alpha * b1) ** 2))
    return alpha, 0.0, float(resid / (np.sqrt(np.sum(wgt * data**2)) + 1e-300))
