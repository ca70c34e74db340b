"""
Independent references the tests check the package against.

None of this is reached from the command line; each definition is a second,
deliberately different route to a quantity the package computes:

* ``_roots_ab``, ``dispersion_roots`` -- the array form of the factorization
  d = d4 e^4 (xi2^2 + a)(xi2^2 + b) and the closed-form branch point c_eps,
  the references of ``kernel._row_builder`` and ``kernel.branch_point``;
* ``kernel_fourier_eval`` -- the kernel by direct 2D quadrature of the plane
  inversion integral, the third route beside ``kernel_residue_eval`` and
  ``kernel_fft``;
* ``apply_linearized`` -- the full linearized operator on the full grid,
  the reference of the coefficient operator ``linearized.solve_linearized``
  inverts and takes its verdict from;
* ``apply_L`` -- the reduced operator on the full grid, by its own
  rfft2/irfft2, the reference of ``linearized.eigen_extremes``;
* ``apply_lump_linearization`` -- the linearization of the lump's own
  equation, which annihilates the translation modes;
* ``product_dealiased`` -- the product of two fields, each truncated by the
  2/3 rule first;
* ``constant`` -- a constant even/even field;
* ``coordinates`` -- x, y and r on all nx x ny nodes of the full grid;
* ``gp_system_residual``, ``energy``, ``farfield_fit``, ``_fd_derivative``
  -- the GP back-substitution on the full grid: every input unfolded to all
  nx x ny nodes, the stencils run on the full grid (nan in their three edge
  rows), the sups and the energy over the window [EDGE_MARGIN, n -
  EDGE_MARGIN), the dipole fit by ``lstsq`` with both columns; the
  references of ``transonic.gp``, which runs on the stored quarter box.

The potential product T[(T dq)(T psi)] is built here from the package's
``derivative`` and ``dealias``, through ``product_dealiased``, in the order
``apply_linearized`` takes them.

Sign convention for ``apply_L``: the operator is written so that its unique
negative eigenvalue is the structural one (L psi = lambda psi with
lambda_1 < 0 < lambda_2 <= ...).  Equivalently it is the negative of the
second-order expression obtained by integrating the fourth-order operator
twice in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from transonic.gp import EDGE_MARGIN, GpResidualReport, assemble_phi
from transonic.grid import (
    ComplexField2D,
    Grid2D,
    RealField2D,
    Symmetry,
    _check_same_grid,
    _check_zero_x_mean,
    _combined,
    _multiplied,
    _tagged,
    _unfold,
    dealias,
    derivative,
)
from transonic.errors import SymmetryViolation
from transonic.kernel import KernelSymbolParams, _check_order
from transonic.linearized import LinearizedOperator, _constant_symbol
from transonic.lump import SQRT2, check_eps
from transonic.reduction import ReductionState, f1_derivative

# ---------------------------------------------------------------------------
# the kernel symbol's factorization and the plane inversion integral
# ---------------------------------------------------------------------------


def _discriminant(p: KernelSymbolParams, xi):
    """(b2 + g e^2 xi^2)^2 - 4 d4 e^4 (a4 xi^4 + a2 xi^2), as a complex array."""
    e2 = p.eps**2
    s = np.asarray(xi, dtype=float) ** 2
    lin = p.b2 + p.g * e2 * s
    return (lin * lin - 4.0 * p.d4 * e2**2 * (p.a4 * s * s + p.a2 * s)).astype(np.complex128)


def _roots_ab(p: KernelSymbolParams, xi):
    """Factorization d = d4 e^4 (xi2^2 + a)(xi2^2 + b) at fixed xi1 = xi.

    Returns (a, b, Droot) with Droot = sqrt(discriminant) (principal branch,
    so Droot = i|D| past the branch point).  ``a`` uses the rationalized form
    to avoid cancellation at small xi.
    """
    e4 = p.eps**4
    s = np.asarray(xi, dtype=float) ** 2
    lin = p.b2 + p.g * p.eps**2 * s
    droot = np.sqrt(_discriminant(p, xi))
    b = (lin + droot) / (2.0 * p.d4 * e4)
    a = 2.0 * (p.a4 * s * s + p.a2 * s) / (lin + droot)
    return a, b, droot


@dataclass(frozen=True)
class DispersionRoots:
    """Factorization data of the normalized symbol at a given eps.

    Provides the branch point c_eps and the discriminant root D(xi), the
    closed-form references of ``branch_point`` and ``_roots_ab``.
    """

    eps: float
    c_eps: float

    @property
    def params(self) -> KernelSymbolParams:
        return KernelSymbolParams.normalized(self.eps)

    def D(self, xi):
        """sqrt of the discriminant; real positive on (-c_eps, c_eps)."""
        return np.sqrt(_discriminant(self.params, xi))


def dispersion_roots(eps: float) -> DispersionRoots:
    """Branch point c_eps of the normalized discriminant, by the closed form."""
    check_eps(eps, "kernel")
    e2 = eps**2
    c2 = (1.0 - 2.0 * e2 + 2.0 * math.sqrt(1.0 - e2 + e2 * e2)) / (3.0 * e2)
    return DispersionRoots(eps=eps, c_eps=math.sqrt(c2))


def _panel_nodes(xi_max: float, osc_phase: float, origin_scale: float, growth: float, order: int):
    """Panelized Gauss-Legendre nodes/weights on (0, xi_max].

    Panels grow geometrically from ``origin_scale`` (resolving the integrable
    origin singularity of the symbol ratio) until the oscillation cap
    ``osc_phase`` limits their width.
    """
    edges = [0.0, origin_scale]
    while edges[-1] < xi_max:
        width = min((growth - 1.0) * edges[-1], osc_phase)
        edges.append(min(edges[-1] + max(width, origin_scale), xi_max))
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    e = np.asarray(edges)
    mid = 0.5 * (e[1:] + e[:-1])
    half = 0.5 * (e[1:] - e[:-1])
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


def kernel_fourier_eval(
    p: KernelSymbolParams,
    m: int,
    n: int,
    x: float,
    y: float,
    refine: int = 1,
    xi1_max: float = 120.0,
    xi2_max: float = 120.0,
) -> float:
    """Free-space kernel derivative by direct 2D quadrature of the inversion
    integral (2 pi)^-2 iint (i xi1)^m (i xi2)^n e^{i(x xi1 + y xi2)} / d  dxi.

    This is the plane-integral counterpart of ``kernel_fft`` without the
    periodization of a finite box: panelized Gauss-Legendre in both
    frequencies, first quadrant only (parity supplies the rest).  ``refine``
    doubles the quadrature resolution and extent for convergence studies.
    Practical for soft-tail orders (n <= 1); higher y-derivatives need
    prohibitive xi2 extents and are better served by the residue route.
    """
    _check_order(m, n)
    sgn = 1.0
    if x < 0.0:
        x, sgn = -x, sgn * (-1.0) ** m
    if y < 0.0:
        y, sgn = -y, sgn * (-1.0) ** n
    if (x == 0.0 and m % 2 == 1) or (y == 0.0 and n % 2 == 1):
        return 0.0

    osc1 = 4.0 / max(x, 0.4) / refine
    osc2 = 4.0 / max(y, 0.4) / refine
    xi1, w1 = _panel_nodes(xi1_max * refine, osc1, 1e-4 / refine, 1.6, 10)
    xi2, w2 = _panel_nodes(xi2_max * refine, osc2, 1e-4 / refine, 1.6, 10)

    osc_x = np.sin(x * xi1) if m % 2 else np.cos(x * xi1)
    osc_y = np.sin(y * xi2) if n % 2 else np.cos(y * xi2)
    ax1 = (xi1**m * w1 * osc_x)[:, None]
    ax2 = (xi2**n * w2 * osc_y)[None, :]

    e2 = p.eps**2
    total = 0.0
    chunk = max(1, int(4e6 // xi2.size))
    X2 = xi2[None, :] ** 2
    for lo in range(0, xi1.size, chunk):
        hi = min(lo + chunk, xi1.size)
        X1 = xi1[lo:hi, None] ** 2
        denom = p.a4 * X1**2 + p.a2 * X1 + p.b2 * X2 + p.g * e2 * X1 * X2 + p.d4 * e2**2 * X2**2
        total += float(np.sum(ax1[lo:hi] * ax2 / denom))

    sign = (-1.0) ** ((m + n + m % 2 + n % 2) // 2)
    return sgn * sign * total / math.pi**2


# ---------------------------------------------------------------------------
# dealiased products and the linearized operators on the full grid
# ---------------------------------------------------------------------------


def product_dealiased(f: RealField2D, g: RealField2D) -> RealField2D:
    """Pointwise product with 2/3-rule truncation of each factor first.

    Nonlinearities in this package are at most cubic, so truncating the
    factors is enough to keep quadratic products alias-free on the grid.
    The symmetry tag is the parity product.
    """
    _check_same_grid(f, g)
    return _combined(np.multiply, dealias(f), dealias(g), f.symmetry.product(g.symmetry))


def _potential_product(op: LinearizedOperator, psi: RealField2D) -> RealField2D:
    """Fully dealiased potential product T[(T dq)(T psi)].

    The outer truncation makes the product symmetric as a bilinear form,
    which keeps MINRES and LOBPCG on exactly self-adjoint operators and makes
    the second-order eigenpair identity transfer exactly to the fourth-order
    operator through x-antidifferentiation.
    """
    return dealias(product_dealiased(op.dq, psi))


def _coupling(op: LinearizedOperator, phi: RealField2D, coeff: float) -> RealField2D:
    """coeff * d/dx ( dq/dx * dphi/dx ), dealiased."""
    dphi = derivative(phi, 1, 0)
    return derivative(_potential_product(op, dphi), 1, 0).scaled(coeff)


def apply_linearized(op: LinearizedOperator, phi: RealField2D) -> RealField2D:
    """Full linearized operator applied to an odd-in-x, even-in-y field:
    the constant symbol minus the coupling coeff_nl dx T[(T dq)(T dx phi)].

    The outer truncation T makes the potential product symmetric as a
    bilinear form, which keeps MINRES and LOBPCG on exactly self-adjoint
    operators and makes the second-order eigenpair identity transfer exactly
    to the fourth-order operator through x-antidifferentiation.
    """
    if phi.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("apply_linearized expects an odd_x_even_y field")
    const = _multiplied(phi, phi.symmetry, _constant_symbol(op, phi.grid))
    dphi = dealias(derivative(phi, 1, 0))
    product = dealias(_combined(np.multiply, op.dealiased_dq, dphi, dphi.symmetry))
    return const - derivative(product, 1, 0).scaled(op.coeff_nl)


def apply_lump_linearization(op: LinearizedOperator, phi: RealField2D) -> RealField2D:
    """Linearization of the lump's own fourth-order equation about q.

    Same x-structure as ``apply_linearized`` but with the lump's nonlinear
    coefficient and without the epsilon-weighted y-terms; annihilates the
    translation modes dq/dx and dq/dy.
    """
    kx = phi.grid.kx[:, None]
    ky = phi.grid.ky[None, :]
    const = _multiplied(phi, phi.symmetry, kx**4 + op.c2 * kx**2 + 2.0 * ky**2)
    return const - _coupling(op, phi, op.coeff_lump_nl)


def apply_L(op: LinearizedOperator, psi: RealField2D) -> RealField2D:
    """Reduced operator: -dxx psi + c2 psi + V psi + 2 dx^-2 dyy psi.

    V is the lump potential (lump nonlinear coefficient times dq/dx).  The
    nonlocal term is defined by double zero-mode-free Fourier division, which
    requires zero x-mean on every y-line; the output is returned in the same
    zero-x-mean convention (the discrete antiderivative fixes integration
    constants per y-line, so the operator is only defined modulo x-constants).

    The full-grid reference for ``eigen_extremes``, independent of its
    cosine coefficients: the symbol, on its own FFT-ordered x wavenumbers,
    takes its own rfft2/irfft2 round trip on all nx x ny samples, and the
    result enters through the public constructor, in the class of ``psi``.
    """
    _check_zero_x_mean(psi, "apply_L")
    grid = psi.grid
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)[:, None]
    ratio = np.zeros((grid.nx, grid.ky.size))
    ratio[1:] = 2.0 * grid.ky**2 / kx[1:] ** 2  # kx = 0 only at index 0
    symbol = kx**2 + op.c2 + ratio
    out = sfft.irfft2(sfft.rfft2(psi.values) * symbol, s=(grid.nx, grid.ny))
    out = out + op.coeff_lump_nl * _potential_product(op, psi).values
    return RealField2D(grid, out - out.mean(axis=0, keepdims=True), psi.symmetry)


def constant(grid: Grid2D, c: float) -> RealField2D:
    vals = np.full((grid.nx // 2 + 1, grid.ny // 2 + 1), float(c))
    return _tagged(grid, vals, Symmetry.EVEN_X_EVEN_Y)


def coordinates(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and r = hypot(x, y) on all nx x ny nodes of the full grid; x and
    y are read-only broadcast views of ``grid.x`` and ``grid.y``."""
    X = np.broadcast_to(grid.x[:, None], (grid.nx, grid.ny))
    Y = np.broadcast_to(grid.y[None, :], (grid.nx, grid.ny))
    return X, Y, np.hypot(X, Y)


# ---------------------------------------------------------------------------
# the GP back-substitution on the full grid
# ---------------------------------------------------------------------------


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
    """Non-wrapping centered finite difference of 6th order on full-grid
    ``vals``; the three rows at each edge, outside every ``_interior``
    window, are nan."""
    if axis == 1:
        return _fd_derivative(vals.T, h, 0, order).T
    n = vals.shape[0]
    out = np.full_like(vals, np.nan)
    if order == 1:
        c = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / (60.0 * h)
    elif order == 2:
        c = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h * h)
    else:
        raise ValueError("order must be 1 or 2")
    w = 3
    core = sum(ck * vals[k : n - 2 * w + k, :] for k, ck in enumerate(c))
    out[w : n - w, :] = core
    return out


def gp_system_residual(state: ReductionState, f2: RealField2D) -> GpResidualReport:
    """``transonic.gp.gp_system_residual`` on the full grid: the table's
    quarter-box orders unfolded, the f2 stencils on ``f2.values``."""
    eps = state.eps
    e2 = eps * eps
    e4 = e2 * e2
    c = state.c
    g = state.grid
    win = _interior(g)

    orders = ((0, 0), (1, 0), (2, 0), (0, 2))
    # the stored orders, all even in y, unfolded by their x-parity
    full = lambda vals, px, m: _unfold(vals, px * (-1) ** m, 1)
    g1, g1_x, g1_xx, g1_yy = (full(state.g1_d(*mn), -1, mn[0]) for mn in orders)
    f1, f1_x, f1_xx, f1_yy = (full(f1_derivative(state.g1_d, *mn), 1, mn[0]) for mn in orders)

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

    wgt = (1.0 + coordinates(g)[2]) ** 3

    q = full(state.q_d(0, 0), -1, 0)
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
    """``transonic.gp.energy`` on the full grid; reads only ``phi.grid`` and
    the ``values`` of ``phi.re`` and ``phi.im``, so it also takes parts that
    mix two parity classes."""
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
    return float(np.sum(dens[win]) * g.dx * g.dy / eps**3)


def farfield_fit(phi: ComplexField2D, eps: float) -> tuple[float, float, float]:
    """``transonic.gp.farfield_fit`` on the full grid, both columns fitted by
    ``lstsq``: (alpha, beta, relative fit residual)."""
    g = phi.grid
    X, Y, r = coordinates(g)
    c = SQRT2 - eps**2
    rmin = 0.6 * min(g.Lx, g.Ly)
    rmax = 0.9 * min(g.Lx, g.Ly)
    ring = (r >= rmin) & (r <= rmax)
    if not np.any(ring):
        raise ValueError("boundary ring is empty")
    xt = X[ring] / eps
    yt = Y[ring] / eps**2
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
