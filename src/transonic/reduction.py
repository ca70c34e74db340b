"""
The constructive pipeline: from the lump to a corrected travelling-wave state.

Structure of one outer iteration at fixed eps:

1. the first real correction is slaved pointwise to the imaginary profile,
   f1 = (sqrt2/2) dx g1 - g1^2/2, written once, in ``f1_derivative``;
2. the second real correction f2 solves a first-order transport equation in x
   whose homogeneous solution F0 is an exact power of the lump denominator;
   the bounded solution is picked by the decaying variation-of-parameters
   integral from +infinity, evaluated per y-line on the half line x >= 0
   with real sine and cosine transforms (the integrand is odd in x), for
   the lines y >= 0 only (every term is even in y);
3. the right-hand side for the imaginary correction phi is assembled in
   divergence form, dx h1 + dy h2: the integrands of P1 = dx h1 and
   P2 = dy h2 are read off structurally (never by inverting dy), the lump
   defect Gamma_q and the fast-decaying remainder P3 are absorbed into h1
   through the zero-mode-free dx^-1;
4. phi is updated by the preconditioned linearized solve.

Steps 2 and 4 are iterative solves, and each starts from the previous outer
step's solution: the transport Picard from its fine f2, MINRES from its phi.

Derivatives of lump-dependent quantities are evaluated in closed form and
only the phi/f2 parts spectrally, which keeps the periodic seam out of the
assembled fields.  Every field here is parity-tagged, so all of this runs on
the stored quarter boxes (``grid`` module docstring), and the transport
lines are those quarters, transposed.  One ``ReductionState`` holds each
outer step: its phi and, filled lazily, the derivative table that the
transport solve, its residual check, the right-hand side and the GP
back-substitution all read, so every phi derivative of a step is taken once
and the transport Picard runs once per phi; the lump samples, Gamma_q and
its dx^-1, and the lump data of the transport lines depend only on
(eps, grid) and are memoized, so a construction computes them once.

The state's ``f1`` alone takes a spectral dx of the sampled g1
(``f1_from_g1``), and only when read: the closed form would move it and the
GP energy by about 1e-5 relative, beyond the 1e-6 tolerance of the
benchmark's energy reference.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

import numpy as np
from scipy import fft as sfft

from .errors import GridMismatch, GuardViolated, NotConverged, SymmetryViolation
from .grid import (
    Grid2D,
    RealField2D,
    Symmetry,
    _quarter_axes,
    _sampled,
    _tagged,
    antiderivative_x,
    derivative,
    spectral_table,
    weighted_sup,
    zeros,
)
from .linearized import (
    DELTA_DEFAULT,
    make_linearized_operator,
    solve_linearized,
    star_norm_proxy,
)
from .lump import (SQRT2, LumpParams, _denominator, check_eps, kpi_residual, lump_derivative,
                   sample_lump)


def f1_derivative(g1_d: Callable[[int, int], np.ndarray], m: int, n: int) -> np.ndarray:
    """The (m, n) derivative of f1 = (sqrt2/2) dx g1 - g1^2/2, (m, n) one of
    (0, 0), (1, 0), (0, 1), (2, 0), (0, 2), by the product rule from the g1
    orders ``g1_d(m, n)``."""
    if (m, n) not in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)):
        raise ValueError(f"no product rule for the f1 order ({m}, {n})")
    g1 = g1_d(0, 0)
    lead = 0.5 * SQRT2 * g1_d(m + 1, n)
    if m + n == 0:
        return lead - 0.5 * g1**2
    first = g1_d(min(m, 1), min(n, 1))
    if m + n == 1:
        return lead - g1 * first
    return lead - first**2 - g1 * g1_d(m, n)


def f1_from_g1(g1: RealField2D) -> RealField2D:
    """Pointwise slaving of the first real correction to g1 (spectral dx g1)."""
    if g1.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("f1_from_g1 expects an odd_x_even_y field")
    dg1 = {(0, 0): g1.data, (1, 0): derivative(g1, 1, 0).data}
    vals = f1_derivative(lambda m, n: dg1[m, n], 0, 0)
    return _tagged(g1.grid, vals, Symmetry.EVEN_X_EVEN_Y)


def f0_exponent(p: LumpParams) -> float:
    """Power of the lump denominator solving the homogeneous transport equation."""
    return p.A / (p.B * (SQRT2 - p.eps**2))


def F0_eval(eps: float, x, y):
    """Integrating factor F0 = (B x^2 + C y^2 + E)^(A / (B (sqrt2 - eps^2))).

    Exact: the lump's x-antiderivative is a logarithm of its denominator, so
    the exponential of the transport integral collapses to this power law.
    """
    p = LumpParams.from_epsilon(eps)
    return _denominator(p, x, y) ** f0_exponent(p)


def _g1_order(params: LumpParams, phi_table: Callable, m: int, n: int) -> np.ndarray:
    """Read-only (m, n) order of g1 = q + phi, stored: exact lump plus spectral phi."""
    dphi = phi_table(m, n)
    vals = sample_lump(params, dphi.grid, m, n).data + dphi.data
    vals.flags.writeable = False
    return vals


class ReductionState:
    """One step of the construction at fixed eps: eps, c = sqrt2 - eps^2, the
    lump parameters, the grid, phi and ``f2_start``, the fine transport
    solution of the previous outer step, where this state's Picard run
    starts; everything else is derived from them lazily, once.

    The derivative table of g1 = q + phi, whose (0, 0) order is ``g1``,
    combines lump parts from exact rational differentiation (the memoized
    ``sample_lump``) with phi parts from ``spectral_table(phi)``, one forward
    transform of the (periodic, band-limited) correction, which keeps the
    periodic seam of the sampled lump out of every assembled product.  The
    state also keeps the x-refined transport terms and the fine transport
    solution of its phi, so the Picard solve runs once per phi and its check
    rebuilds nothing.  Its memoized tables hold params and
    phi, never the state, so a dropped state is freed without the cycle
    collector.

    Every f1 order read from it goes through ``f1_derivative``; its ``f1``
    alone stays spectral (``f1_from_g1``, module docstring).
    """

    def __init__(
        self,
        eps: float,
        grid: Grid2D,
        phi: RealField2D | None = None,
        f2_start: np.ndarray | None = None,
    ):
        self.params = LumpParams.from_epsilon(eps)
        if phi is None:
            phi = zeros(grid, Symmetry.ODD_X_EVEN_Y)
        elif phi.symmetry is not Symmetry.ODD_X_EVEN_Y:
            raise SymmetryViolation("phi must be tagged odd_x_even_y")
        elif phi.grid != grid:
            raise GridMismatch("phi is on another grid than the state")
        self.eps = eps
        self.c = SQRT2 - eps**2
        self.grid = grid
        self.phi = phi
        self.f2_start = f2_start

    @cached_property
    def g1(self) -> RealField2D:
        return _tagged(self.grid, self.g1_d(0, 0), Symmetry.ODD_X_EVEN_Y)

    @cached_property
    def f1(self) -> RealField2D:
        return f1_from_g1(self.g1)

    # the memoized tables hold phi and params, not the instance
    @cached_property
    def _phi_table(self) -> Callable[[int, int], RealField2D]:
        return spectral_table(self.phi)

    @cached_property
    def g1_d(self) -> Callable[[int, int], np.ndarray]:
        """The (m, n) order of g1, memoized and read-only."""
        return cache(partial(_g1_order, self.params, self._phi_table))

    def q_d(self, m: int, n: int) -> np.ndarray:
        return sample_lump(self.params, self.grid, m, n).data

    def phi_d(self, m: int, n: int) -> np.ndarray:
        return self._phi_table(m, n).data

    @cached_property
    def transport_terms(self) -> tuple:
        """The (eps, grid) data of ``_transport_lump`` and, on its quarter
        lines, phi, g1, f1, dx f1 and dyy g1: the memoized lump orders plus
        the phi derivatives interpolated onto the refined half lines, and
        f1, dx f1 from them by ``f1_derivative``."""
        lump = _transport_lump(self.params, self.grid, F2_REFINE)
        phi_d = {
            mn: _refined_lines(_quarter_lines(self.phi_d(*mn)), _x_parity(mn), F2_REFINE)
            for mn in _TRANSPORT_ORDERS
        }
        g1_d = {mn: lump.q_d[mn] + phi_d[mn] for mn in _TRANSPORT_ORDERS}
        g1_at = lambda m, n: g1_d[m, n]
        f1, dxf1 = f1_derivative(g1_at, 0, 0), f1_derivative(g1_at, 1, 0)
        return lump, phi_d[(0, 0)], g1_d[(0, 0)], f1, dxf1, g1_d[(0, 2)]

    @cached_property
    def transport_solve(self) -> tuple[np.ndarray, int]:
        """f2 on the quarter lines, from ``_line_transport_solve``, and the
        number of Picard passes it took."""
        return _line_transport_solve(self)


# ---------------------------------------------------------------------------
# transport solve for f2
# ---------------------------------------------------------------------------
#
# Every transport quantity has a parity in x and is even in y, so the solve
# runs on the quarter lines: the nodes x = 0..Lx of each line y = 0..Ly,
# n/2 + 1 of each, with x along the contiguous last axis.  On the periodic
# grid a line odd in x vanishes at x = 0 and x = Lx, and its samples between
# are the data of a DST-I; an even line is fixed by all n/2 + 1 samples, the
# data of a DCT-I (the layout of the quarter-box bases of ``linearized``).


def _quarter_lines(q: np.ndarray) -> np.ndarray:
    """The stored quarter box (``grid`` module docstring) of a field even in
    y to its quarter lines (ny/2 + 1, nx/2 + 1), or back: row b holds
    y = b dy, column a holds x = a dx."""
    return np.ascontiguousarray(q.T)


def _refined_lines(lines: np.ndarray, parity: int, refine: int) -> np.ndarray:
    """Zero-padded trigonometric interpolation of half lines of x-parity
    ``parity`` (+1 even, -1 odd) onto ``refine`` times as many intervals.

    An odd line is its sine series (a DST-I of the interior samples), an
    even one its cosine series (a DCT-I, with the Nyquist term halved as the
    interior terms of the longer DCT-I count twice); both are summed at the
    fine nodes by the transform of the padded coefficients.  Exact for the
    band-limited representation.
    """
    m = lines.shape[-1] - 1
    batch = lines.shape[:-1]
    if parity < 0:
        coef = np.zeros(batch + (refine * m - 1,))
        coef[..., : m - 1] = sfft.dst(lines[..., 1:-1], type=1, axis=-1)
        out = np.zeros(batch + (refine * m + 1,))
        out[..., 1:-1] = sfft.dst(coef, type=1, axis=-1, overwrite_x=True)
    else:
        coef = np.zeros(batch + (refine * m + 1,))
        coef[..., : m + 1] = sfft.dct(lines, type=1, axis=-1)
        coef[..., m] *= 0.5
        out = sfft.dct(coef, type=1, axis=-1, overwrite_x=True)
    out /= 2 * m
    return out


def _decaying_antiderivative(x: np.ndarray, I_vals: np.ndarray, decay_power: float) -> np.ndarray:
    """u(x_j) = int_{x_j}^inf I ds on half lines x = 0..L (the last axis of
    ``I_vals``) of an integrand odd in x: a spectral rule plus an algebraic
    tail correction fitted to the stated decay power.

    The sine series of I (a DST-I of its interior samples) integrates
    termwise to a cosine series U with no mean term, summed by a DCT-I, and
    int_{x_j}^L I = U(L) - U(x_j).  The tail int_L^inf I is taken as
    I(L - h) (L - h) / (kappa - 1) with kappa the decay power, since the
    integrand dies like r^-(2p+3) and vanishes at the node L itself.
    """
    m = x.size - 1
    h = x[1] - x[0]
    c = np.zeros_like(I_vals)
    c[..., 1:-1] = sfft.dst(I_vals[..., 1:-1], type=1, axis=-1)
    c[..., 1:-1] *= -h / (2.0 * np.pi * np.arange(1, m))
    U = sfft.dct(c, type=1, axis=-1, overwrite_x=True)
    tail = I_vals[..., -2:-1] * x[-2] / max(decay_power - 1.0, 1.0)
    return (U[..., -1:] - U) + tail


F2_GUARD = 10.0
# the amplitude guard's roundoff floor: below eps ~ 1e-8 phi is rounding
# error, a weighted amplitude of 6e-16 to 1.1e-15 on 64^2 to 512^2 grids
# (10 eps^2 is 1e-23 at eps = 1e-12), and 1000 ulp sits 200 times above it
F2_GUARD_FLOOR = 1e3 * np.finfo(float).eps
F2_REFINE = 4
# pass budget of the transport Picard, and the |x| window (a fraction of Lx)
# over which its check takes the sup
F2_MAX_PASSES = 60
F2_CHECK_WINDOW = 0.95

_TRANSPORT_ORDERS = ((0, 0), (1, 0), (2, 0), (0, 2))


def _x_parity(order: tuple[int, int]) -> int:
    """x-parity of the derivative ``order`` of q and of phi (both odd in x)."""
    return Symmetry.ODD_X_EVEN_Y.differentiated(*order).x_parity


@dataclass(frozen=True)
class _TransportLump:
    """What the transport solve needs of (eps, grid, refine) alone, on the
    quarter lines of the x-refined grid: the half-line nodes ``x``, the lump
    orders ``q_d`` of ``_TRANSPORT_ORDERS``, the integrating factor F0 and
    (sqrt2 - eps^2) F0, the Picard stop level ``tau`` and the decay power of
    the Picard integrand."""

    x: np.ndarray
    q_d: dict
    F0: np.ndarray
    cF0: np.ndarray
    tau: float
    decay_power: float


@lru_cache(maxsize=4)
def _transport_lump(p: LumpParams, g: Grid2D, refine: int) -> _TransportLump:
    """The memoized ``_TransportLump``: a construction computes it once.

    tau = 32 eps_mach max F0 / min F0 on the refined box: each Picard pass
    divides by F0 and multiplies back, so rounding returns amplified by up
    to that ratio.
    """
    m = refine * g.nx // 2
    x = (g.Lx / m) * np.arange(m + 1)
    X, Y = np.meshgrid(x, g.dy * np.arange(g.ny // 2 + 1))
    q_d = {}
    for mn in _TRANSPORT_ORDERS:
        vals = lump_derivative(p, *mn, X, Y)
        if _x_parity(mn) < 0:
            # zero at x = 0 and at x = Lx, the periodic copy of -Lx
            vals[:, [0, -1]] = 0.0
        q_d[mn] = vals
    F0 = F0_eval(p.eps, X, Y)
    return _TransportLump(
        x=x,
        q_d=q_d,
        F0=F0,
        cF0=(SQRT2 - p.eps**2) * F0,
        tau=32.0 * np.finfo(float).eps * float(F0.max() / F0.min()),
        decay_power=2.0 * f0_exponent(p) + 3.0,
    )


def _line_transport_solve(state: ReductionState) -> tuple[np.ndarray, int]:
    """Picard iteration of the variation-of-parameters map on the quarter
    lines of ``state.transport_terms``, from ``state.f2_start`` (zero if
    none); returns f2 there and the number of passes.

    One stop rule: the first pass whose sup change is at most
    tau * max(1, sup |f2|) (``_transport_lump``).  The change floors near
    1e-12 to 1e-8 of the sup; tau sits above that floor, so the stop is
    made by the contraction, and the pass count does not move with roundoff
    changes of phi.  A change that is not finite means the map diverged.
    """
    e2 = state.eps**2
    lump, phi, g1, f1, dxf1, dyyg1 = state.transport_terms
    f2 = np.zeros_like(g1) if state.f2_start is None else state.f2_start
    # a diverging map overflows on the way to the finiteness test below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, F2_MAX_PASSES + 1):
            # odd in x, and exactly 0 at x = 0 and x = Lx with its odd factors
            E = -2.0 * phi * f2 + dyyg1 + dxf1 - (f1 + e2 * f2) ** 2 * g1
            new = -lump.F0 * _decaying_antiderivative(lump.x, E / lump.cF0, lump.decay_power)
            change = float(np.max(np.abs(new - f2)))
            if not math.isfinite(change):
                raise NotConverged(f"transport Picard diverged at pass {k}")
            f2 = new
            if change <= lump.tau * max(1.0, float(np.max(np.abs(f2)))):
                return f2, k
    raise NotConverged(
        f"transport Picard did not reach {lump.tau:.1e} in {F2_MAX_PASSES} passes"
    )


def _coarse_f2(state: ReductionState) -> RealField2D:
    """The fine transport solution of ``state`` downsampled to the stored quarter."""
    fine = state.transport_solve[0]
    return _tagged(state.grid, _quarter_lines(fine[:, ::F2_REFINE]), Symmetry.EVEN_X_EVEN_Y)


def solve_f2(state: ReductionState, delta: float = DELTA_DEFAULT) -> RealField2D:
    """Bounded solution of the transport equation for f2 at the given state.

    Picard iteration of the variation-of-parameters map; each pass integrates
    E/((sqrt2 - eps^2) F0) from +infinity along every y-line and multiplies by
    -F0.  The contraction factor scales like eps^(3/2), so plain iteration
    converges quickly throughout the supported range; it stops on the one
    rule of ``_line_transport_solve``, just above its roundoff floor.  Inside
    ``outer_fixed_point`` each solve starts from the previous step's fine f2.

    The line integrals run on an x-refined sampling (closed-form lump parts,
    trigonometric interpolation of phi): the growth of F0 toward the box edge
    amplifies any aliasing error of the integrand's antiderivative, and
    oversampling pushes that error to rounding level before the downsample.
    Since E is odd in x and every quantity is even in y, only the half lines
    x = 0..Lx of the lines y = 0..Ly are solved, with real sine and cosine
    transforms; f2, even in both, is unfolded from them.  The fine solution
    stays in the state, where ``transport_residual`` reads it.
    """
    eps = state.eps
    if eps > 0:
        # amplitude guard: the full weighted norm carries an O(100) constant
        # from the fourth-derivative sup terms even for the true solution, so
        # the contraction-regime check binds the weighted amplitude instead,
        # never below its roundoff floor
        proxy = weighted_sup(state.phi, 1.0, delta)
        bound = max(F2_GUARD * eps**2, F2_GUARD_FLOOR)
        if proxy > bound:
            raise GuardViolated(
                f"phi too large for the transport contraction: weighted amplitude "
                f"{proxy:.3e} > max({F2_GUARD} * eps^2, {F2_GUARD_FLOOR:.1e}) = {bound:.3e}"
            )
    return _coarse_f2(state)


def transport_residual(state: ReductionState, f2: RealField2D) -> float:
    """Back-substitution check of the transport equation.

    Evaluates the equation on the state's fine transport solution, the one
    ``solve_f2`` downsamples (solved here only if no solve has run for this
    phi), with an 8th-order centered finite difference in x (continued
    across x = 0 by the evenness of f2), and returns the larger of the sup
    of its residual over the interior window and the sup mismatch between
    ``f2`` and the downsampled fine solution there.  The mismatch is at
    rounding level exactly when ``f2`` is this state's solution.
    """
    grid = state.grid
    eps = state.eps
    f2r = state.transport_solve[0]
    lump, _, g1, f1, dxf1, dyyg1 = state.transport_terms
    x = lump.x

    # 8th-order centered first derivative on the nodes x < Lx - 4h
    h = x[1] - x[0]
    c = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / (840.0 * h)
    n = x.size - 4
    ext = np.concatenate([f2r[:, 4:0:-1], f2r], axis=1)
    dxf2 = sum(ck * ext[:, k : k + n] for k, ck in enumerate(c) if ck != 0.0)
    # the original equation: c dx f2 + 2 g1 f2 = dyy g1 + dx f1 - (f1+e^2 f2)^2 g1
    # (the -2 phi f2 piece of the rewritten map belongs to the left side here)
    f2n, g1n = f2r[:, :n], g1[:, :n]
    rhs_full = dyyg1[:, :n] + dxf1[:, :n] - (f1[:, :n] + eps**2 * f2n) ** 2 * g1n
    resid = state.c * dxf2 + 2.0 * g1n * f2n - rhs_full
    inner = x[:n] <= F2_CHECK_WINDOW * grid.Lx - 8 * h
    sup = float(np.max(np.abs(resid[:, inner])))

    coarse_window = _quarter_axes(grid)[0][:, 0] <= F2_CHECK_WINDOW * grid.Lx - 8 * h
    diff = (f2 - _coarse_f2(state)).data
    mismatch = float(np.max(np.abs(diff[coarse_window])))
    return max(sup, mismatch)


# ---------------------------------------------------------------------------
# right-hand side assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def gamma_q_field(p: LumpParams, g: Grid2D) -> RealField2D:
    """Defect of the lump in the eps-perturbed equation, closed form: minus
    the lump's own residual (``kpi_residual``) at the perturbed nonlinear
    coefficient 3 (sqrt2 - eps^2), less the eps-weighted y-terms
    2 eps^2 q_xxyy + eps^4 q_yyyy.

    Combines to O(eps^2) with (1+r)^-5 decay: the lump solves its own
    rescaled equation exactly, so only the coefficient difference and the
    eps-weighted y-terms survive.  Depends on (eps, grid) only, so it is
    memoized and a construction evaluates it once.
    """
    e2 = p.eps**2
    x, y = _quarter_axes(g)
    vals = (
        -kpi_residual(p, g, 3.0 * (SQRT2 - e2)).data
        - 2.0 * e2 * lump_derivative(p, 2, 2, x, y)
        - e2**2 * lump_derivative(p, 0, 4, x, y)
    )
    return _sampled(g, vals, Symmetry.ODD_X_EVEN_Y)


@lru_cache(maxsize=4)
def _gamma_q_antiderivative(p: LumpParams, g: Grid2D) -> RealField2D:
    """dx^-1 Gamma_q, memoized like Gamma_q itself."""
    return antiderivative_x(gamma_q_field(p, g))


def _rhs_integrands(
    state: ReductionState, f2: RealField2D
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Readoff integrands h1 of P1 = dx h1 and h2 of P2 = dy h2, and the
    fast-decaying remainder P3, fully expanded in one pass on the stored
    quarter box of each (even/even, odd/odd and odd/even).

    Every composite derivative is expanded by the product rule and assembled
    pointwise from the state's hybrid derivative table, so no spectral
    derivative ever acts on a slowly-decaying sampled product.
    """
    e2 = state.eps**2
    e4 = e2 * e2
    sc = state.c
    g1_d = state.g1_d

    g1 = g1_d(0, 0)
    g1x = g1_d(1, 0)
    g1xx = g1_d(2, 0)
    g1y = g1_d(0, 1)
    g1yy = g1_d(0, 2)
    f1, f1x, f1y = (f1_derivative(g1_d, *mn) for mn in ((0, 0), (1, 0), (0, 1)))
    f2_d = spectral_table(f2)
    f2v = f2.data
    f2x = f2_d(1, 0).data
    f2y = f2_d(0, 1).data

    trio = f1 + e2 * f2v
    cubic = 6.0 * e2 * f1 * f2v + e2 * trio**3 + 3.0 * e4 * f2v**2 + e2 * f2v * g1**2
    mix = 2.0 * e2 * f1 * f2v * g1 + e4 * g1 * f2v**2
    dyy_g1sq = 2.0 * (g1y**2 + g1 * g1yy)
    dy_g1sq = 2.0 * g1 * g1y
    dx_g1sq = 2.0 * g1 * g1x

    # h1: the x-integrand of P1
    h1 = (
        e2 * (g1x**2 + g1 * g1xx)
        + e2
        * (
            g1x * f1**2
            + 2.0 * g1 * f1 * f1x
            + 2.0 * e2 * (f1x * f2v * g1 + f1 * f2x * g1 + f1 * f2v * g1x)
            + e4 * (g1x * f2v**2 + 2.0 * g1 * f2v * f2x)
        )
        - sc * e4 * f2v**2
        - (e4 / sc) * f1**2
        + 2.0 * e2 * g1x * f2v
        + ((2.0 * e2 - 0.5 * SQRT2 * e4) / (2.0 - SQRT2 * e2)) * g1x**2
        + sc * cubic
        + 2.0 * e4 * f1 * f2v
        - SQRT2 * e2 * g1 * f1x
    )

    # h2: the y-integrand of P2
    h2 = (
        SQRT2 * e2 * g1x * g1y
        + e4
        * (
            g1y * f1**2
            + 2.0 * g1 * f1 * f1y
            + 2.0 * e2 * (f1y * f2v * g1 + f1 * f2y * g1 + f1 * f2v * g1y)
            + e4 * (g1y * f2v**2 + 2.0 * g1 * f2v * f2y)
        )
        + 4.0 * e4 * g1y * f2v
        - (2.0 * e4 / sc) * g1y * f1
        + (2.0 * e2 / sc) * g1y * g1x
    )

    p3 = (
        e2 * g1 * dyy_g1sq
        - (e4 / sc) * g1y * dy_g1sq
        - 2.0 * e4 * g1 * (2.0 * f2v + f1**2) * f2v
        - 2.0 * e4 * mix * f2v
        + (2.0 * e4 / sc) * g1 * (2.0 * f2v + f1**2) * f1
        + (2.0 * e4 / sc) * mix * f1
        - (e2 / sc) * dx_g1sq * g1x
        - (2.0 * e2 / sc) * (g1 * (2.0 * f2v + f1**2) * g1x + g1x * mix)
        + 2.0 * g1 * cubic
        - 2.0 * mix
        - 0.5 * e2 * g1**2 * dx_g1sq
    )
    return h1, h2, p3


def assemble_rhs(state: ReductionState, f2: RealField2D) -> tuple[RealField2D, RealField2D]:
    """The divergence-form right-hand side (h1, h2) of the linearized solve,
    whose source is dx h1 + dy h2.

    h1 (even/even) is the structural x-integrand of P1 plus the
    x-antiderivatives of the lump defect Gamma_q and of P3 plus the quadratic
    self-interaction of phi; h2 (odd/odd) is the structural y-integrand of
    P2.  P1, P2 and P3 themselves are never formed as fields.
    """
    if f2.symmetry is not Symmetry.EVEN_X_EVEN_Y:
        raise SymmetryViolation("assemble_rhs expects an even_x_even_y f2")
    grid = state.grid
    h1_vals, h2_vals, p3_vals = _rhs_integrands(state, f2)
    # pointwise algebra of the stored quarters stays exactly in its class
    h1_p1 = _tagged(grid, h1_vals, Symmetry.EVEN_X_EVEN_Y)
    h2 = _tagged(grid, h2_vals, Symmetry.ODD_X_ODD_Y)
    p3 = _tagged(grid, p3_vals, Symmetry.ODD_X_EVEN_Y)
    phi_sq_vals = 3.0 * state.c * state.phi_d(1, 0) ** 2
    phi_sq = _tagged(grid, phi_sq_vals, Symmetry.EVEN_X_EVEN_Y)
    gamma = _gamma_q_antiderivative(state.params, grid)
    h1 = h1_p1 + gamma + phi_sq + antiderivative_x(p3)
    return h1, h2


# ---------------------------------------------------------------------------
# outer fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointReport:
    """Convergence record of the outer iteration.

    ``minres_iterations`` holds the MINRES iterations of each outer step;
    ``picard_passes`` the transport Picard passes of each outer step, then
    of the closing transport solve at the final phi.
    """

    iterations: int
    update_star_norms: tuple[float, ...]
    contraction_ratios: tuple[float, ...]
    picard_passes: tuple[int, ...]
    minres_iterations: tuple[int, ...]


def outer_fixed_point(
    eps: float,
    grid: Grid2D,
    tol: float = 1e-8,
    max_iter: int = 200,
    delta: float = DELTA_DEFAULT,
) -> tuple[ReductionState, RealField2D, FixedPointReport]:
    """Construct the corrected state by iterating transport + linearized
    solve; returns the state at the final phi, its f2 and the report.

    Plain Picard: every right-hand-side term carries a positive power of eps,
    so the update map contracts at rate ~ eps^(1/2).  Stops when the weighted
    stopping proxy of the update falls below ``tol``, and raises
    ``NotConverged`` once two consecutive update ratios are at least 1 (the
    map does not contract) or after ``max_iter`` steps.  Each step's
    transport Picard starts from the previous step's fine f2, and its MINRES
    from the previous phi.  At eps = 0 the state is the bare lump.  The
    returned f2 is solved at the final phi, so the pair is self-consistent,
    and the state keeps that solve for the transport check.
    """
    check_eps(eps, "construct")
    state = ReductionState(eps, grid)
    updates: list[float] = []
    ratios: list[float] = []
    passes: list[int] = []
    minres_iters: list[int] = []
    if eps == 0.0:
        updates.append(0.0)
    else:
        op = make_linearized_operator(eps, grid)
        for it in range(1, max_iter + 1):
            f2 = solve_f2(state, delta=delta)
            f2_fine, n_passes = state.transport_solve
            passes.append(n_passes)
            h1, h2 = assemble_rhs(state, f2)
            phi_new, n_minres = solve_linearized(op, h1, h2, x0=state.phi if it > 1 else None)
            minres_iters.append(n_minres)
            unorm = star_norm_proxy(phi_new - state.phi, eps, delta)
            updates.append(unorm)
            if len(updates) >= 2 and updates[-2] > 0:
                ratios.append(updates[-1] / updates[-2])
                if len(ratios) >= 2 and min(ratios[-2:]) >= 1.0:
                    raise NotConverged(
                        f"outer fixed point does not contract: update ratios "
                        f"{ratios[-2]:.3f}, {ratios[-1]:.3f} at iteration {it}"
                    )
            state = ReductionState(eps, grid, phi=phi_new, f2_start=f2_fine)
            if unorm <= tol:
                break
        else:
            raise NotConverged(
                f"outer fixed point: update norm {updates[-1]:.3e} > {tol:.1e} "
                f"after {len(updates)} iterations"
            )
    f2 = solve_f2(state, delta=delta)
    passes.append(state.transport_solve[1])
    report = FixedPointReport(
        iterations=len(updates),
        update_star_norms=tuple(updates),
        contraction_ratios=tuple(ratios),
        picard_passes=tuple(passes),
        minres_iterations=tuple(minres_iters),
    )
    return state, f2, report
