"""
Green-kernel evaluation for the anisotropic fourth-order operator.

The symbol denominator is

    d(xi1, xi2) = a4 xi1^4 + a2 xi1^2 + b2 xi2^2 + g e^2 xi1^2 xi2^2 + d4 e^4 xi2^4

written once, with its presets, in ``lump``; its ``gp`` member is the
constant symbol that ``linearized`` inverts.  The kernel derivative
d^m/dx^m d^n/dy^n K is computed by two independent routes:

* ``kernel_fft``      -- 2D Fourier inversion on a periodic grid (this is the
  periodized kernel, i.e. the free-space kernel plus its box images): the
  symbol ratio applied to the grid delta by ``grid._multiplied``, the
  package's one quarter-box Fourier multiplier, so the field is real and in
  its parity class by construction;
* ``kernel_residue_eval`` -- contour integration in xi2 reduces the double
  integral to a 1D oscillatory integral in xi1, evaluated by adaptive
  Gauss-Kronrod panels with a square-root substitution at the branch points
  +-c_eps (``branch_point``, a closed form) and oscillatory-weight
  quadrature for the tails, which off the axis end at their decay cutoff.

``decay_scan`` and ``integral_scan`` turn the far-field decay table and the
ball-integral bounds of the kernel analysis into measurable reports.  No
memo outlives a public call: a scan's row memo lives as long as the scan.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import integrate

from .errors import QuadratureNotConverged
from .grid import Grid2D, RealField2D, Symmetry, _ik_power, _multiplied, _tagged
from .lump import KernelSymbolParams, symbol_eval

QUAD_TOL = 1e-8

# the orders of the residue route, with the decay exponent of the far-field
# bound; ``kernel_fft`` takes the kernel itself as well
FAR_FIELD_SLOPE = {
    (1, 0): -1.0,
    (2, 0): -1.5,
    (3, 0): -1.5,
    (0, 1): -1.0,
    (0, 2): -1.5,
    (0, 3): -1.5,
    (1, 1): -1.5,
    (1, 2): -1.5,
}
ALLOWED_ORDERS = {(0, 0), *FAR_FIELD_SLOPE}


def _discriminant_coeffs(p: KernelSymbolParams) -> tuple[float, float, float]:
    """(A2, A1, A0) of the discriminant A2 s^2 + A1 s + A0 in s = xi^2; A2 is
    exactly 0 when g^2 = 4 d4 a4 (the gp preset)."""
    e2 = p.eps**2
    A2 = e2**2 * (p.g**2 - 4.0 * p.d4 * p.a4)
    A1 = 2.0 * p.b2 * p.g * e2 - 4.0 * p.d4 * e2**2 * p.a2
    return A2, A1, p.b2**2


def branch_point(p: KernelSymbolParams) -> float | None:
    """Positive xi where the discriminant vanishes (c_eps of the factorization).

    c_eps^2 is the smallest positive root of A2 s^2 + A1 s + A0 (A0 > 0) in
    one cancellation-free form, 2 A0/(-A1 + sqrt(A1^2 - 4 A2 A0)), for every
    sign of A2.  None when there is no positive root, e.g. for a perfect-square
    principal part (g^2 = 4 d4 a4, the gp preset): the reduced integrand is
    then smooth everywhere and no substitution is needed.
    """
    A2, A1, A0 = _discriminant_coeffs(p)
    disc = A1 * A1 - 4.0 * A2 * A0
    den = -A1 + math.sqrt(disc) if disc >= 0.0 else 0.0
    return math.sqrt(2.0 * A0 / den) if den > 0.0 else None


# ---------------------------------------------------------------------------
# residue-reduced 1D route
# ---------------------------------------------------------------------------


def _scale_xi(p: KernelSymbolParams) -> float:
    """Frequency scale of the reduced integrand: the branch point when one
    exists, the natural 1/eps scale otherwise."""
    c = branch_point(p)
    return c if c is not None else 1.0 / p.eps


def _row_builder(p: KernelSymbolParams, m: int, n: int):
    """xi -> the y-free row of xi^m S_n(xi, y) (``_integrand``) in real
    arithmetic, with no difference of nearly equal terms.

    E = d4 e^4, k = n - 1, g0 = sqrt(ab), h = (sqrt(a) + sqrt(b))/2 and
    d = |sqrt(b) - sqrt(a)|/2 = sqrt|D|/(4 h E), D from ``_discriminant_coeffs``.
    Below the branch point (D >= 0), sqrt(b) = h + d, sqrt(a) = g0/(h + d) and
        2 h E S_n = -e^{-sqrt(a) y} [P_k + sqrt(b)^k expm1(-2 d y)/(2d)],
    P = (-1/g0, 0, 1, 2h) for k = -1, 0, 1, 2; past it, sqrt(a) = h - i d and
        2 h E S_n = -e^{-h y} [alpha_k cos(d y) + beta_k sin(d y)/d],
    (alpha, beta) = (-1/q, -h/q), (0, -1), (1, -h), (2h, d^2 - h^2), q = h^2 + d^2.
    The row is (below, r, t, A, B): r = Re sqrt(a), t = 2d below and d past,
    and the bracket's coefficients times -xi^m/(2 h E).

    Rows do not depend on the point (x, y), and QUADPACK's nodes sit at
    fixed places in panels whose edges are the same for every point, so one
    scan meets the same few thousand xi again and again: a scan memoizes
    its rows (``functools.cache``) for its own lifetime, never across
    public calls.
    """
    e2 = p.eps**2
    big_e = p.d4 * e2 * e2
    b2, ge2, a4, a2 = p.b2, p.g * e2, p.a4, p.a2
    A2, A1, A0 = _discriminant_coeffs(p)
    k = n - 1

    def row(xi: float):
        s = xi * xi
        disc = (A2 * s + A1) * s + A0
        g0 = math.sqrt((a4 * s + a2) * s / big_e)
        h = 0.5 * math.sqrt((b2 + ge2 * s) / big_e + 2.0 * g0)
        d = math.sqrt(abs(disc)) / (4.0 * h * big_e)
        w = -(xi**m) / (2.0 * h * big_e)
        if disc >= 0.0:
            rb = h + d
            lead = -1.0 / g0 if k < 0 else (0.0, 1.0, 2.0 * h)[k]
            return True, g0 / rb, 2.0 * d, lead * w, rb**k * w
        q = h * h + d * d
        alpha, beta = ((-1.0 / q, -h / q), (0.0, -1.0), (1.0, -h), (2.0 * h, d * d - h * h))[k + 1]
        return False, h, d, alpha * w, beta * w

    return row


# a scan's row memo: xi -> the ``_row_builder`` row
Rows = Callable[[float], tuple]


def _integrand(p: KernelSymbolParams, m: int, n: int, y: float, nodes: Rows | None = None):
    """xi -> xi^m S_n(xi, y) for one real xi, with S_n the xi2-contour
    integral divided by pi i^n:

        S_n = [a^{(n-1)/2} e^{-sqrt(a) y} - b^{(n-1)/2} e^{-sqrt(b) y}] / (d4 e^4 (b-a)),

    real for real xi, a^{(n-1)/2} = sqrt(a)^(n-1) on the principal branch.
    Rows come from ``nodes``, a memoized ``_row_builder`` of the same p, m
    and n (the row builder itself when none is given); both agree bit for
    bit.  At the branch point t = 0 divides by zero; no quadrature node
    lands there.
    """
    rows = _row_builder(p, m, n) if nodes is None else nodes
    exp, expm1, cos, sin = math.exp, math.expm1, math.cos, math.sin

    def f(xi: float) -> float:
        below, r, t, A, B = rows(xi)
        if below:
            return exp(-r * y) * (A + B * expm1(-t * y) / t)
        return exp(-r * y) * (A * cos(t * y) + B * sin(t * y) / t)

    return f


def _axis_tail_coeffs(p: KernelSymbolParams, m: int, n: int) -> tuple[float, float]:
    """(l_inf, l_1) with xi^m S_n(xi, 0) = l_inf + l_1/xi + O(xi^-2).

    Only m+n = 3 has l_inf != 0 and only m+n = 2 has l_1 != 0 among the
    supported orders; the expansion proceeds in even powers past these.
    Both are Richardson extrapolations in 1/xi^2 from moderate xi.
    """
    f = _integrand(p, m, n, 0.0)
    big = 400.0 * max(_scale_xi(p), 1.0)

    def extrapolate(t):
        t1, t2 = t(big), t(2.0 * big)
        return (4.0 * t2 - t1) / 3.0

    l_inf = extrapolate(f) if m + n == 3 else 0.0
    l_1 = extrapolate(lambda xi: xi * f(xi)) if m + n == 2 else 0.0
    return l_inf, l_1


def _decay_cutoff(nodes: Rows, y: float, c: float) -> float:
    """xi beyond which exp(-r y) < 1e-20, r = Re sqrt(a) of the row; y > 0.
    Every y > 0 tail ends here, uncapped: its geometric panels cost ~log(1/y)."""
    target = 46.0 / y
    # r grows about linearly in xi: bracket geometrically, not by an asymptote
    xi = 2.0 * c
    for _ in range(200):
        if nodes(xi)[1] >= target:
            return xi
        xi *= 1.5
    return xi


def _check_order(m: int, n: int) -> None:
    """Raise ValueError unless (m, n) is an order of the residue route: one
    of ``FAR_FIELD_SLOPE``'s."""
    if (m, n) not in FAR_FIELD_SLOPE:
        raise ValueError(f"unsupported derivative order ({m}, {n})")


def kernel_residue_eval(
    p: KernelSymbolParams,
    m: int,
    n: int,
    x: float,
    y: float,
    nodes: Rows | None = None,
) -> float:
    """Free-space kernel derivative value d^m/dx^m d^n/dy^n K(x, y).

    Normalization matches ``kernel_fft``: K = (2 pi)^-2 times the inverse
    transform of the symbol reciprocal, so the value returned here is the
    real number (2 pi)^-2 i^(m+n) K_{m,n} in terms of the raw moment
    integral K_{m,n}.  ``nodes`` is the row memo of a scan,
    ``functools.cache(_row_builder(p, m, n))`` for the same ``p``, ``m`` and
    ``n``; a call without one builds its own.  The quadrature is held to
    relative error ``QUAD_TOL``, and a QUADPACK ``IntegrationWarning`` on
    any panel (roundoff, subdivision limit, ...) raises
    ``QuadratureNotConverged`` with its message.
    """
    with warnings.catch_warnings():
        # one filter per evaluation, not per quad call
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            return _residue_value(p, m, n, x, y, nodes)
        except integrate.IntegrationWarning as exc:
            raise QuadratureNotConverged(f"QUADPACK: {' '.join(str(exc).split())}") from None


def _residue_value(
    p: KernelSymbolParams, m: int, n: int, x: float, y: float, nodes: Rows | None
) -> float:
    """``kernel_residue_eval`` without the warning filter."""
    _check_order(m, n)
    if x == 0.0 and y == 0.0:
        raise ValueError("the kernel derivative is singular at the origin")
    sgn = 1.0
    if x < 0.0:
        x, sgn = -x, sgn * (-1.0) ** m
    if y < 0.0:
        y, sgn = -y, sgn * (-1.0) ** n
    if (x == 0.0 and m % 2 == 1) or (y == 0.0 and n % 2 == 1):
        return 0.0

    c_branch = branch_point(p)
    c = _scale_xi(p)
    if nodes is None:
        nodes = cache(_row_builder(p, m, n))
    f = _integrand(p, m, n, y, nodes)
    weight = "cos" if m % 2 == 0 else "sin"
    wfun = math.cos if m % 2 == 0 else math.sin
    phase_sign = (-1.0) ** (m // 2) if m % 2 == 0 else (-1.0) ** ((m + 1) // 2)
    front = phase_sign * (-1.0) ** n / (2.0 * math.pi)

    total = 0.0
    err = 0.0
    abs_scale = 0.0

    def add(val, e):
        nonlocal total, err, abs_scale
        total += val
        err += e
        abs_scale = max(abs_scale, abs(val))

    def osc(xi):
        return wfun(x * xi)

    def panel(h, lo, hi, epsabs=1e-13, **weighted):
        try:
            v, e = integrate.quad(h, lo, hi, limit=400, epsabs=epsabs, epsrel=1e-11, **weighted)
        except ZeroDivisionError as exc:  # sqrt(ab) or the root gap t vanished
            raise QuadratureNotConverged(f"integrand singular on [{lo:g}, {hi:g}]: {exc}") from exc
        add(v, e)

    # slowly-decaying tails on the axis: subtract the sgn-type constant
    # asymptote (improper sin-transform 1/x) and the 1/xi term (cosine/sine
    # integral transforms)
    ell = ell1 = 0.0
    if y == 0.0:
        ell, ell1 = _axis_tail_coeffs(p, m, n)

    # panel 1: [0, c/2], plain adaptive GK
    panel(lambda xi: osc(xi) * f(xi), 0.0, 0.5 * c)

    if c_branch is not None:
        # panels 2-3: square-root substitution u^2 = c -+ xi at the branch point
        for orient in (-1.0, +1.0):
            def g(u, orient=orient):
                xi = c + orient * u * u
                return 2.0 * u * osc(xi) * f(xi)

            panel(g, 0.0, math.sqrt(0.5 * c if orient < 0 else c))
    else:
        # smooth everywhere: plain panel up to the tail start.  Its integral
        # can be far below that of |integrand| (-0.067 against 250 at gp
        # (1, 2), x = 3), and QUADPACK's error estimate stays above 50 eps
        # times the latter: ask for 10 % above that floor (twice it fails
        # QUAD_TOL at gp eps 0.1, (0, 3), (x, y) = (5, 0.05))
        def h(xi):
            return osc(xi) * f(xi)

        size, _ = integrate.quad(lambda xi: abs(h(xi)), 0.5 * c, 2.0 * c, limit=400, epsrel=1e-3)
        panel(h, 0.5 * c, 2.0 * c, epsabs=max(1e-13, 55.0 * np.finfo(float).eps * size))

    def tail(h, cut):
        """Geometric panels on [2c, cut): oscillatory weight when x > 0."""
        lo = 2.0 * c
        while lo < cut:
            hi = min(lo * 4.0, cut)
            panel(h, lo, hi, **({"weight": weight, "wvar": x} if x > 0 else {}))
            lo = hi

    # tail panel [2c, infinity): exponentially damped for y > 0 (ends at the
    # decay cutoff), oscillatory-weight quadrature for y = 0
    if y > 0.0:
        tail(f, _decay_cutoff(nodes, y, c))
    else:
        from scipy.special import sici

        def fr(xi):  # zero coefficients subtract exactly nothing
            return f(xi) - ell - ell1 / xi

        # subtracted integrand decays at least like xi^-2: geometric
        # oscillatory panels to a finite cutoff, remainder below 1e-12
        tail(fr, 3e4 * max(c, 1.0))
        if x > 0:
            si, ci = sici(2.0 * c * x)
            if ell != 0.0:
                # int_a^inf sin(x xi) dxi = cos(a x)/x as an improper limit
                tail_exact = ell * (math.cos(2.0 * c * x) / x)
                add(tail_exact, 0.0)
            if ell1 != 0.0:
                # int_a^inf w(x xi)/xi dxi in terms of Si/Ci
                tail_exact = ell1 * ((math.pi / 2.0 - si) if weight == "sin" else -ci)
                add(tail_exact, 0.0)

    value = front * total
    scale = max(abs(total), 1e-3 * abs_scale, 1e-300)
    # 1e-13 floor: QUADPACK error estimates bottom out near machine epsilon
    # even when the integral is exactly representable
    if err > max(QUAD_TOL * scale, 1e-13):
        raise QuadratureNotConverged(
            f"estimated error {err:.2e} exceeds {QUAD_TOL:.1e} * {scale:.2e}"
        )
    return sgn * value


# ---------------------------------------------------------------------------
# 2D Fourier-inversion route
# ---------------------------------------------------------------------------


def kernel_fft(p: KernelSymbolParams, g: Grid2D, m: int, n: int) -> RealField2D:
    """Periodic-grid kernel derivative: the multiplier (i xi1)^m (i xi2)^n / d,
    origin zeroed, applied to the grid delta 1/(dx dy) at the origin.

    Normalized so that applying the discrete symbol to the (0,0) kernel
    reproduces the discrete delta minus its mean.  Values equal the
    free-space kernel plus its periodic images; the image contribution is
    what a domain-doubling study sees shrink.  The delta is even/even, so
    the output is real and in the class of the order by construction.
    """
    if (m, n) not in ALLOWED_ORDERS:
        raise ValueError(f"unsupported derivative order ({m}, {n})")
    delta = np.zeros((g.nx // 2 + 1, g.ny // 2 + 1))
    delta[0, 0] = 1.0 / (g.dx * g.dy)
    denom = symbol_eval(p, g.kx[:, None], g.ky[None, :])
    denom[0, 0] = np.inf  # 1/inf = 0: the zero mode, the delta's mean, is dropped
    return _multiplied(
        _tagged(g, delta, Symmetry.EVEN_X_EVEN_Y),
        Symmetry.from_parities((-1) ** m, (-1) ** n),
        _ik_power(g.kx, m)[:, None],
        _ik_power(g.ky, n)[None, :],
        1.0 / denom,
    )


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayScanReport:
    """Log-log decay fit of |d^m d^n K| along rays, with the bound exponent."""

    fitted_slope_per_ray: tuple[float, ...]
    bound_slope: float
    max_prefactor: float


def decay_scan(
    p: KernelSymbolParams,
    m: int,
    n: int,
    radii,
    angles,
) -> DecayScanReport:
    """Least-squares slope of log |K_mn| vs log r along each ray.

    Radii where the kernel passes through a zero (below 1e-10 of the ray
    maximum) are dropped from the fit; oscillatory kernels otherwise poison
    the regression.
    """
    radii = tuple(float(r) for r in radii)
    angles = tuple(float(t) for t in angles)
    nodes = cache(_row_builder(p, m, n))
    slopes = []
    prefactors = []
    for theta in angles:
        vals = np.array(
            [
                kernel_residue_eval(p, m, n, r * math.cos(theta), r * math.sin(theta), nodes=nodes)
                for r in radii
            ]
        )
        mags = np.abs(vals)
        keep = mags > 1e-10 * (mags.max() + 1e-300)
        if keep.sum() < 3:
            slopes.append(math.nan)
            prefactors.append(math.nan)
            continue
        lr = np.log(np.asarray(radii)[keep])
        lv = np.log(mags[keep])
        A = np.vstack([lr, np.ones_like(lr)]).T
        sol, *_ = np.linalg.lstsq(A, lv, rcond=None)
        slopes.append(float(sol[0]))
        prefactors.append(float(math.exp(sol[1])))
    return DecayScanReport(
        fitted_slope_per_ray=tuple(slopes),
        bound_slope=FAR_FIELD_SLOPE[(m, n)],
        max_prefactor=float(np.nanmax(prefactors)),
    )


# Gauss-Legendre nodes of ``integral_scan``: in the first-quadrant angle, and
# in radius on each dyadic shell
SCAN_THETA_NODES = 16
SCAN_SHELL_NODES = 8
# the ball scan stops once its extrapolated total moves by at most this
# fraction between two shells, and gives up after SCAN_MAX_SHELLS shells
SCAN_REL_TOL = 1e-7
SCAN_MAX_SHELLS = 20


def _extrapolated_sum(shells: Iterable[float], cap: int) -> float:
    """Sum of a series of positive shell contributions whose ratios tend to
    a limit rho < 1, with the tail extrapolated geometrically.

    After each term the estimate is the sum so far plus last * rho/(1 - rho),
    rho = last/previous (Aitken's delta-squared process on the partial sums);
    it is returned once it moves by at most ``SCAN_REL_TOL`` of itself from
    the previous term's estimate.  A ratio at or above 1 (a diverging series)
    gives no estimate.  Raises ``QuadratureNotConverged`` when ``cap`` terms
    pass without the estimate settling.
    """
    total, prev, estimate, rho = 0.0, 0.0, None, math.inf
    for count, last in enumerate(shells, 1):
        total += last
        rho = last / prev if prev > 0.0 else math.inf
        before = estimate
        estimate = total + last * rho / (1.0 - rho) if rho < 1.0 else None
        if estimate is not None and before is not None:
            if abs(estimate - before) <= SCAN_REL_TOL * abs(estimate):
                return estimate
        if count >= cap:
            break
        prev = last
    raise QuadratureNotConverged(
        f"ball scan: the extrapolated origin tail did not settle to {SCAN_REL_TOL:.0e} "
        f"within {cap} shells (last shell ratio {rho:.4g})"
    )


def _ball_shells(p: KernelSymbolParams, m: int, n: int, r: float) -> Iterator[float]:
    """Contributions of the dyadic shells r/2^(k+1) < |z| < r/2^k, k = 0, 1, ...,
    to the integral of |d^m d^n K| over B_r(0).

    Polar rule: Gauss-Legendre in the first-quadrant angle (parity gives the
    other quadrants) and in radius on each shell.  Points near the y = 0 axis
    use the residue route, all through one row memo; the rest interpolate a
    periodic-grid kernel field.
    """
    from scipy.interpolate import RectBivariateSpline

    L = max(4.0 * r, 8.0)
    npts = 512
    grid = Grid2D(npts, npts, L, L)
    fld = kernel_fft(p, grid, m, n)
    spline = RectBivariateSpline(grid.x, grid.y, fld.values, kx=3, ky=3)
    y_switch = 3.0 * grid.dy
    nodes = cache(_row_builder(p, m, n))

    tn, tw = np.polynomial.legendre.leggauss(SCAN_THETA_NODES)
    thetas = 0.25 * math.pi * (tn + 1.0)
    twgt = 0.25 * math.pi * tw
    rn, rw = np.polynomial.legendre.leggauss(SCAN_SHELL_NODES)

    hi = r
    while True:
        lo = hi / 2.0
        rr = 0.5 * (hi - lo) * rn + 0.5 * (hi + lo)
        ww = 0.5 * (hi - lo) * rw
        shell = 0.0
        for radius, wr in zip(rr, ww):
            for theta, wt in zip(thetas, twgt):
                xx = radius * math.cos(theta)
                yy = radius * math.sin(theta)
                if yy < y_switch:
                    val = abs(kernel_residue_eval(p, m, n, xx, yy, nodes=nodes))
                else:
                    val = abs(float(spline(xx, yy)[0, 0]))
                shell += 4.0 * val * radius * wr * wt
        yield shell
        hi = lo


def integral_scan(p: KernelSymbolParams, m: int, n: int, r: float) -> float:
    """Quadrature of |d^m d^n K| over the disc B_r(0).

    Sums the dyadic shells of ``_ball_shells`` from the rim toward the
    integrable origin singularity and adds the origin tail extrapolated from
    the shell ratio (``_extrapolated_sum``): the scan stops once that
    estimate settles to ``SCAN_REL_TOL``.  A tail that has not settled after
    ``SCAN_MAX_SHELLS`` shells, or a ratio at or above 1 (a diverging
    integral), raises ``QuadratureNotConverged``.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    return _extrapolated_sum(_ball_shells(p, m, n, r), SCAN_MAX_SHELLS)
