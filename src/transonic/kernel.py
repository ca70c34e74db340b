"""
Green-kernel evaluation for the anisotropic fourth-order operator.

The symbol denominator is

    d(xi1, xi2) = a4 xi1^4 + a2 xi1^2 + b2 xi2^2 + g e^2 xi1^2 xi2^2 + d4 e^4 xi2^4

and the kernel derivative d^m/dx^m d^n/dy^n K is computed by two independent
routes:

* ``kernel_fft``      -- 2D Fourier inversion on a periodic grid (this is the
  periodized kernel, i.e. the free-space kernel plus its box images);
* ``kernel_residue_eval`` -- contour integration in xi2 reduces the double
  integral to a 1D oscillatory integral in xi1, evaluated by adaptive
  Gauss-Kronrod panels with a square-root substitution at the branch points
  +-c_eps and oscillatory-weight quadrature for the tails.

``decay_scan`` and ``integral_scan`` turn the far-field decay table and the
ball-integral bounds of the kernel analysis into measurable reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy import integrate

from .errors import ImaginaryResidue, QuadratureNotConverged
from .grid import Grid2D, RealField2D, Symmetry

SQRT2 = math.sqrt(2.0)
QUAD_TOL = 1e-8

ALLOWED_ORDERS = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)}


@dataclass(frozen=True)
class KernelSymbolParams:
    """Coefficients (a4, a2, b2, g, d4) of the symbol denominator."""

    eps: float
    a4: float
    a2: float
    b2: float
    g: float
    d4: float

    @staticmethod
    def normalized(eps: float) -> "KernelSymbolParams":
        """All constant coefficients one: the model operator."""
        return KernelSymbolParams(eps, 1.0, 1.0, 1.0, 1.0, 1.0)

    @staticmethod
    def gp(eps: float) -> "KernelSymbolParams":
        """Coefficients of the travelling-wave linearization."""
        return KernelSymbolParams(eps, 1.0, 2.0 * SQRT2 - eps**2, 2.0, 2.0, 1.0)

    def __post_init__(self):
        if not (self.a4 > 0 and self.a2 > 0 and self.b2 > 0 and self.g > 0 and self.d4 > 0):
            raise ValueError("all symbol coefficients must be positive")
        if not (0 < self.eps <= 0.5):
            raise ValueError("eps must lie in (0, 0.5]")


def symbol_eval(p: KernelSymbolParams, xi1, xi2):
    """Denominator value; the transform of the kernel is its reciprocal."""
    e2 = p.eps**2
    x2 = np.asarray(xi1) ** 2
    y2 = np.asarray(xi2) ** 2
    return p.a4 * x2**2 + p.a2 * x2 + p.b2 * y2 + p.g * e2 * x2 * y2 + p.d4 * e2**2 * y2**2


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


@lru_cache(maxsize=None)
def branch_point(p: KernelSymbolParams) -> float | None:
    """Positive xi where the discriminant vanishes (c_eps of the factorization).

    Returns None when the discriminant stays positive on the whole real line,
    which happens when the fourth-order principal part is a perfect square
    (g^2 = 4 d4 a4, e.g. the gp preset): the reduced integrand is then smooth
    everywhere and no substitution is needed.
    """
    e2 = p.eps**2
    A2 = e2**2 * (p.g**2 - 4.0 * p.d4 * p.a4)
    A1 = 2.0 * p.b2 * p.g * e2 - 4.0 * p.d4 * e2**2 * p.a2
    A0 = p.b2**2
    if abs(A2) < 1e-300:
        if A1 >= 0:
            return None
        return math.sqrt(-A0 / A1)
    roots = np.roots([A2, A1, A0])
    pos = [float(r.real) for r in roots if abs(r.imag) < 1e-12 * abs(r) + 1e-300 and r.real > 0]
    if not pos:
        return None
    return math.sqrt(min(pos))


@dataclass(frozen=True)
class DispersionRoots:
    """Factorization data of the normalized symbol at a given eps.

    Provides the root functions a(xi), b(xi) (real below the branch point
    c_eps, complex conjugates with positive-real-part square roots beyond),
    the discriminant root D(xi), and the reduced integrand profiles M_m.
    """

    eps: float
    c_eps: float
    d_eps: float

    @property
    def params(self) -> KernelSymbolParams:
        return KernelSymbolParams.normalized(self.eps)

    def a(self, xi):
        return _roots_ab(self.params, xi)[0]

    def b(self, xi):
        return _roots_ab(self.params, xi)[1]

    def D(self, xi):
        """sqrt of the discriminant; real positive on (-c_eps, c_eps)."""
        return np.sqrt(_discriminant(self.params, xi))

    def M(self, m: int, xi):
        """Reduced 1D integrand profile xi^m * sqrt(1+e^2 xi^2 - D) / (...).

        Tends to sgn(xi) xi^(m-1) as xi -> 0; bounded at the origin for
        m >= 1 and vanishing there for m >= 2.
        """
        e2 = self.eps**2
        xi = np.asarray(xi, dtype=float)
        s = xi * xi
        droot = self.D(xi)
        # rationalized: 1 + e^2 xi^2 - D = 4 e^4 (xi^2 + xi^4) / (1 + e^2 xi^2 + D)
        colsum = 1.0 + e2 * s + droot
        low = 4.0 * e2**2 * (s + s * s) / colsum
        root_low = np.sqrt(low)
        denom = SQRT2 * e2 * s * (1.0 + s) + (SQRT2 / 2.0) * np.abs(xi) * np.sqrt(1.0 + s) * low
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(np.abs(xi) > 0, xi**m * root_low / denom, 0.0)
        return out


def dispersion_roots(eps: float) -> DispersionRoots:
    """Roots c_eps, d_eps of the normalized discriminant, by the closed form."""
    if not (0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 0.5]")
    e2 = eps**2
    root = math.sqrt(1.0 - e2 + e2 * e2)
    c2 = (1.0 - 2.0 * e2 + 2.0 * root) / (3.0 * e2)
    d2 = (-1.0 + 2.0 * e2 + 2.0 * root) / (3.0 * e2)
    return DispersionRoots(eps=eps, c_eps=math.sqrt(c2), d_eps=math.sqrt(d2))


# ---------------------------------------------------------------------------
# residue-reduced 1D route
# ---------------------------------------------------------------------------


def _scalar_roots(p: KernelSymbolParams):
    """``_roots_ab`` for one real xi at a time, in ``cmath`` arithmetic.

    QUADPACK hands its integrand one float per call, so every callback of the
    residue route uses this form; ``_roots_ab`` stays the array API.  The
    formulas (rationalized ``a``, principal square root of the discriminant)
    and their operation order are those of ``_roots_ab``; the coefficient
    products are formed once per symbol.
    """
    e2 = p.eps**2
    b2, ge2, a4, a2 = p.b2, p.g * e2, p.a4, p.a2
    disc4 = 4.0 * p.d4 * e2**2
    bden = 2.0 * p.d4 * p.eps**4

    def roots(xi: float):
        s = xi * xi
        lin = b2 + ge2 * s
        quart = a4 * s * s + a2 * s
        droot = cmath.sqrt(lin * lin - disc4 * quart)
        return 2.0 * quart / (lin + droot), (lin + droot) / bden, droot

    return roots


def _scale_xi(p: KernelSymbolParams) -> float:
    """Frequency scale of the reduced integrand: the branch point when one
    exists, the natural 1/eps scale otherwise."""
    c = branch_point(p)
    return c if c is not None else 1.0 / p.eps


def _integrand(p: KernelSymbolParams, m: int, n: int, y: float):
    """xi -> Re xi^m S_n(xi, y) for one real xi, with S_n the xi2-contour
    integral divided by pi i^n:

        S_n = [a^{(n-1)/2} e^{-sqrt(a) y} - b^{(n-1)/2} e^{-sqrt(b) y}] / (d4 e^4 (b-a)),

    real-valued for real xi (pairwise conjugate roots past the branch point).
    a^{(n-1)/2} is taken as sqrt(a)^(n-1) on the principal branch, and as a
    itself for n = 3.
    """
    roots = _scalar_roots(p)
    k = n - 1
    exp, sqrt = cmath.exp, cmath.sqrt

    def f(xi: float) -> float:
        a, b, droot = roots(xi)
        ra = sqrt(a)
        rb = sqrt(b)
        if k == 2:
            num = a * exp(-ra * y) - b * exp(-rb * y)
        else:
            num = ra**k * exp(-ra * y) - rb**k * exp(-rb * y)
        return xi**m * (num / droot).real

    return f


@lru_cache(maxsize=None)
def _axis_tail_coeffs(p: KernelSymbolParams, m: int, n: int) -> tuple[float, float]:
    """(l_inf, l_1) with xi^m S_n(xi, 0) = l_inf + l_1/xi + O(xi^-2).

    Only m+n = 3 has l_inf != 0 and only m+n = 2 has l_1 != 0 among the
    supported orders; the expansion proceeds in even powers past these.
    Both are Richardson extrapolations in 1/xi^2 from moderate xi, where the
    root difference is still well conditioned.
    """
    f = _integrand(p, m, n, 0.0)
    big = 400.0 * max(_scale_xi(p), 1.0)

    def extrapolate(t):
        t1, t2 = t(big), t(2.0 * big)
        return (4.0 * t2 - t1) / 3.0

    l_inf = extrapolate(f) if m + n == 3 else 0.0
    l_1 = extrapolate(lambda xi: xi * f(xi)) if m + n == 2 else 0.0
    return l_inf, l_1


def _decay_cutoff(p: KernelSymbolParams, y: float, c: float) -> float:
    """xi beyond which exp(-Re sqrt(a) y) < 1e-20."""
    if y <= 0.0:
        return math.inf
    target = 46.0 / y
    roots = _scalar_roots(p)
    # past the branch point Re sqrt(a) grows ~ sqrt(g/2)/eps * |xi| * cos(pi/6)-ish;
    # bracket by doubling instead of trusting an asymptotic constant
    xi = 2.0 * c
    for _ in range(200):
        if cmath.sqrt(roots(xi)[0]).real >= target:
            return xi
        xi *= 1.5
    return xi


def kernel_residue_eval(
    p: KernelSymbolParams,
    m: int,
    n: int,
    x: float,
    y: float,
    quad_tol: float = QUAD_TOL,
) -> float:
    """Free-space kernel derivative value d^m/dx^m d^n/dy^n K(x, y).

    Normalization matches ``kernel_fft``: K = (2 pi)^-2 times the inverse
    transform of the symbol reciprocal, so the value returned here is the
    real number (2 pi)^-2 i^(m+n) K_{m,n} in terms of the raw moment
    integral K_{m,n}.
    """
    if (m, n) not in ALLOWED_ORDERS or m + n < 1:
        raise ValueError(f"unsupported derivative order ({m}, {n})")
    if x == 0.0 and y == 0.0:
        raise ValueError("the kernel derivative is singular at the origin")
    sgn = 1.0
    if x < 0.0:
        x = -x
        sgn *= (-1.0) ** m
    if y < 0.0:
        y = -y
        sgn *= (-1.0) ** n
    if y == 0.0 and n % 2 == 1:
        return 0.0
    if x == 0.0 and m % 2 == 1:
        return 0.0

    c_branch = branch_point(p)
    c = c_branch if c_branch is not None else 1.0 / p.eps
    f = _integrand(p, m, n, y)
    weight = "cos" if m % 2 == 0 else "sin"
    wfun = math.cos if m % 2 == 0 else math.sin
    phase_sign = (-1.0) ** (m // 2) if m % 2 == 0 else (-1.0) ** ((m + 1) // 2)
    front = phase_sign * (-1.0) ** n / (2.0 * math.pi)

    total = 0.0
    err = 0.0
    abs_scale = 0.0

    def add(val, e, mag):
        nonlocal total, err, abs_scale
        total += val
        err += e
        abs_scale = max(abs_scale, abs(mag))

    def osc(xi):
        return wfun(x * xi)

    # slowly-decaying tails on the axis: subtract the sgn-type constant
    # asymptote (improper sin-transform 1/x) and the 1/xi term (cosine/sine
    # integral transforms)
    ell = ell1 = 0.0
    if y == 0.0:
        ell, ell1 = _axis_tail_coeffs(p, m, n)

    # panel 1: [0, c/2], plain adaptive GK
    v, e = integrate.quad(
        lambda xi: osc(xi) * f(xi), 0.0, 0.5 * c, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    add(v, e, v)

    if c_branch is not None:
        # panels 2-3: square-root substitution u^2 = c -+ xi at the branch point
        for hi, orient in ((c, -1.0), (2.0 * c, +1.0)):
            def g(u, orient=orient):
                xi = c + orient * u * u
                return 2.0 * u * osc(xi) * f(xi)

            umax = math.sqrt(0.5 * c if orient < 0 else c)
            v, e = integrate.quad(g, 0.0, umax, limit=400, epsabs=1e-13, epsrel=1e-11)
            add(v, e, v)
    else:
        # smooth everywhere: plain panel up to the tail start
        v, e = integrate.quad(
            lambda xi: osc(xi) * f(xi), 0.5 * c, 2.0 * c, limit=400, epsabs=1e-13, epsrel=1e-11
        )
        add(v, e, v)

    # tail panel [2c, infinity): exponentially damped for y > 0 (truncate),
    # oscillatory-weight quadrature for y = 0
    if y > 0.0:
        cut = min(_decay_cutoff(p, y, c), 2.0 * c + 2e5)
        lo = 2.0 * c
        while lo < cut:
            hi = min(lo * 4.0, cut)
            v, e = integrate.quad(
                f, lo, hi, weight=weight, wvar=x, limit=400, epsabs=1e-13, epsrel=1e-11
            ) if x > 0 else integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-11)
            add(v, e, v)
            lo = hi
    else:
        from scipy.special import sici

        def fr(xi):
            out = f(xi)
            if ell != 0.0:
                out = out - ell
            if ell1 != 0.0:
                out = out - ell1 / xi
            return out

        # subtracted integrand decays at least like xi^-2: geometric
        # oscillatory panels to a finite cutoff, remainder below 1e-12
        cut = 3e4 * max(c, 1.0)
        lo = 2.0 * c
        while lo < cut:
            hi = min(lo * 4.0, cut)
            if x > 0:
                v, e = integrate.quad(
                    fr, lo, hi, weight=weight, wvar=x, limit=400, epsabs=1e-13, epsrel=1e-11
                )
            else:
                v, e = integrate.quad(fr, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-11)
            add(v, e, v)
            lo = hi
        if x > 0:
            si, ci = sici(2.0 * c * x)
            if ell != 0.0:
                # int_a^inf sin(x xi) dxi = cos(a x)/x as an improper limit
                tail_exact = ell * (math.cos(2.0 * c * x) / x)
                add(tail_exact, 0.0, tail_exact)
            if ell1 != 0.0:
                # int_a^inf w(x xi)/xi dxi in terms of Si/Ci
                tail_exact = ell1 * ((math.pi / 2.0 - si) if weight == "sin" else -ci)
                add(tail_exact, 0.0, tail_exact)

    value = front * total
    scale = max(abs(total), 1e-3 * abs_scale, 1e-300)
    # 1e-13 floor: QUADPACK error estimates bottom out near machine epsilon
    # even when the integral is exactly representable
    if err > max(quad_tol * scale, 1e-13):
        raise QuadratureNotConverged(
            f"estimated error {err:.2e} exceeds {quad_tol:.1e} * {scale:.2e}"
        )
    return sgn * value


# ---------------------------------------------------------------------------
# 2D Fourier-inversion route
# ---------------------------------------------------------------------------


def _symbol_ratio(p: KernelSymbolParams, g: Grid2D, m: int, n: int) -> np.ndarray:
    """(i xi1)^m (i xi2)^n / denominator on the full FFT grid, origin zeroed."""
    kx = g.kx
    ky = 2.0 * np.pi * np.fft.fftfreq(g.ny, d=g.dy)
    KX, KY = np.meshgrid(kx, ky, indexing="ij")
    denom = symbol_eval(p, KX, KY)
    numer = np.ones_like(KX, dtype=np.complex128)
    if m:
        fx = (1j * kx) ** m
        if m % 2 == 1:
            fx[g.nx // 2] = 0.0
        numer = numer * fx[:, None]
    if n:
        fy = (1j * ky) ** n
        if n % 2 == 1:
            fy[g.ny // 2] = 0.0
        numer = numer * fy[None, :]
    ratio = np.zeros_like(numer)
    nz = denom != 0.0
    ratio[nz] = numer[nz] / denom[nz]
    return ratio


def kernel_fft(p: KernelSymbolParams, g: Grid2D, m: int, n: int) -> RealField2D:
    """Periodic-grid kernel derivative by inverse FFT of the symbol ratio.

    Normalized so that applying the discrete symbol to the (0,0) kernel
    reproduces the discrete delta minus its mean.  Values equal the
    free-space kernel plus its periodic images; the image contribution is
    what a domain-doubling study sees shrink.  Raises ``ImaginaryResidue``
    when the inverse transform is not real to 1e-10 of its largest value.
    """
    if (m, n) not in ALLOWED_ORDERS:
        raise ValueError(f"unsupported derivative order ({m}, {n})")
    ratio = _symbol_ratio(p, g, m, n)
    ix = np.arange(g.nx)
    iy = np.arange(g.ny)
    phase = ((-1.0) ** ix)[:, None] * ((-1.0) ** iy)[None, :]
    vals = sfft.ifft2(ratio * phase) * (g.nx * g.ny / (4.0 * g.Lx * g.Ly))
    resid = np.max(np.abs(vals.imag))
    scale = np.max(np.abs(vals.real)) + 1e-300
    if resid > 1e-10 * scale:
        raise ImaginaryResidue(f"kernel field has imaginary residue {resid:.2e}")
    sym = Symmetry.from_parities(-1 if m % 2 else 1, -1 if n % 2 else 1)
    return RealField2D(g, vals.real, sym)


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
    if (m, n) not in ALLOWED_ORDERS or m + n < 1:
        raise ValueError(f"unsupported derivative order ({m}, {n})")
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
# scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayScanReport:
    """Log-log decay fit of |d^m d^n K| along rays, with the bound exponent."""

    m: int
    n: int
    preset: str
    eps: float
    rays: tuple[float, ...]
    radii: tuple[float, ...]
    fitted_slope_per_ray: tuple[float, ...]
    bound_slope: float
    max_prefactor: float


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


def decay_scan(
    p: KernelSymbolParams,
    m: int,
    n: int,
    radii,
    angles,
    preset_name: str = "normalized",
) -> DecayScanReport:
    """Least-squares slope of log |K_mn| vs log r along each ray.

    Radii where the kernel passes through a zero (below 1e-10 of the ray
    maximum) are dropped from the fit; oscillatory kernels otherwise poison
    the regression.
    """
    radii = tuple(float(r) for r in radii)
    angles = tuple(float(t) for t in angles)
    slopes = []
    prefactors = []
    for theta in angles:
        vals = np.array(
            [
                kernel_residue_eval(p, m, n, r * math.cos(theta), r * math.sin(theta))
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
        m=m,
        n=n,
        preset=preset_name,
        eps=p.eps,
        rays=angles,
        radii=radii,
        fitted_slope_per_ray=tuple(slopes),
        bound_slope=FAR_FIELD_SLOPE[(m, n)],
        max_prefactor=float(np.nanmax(prefactors)),
    )


def integral_scan(
    p: KernelSymbolParams,
    m: int,
    n: int,
    r: float,
    n_theta: int = 16,
    n_shell: int = 8,
    shells: int = 12,
) -> float:
    """Quadrature of |d^m d^n K| over the disc B_r(0).

    Polar rule: Gauss-Legendre in the first-quadrant angle (parity gives the
    other quadrants), dyadic radial shells toward the integrable origin
    singularity.  Points near the y = 0 axis use the residue route; the rest
    interpolate a periodic-grid kernel field.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    from scipy.interpolate import RectBivariateSpline

    L = max(4.0 * r, 8.0)
    npts = 512
    grid = Grid2D(npts, npts, L, L)
    fld = kernel_fft(p, grid, m, n)
    spline = RectBivariateSpline(grid.x, grid.y, fld.values, kx=3, ky=3)
    y_switch = 3.0 * grid.dy

    tn, tw = np.polynomial.legendre.leggauss(n_theta)
    thetas = 0.25 * math.pi * (tn + 1.0)
    twgt = 0.25 * math.pi * tw
    rn, rw = np.polynomial.legendre.leggauss(n_shell)

    total = 0.0
    hi = r
    for _ in range(shells):
        lo = hi / 2.0
        rr = 0.5 * (hi - lo) * rn + 0.5 * (hi + lo)
        ww = 0.5 * (hi - lo) * rw
        for radius, wr in zip(rr, ww):
            for theta, wt in zip(thetas, twgt):
                xx = radius * math.cos(theta)
                yy = radius * math.sin(theta)
                if yy < y_switch:
                    val = abs(kernel_residue_eval(p, m, n, xx, yy))
                else:
                    val = abs(float(spline(xx, yy)[0, 0]))
                total += 4.0 * val * radius * wr * wt
        hi = lo
    return total
