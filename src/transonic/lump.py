"""
Closed-form evaluation of the rational lump family and its derivatives.

The profile is q(x, y) = -A x / Q, Q = B x^2 + C y^2 + E, with coefficients
tied to the transonic parameter eps.  Every partial derivative up to total
order five is N / Q^p, its numerator N stored as a 2-D array of the
coefficients of x^i y^j and built from q's by the quotient rule, one order
at a time; it is evaluated exactly, never by finite differences, so kernel
and residual checks are free of grid truncation error.

The fourth-order symbol is written here once, free of scipy (``symbol_eval``,
``KernelSymbolParams``): ``kernel`` inverts it, ``linearized`` its ``gp`` member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .grid import Grid2D, RealField2D, Symmetry, _quarter_axes, _sampled

SQRT2 = math.sqrt(2.0)


def wave_speed(eps: float) -> float:
    """The travelling wave's speed c = sqrt2 - eps^2, just below the sound speed."""
    return SQRT2 - eps**2


def dxx_coefficient(eps: float) -> float:
    """The second-order x coefficient 2 sqrt2 - eps^2 of the transonic operator
    dx^4 - (2 sqrt2 - eps^2) dx^2 - 2 dy^2 + ..."""
    return 2.0 * SQRT2 - eps**2


# Valid eps per subcommand; LumpParams reads lump-check's, the kernel symbol kernel's.
EPS_RANGES = {"lump-check": "[0, 0.5)", "eigen": "[0, 0.5)", "norms": "[0, 0.5)",
              "kernel": "(0, 0.5]", "kernel-scan": "(0, 0.5]",
              "construct": "[0, 0.3]", "residual": "(0, 0.3]"}


def check_eps(eps: float, command: str) -> None:
    """Raise ValueError, naming the range, unless ``eps`` is valid for ``command``."""
    span = EPS_RANGES[command]
    lo, hi = (float(t) for t in span[1:-1].split(","))
    above = lo <= eps if span[0] == "[" else lo < eps
    if not (above and (eps <= hi if span[-1] == "]" else eps < hi)):
        raise ValueError(f"epsilon {eps} is outside {span}, the range of {command}")


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
        return KernelSymbolParams(eps, 1.0, dxx_coefficient(eps), 2.0, 2.0, 1.0)

    def __post_init__(self):
        if not (self.a4 > 0 and self.a2 > 0 and self.b2 > 0 and self.g > 0 and self.d4 > 0):
            raise ValueError("all symbol coefficients must be positive")
        check_eps(self.eps, "kernel")


def symbol_eval(p: KernelSymbolParams, xi1, xi2):
    """The symbol denominator; the transform of the kernel is its reciprocal."""
    e2 = p.eps**2
    return (p.a4 * xi1**4 + p.a2 * xi1**2 + p.b2 * xi2**2 + p.g * e2 * xi1**2 * xi2**2
            + p.d4 * e2**2 * xi2**4)


@dataclass(frozen=True)
class LumpParams:
    """Coefficients of the rational lump q = -A x / (B x^2 + C y^2 + E)."""

    eps: float
    A: float
    B: float
    C: float
    E: float

    @staticmethod
    def from_epsilon(eps: float) -> "LumpParams":
        check_eps(eps, "lump-check")
        s = dxx_coefficient(eps)
        A = (2.0 * SQRT2 / s) ** 2 * math.sqrt(8.0 - 2.0 * SQRT2 * eps**2)
        B = s / (2.0 * SQRT2)
        C = s**2 / (4.0 * SQRT2)
        E = 3.0 / (2.0 * SQRT2)
        return LumpParams(eps=float(eps), A=A, B=B, C=C, E=E)

    @property
    def nonlinear_coeff(self) -> float:
        """Coefficient of the d/dx (dq/dx)^2 term in the lump's equation."""
        return 3.0 * SQRT2 * self.B ** 2.5


def _denominator(p: LumpParams, x, y):
    """Q = B x^2 + C y^2 + E, the lump's denominator."""
    return p.B * x**2 + p.C * y**2 + p.E


@lru_cache(maxsize=None)
def _derivative_table(params: LumpParams, m: int, n: int) -> tuple[np.ndarray, int]:
    """Numerator N and denominator power p of d^m/dx^m d^n/dy^n q = N / Q^p.

    N[i, j] is the coefficient of x^i y^j, read-only; order (0, 0) seeds the
    recursion, each further order applies the quotient rule once.
    """
    if m == 0 and n == 0:
        N = np.array([[0.0], [-params.A]])
        N.flags.writeable = False
        return N, 1
    axis = 1 if n > 0 else 0
    N, p = _derivative_table(params, m, n - 1) if axis else _derivative_table(params, m - 1, n)
    dN = P.polyder(N, axis=axis)
    a, b = dN.shape
    # (N/Q^p)' = (N' Q - p N Q') / Q^(p+1), with Q' = 2B x or 2C y
    out = np.zeros((N.shape[0] + 2, N.shape[1] + 2))
    out[2:a + 2, :b] += params.B * dN
    out[:a, 2:b + 2] += params.C * dN
    out[:a, :b] += params.E * dN
    i, j = (0, 1) if axis else (1, 0)
    dQ = 2.0 * (params.C if axis else params.B)
    out[i:i + N.shape[0], j:j + N.shape[1]] -= p * N * dQ
    out.flags.writeable = False
    return out, p + 1


def lump_derivative(p: LumpParams, m: int, n: int, x, y):
    """Exact partial derivative d^m/dx^m d^n/dy^n q at (x, y); (0, 0) is q
    itself.  Accepts scalars or arrays."""
    if m < 0 or n < 0 or m + n > 5:
        raise ValueError("derivative order must satisfy 0 <= m + n <= 5")
    N, power = _derivative_table(p, m, n)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    num = 0.0
    for i, j in np.argwhere(N).tolist():
        num = num + N[i, j] * x**i * y**j
    return num / _denominator(p, x, y) ** power


@lru_cache(maxsize=16)
def sample_lump(p: LumpParams, g: Grid2D, m: int = 0, n: int = 0) -> RealField2D:
    """Sample d^m d^n q on the grid with the correct parity tag.

    The closed form is evaluated on the quarter box only; along an odd axis
    the edge node Lx (Ly), identified with -Lx under periodicity, gets 0,
    and the other nodes keep their exact closed-form values.  Memoized on
    the frozen (params, grid, m, n): the field is immutable, and the outer
    iteration asks for the same few orders at every step.
    """
    vals = lump_derivative(p, m, n, *_quarter_axes(g))
    return _sampled(g, vals, Symmetry.ODD_X_EVEN_Y.differentiated(m, n))


def kpi_residual(p: LumpParams, g: Grid2D, nonlinear_coeff: float | None = None) -> RealField2D:
    """Residual of the lump's own fourth-order equation, closed-form derivatives
    on the quarter box, odd in x and even in y like q.

    Vanishes identically (to rounding) for the exact nonlinear coefficient;
    ``nonlinear_coeff`` overrides it for coefficient-perturbation checks.
    """
    c2 = dxx_coefficient(p.eps)
    cnl = p.nonlinear_coeff if nonlinear_coeff is None else nonlinear_coeff
    X, Y = _quarter_axes(g)
    d = lambda m, n: lump_derivative(p, m, n, X, Y)
    q_xx = d(2, 0)
    # d/dx (q_x)^2 = 2 q_x q_xx
    vals = d(4, 0) - c2 * q_xx - cnl * 2.0 * d(1, 0) * q_xx - 2.0 * d(0, 2)
    return _sampled(g, vals, Symmetry.ODD_X_EVEN_Y)


def linearized_kernel_residuals(p: LumpParams, g: Grid2D) -> tuple[RealField2D, RealField2D]:
    """Residuals of the lump linearization applied to the translation modes.

    Assembled entirely from closed-form derivatives on the quarter box (no
    grid truncation), so both fields vanish to rounding when the modes
    really span the kernel.  The x mode's residual is even/even, the y
    mode's odd/odd.
    """
    c2 = dxx_coefficient(p.eps)
    cl = 2.0 * p.nonlinear_coeff
    X, Y = _quarter_axes(g)
    d = lambda m, n: lump_derivative(p, m, n, X, Y)
    # v = dq/dx: fifth-order identity from differentiating the lump equation in x
    res_x = d(5, 0) - c2 * d(3, 0) - cl * (d(2, 0) ** 2 + d(1, 0) * d(3, 0)) - 2.0 * d(1, 2)
    # v = dq/dy: differentiate in y instead
    res_y = d(4, 1) - c2 * d(2, 1) - cl * (d(2, 0) * d(1, 1) + d(1, 0) * d(2, 1)) - 2.0 * d(0, 3)
    return _sampled(g, res_x, Symmetry.EVEN_X_EVEN_Y), _sampled(g, res_y, Symmetry.ODD_X_ODD_Y)
