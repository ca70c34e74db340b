"""
Closed-form evaluation of the rational lump family and its derivatives.

The profile is q(x, y) = -A x / (B x^2 + C y^2 + E) with coefficients tied to
the transonic parameter eps.  All partial derivatives up to total order five
are produced by exact rational differentiation (polynomial recurrences over
the denominator), never by finite differences, so kernel and residual checks
are free of grid truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid2D, RealField2D, Symmetry, _quarter_axes, _sampled

SQRT2 = math.sqrt(2.0)

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
        s = 2.0 * SQRT2 - eps**2
        A = (2.0 * SQRT2 / s) ** 2 * math.sqrt(8.0 - 2.0 * SQRT2 * eps**2)
        B = s / (2.0 * SQRT2)
        C = s**2 / (4.0 * SQRT2)
        E = 3.0 / (2.0 * SQRT2)
        return LumpParams(eps=float(eps), A=A, B=B, C=C, E=E)

    @property
    def nonlinear_coeff(self) -> float:
        """Coefficient of the d/dx (dq/dx)^2 term in the lump's equation."""
        return 3.0 * SQRT2 * self.B ** 2.5


# A bivariate polynomial is a dict {(i, j): coeff} for x^i y^j, frozen into a
# tuple of items so derivative tables can be cached per (params, m, n).
_Poly = dict


def _poly_mul_monomial(p: _Poly, di: int, dj: int, c: float) -> _Poly:
    return {(i + di, j + dj): v * c for (i, j), v in p.items()}


def _poly_add(p: _Poly, q: _Poly) -> _Poly:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0.0}


def _poly_dx(p: _Poly) -> _Poly:
    return {(i - 1, j): v * i for (i, j), v in p.items() if i > 0}


def _poly_dy(p: _Poly) -> _Poly:
    return {(i, j - 1): v * j for (i, j), v in p.items() if j > 0}


def _poly_mul_Q(p: _Poly, B: float, C: float, E: float) -> _Poly:
    out = _poly_mul_monomial(p, 2, 0, B)
    out = _poly_add(out, _poly_mul_monomial(p, 0, 2, C))
    return _poly_add(out, _poly_mul_monomial(p, 0, 0, E))


@lru_cache(maxsize=None)
def _derivative_table(params: LumpParams, m: int, n: int):
    """Numerator polynomial and denominator power of d^m/dx^m d^n/dy^n q."""
    if m == 0 and n == 0:
        return (((1, 0), -params.A),), 1
    if n > 0:
        items, p = _derivative_table(params, m, n - 1)
        dQ = {(0, 1): 2.0 * params.C}
    else:
        items, p = _derivative_table(params, m - 1, n)
        dQ = {(1, 0): 2.0 * params.B}
    N = dict(items)
    dN = _poly_dy(N) if n > 0 else _poly_dx(N)
    # quotient rule: (N/Q^p)' = (N' Q - p N Q') / Q^(p+1)
    term1 = _poly_mul_Q(dN, params.B, params.C, params.E)
    term2: _Poly = {}
    for (i, j), v in N.items():
        for (di, dj), w in dQ.items():
            key = (i + di, j + dj)
            term2[key] = term2.get(key, 0.0) - p * v * w
    out = _poly_add(term1, term2)
    return tuple(sorted(out.items())), p + 1


def _eval_table(items, p: int, params: LumpParams, x, y):
    Q = params.B * x**2 + params.C * y**2 + params.E
    num = 0.0
    for (i, j), c in items:
        term = c
        if i:
            term = term * x**i
        if j:
            term = term * y**j
        num = num + term
    return num / Q**p


def lump_eval(p: LumpParams, x, y):
    """q(x, y); accepts scalars or arrays."""
    Q = p.B * np.asarray(x) ** 2 + p.C * np.asarray(y) ** 2 + p.E
    return -p.A * np.asarray(x) / Q


def lump_derivative(p: LumpParams, m: int, n: int, x, y):
    """Exact partial derivative d^m/dx^m d^n/dy^n q at (x, y)."""
    if m < 0 or n < 0 or m + n > 5:
        raise ValueError("derivative order must satisfy 0 <= m + n <= 5")
    if m == 0 and n == 0:
        return lump_eval(p, x, y)
    items, power = _derivative_table(p, m, n)
    return _eval_table(items, power, p, np.asarray(x, dtype=float), np.asarray(y, dtype=float))


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
    c2 = 2.0 * SQRT2 - p.eps**2
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
    c2 = 2.0 * SQRT2 - p.eps**2
    cl = 2.0 * p.nonlinear_coeff
    X, Y = _quarter_axes(g)
    d = lambda m, n: lump_derivative(p, m, n, X, Y)
    # v = dq/dx: fifth-order identity from differentiating the lump equation in x
    res_x = d(5, 0) - c2 * d(3, 0) - cl * (d(2, 0) ** 2 + d(1, 0) * d(3, 0)) - 2.0 * d(1, 2)
    # v = dq/dy: differentiate in y instead
    res_y = d(4, 1) - c2 * d(2, 1) - cl * (d(2, 0) * d(1, 1) + d(1, 0) * d(2, 1)) - 2.0 * d(0, 3)
    return _sampled(g, res_x, Symmetry.EVEN_X_EVEN_Y), _sampled(g, res_y, Symmetry.ODD_X_ODD_Y)
