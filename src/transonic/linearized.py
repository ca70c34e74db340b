"""
The linearization of the perturbed fourth-order problem about the lump.

Three operators live here:

* ``apply_linearized``       -- the full operator with the small fourth-order
  y-terms, the verdict of the linear solver inside the outer fixed point;
* ``apply_lump_linearization`` -- the exact linearization of the lump's own
  equation (no epsilon y-terms), which annihilates the translation modes;
* ``apply_L``                -- the reduced second-order nonlocal operator
  whose spectrum carries the Morse-index structure: exactly one negative
  eigenvalue with an even eigenfunction of zero x-mean.

Sign convention for ``apply_L``: the operator is written so that its unique
negative eigenvalue is the structural one (L psi = lambda psi with
lambda_1 < 0 < lambda_2 <= ...).  Equivalently it is the negative of the
second-order expression obtained by integrating the fourth-order operator
twice in x.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, lobpcg, minres

from .errors import MultipleNegative, NonZeroMean, NotConverged, SymmetryViolation
from .grid import (
    Grid2D,
    RealField2D,
    Symmetry,
    _project_parity,
    antiderivative_x,
    dealias,
    derivative,
    l2_norm,
    product_dealiased,
    symmetrize,
    weighted_sup,
)
from .lump import SQRT2, LumpParams, sample_lump

DELTA_DEFAULT = 0.1
# restarts of MINRES from its own iterate in ``solve_linearized``
_MINRES_PASSES = 3


@dataclass(frozen=True)
class LinearizedOperator:
    """Frozen data of the linearization about the lump at a given eps."""

    eps: float
    q: RealField2D
    dq: RealField2D
    coeff_nl: float
    coeff_lump_nl: float
    lambda_coupling: float

    @property
    def c2(self) -> float:
        """Second-order x coefficient 2*sqrt(2) - eps^2."""
        return 2.0 * SQRT2 - self.eps**2


def make_linearized_operator(
    eps: float, grid: Grid2D, params: LumpParams | None = None
) -> LinearizedOperator:
    params = params if params is not None else LumpParams.from_epsilon(eps)
    q = sample_lump(params, grid, 0, 0)
    dq = sample_lump(params, grid, 1, 0)
    coeff_nl = 6.0 * (SQRT2 - eps**2)
    coeff_lump_nl = 6.0 * SQRT2 * params.B ** 2.5
    return LinearizedOperator(
        eps=eps,
        q=q,
        dq=dq,
        coeff_nl=coeff_nl,
        coeff_lump_nl=coeff_lump_nl,
        lambda_coupling=coeff_lump_nl - coeff_nl,
    )


def _constant_symbol(op: LinearizedOperator, grid: Grid2D) -> np.ndarray:
    """xi1^4 + (2 sqrt2 - e^2) xi1^2 + 2 xi2^2 + 2 e^2 xi1^2 xi2^2 + e^4 xi2^4."""
    kx = grid.kx[:, None]
    ky = grid.ky_r[None, :]
    e2 = op.eps**2
    return kx**4 + op.c2 * kx**2 + 2.0 * ky**2 + 2.0 * e2 * kx**2 * ky**2 + e2**2 * ky**4


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
    """Full linearized operator applied to an odd-in-x, even-in-y field."""
    if phi.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("apply_linearized expects an odd_x_even_y field")
    out = _apply_constant(op, phi)
    return out - _coupling(op, phi, op.coeff_nl)


def _apply_constant(op: LinearizedOperator, phi: RealField2D) -> RealField2D:
    """Constant-coefficient part, diagonal in Fourier space."""
    grid = phi.grid
    hat = sfft.rfft2(phi.values)
    hat *= _constant_symbol(op, grid)
    vals = _project_parity(grid, sfft.irfft2(hat, s=(grid.nx, grid.ny)), phi.symmetry)
    return RealField2D(grid, vals, phi.symmetry)


def apply_lump_linearization(op: LinearizedOperator, phi: RealField2D) -> RealField2D:
    """Linearization of the lump's own fourth-order equation about q.

    Same x-structure as ``apply_linearized`` but with the lump's nonlinear
    coefficient and without the epsilon-weighted y-terms; annihilates the
    translation modes dq/dx and dq/dy.
    """
    grid = phi.grid
    hat = sfft.rfft2(phi.values)
    kx = grid.kx[:, None]
    ky = grid.ky_r[None, :]
    hat *= kx**4 + op.c2 * kx**2 + 2.0 * ky**2
    vals = _project_parity(grid, sfft.irfft2(hat, s=(grid.nx, grid.ny)), phi.symmetry)
    const = RealField2D(grid, vals, phi.symmetry)
    return const - _coupling(op, phi, op.coeff_lump_nl)


def solve_linearized(
    op: LinearizedOperator,
    h1: RealField2D,
    h2: RealField2D,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> RealField2D:
    """Solve the linearized problem with right-hand side dx h1 + dy h2.

    Preconditioned MINRES (Paige & Saunders), the method for this symmetric
    indefinite problem (one negative direction, the Morse-index one), on the
    sine-cosine coefficients of the quarter box (``_sine_cosine_coefficients``),
    where the constant symbol and the preconditioner, its inverse, are diagonal.
    MINRES stops on the preconditioned residual, in which the inverse
    fourth-order symbol damps the high frequencies, while the verdict is the
    plain relative L2 residual of ``apply_linearized`` on the full grid; so
    MINRES restarts from its own iterate until the plain residual meets
    ``tol``, for at most ``_MINRES_PASSES`` passes of ``40 * max_iter``
    iterations each.
    """
    if h1.symmetry is not Symmetry.EVEN_X_EVEN_Y:
        raise SymmetryViolation("h1 must be tagged even_x_even_y")
    if h2.symmetry is not Symmetry.ODD_X_ODD_Y:
        raise SymmetryViolation("h2 must be tagged odd_x_odd_y")
    grid = h1.grid
    rhs = derivative(h1, 1, 0) + derivative(h2, 0, 1)
    rhs = symmetrize(rhs, Symmetry.ODD_X_EVEN_Y)
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        return RealField2D(grid, np.zeros_like(rhs.values), Symmetry.ODD_X_EVEN_Y)

    mx, my = grid.nx // 2, grid.ny // 2
    ntot = (mx - 1) * (my + 1)
    sym = _constant_symbol(op, grid)[1:mx, :, None]
    kx = grid.kx[1:mx, None, None]
    potential = _quarter_potential(op)

    def matvec(v: np.ndarray) -> np.ndarray:
        # the coupling -dx T[(T dq)(T dx phi)]: dx takes sine to cosine
        # coefficients by a multiply by kx, and cosine to sine ones by -kx
        c = v.reshape(sym.shape)
        tv = np.zeros((mx + 1, my + 1, 1))
        tv[1:mx] = kx * c
        return (sym * c + op.coeff_nl * kx * potential(tv)[1:mx]).ravel()

    A = LinearOperator((ntot, ntot), matvec=matvec, dtype=float)
    M = LinearOperator((ntot, ntot), matvec=lambda v: v / sym.ravel(), dtype=float)
    b = _sine_cosine_coefficients(rhs.values[..., None]).ravel()
    sol = None
    for _ in range(_MINRES_PASSES):
        sol, info = minres(A, b, x0=sol, M=M, rtol=tol * 1e-2, maxiter=40 * max_iter)
        vals = _sine_cosine_values(sol.reshape(sym.shape))[..., 0]
        phi = RealField2D(grid, vals, Symmetry.ODD_X_EVEN_Y)
        res = l2_norm(apply_linearized(op, phi) - rhs) / rhs_norm
        if res <= tol:
            return phi
    raise NotConverged(
        f"linearized solve: relative residual {res:.3e} > {tol:.1e} "
        f"after {_MINRES_PASSES} MINRES passes (minres info={info})"
    )


# ---------------------------------------------------------------------------
# the reduced operator and its eigenpairs
# ---------------------------------------------------------------------------


def _x_mean_removed(vals: np.ndarray) -> np.ndarray:
    return vals - vals.mean(axis=0, keepdims=True)


def apply_L(op: LinearizedOperator, psi: RealField2D) -> RealField2D:
    """Reduced operator: -dxx psi + c2 psi + V psi + 2 dx^-2 dyy psi.

    V is the lump potential (lump nonlinear coefficient times dq/dx).  The
    nonlocal term is defined by double zero-mode-free Fourier division, which
    requires zero x-mean on every y-line; the output is returned in the same
    zero-x-mean convention (the discrete antiderivative fixes integration
    constants per y-line, so the operator is only defined modulo x-constants).
    """
    grid = psi.grid
    scale = float(np.max(np.abs(psi.values)))
    if scale > 0:
        worst = float(np.max(np.abs(psi.values.mean(axis=0))))
        if worst > 1e-8 * scale:
            raise NonZeroMean("apply_L requires zero x-mean on every y-line")
    hat = sfft.rfft2(psi.values)
    kx = grid.kx[:, None]
    ky = grid.ky_r[None, :]
    sym = kx**2 + op.c2
    hat_local = hat * sym
    ratio = np.zeros((grid.nx, grid.ky_r.size))
    nzx = grid.kx != 0.0
    ratio[nzx, :] = 2.0 * ky**2 / (grid.kx[nzx, None] ** 2)
    hat_nonlocal = hat * ratio
    out = sfft.irfft2(hat_local + hat_nonlocal, s=(grid.nx, grid.ny))
    out += op.coeff_lump_nl * _potential_product(op, psi).values
    out = _x_mean_removed(out)
    return RealField2D(grid, out, Symmetry.NONE)


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and L2-normalized eigenfunction of the reduced operator."""

    eigenvalue: float
    psi: RealField2D


@dataclass(frozen=True)
class EigenResult:
    """Extremal spectral data of the reduced operator.

    ``pairs`` holds the lowest eigenpairs in ascending order; ``phi0`` is the
    ground state (the single negative direction), ``phi1`` its x-antiderivative
    (odd in x, even in y), ``lambda2`` the smallest positive eigenvalue.
    ``iterations`` counts the LOBPCG iterations up to the returned block and
    ``max_residual`` is the largest ||L v - lambda v||_2 over the returned
    pairs (unit vectors in the grid's Euclidean norm).
    """

    pairs: tuple[EigenPair, ...]
    phi0: RealField2D
    phi1: RealField2D
    lambda1: float
    lambda2: float
    negative_count: int
    iterations: int
    max_residual: float


# The quarter-box cosine and sine bases.  On the periodic grid the even
# reflection about index 0 fixes the nodes 0 and n/2, so an even field is
# fixed by its n/2 + 1 samples on indices 0..n/2, and its DFT is exactly the
# DCT-I of those samples; an odd field vanishes at both nodes, and its DFT is
# exactly -i times the DST-I of its samples on indices 1..n/2-1.  With the
# trapezoid weights w = (1, 2, ..., 2, 1) the full-grid sum of f g equals
# sum w_p w_q f_pq g_pq; so the orthonormal DCT-I (DST-I along an odd axis)
# of sqrt(w_p w_q) f_pq is an isometry from the fields of one parity class
# (full grid, Euclidean) onto their coefficients.  The coefficient (m, l) is
# sqrt(w_m w_l / (nx ny)) times the DFT coefficient (i times it along a sine
# axis), so every Fourier symbol acts on it as a diagonal multiply, and the
# cosine row m = 0 holds the x-means of the y-lines.


def _fold_even(v: np.ndarray, axis: int) -> np.ndarray:
    """Even part of periodic samples along ``axis``, kept on indices 0..n/2."""
    v = np.moveaxis(v, axis, 0)
    n = v.shape[0]
    mirror = np.concatenate([v[:1], v[: n // 2 - 1 : -1]])
    return np.moveaxis(0.5 * (v[: n // 2 + 1] + mirror), 0, axis)


def _unfold_even(q: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of ``_fold_even`` on even data: samples 0..n/2 to the period."""
    q = np.moveaxis(q, axis, 0)
    return np.moveaxis(np.concatenate([q, q[-2:0:-1]]), 0, axis)


def _fold_odd(v: np.ndarray, axis: int) -> np.ndarray:
    """Odd part of periodic samples along ``axis``, kept on indices 1..n/2-1."""
    v = np.moveaxis(v, axis, 0)
    n = v.shape[0]
    return np.moveaxis(0.5 * (v[1 : n // 2] - v[: n // 2 : -1]), 0, axis)


def _unfold_odd(q: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of ``_fold_odd`` on odd data: samples 1..n/2-1 to the period."""
    q = np.moveaxis(q, axis, 0)
    zero = np.zeros_like(q[:1])
    return np.moveaxis(np.concatenate([zero, q, zero, -q[::-1]]), 0, axis)


def _quarter_weights(nx: int, ny: int) -> np.ndarray:
    """sqrt(w_p w_q) on the quarter box, shaped (nx/2+1, ny/2+1, 1)."""
    sx, sy = (np.sqrt(np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]) for n in (nx, ny))
    return (sx[:, None] * sy[None, :])[..., None]


def _cosine_coefficients(vals: np.ndarray) -> np.ndarray:
    """Full-grid columns (nx, ny, b) to the orthonormal cosine coefficients
    of their even/even, zero-x-mean projection, rows m = 1..nx/2."""
    quarter = _fold_even(_fold_even(vals, 0), 1)
    quarter *= _quarter_weights(vals.shape[0], vals.shape[1])
    return sfft.dctn(quarter, type=1, axes=(0, 1), norm="ortho")[1:]


def _cosine_values(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_cosine_coefficients``: rows m = 1..nx/2 to full-grid
    columns, exactly even in x and y and of zero x-mean."""
    padded = np.concatenate([np.zeros_like(coeffs[:1]), coeffs])
    quarter = sfft.dctn(padded, type=1, axes=(0, 1), norm="ortho")
    quarter /= _quarter_weights(2 * coeffs.shape[0], 2 * (coeffs.shape[1] - 1))
    return _unfold_even(_unfold_even(quarter, 0), 1)


def _sine_cosine_coefficients(vals: np.ndarray) -> np.ndarray:
    """Full-grid columns (nx, ny, b) to the orthonormal DST-I(x) x DCT-I(y)
    coefficients of their odd/even projection, rows m = 1..nx/2-1."""
    quarter = _fold_even(_fold_odd(vals, 0), 1)
    quarter *= _quarter_weights(vals.shape[0], vals.shape[1])[1:-1]
    return sfft.dct(sfft.dst(quarter, type=1, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")


def _sine_cosine_values(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_sine_cosine_coefficients``: full-grid columns, exactly
    odd in x and even in y."""
    quarter = sfft.dct(sfft.dst(coeffs, type=1, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
    quarter /= _quarter_weights(2 * (coeffs.shape[0] + 1), 2 * (coeffs.shape[1] - 1))[1:-1]
    return _unfold_even(_unfold_odd(quarter, 0), 1)


def _quarter_potential(op: LinearizedOperator) -> Callable[[np.ndarray], np.ndarray]:
    """T[(T dq) f] on cosine coefficients (nx/2+1, ny/2+1, b) of the quarter
    box, overwriting them.  T dq comes from an unnormalized DCT-I pair, which
    is the rfft2/irfft2 round trip of an even/even field."""
    grid = op.dq.grid
    mask = grid.dealias_mask[: grid.nx // 2 + 1, :, None]
    dq_quarter = op.dq.values[: grid.nx // 2 + 1, : grid.ny // 2 + 1]
    tdq = sfft.dctn(sfft.dctn(dq_quarter, type=1) * mask[..., 0], type=1) / (grid.nx * grid.ny)

    def product(tv: np.ndarray) -> np.ndarray:
        tv *= mask
        tv = sfft.dctn(tv, type=1, axes=(0, 1), norm="ortho", overwrite_x=True)
        tv *= tdq[..., None]
        return mask * sfft.dctn(tv, type=1, axes=(0, 1), norm="ortho", overwrite_x=True)

    return product


def eigen_extremes(
    op: LinearizedOperator,
    k: int = 4,
    tol: float = 1e-7,
    max_iter: int = 600,
    seed: int = 7,
) -> EigenResult:
    """Lowest eigenpairs of the reduced operator on the even/even, zero-x-mean
    subspace, by LOBPCG with the constant-coefficient symbol as preconditioner.

    LOBPCG runs on the orthonormal cosine coefficients of the quarter box
    (see ``_cosine_coefficients``), so parity and zero x-mean hold by
    construction: the constant and nonlocal symbols and the preconditioner
    are diagonal, and only the potential term transforms, once per block.

    Raises NotConverged when a returned pair misses ``tol`` in
    ||L v - lambda v||_2, and MultipleNegative when more than one negative
    eigenvalue shows up: Morse index one is the structural hypothesis of the
    whole construction, so a second negative direction signals an inadequate
    grid or an eps out of regime.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    grid = op.q.grid
    nx, ny = grid.nx, grid.ny
    mx, my = nx // 2, ny // 2
    ntot = mx * (my + 1)
    kx2 = grid.kx[1 : mx + 1, None, None] ** 2
    ky2 = grid.ky_r[None, :, None] ** 2
    symbol = kx2 + op.c2 + 2.0 * ky2 / kx2
    pre_sym = 1.0 / (symbol + 1.0)
    potential = _quarter_potential(op)

    def matvec_block(X: np.ndarray) -> np.ndarray:
        C = X.reshape(mx, my + 1, -1)
        tv = np.zeros((mx + 1, my + 1, C.shape[2]))
        tv[1:] = C
        out = symbol * C
        out += op.coeff_lump_nl * potential(tv)[1:]
        return out.reshape(ntot, -1)

    def prec_block(X: np.ndarray) -> np.ndarray:
        return (pre_sym * X.reshape(mx, my + 1, -1)).reshape(ntot, -1)

    A = LinearOperator((ntot, ntot), matvec=lambda v: matvec_block(v.reshape(-1, 1)).ravel(),
                       matmat=matvec_block, dtype=float)
    M = LinearOperator((ntot, ntot), matvec=lambda v: prec_block(v.reshape(-1, 1)).ravel(),
                       matmat=prec_block, dtype=float)

    rng = np.random.default_rng(seed)
    block = k + 3
    start = np.empty((nx, ny, block))
    # seed the ground-state direction with the lump potential well shape
    start[:, :, 0] = -op.dq.values * np.exp(-0.05 * grid.r**2)
    for j in range(1, block):
        start[:, :, j] = rng.standard_normal((nx, ny))
    X = _cosine_coefficients(start).reshape(ntot, block)

    with warnings.catch_warnings():
        # the residual check below gives the verdict
        warnings.filterwarnings("ignore", message="(Exited|Failed)", category=UserWarning)
        vals, vecs, history = lobpcg(A, X, M=M, tol=tol, maxiter=max_iter, largest=False,
                                     retResidualNormsHistory=True)
    order = np.argsort(vals)[:k]
    vals = vals[order]
    vecs = vecs[:, order]
    max_residual = float(np.max(np.linalg.norm(A.matmat(vecs) - vecs * vals, axis=0)))
    if not max_residual <= tol:
        raise NotConverged(
            f"LOBPCG: residual {max_residual:.3e} > {tol:.1e} "
            f"after {len(history) - 2} iterations"
        )

    full = _cosine_values(vecs.reshape(mx, my + 1, k))
    pairs = []
    for j in range(k):
        f = RealField2D(grid, full[:, :, j])
        f = f.scaled(1.0 / l2_norm(f))
        pairs.append(EigenPair(eigenvalue=float(vals[j]), psi=f))

    neg = [p for p in pairs if p.eigenvalue < 0.0]
    if len(neg) == 0:
        raise NotConverged("no negative eigenvalue found")
    if len(neg) > 1:
        raise MultipleNegative(
            f"found {len(neg)} negative eigenvalues: "
            + ", ".join(f"{p.eigenvalue:.4e}" for p in neg)
        )
    pos = [p.eigenvalue for p in pairs if p.eigenvalue > 0.0]
    phi0 = pairs[0].psi.with_symmetry(Symmetry.EVEN_X_EVEN_Y)
    phi1 = antiderivative_x(phi0)
    return EigenResult(
        pairs=tuple(pairs),
        phi0=phi0,
        phi1=phi1.with_symmetry(Symmetry.ODD_X_EVEN_Y),
        lambda1=pairs[0].eigenvalue,
        lambda2=float(pos[0]) if pos else math.nan,
        negative_count=len(neg),
        iterations=len(history) - 2,
        max_residual=max_residual,
    )


# ---------------------------------------------------------------------------
# weighted norm suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormSuite:
    """Values of the whole family of weighted norms at one field.

    ``a, b, c`` are the L2-based energy norms; ``star`` the full weighted
    solution norm; ``dstar``/``tstar`` the right-hand-side norms; ``qstar``
    and ``pstar`` the two transport-solution norms.
    """

    delta: float
    a: float
    b: float
    c: float
    star: float
    dstar: float
    tstar: float
    qstar: float
    pstar: float


def a_norm(f: RealField2D, eps: float) -> float:
    """Energy norm of the linearized problem (L2, eps-weighted derivatives)."""
    e4 = eps**4
    terms = [
        l2_norm(derivative(f, 4, 0)) ** 2,
        e4 * l2_norm(derivative(f, 2, 2)) ** 2,
        e4**2 * l2_norm(derivative(f, 0, 4)) ** 2,
        l2_norm(derivative(f, 2, 0)) ** 2,
        2.0 * l2_norm(derivative(f, 1, 1)) ** 2,
        l2_norm(derivative(f, 0, 2)) ** 2,
        l2_norm(derivative(f, 1, 0)) ** 2,
        l2_norm(derivative(f, 0, 1)) ** 2,
    ]
    return math.sqrt(sum(terms))


def b_norm(f: RealField2D) -> float:
    """L2 right-hand-side norm (value and x-derivative)."""
    return math.sqrt(l2_norm(f) ** 2 + l2_norm(derivative(f, 1, 0)) ** 2)


def c_norm(f: RealField2D) -> float:
    """L2 right-hand-side norm (value and y-derivative)."""
    return math.sqrt(l2_norm(f) ** 2 + l2_norm(derivative(f, 0, 1)) ** 2)


def star_norm_terms(f: RealField2D, eps: float, delta: float) -> dict[str, float]:
    """Every summand of the weighted solution norm, by name."""
    le = 1.0 / math.log(1.0 / eps) if 0 < eps < 1 else 1.0
    e = eps
    d = delta
    terms: dict[str, float] = {}
    terms["a"] = a_norm(f, eps)
    terms["f_1md"] = weighted_sup(f, 1.0, d)
    terms["f_1_log"] = le * weighted_sup(f, 1.0, 0.0)
    terms["fx_32md"] = weighted_sup(derivative(f, 1, 0), 1.5, d)
    terms["fx_32"] = e**0.5 * weighted_sup(derivative(f, 1, 0), 1.5, 0.0)
    terms["fxx_32"] = weighted_sup(derivative(f, 2, 0), 1.5, 0.0)
    terms["fxxx_32"] = e**0.5 * weighted_sup(derivative(f, 3, 0), 1.5, 0.0)
    terms["fx4_32"] = e**0.5 * weighted_sup(derivative(f, 4, 0), 1.5, 0.0)
    terms["fy_32md"] = e**0.5 * weighted_sup(derivative(f, 0, 1), 1.5, d)
    terms["fy_32"] = e**1.5 * weighted_sup(derivative(f, 0, 1), 1.5, 0.0)
    terms["fyy_32"] = e**1.5 * weighted_sup(derivative(f, 0, 2), 1.5, 0.0)
    terms["fy3_32"] = e**3.5 * weighted_sup(derivative(f, 0, 3), 1.5, 0.0)
    terms["fy4_32"] = e**5.5 * weighted_sup(derivative(f, 0, 4), 1.5, 0.0)
    terms["fxy_32"] = e**0.5 * weighted_sup(derivative(f, 1, 1), 1.5, 0.0)
    terms["fxxy_32"] = e**0.5 * weighted_sup(derivative(f, 2, 1), 1.5, 0.0)
    terms["fxyy_32"] = e**1.5 * weighted_sup(derivative(f, 1, 2), 1.5, 0.0)
    terms["fxxyy_32"] = e**2.5 * weighted_sup(derivative(f, 2, 2), 1.5, 0.0)
    adx = antiderivative_x(derivative(f, 0, 2))
    terms["ix_fyy"] = e**1.5 * weighted_sup(adx, 1.5, d)
    terms["ix_fy3"] = e**3.5 * weighted_sup(derivative(adx, 0, 1), 1.5, d)
    terms["ix_fy4"] = e**5.5 * weighted_sup(derivative(adx, 0, 2), 1.5, d)
    return terms


# terms dominated by truncation noise at desk eps, excluded from the
# contraction stopping proxy but still reported
STAR_PROXY_EXCLUDED = ("fy4_32", "ix_fy4")


def star_norm(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> float:
    return sum(star_norm_terms(f, eps, delta).values())


def star_norm_proxy(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> float:
    terms = star_norm_terms(f, eps, delta)
    return sum(v for k, v in terms.items() if k not in STAR_PROXY_EXCLUDED)


def _norm_dstar(f: RealField2D, delta: float) -> float:
    return (
        b_norm(f)
        + weighted_sup(f, 2.5, delta)
        + weighted_sup(derivative(f, 1, 0), 2.5, delta)
        + weighted_sup(derivative(f, 2, 0), 2.5, delta)
    )


def _norm_tstar(f: RealField2D, delta: float) -> float:
    return (
        c_norm(f)
        + weighted_sup(f, 3.0, delta)
        + weighted_sup(derivative(f, 0, 1), 3.0, delta)
        + weighted_sup(derivative(f, 1, 1), 3.0, delta)
    )


def qstar_norm(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> float:
    """Weighted transport-solution norm (the one the f2 estimates live in)."""
    e = eps
    d = delta
    return (
        weighted_sup(f, 1.5, d)
        + weighted_sup(derivative(f, 1, 0), 1.5, d)
        + weighted_sup(derivative(f, 2, 0), 1.5, d)
        + e * weighted_sup(derivative(f, 3, 0), 1.5, d)
        + e**2 * weighted_sup(derivative(f, 0, 1), 1.5, d)
        + e**2 * weighted_sup(derivative(f, 1, 1), 1.5, d)
        + e**4 * weighted_sup(derivative(f, 0, 2), 1.5, d)
        + e**4 * weighted_sup(derivative(f, 1, 2), 1.5, d)
    )


def _norm_pstar(f: RealField2D, eps: float, delta: float) -> float:
    e = eps
    d = delta
    return (
        weighted_sup(f, 1.5, d)
        + weighted_sup(derivative(f, 1, 0), 1.5, d)
        + e**2 * weighted_sup(derivative(f, 0, 1), 1.5, d)
        + e**4 * weighted_sup(derivative(f, 0, 2), 1.5, d)
    )


def norm_suite(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> NormSuite:
    """Evaluate every norm of the suite on one field.

    Terms that are trivial for the field's symmetry class are still computed
    and reported; nothing is skipped silently.  Raises NonZeroMean if an
    antiderivative term is requested for data without zero x-mean.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 0.5]")
    return NormSuite(
        delta=delta,
        a=a_norm(f, eps),
        b=b_norm(f),
        c=c_norm(f),
        star=star_norm(f, eps, delta),
        dstar=_norm_dstar(f, delta),
        tstar=_norm_tstar(f, delta),
        qstar=qstar_norm(f, eps, delta),
        pstar=_norm_pstar(f, eps, delta),
    )
