"""
The linearization of the perturbed fourth-order problem about the lump.

Two operators live here, both on the orthonormal sine-cosine coefficients of
the quarter box (``_coefficients``):

* the full operator with the small fourth-order y-terms, which
  ``solve_linearized``, the linear solve inside the outer fixed point,
  inverts by the module's own preconditioned MINRES (``minres``, whose
  inner products are pairwise sums, so its bytes do not depend on the BLAS
  thread count) and takes its verdict from; its field-space form, the
  tests' reference, is ``tests/reference.py``'s ``apply_linearized``;
* the reduced second-order nonlocal operator
  -dxx psi + c2 psi + V psi + 2 dx^-2 dyy psi, applied by ``eigen_extremes``
  on cosine coefficients, whose spectrum carries the Morse-index structure:
  exactly one negative eigenvalue with an even eigenfunction of zero x-mean.

Sign convention for the reduced operator: it is written so that its unique
negative eigenvalue is the structural one (L psi = lambda psi with
lambda_1 < 0 < lambda_2 <= ...).  Equivalently it is the negative of the
second-order expression obtained by integrating the fourth-order operator
twice in x.  Its full-grid form, the tests' reference, is
``tests/reference.py``'s ``apply_L``.

``eigen_extremes`` finds the lowest pairs of the second by the module's own
block LOBPCG (``lobpcg``), on numpy alone, so no subcommand loads
``scipy.sparse.linalg`` or ``scipy.linalg``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

from .errors import MultipleNegative, NonZeroMean, NotConverged, SymmetryViolation
from .grid import (
    Grid2D,
    RealField2D,
    Symmetry,
    _kept,
    _padded,
    _quarter_axes,
    _tagged,
    _trapezoid,
    antiderivative_x,
    dealias,
    derivative,
    l2_norm,
    spectral_table,
    weighted_sup,
    zeros,
)
from .lump import SQRT2, LumpParams, sample_lump

DELTA_DEFAULT = 0.1
# restarts of MINRES from its own iterate in ``solve_linearized``, and the
# iteration budget of each
_MINRES_PASSES = 3
_MINRES_MAX_ITER = 8000
# LOBPCG's preconditioner in ``eigen_extremes`` is 1 / (S - c2 + gap): the
# wanted eigenvalues sit just below the continuum edge c2.  At 512^2,
# eps = 0.1, k = 4, block k + 1, seeds 2-6, the gaps 1, 0.5, 0.25 and 0.1
# took 40-46, 44-47, 56-59 and 70-76 iterations of scipy's lobpcg, and
# (S + 1)^-1 took 81-97
_PRECONDITIONER_GAP = 1.0
# LOBPCG stops once the lowest k residual norms it tracks are at most tol
# times this, while the verdict holds every pair to tol from a fresh apply,
# so the factor is the verdict's margin.  Over seeds 1-20, k in {2, 3, 4, 6},
# eps in {0, 0.1, 0.2} at 64^2 to 512^2, and seeds 2-7 for k = 2 at 1024^2,
# the largest verdict residual was 9.99e-8 of tol 1e-7 at factor 1, 5.0e-8
# at 1/2 and 2.5e-8 at 1/4, which took about one iteration more than 1/2
_LOBPCG_TOL_FACTOR = 0.5


@dataclass(frozen=True)
class LinearizedOperator:
    """Frozen data of the linearization about the lump at a given eps."""

    eps: float
    dq: RealField2D
    coeff_nl: float
    coeff_lump_nl: float

    @property
    def c2(self) -> float:
        """Second-order x coefficient 2*sqrt(2) - eps^2."""
        return 2.0 * SQRT2 - self.eps**2

    @cached_property
    def dealiased_dq(self) -> RealField2D:
        """T dq, the 2/3-rule truncation of dq: taken once per operator."""
        return dealias(self.dq)


def make_linearized_operator(eps: float, grid: Grid2D) -> LinearizedOperator:
    params = LumpParams.from_epsilon(eps)
    return LinearizedOperator(
        eps=eps,
        dq=sample_lump(params, grid, 1, 0),
        coeff_nl=6.0 * (SQRT2 - eps**2),
        coeff_lump_nl=2.0 * params.nonlinear_coeff,
    )


def _constant_symbol(op: LinearizedOperator, grid: Grid2D) -> np.ndarray:
    """xi1^4 + (2 sqrt2 - e^2) xi1^2 + 2 xi2^2 + 2 e^2 xi1^2 xi2^2 + e^4 xi2^4."""
    kx = grid.kx[:, None]
    ky = grid.ky[None, :]
    e2 = op.eps**2
    return kx**4 + op.c2 * kx**2 + 2.0 * ky**2 + 2.0 * e2 * kx**2 * ky**2 + e2**2 * ky**4


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) as numpy's pairwise sum, not a BLAS dot: the same bits
    whatever the BLAS thread count."""
    return float(np.add.reduce(a * b))


def minres(
    A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    M: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray | None = None,
    rtol: float = 1e-5,
    maxiter: int | None = None,
    callback: Callable[[np.ndarray], object] | None = None,
) -> tuple[np.ndarray, int, int]:
    """Preconditioned MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12,
    1975) for A x = b, A symmetric and M a symmetric positive definite
    approximate inverse of A, both callables on 1-D arrays; returns x, istop
    and the number of iterations, each one apply of A and of M.

    The recurrences and stop tests of scipy's ``minres``, whose istop codes
    these are: 0, b - A x0 is 0 (no iteration); 1, test1 = ||r|| / (||A||
    ||x||) <= rtol; 2, test2 = ||A r|| / (||A|| ||r||) <= rtol; 3, ||A|| ||x||
    eps >= ||r0|| (epsx); 4, cond(A) >= 0.1 / eps (Acond); 6, ``maxiter``
    iterations (default 5 n); -1, the Krylov space stopped growing after
    one step.  The norms are those of M.  Every inner product and norm is a
    pairwise sum (``_dot``), so x does not depend on the BLAS thread count.
    ``callback(x)`` is called once per iteration.
    """
    eps = np.finfo(float).eps
    if maxiter is None:
        maxiter = 5 * b.size
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r1 = b.copy() if x0 is None else b - A(x)
    y = M(r1)
    beta1 = _dot(r1, y)
    if beta1 < 0:
        raise ValueError("minres: the preconditioner is not positive definite")
    if beta1 == 0:
        return x, 0, 0
    beta1 = math.sqrt(beta1)

    istop = itn = 0
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1
    while itn < maxiter:
        itn += 1
        # Lanczos: the next M-orthonormal direction v and alfa, beta
        v = (1.0 / beta) * y
        y = A(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = _dot(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = M(r2)
        oldb, beta = beta, _dot(r2, y)
        if beta < 0:
            raise ValueError("minres: the operator is not symmetric")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1

        # the plane rotation that keeps the tridiagonal QR factor triangular
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(_dot(x, x))
        test1 = math.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        if istop == 0:
            # later tests win, as in scipy; 1 + t <= 1 covers rtol < eps
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if gmax / gmin >= 0.1 / eps:
                istop = 4
            if anorm * ynorm * eps >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if callback is not None:
            callback(x)
        if istop != 0:
            break
    return x, istop, itn


def solve_linearized(
    op: LinearizedOperator,
    h1: RealField2D,
    h2: RealField2D,
    tol: float = 1e-9,
    x0: RealField2D | None = None,
) -> tuple[RealField2D, int]:
    """Solve the linearized problem with right-hand side dx h1 + dy h2;
    returns the solution and the number of MINRES iterations it took.

    Preconditioned MINRES (Paige & Saunders, the package's ``minres``), the
    method for this symmetric indefinite problem (one negative direction,
    the Morse-index one), on the sine-cosine coefficients of the quarter box
    (``_coefficients``), where the constant symbol and the preconditioner,
    its inverse, are diagonal.
    MINRES stops on the preconditioned residual, in which the inverse
    fourth-order symbol damps the high frequencies, while the verdict is the
    plain relative residual ||A c - b||_2 / ||b||_2 of the operator MINRES
    ran, which the isometry of the coefficient map makes the relative L2
    residual on the full grid; so MINRES restarts from its own iterate until
    the plain residual meets ``tol``, for at most ``_MINRES_PASSES`` passes
    of ``_MINRES_MAX_ITER`` iterations each.  The first pass starts from
    ``x0`` (a field tagged odd_x_even_y, such as the previous solution of a
    fixed-point iteration) if given.  Every norm, MINRES's included, is a
    pairwise sum, so the solution's bytes do not depend on the BLAS thread
    count.
    """
    if h1.symmetry is not Symmetry.EVEN_X_EVEN_Y:
        raise SymmetryViolation("h1 must be tagged even_x_even_y")
    if h2.symmetry is not Symmetry.ODD_X_ODD_Y:
        raise SymmetryViolation("h2 must be tagged odd_x_odd_y")
    if x0 is not None and x0.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("x0 must be tagged odd_x_even_y")
    grid = h1.grid
    b = _coefficients((derivative(h1, 1, 0) + derivative(h2, 0, 1)).data, -1).ravel()
    b_norm = math.sqrt(_dot(b, b))
    if b_norm == 0.0:
        return zeros(grid, Symmetry.ODD_X_EVEN_Y), 0

    mx = grid.nx // 2
    sym = _constant_symbol(op, grid)[1:mx, :, None]
    ax, ay = _dealias_rectangle(grid)
    kx = grid.kx[1 : ax + 1, None, None]
    potential = _quarter_potential(op, op.coeff_nl)

    def matvec(v: np.ndarray) -> np.ndarray:
        # the coupling -dx T[(T dq)(T dx phi)]: dx takes sine to cosine
        # coefficients by a multiply by kx, and cosine to sine ones by -kx;
        # T keeps the sine rows 1..ax of the dealias rectangle
        c = v.reshape(sym.shape)
        out = sym * c
        out[:ax, :ay] += kx * potential(kx * c[:ax, :ay])
        return out.ravel()

    sol = None if x0 is None else _coefficients(x0.data, -1).ravel()
    iterations = 0
    for _ in range(_MINRES_PASSES):
        sol, istop, its = minres(matvec, b, x0=sol, M=lambda v: v / sym.ravel(),
                                 rtol=tol * 1e-2, maxiter=_MINRES_MAX_ITER)
        iterations += its
        r = matvec(sol) - b
        res = math.sqrt(_dot(r, r)) / b_norm
        if res <= tol:
            vals = _values(sol.reshape(sym.shape[:2]), -1)
            return _tagged(grid, vals, Symmetry.ODD_X_EVEN_Y), iterations
    raise NotConverged(
        f"linearized solve: relative residual {res:.3e} > {tol:.1e} "
        f"after {_MINRES_PASSES} MINRES passes (minres istop={istop})"
    )


# ---------------------------------------------------------------------------
# the reduced operator and its eigenpairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    """Extremal spectral data of the reduced operator.

    ``eigenvalues`` holds the lowest k eigenvalues in ascending order, of
    which only the first is negative; ``phi0`` is the L2-normalized
    eigenfunction of the first, the single negative direction, ``phi1`` its
    x-antiderivative (odd in x, even in y), ``lambda2`` the smallest positive
    eigenvalue.
    ``iterations`` counts the LOBPCG iterations up to the returned block and
    ``block`` is the LOBPCG block width (both 0 when ``solver`` is
    ``"dense"``), ``unknowns`` is the size of the problem LOBPCG was given,
    and ``max_residual`` is the largest ||L v - lambda v||_2 over the
    returned LOBPCG eigenvectors (unit vectors in the grid's Euclidean norm).
    """

    eigenvalues: tuple[float, ...]
    phi0: RealField2D
    phi1: RealField2D
    lambda2: float
    iterations: int
    block: int
    max_residual: float
    unknowns: int
    solver: str


# The quarter-box cosine and sine bases.  An even (odd) field is fixed by the
# samples of its stored quarter that ``grid._quarter`` keeps, whose DCT-I
# (DST-I) is its DFT, as in ``grid._multiplied``.  With the trapezoid weights
# w = (1, 2, ..., 2, 1) the full-grid sum of f g equals sum w_p w_q f_pq g_pq;
# so the orthonormal DCT-I (DST-I along an odd axis) of sqrt(w_p w_q) f_pq is
# an isometry from the fields of one parity class (full grid, Euclidean) onto
# their coefficients.
# The coefficient (m, l) is sqrt(w_m w_l / (nx ny)) times the DFT coefficient
# (i times it along a sine axis), so every Fourier symbol acts on it as a
# diagonal multiply, and the cosine row m = 0 holds the x-means of the y-lines.


def _quarter_weights(nx: int, ny: int, px: int) -> np.ndarray:
    """sqrt(w_p w_q) on the quarter box of parity px in x, even in y."""
    sx, sy = (np.sqrt(_trapezoid(n)) for n in (nx, ny))
    return (sx[:, None] * sy[None, :])[_kept(px)]


def _ortho(q: np.ndarray, px: int) -> np.ndarray:
    """Orthonormal DCT-I (px = 1) or DST-I (px = -1) in x, DCT-I in y: self-inverse."""
    if px > 0:
        return sfft.dctn(q, type=1, axes=(0, 1), norm="ortho")
    return sfft.dct(sfft.dst(q, type=1, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")


def _coefficients(q: np.ndarray, px: int) -> np.ndarray:
    """Stored quarter (nx/2+1, ny/2+1) of parity px in x, even in y, to its
    orthonormal coefficients: the cosine rows m = 1..nx/2 (dropping the
    x-means) or the sine rows m = 1..nx/2-1."""
    nx, ny = 2 * (q.shape[0] - 1), 2 * (q.shape[1] - 1)
    coeffs = _ortho(q[_kept(px)] * _quarter_weights(nx, ny, px), px)
    return coeffs[1:] if px > 0 else coeffs


def _values(coeffs: np.ndarray, px: int) -> np.ndarray:
    """Inverse of ``_coefficients``: the stored quarter, exactly in its class."""
    if px > 0:
        coeffs = np.concatenate([np.zeros_like(coeffs[:1]), coeffs])
    quarter = _ortho(coeffs, px)
    quarter /= _quarter_weights(2 * (coeffs.shape[0] - px), 2 * (coeffs.shape[1] - 1), px)
    return _padded(quarter, px, 1)


def _dealias_rectangle(grid: Grid2D) -> tuple[int, int]:
    """(ax, ay): the 2/3 dealias mask, a product of x and y masks, keeps the
    cosine rows 0..ax and the columns 0..ay-1 of the quarter box."""
    return int(grid.dealias_mask[:, 0].sum()) - 1, int(grid.dealias_mask[0].sum())


def _quarter_potential(op: LinearizedOperator, coeff: float) -> Callable[[np.ndarray], np.ndarray]:
    """coeff T[(T dq) f] on the cosine coefficients of the quarter box, with
    T the 2/3 dealias mask.

    T keeps one leading rectangle of the quarter box (``_dealias_rectangle``;
    171 x 171 of 257 x 257 at 512^2), so the map takes the rectangle to
    itself and needs no mask multiply: a y-DCT-I of only the rectangle's
    rows into a zero-padded array, the x-DCT-I, a multiply by coeff T dq,
    then the inverse transforms, computing only the rectangle's columns and
    then its rows.  Both callers have a zero x-mean row m = 0 on input and
    discard it on output, so the map takes and returns the rows m = 1..ax,
    shaped (ax, ay, b).
    """
    grid = op.dq.grid
    mx, my = grid.nx // 2, grid.ny // 2
    ax, ay = _dealias_rectangle(grid)
    weight = coeff * op.dealiased_dq.data[..., None]

    def product(f: np.ndarray) -> np.ndarray:
        t = np.zeros((mx + 1, my + 1, f.shape[2]))
        t[1 : ax + 1] = sfft.dct(f, type=1, n=my + 1, axis=1, norm="ortho")
        t = sfft.dct(t, type=1, axis=0, norm="ortho", overwrite_x=True)
        t *= weight
        t = sfft.dct(t, type=1, axis=1, norm="ortho", overwrite_x=True)[:, :ay]
        return sfft.dct(t, type=1, axis=0, norm="ortho")[1 : ax + 1]

    return product


def _check_eigen_count(k: int, grid: Grid2D) -> None:
    """Raise ValueError unless 2 <= k <= (nx/2)(ny/2 + 1), the dimension of
    the even/even, zero-x-mean subspace ``eigen_extremes`` works in."""
    top = (grid.nx // 2) * (grid.ny // 2 + 1)
    if not 2 <= k <= top:
        raise ValueError(f"k must lie in [2, {top}], the coefficients on this grid")


# ``LinearOperator`` and ``lobpcg`` are module globals that ``eigen_extremes``
# reads at call time, because the benchmark's tracer (``perfbench/spans.py``)
# patches both here to count applies per solver role; they go with ROADMAP
# item 1, once the package counts its own work.
class LinearOperator:
    """An (n, n) operator that ``lobpcg`` applies to (n, b) blocks: ``matmat``."""

    def __init__(self, shape: tuple[int, int], matmat: Callable[[np.ndarray], np.ndarray]):
        self.shape = shape
        self.matmat = matmat


def _orthonormalized(V: np.ndarray, *images: np.ndarray) -> list[np.ndarray]:
    """V R^-1 and each of ``images`` times R^-1, with V^T V = R^T R (one
    Cholesky QR); raises LinAlgError when V's columns are dependent."""
    r_inv = np.linalg.inv(np.linalg.cholesky(V.T @ V).T)
    return [U @ r_inv for U in (V, *images)]


def lobpcg(
    A: LinearOperator,
    X: np.ndarray,
    M: LinearOperator,
    tol: float,
    maxiter: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the lowest
    eigenpairs of the symmetric A, preconditioned by the symmetric positive
    definite M, from the start block X (n, b); returns the b Ritz values in
    ascending order, their orthonormal Ritz vectors (n, b) and the number of
    iterations.

    Each iteration is a Rayleigh-Ritz step on the basis [X, W, P]: X the Ritz
    vectors, W = M R the preconditioned residuals R = A X - X diag(lambda) of
    the active columns, made orthogonal to X, and P the last update of the
    active columns.  W and P are each orthonormalized by one Cholesky QR, so
    X^T X = I and X^T A X = diag(lambda) hold by construction and only the
    other Gram blocks are computed, as BLAS products.  When the Gram matrix
    of the basis is not positive definite, P being nearly in the span of X
    and W, the step is taken without P (the basis selection of Duersch, Shao,
    Yang & Gu, SIAM J. Sci. Comput. 40, 2018).  A column whose residual norm
    is at most ``tol`` leaves the active set (soft locking): it stays in the
    basis without W and P columns of its own, and rejoins the set when a
    later step raises its residual.  The iteration stops once the lowest
    ``k`` columns are all out of the set, after ``maxiter`` iterations, or
    when even [X, W] is dependent, and returns its last iterate.  The start block is orthonormalized by
    Householder QR, which completes a block of dependent columns to an
    orthonormal one.
    """
    b = X.shape[1]
    X = np.linalg.qr(X)[0]
    AX = A.matmat(X)
    lam, C = np.linalg.eigh(X.T @ AX)
    X, AX = X @ C, AX @ C
    active = np.ones(b, dtype=bool)
    P = AP = None
    for iterations in range(maxiter + 1):
        R = AX - X @ np.diag(lam)
        active = np.sqrt(np.einsum("ij,ij->j", R, R)) > tol
        if iterations == maxiter or not active[:k].any():
            break
        W = M.matmat(R[:, active])
        W -= X @ (X.T @ W)
        try:
            (W,) = _orthonormalized(W)
        except np.linalg.LinAlgError:
            break
        AW = A.matmat(W)
        a = W.shape[1]
        XW, XAW, WAW = X.T @ W, X.T @ AW, W.T @ AW
        if P is not None:
            try:
                P, AP = _orthonormalized(P[:, active], AP[:, active])
            except np.linalg.LinAlgError:
                P = AP = None
        if P is None:
            gram_a = np.block([[np.diag(lam), XAW], [XAW.T, WAW]])
            gram_b = np.block([[np.eye(b), XW], [XW.T, np.eye(a)]])
        else:
            XP, WP, XAP, WAP, PAP = X.T @ P, W.T @ P, X.T @ AP, W.T @ AP, P.T @ AP
            gram_a = np.block([[np.diag(lam), XAW, XAP], [XAW.T, WAW, WAP], [XAP.T, WAP.T, PAP]])
            gram_b = np.block([[np.eye(b), XW, XP], [XW.T, np.eye(a), WP],
                               [XP.T, WP.T, np.eye(a)]])
        gram_a = 0.5 * (gram_a + gram_a.T)
        for size in (gram_b.shape[0], b + a):  # with P, then without
            try:
                l_inv = np.linalg.inv(np.linalg.cholesky(gram_b[:size, :size]))
                break
            except np.linalg.LinAlgError:
                P = AP = None
        else:
            break
        theta, Y = np.linalg.eigh(l_inv @ gram_a[:size, :size] @ l_inv.T)
        lam, C = theta[:b], l_inv.T @ Y[:, :b]
        P_next, AP_next = W @ C[b : b + a], AW @ C[b : b + a]
        if P is not None:
            P_next += P @ C[b + a :]
            AP_next += AP @ C[b + a :]
        X, AX = X @ C[:b] + P_next, AX @ C[:b] + AP_next
        P, AP = P_next, AP_next
    return lam, X, iterations


def eigen_extremes(
    op: LinearizedOperator,
    k: int = 4,
    tol: float = 1e-7,
    max_iter: int = 600,
    seed: int = 7,
) -> EigenResult:
    """Lowest eigenpairs of the reduced operator on the even/even, zero-x-mean
    subspace, by LOBPCG preconditioned with the constant-coefficient symbol.

    The operator acts on the orthonormal cosine coefficients of the quarter
    box (see ``_coefficients``), so parity and zero x-mean hold by
    construction: the constant and nonlocal symbol S = kx^2 + c2 + 2 ky^2/kx^2
    is diagonal, and only the potential term transforms, once per block.  The
    potential term is dealiased on input and output, so on these
    coefficients the operator is block diagonal: a coupled block on the
    coefficients inside the dealias rectangle (``_quarter_potential``), and
    the diagonal symbol outside it, where every unit coefficient vector is an
    exact eigenvector.  LOBPCG runs on the inside coefficients only; the
    lowest k of its eigenvalues and the outside diagonal values together are
    returned, with the eigenfunction of the lowest, which is always inside.

    The preconditioner is 1 / (S - c2 + ``_PRECONDITIONER_GAP``): the wanted
    eigenvalues above the negative one sit just below the continuum edge c2,
    and an approximate inverse of the operator shifted next to them
    separates those modes, where (S + 1)^-1 is nearly flat across them.
    S - c2 is at least the smallest kx^2, so the preconditioner stays
    positive definite on every grid and every eps.  LOBPCG is the module's
    own (``lobpcg``), which stops once the lowest k of its k + 1 columns
    meet ``tol * _LOBPCG_TOL_FACTOR``, so the guard column need not
    converge, and every returned pair is then checked against ``tol``
    itself.  The block width is k + 1: over eps in
    {0, 0.1, 0.2} and seeds 2-7, k + 2 and k + 3 saved 3-5 iterations of 36
    at 512^2, k = 4, and 1-2 of 34 at 1024^2, k = 2, yet took 25 % and 65 %
    more time at 512^2, 40 % and 93 % more at 1024^2.
    When the inside problem is too small for LOBPCG (fewer unknowns than
    five times the block width), the dense matrix, the operator applied to
    the identity, is diagonalized by ``numpy.linalg.eigh`` instead;
    ``iterations`` and ``block`` are then 0 and ``solver`` is ``"dense"``.

    Raises ValueError for a k outside [2, (nx/2)(ny/2 + 1)]
    (``_check_eigen_count``); NotConverged when a returned pair misses ``tol`` in
    ||L v - lambda v||_2; and MultipleNegative when more than one negative
    eigenvalue shows up: Morse index one is the structural hypothesis of the
    whole construction, so a second negative direction signals an inadequate
    grid or an eps out of regime.
    """
    grid = op.dq.grid
    _check_eigen_count(k, grid)
    mx, my = grid.nx // 2, grid.ny // 2
    kx2 = grid.kx[1 : mx + 1, None, None] ** 2
    ky2 = grid.ky[None, :, None] ** 2
    symbol = kx2 + op.c2 + 2.0 * ky2 / kx2
    ax, ay = _dealias_rectangle(grid)
    unknowns = ax * ay
    sym_in = symbol[:ax, :ay]
    pre_sym = 1.0 / (sym_in - op.c2 + _PRECONDITIONER_GAP)
    potential = _quarter_potential(op, op.coeff_lump_nl)

    def matvec_block(X: np.ndarray) -> np.ndarray:
        C = X.reshape(ax, ay, -1)
        out = sym_in * C
        out += potential(C)
        return out.reshape(unknowns, -1)

    def prec_block(X: np.ndarray) -> np.ndarray:
        return (pre_sym * X.reshape(ax, ay, -1)).reshape(unknowns, -1)

    shape = (unknowns, unknowns)
    A = LinearOperator(shape, matmat=matvec_block)
    M = LinearOperator(shape, matmat=prec_block)

    block = k + 1
    if unknowns < 5 * block:
        # too small a problem for LOBPCG: the dense matrix, A applied to I
        vals, vecs = np.linalg.eigh(matvec_block(np.eye(unknowns)))
        solver, iterations, block = "dense", 0, 0
    else:
        # the start block: the lump potential well shape for the
        # ground-state direction, then k columns of i.i.d. normal
        # coefficients (the coefficients of an i.i.d. normal field of the
        # class, by the isometry)
        x, y = _quarter_axes(grid)
        well = -op.dq.data * np.exp(-0.05 * (x**2 + y**2))
        well = _coefficients(well, 1)[:ax, :ay].reshape(unknowns, 1)
        rng = np.random.default_rng(seed)
        X = np.hstack([well, rng.standard_normal((unknowns, k))])
        vals, vecs, iterations = lobpcg(A, X, M=M, tol=tol * _LOBPCG_TOL_FACTOR,
                                        maxiter=max_iter, k=k)
        solver = "lobpcg"

    # merge with the outside diagonal: lowest k of both, inside first on ties
    inside = grid.dealias_mask[1 : mx + 1]
    candidates = np.concatenate([vals, np.where(inside, np.inf, symbol[..., 0]).ravel()])
    order = np.argsort(candidates, kind="stable")[:k]
    won = order[order < vals.size]
    vals_in, vecs_in = vals[won], vecs[:, won]
    residuals = np.linalg.norm(A.matmat(vecs_in) - vecs_in * vals_in, axis=0)
    max_residual = float(np.max(residuals, initial=0.0))
    if not max_residual <= tol:
        raise NotConverged(
            f"LOBPCG: residual {max_residual:.3e} > {tol:.1e} "
            f"after {iterations} iterations"
        )

    eigenvalues = tuple(candidates[order].tolist())
    neg = [v for v in eigenvalues if v < 0.0]
    if len(neg) == 0:
        raise NotConverged("no negative eigenvalue found")
    if len(neg) > 1:
        raise MultipleNegative(
            f"found {len(neg)} negative eigenvalues: " + ", ".join(f"{v:.4e}" for v in neg)
        )
    pos = [v for v in eigenvalues if v > 0.0]
    # phi0 is a LOBPCG column: every outside value S exceeds c2 > 0
    coeffs = np.zeros((mx, my + 1))
    coeffs[:ax, :ay] = vecs[:, order[0]].reshape(ax, ay)
    phi0 = _tagged(grid, _values(coeffs, 1), Symmetry.EVEN_X_EVEN_Y)
    phi0 = phi0.scaled(1.0 / l2_norm(phi0))
    return EigenResult(
        eigenvalues=eigenvalues,
        phi0=phi0,
        phi1=antiderivative_x(phi0),
        lambda2=pos[0] if pos else math.nan,
        iterations=iterations,
        block=block,
        max_residual=max_residual,
        unknowns=unknowns,
        solver=solver,
    )


# ---------------------------------------------------------------------------
# weighted norm suite
# ---------------------------------------------------------------------------
#
# A suite reads the derivatives of its field f from one table df(m, n),
# ``spectral_table(f)``, and evaluates each summand once.

_Table = Callable[[int, int], RealField2D]


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


def _l2_pair(f: RealField2D, g: RealField2D) -> float:
    """sqrt(||f||^2 + ||g||^2)."""
    return math.sqrt(l2_norm(f) ** 2 + l2_norm(g) ** 2)


def _star_terms(f: RealField2D, df: _Table, eps: float, delta: float, skip=()) -> dict[str, float]:
    """Every summand of the weighted solution norm of ``f`` but those named in
    ``skip``, by name, from its derivative table ``df``; ``a`` is the energy
    norm of the linearized problem (L2, eps-weighted derivatives)."""
    le = 1.0 / math.log(1.0 / eps) if 0 < eps < 1 else 1.0
    e = eps
    d = delta
    e4 = eps**4
    energy = [
        l2_norm(df(4, 0)) ** 2,
        e4 * l2_norm(df(2, 2)) ** 2,
        e4**2 * l2_norm(df(0, 4)) ** 2,
        l2_norm(df(2, 0)) ** 2,
        2.0 * l2_norm(df(1, 1)) ** 2,
        l2_norm(df(0, 2)) ** 2,
        l2_norm(df(1, 0)) ** 2,
        l2_norm(df(0, 1)) ** 2,
    ]
    terms: dict[str, float] = {}
    terms["a"] = math.sqrt(sum(energy))
    terms["f_1md"] = weighted_sup(f, 1.0, d)
    terms["f_1_log"] = le * weighted_sup(f, 1.0, 0.0)
    terms["fx_32md"] = weighted_sup(df(1, 0), 1.5, d)
    terms["fx_32"] = e**0.5 * weighted_sup(df(1, 0), 1.5, 0.0)
    terms["fxx_32"] = weighted_sup(df(2, 0), 1.5, 0.0)
    terms["fxxx_32"] = e**0.5 * weighted_sup(df(3, 0), 1.5, 0.0)
    terms["fx4_32"] = e**0.5 * weighted_sup(df(4, 0), 1.5, 0.0)
    terms["fy_32md"] = e**0.5 * weighted_sup(df(0, 1), 1.5, d)
    terms["fy_32"] = e**1.5 * weighted_sup(df(0, 1), 1.5, 0.0)
    terms["fyy_32"] = e**1.5 * weighted_sup(df(0, 2), 1.5, 0.0)
    terms["fy3_32"] = e**3.5 * weighted_sup(df(0, 3), 1.5, 0.0)
    if "fy4_32" not in skip:
        terms["fy4_32"] = e**5.5 * weighted_sup(df(0, 4), 1.5, 0.0)
    terms["fxy_32"] = e**0.5 * weighted_sup(df(1, 1), 1.5, 0.0)
    terms["fxxy_32"] = e**0.5 * weighted_sup(df(2, 1), 1.5, 0.0)
    terms["fxyy_32"] = e**1.5 * weighted_sup(df(1, 2), 1.5, 0.0)
    terms["fxxyy_32"] = e**2.5 * weighted_sup(df(2, 2), 1.5, 0.0)
    try:
        dadx = spectral_table(antiderivative_x(df(0, 2)))
    except NonZeroMean:
        # no dx^-1 of data without zero x-mean (even in x: f1, f2)
        dadx = None
    for n, (name, power) in enumerate((("ix_fyy", 1.5), ("ix_fy3", 3.5), ("ix_fy4", 5.5))):
        if name not in skip:
            terms[name] = e**power * (weighted_sup(dadx(0, n), 1.5, d) if dadx else math.nan)
    return terms


# terms dominated by truncation noise at desk eps, excluded from the
# contraction stopping proxy but still reported
STAR_PROXY_EXCLUDED = ("fy4_32", "ix_fy4")


def star_norm_proxy(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> float:
    """The weighted solution norm without its ``STAR_PROXY_EXCLUDED`` terms,
    which it does not evaluate: the stopping proxy of the outer fixed point."""
    return sum(_star_terms(f, spectral_table(f), eps, delta, skip=STAR_PROXY_EXCLUDED).values())


def _transport_norms(f: RealField2D, df: _Table, eps: float, delta: float) -> tuple[float, float]:
    """qstar and pstar of ``f``: pstar's four weighted sups are among qstar's."""
    e = eps
    w = lambda g: weighted_sup(g, 1.5, delta)
    s00, s10, s01, s02 = w(f), w(df(1, 0)), w(df(0, 1)), w(df(0, 2))
    qstar = (
        s00 + s10 + w(df(2, 0)) + e * w(df(3, 0))
        + e**2 * s01 + e**2 * w(df(1, 1)) + e**4 * s02 + e**4 * w(df(1, 2))
    )
    return qstar, s00 + s10 + e**2 * s01 + e**4 * s02


def norm_suite(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> NormSuite:
    """Evaluate every norm of the suite on one field, from one derivative table.

    Terms that are trivial for the field's symmetry class are still computed
    and reported; nothing is skipped silently.  The three dx^-1 summands of
    ``star`` need zero x-mean on every y-line: for data without it (the
    even-in-x f1 and f2) they are nan, and so is ``star``; every other norm
    is reported.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 0.5]")
    df = spectral_table(f)
    star_terms = _star_terms(f, df, eps, delta)
    qstar, pstar = _transport_norms(f, df, eps, delta)
    b = _l2_pair(f, df(1, 0))
    c = _l2_pair(f, df(0, 1))
    w = lambda g, p: weighted_sup(g, p, delta)
    return NormSuite(
        delta=delta,
        a=star_terms["a"],
        b=b,
        c=c,
        star=sum(star_terms.values()),
        dstar=b + w(f, 2.5) + w(df(1, 0), 2.5) + w(df(2, 0), 2.5),
        tstar=c + w(f, 3.0) + w(df(0, 1), 3.0) + w(df(1, 1), 3.0),
        qstar=qstar,
        pstar=pstar,
    )
