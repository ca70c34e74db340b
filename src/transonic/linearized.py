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
from functools import cache, partial

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, lobpcg, minres

from .errors import MultipleNegative, NonZeroMean, NotConverged, SymmetryViolation
from .grid import (
    Grid2D,
    RealField2D,
    Symmetry,
    _check_zero_x_mean,
    _kept,
    _multiplied,
    _padded,
    _quarter_axes,
    _tagged,
    antiderivative_x,
    dealias,
    derivative,
    l2_norm,
    product_dealiased,
    weighted_sup,
    zeros,
)
from .lump import SQRT2, LumpParams, sample_lump

DELTA_DEFAULT = 0.1
# restarts of MINRES from its own iterate in ``solve_linearized``
_MINRES_PASSES = 3
# LOBPCG's preconditioner in ``eigen_extremes`` is 1 / (S - c2 + gap): the
# wanted eigenvalues sit just below the continuum edge c2.  At 512^2,
# eps = 0.1, k = 4, block k + 1, seeds 2-6, the gaps 1, 0.5, 0.25 and 0.1
# took 40-46, 44-47, 56-59 and 70-76 iterations, and (S + 1)^-1 took 81-97
_PRECONDITIONER_GAP = 1.0
# LOBPCG is asked for tol times this: it returns the iterate of least mean
# residual, so one pair can miss the target it was given, while the verdict
# holds every pair to tol.  At 512^2, k = 4, eps in {0, 0.1, 0.2}, seeds 2-7,
# the verdict failed 2 of 18 runs at factor 1, 1 at 1/2 and none at 1/4
_LOBPCG_TOL_FACTOR = 0.25


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


def make_linearized_operator(eps: float, grid: Grid2D) -> LinearizedOperator:
    params = LumpParams.from_epsilon(eps)
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
    const = _multiplied(phi, phi.symmetry, _constant_symbol(op, phi.grid))
    return const - _coupling(op, phi, op.coeff_nl)


def apply_lump_linearization(op: LinearizedOperator, phi: RealField2D) -> RealField2D:
    """Linearization of the lump's own fourth-order equation about q.

    Same x-structure as ``apply_linearized`` but with the lump's nonlinear
    coefficient and without the epsilon-weighted y-terms; annihilates the
    translation modes dq/dx and dq/dy.
    """
    kx = phi.grid.kx[:, None]
    ky = phi.grid.ky_r[None, :]
    const = _multiplied(phi, phi.symmetry, kx**4 + op.c2 * kx**2 + 2.0 * ky**2)
    return const - _coupling(op, phi, op.coeff_lump_nl)


def solve_linearized(
    op: LinearizedOperator,
    h1: RealField2D,
    h2: RealField2D,
    tol: float = 1e-9,
    max_iter: int = 200,
    x0: RealField2D | None = None,
) -> tuple[RealField2D, int]:
    """Solve the linearized problem with right-hand side dx h1 + dy h2;
    returns the solution and the number of MINRES iterations it took.

    Preconditioned MINRES (Paige & Saunders), the method for this symmetric
    indefinite problem (one negative direction, the Morse-index one), on the
    sine-cosine coefficients of the quarter box (``_coefficients``),
    where the constant symbol and the preconditioner, its inverse, are diagonal.
    MINRES stops on the preconditioned residual, in which the inverse
    fourth-order symbol damps the high frequencies, while the verdict is the
    plain relative L2 residual of ``apply_linearized`` on the full grid; so
    MINRES restarts from its own iterate until the plain residual meets
    ``tol``, for at most ``_MINRES_PASSES`` passes of ``40 * max_iter``
    iterations each.  The first pass starts from ``x0`` (a field tagged
    odd_x_even_y, such as the previous solution of a fixed-point iteration) if given.
    """
    if h1.symmetry is not Symmetry.EVEN_X_EVEN_Y:
        raise SymmetryViolation("h1 must be tagged even_x_even_y")
    if h2.symmetry is not Symmetry.ODD_X_ODD_Y:
        raise SymmetryViolation("h2 must be tagged odd_x_odd_y")
    if x0 is not None and x0.symmetry is not Symmetry.ODD_X_EVEN_Y:
        raise SymmetryViolation("x0 must be tagged odd_x_even_y")
    grid = h1.grid
    rhs = derivative(h1, 1, 0) + derivative(h2, 0, 1)
    rhs_norm = l2_norm(rhs)
    if rhs_norm == 0.0:
        return zeros(grid, Symmetry.ODD_X_EVEN_Y), 0

    mx, my = grid.nx // 2, grid.ny // 2
    ntot = (mx - 1) * (my + 1)
    sym = _constant_symbol(op, grid)[1:mx, :, None]
    ax, ay = _dealias_rectangle(grid)
    kx = grid.kx[1 : ax + 1, None, None]
    potential = _quarter_potential(op, op.coeff_nl)
    applies = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal applies
        applies += 1
        # the coupling -dx T[(T dq)(T dx phi)]: dx takes sine to cosine
        # coefficients by a multiply by kx, and cosine to sine ones by -kx;
        # T keeps the sine rows 1..ax of the dealias rectangle
        c = v.reshape(sym.shape)
        out = sym * c
        out[:ax, :ay] += kx * potential(kx * c[:ax, :ay])
        return out.ravel()

    A = LinearOperator((ntot, ntot), matvec=matvec, dtype=float)
    M = LinearOperator((ntot, ntot), matvec=lambda v: v / sym.ravel(), dtype=float)
    b = _coefficients(rhs.data[..., None], -1).ravel()
    sol = None if x0 is None else _coefficients(x0.data[..., None], -1).ravel()
    # MINRES applies A once per iteration, and once more for the residual of
    # a given start
    starts = 0
    for _ in range(_MINRES_PASSES):
        starts += sol is not None
        sol, info = minres(A, b, x0=sol, M=M, rtol=tol * 1e-2, maxiter=40 * max_iter)
        vals = _values(sol.reshape(sym.shape), -1)[..., 0]
        phi = _tagged(grid, vals, Symmetry.ODD_X_EVEN_Y)
        res = l2_norm(apply_linearized(op, phi) - rhs) / rhs_norm
        if res <= tol:
            return phi, applies - starts
    raise NotConverged(
        f"linearized solve: relative residual {res:.3e} > {tol:.1e} "
        f"after {_MINRES_PASSES} MINRES passes (minres info={info})"
    )


# ---------------------------------------------------------------------------
# the reduced operator and its eigenpairs
# ---------------------------------------------------------------------------


def apply_L(op: LinearizedOperator, psi: RealField2D) -> RealField2D:
    """Reduced operator: -dxx psi + c2 psi + V psi + 2 dx^-2 dyy psi.

    V is the lump potential (lump nonlinear coefficient times dq/dx).  The
    nonlocal term is defined by double zero-mode-free Fourier division, which
    requires zero x-mean on every y-line; the output is returned in the same
    zero-x-mean convention (the discrete antiderivative fixes integration
    constants per y-line, so the operator is only defined modulo x-constants).

    The full-grid reference for ``eigen_extremes``, independent of its
    cosine coefficients: the symbol takes its own rfft2/irfft2 round trip on
    all nx x ny samples, and the result enters through the public
    constructor, in the class of ``psi``.
    """
    _check_zero_x_mean(psi, "apply_L")
    grid = psi.grid
    ratio = np.zeros((grid.nx, grid.ky_r.size))
    nzx = grid.kx != 0.0
    ratio[nzx, :] = 2.0 * grid.ky_r[None, :] ** 2 / (grid.kx[nzx, None] ** 2)
    symbol = grid.kx[:, None] ** 2 + op.c2 + ratio
    out = sfft.irfft2(sfft.rfft2(psi.values) * symbol, s=(grid.nx, grid.ny))
    out = out + op.coeff_lump_nl * _potential_product(op, psi).values
    return RealField2D(grid, out - out.mean(axis=0, keepdims=True), psi.symmetry)


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
    ``block`` is the LOBPCG block width (both 0 when ``solver`` is
    ``"dense"``), ``unknowns`` is the size of the problem LOBPCG was given,
    and ``max_residual`` is the largest ||L v - lambda v||_2
    over the returned pairs (unit vectors in the grid's Euclidean norm).
    """

    pairs: tuple[EigenPair, ...]
    phi0: RealField2D
    phi1: RealField2D
    lambda1: float
    lambda2: float
    negative_count: int
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
    """sqrt(w_p w_q) on the quarter box of parity px in x, even in y, shaped (.., .., 1)."""
    sx, sy = (np.sqrt(np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0]) for n in (nx, ny))
    return (sx[:, None] * sy[None, :])[_kept(px), :, None]


def _ortho(q: np.ndarray, px: int) -> np.ndarray:
    """Orthonormal DCT-I (px = 1) or DST-I (px = -1) in x, DCT-I in y: self-inverse."""
    if px > 0:
        return sfft.dctn(q, type=1, axes=(0, 1), norm="ortho")
    return sfft.dct(sfft.dst(q, type=1, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")


def _coefficients(q: np.ndarray, px: int) -> np.ndarray:
    """Stored quarter columns (nx/2+1, ny/2+1, b) of parity px in x, even in
    y, to their orthonormal coefficients: the cosine rows m = 1..nx/2
    (dropping the x-means) or the sine rows m = 1..nx/2-1."""
    nx, ny = 2 * (q.shape[0] - 1), 2 * (q.shape[1] - 1)
    coeffs = _ortho(q[_kept(px)] * _quarter_weights(nx, ny, px), px)
    return coeffs[1:] if px > 0 else coeffs


def _values(coeffs: np.ndarray, px: int) -> np.ndarray:
    """Inverse of ``_coefficients``: stored quarter columns, exactly in their class."""
    if px > 0:
        coeffs = np.concatenate([np.zeros_like(coeffs[:1]), coeffs])
    quarter = _ortho(coeffs, px)
    quarter /= _quarter_weights(2 * (coeffs.shape[0] - px), 2 * (coeffs.shape[1] - 1), px)
    return _padded(quarter, px, 1)


def _dealias_rectangle(grid: Grid2D) -> tuple[int, int]:
    """(ax, ay): the 2/3 dealias mask, a product of x and y masks, keeps the
    cosine rows 0..ax and the columns 0..ay-1 of the quarter box."""
    inside = grid.dealias_mask[: grid.nx // 2 + 1]
    return int(inside[:, 0].sum()) - 1, int(inside[0].sum())


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
    weight = coeff * dealias(op.dq).data[..., None]

    def product(f: np.ndarray) -> np.ndarray:
        t = np.zeros((mx + 1, my + 1, f.shape[2]))
        t[1 : ax + 1] = sfft.dct(f, type=1, n=my + 1, axis=1, norm="ortho")
        t = sfft.dct(t, type=1, axis=0, norm="ortho", overwrite_x=True)
        t *= weight
        t = sfft.dct(t, type=1, axis=1, norm="ortho", overwrite_x=True)[:, :ay]
        return sfft.dct(t, type=1, axis=0, norm="ortho")[1 : ax + 1]

    return product


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
    returned.

    The preconditioner is 1 / (S - c2 + ``_PRECONDITIONER_GAP``): the wanted
    eigenvalues above the negative one sit just below the continuum edge c2,
    and an approximate inverse of the operator shifted next to them
    separates those modes, where (S + 1)^-1 is nearly flat across them.
    S - c2 is at least the smallest kx^2, so the preconditioner stays
    positive definite on every grid and every eps.  The block width is
    k + 1: at 512^2 it was the fastest of k + 1, k + 2 and k + 3, and at
    1024^2 faster than k + 3, since wider blocks save fewer iterations than
    they cost per iteration.  LOBPCG is asked for
    ``tol * _LOBPCG_TOL_FACTOR``, since it returns its iterate of least mean
    residual; every returned pair is then checked against ``tol`` itself.
    When the inside block is too small for LOBPCG (fewer than five times the
    block width), scipy's ``lobpcg`` solves it densely instead;
    ``iterations`` and ``block`` are then 0 and ``solver`` is ``"dense"``.

    Raises ValueError unless 2 <= k <= (nx/2)(ny/2 + 1), the dimension of
    the subspace; NotConverged when a returned pair misses ``tol`` in
    ||L v - lambda v||_2; and MultipleNegative when more than one negative
    eigenvalue shows up: Morse index one is the structural hypothesis of the
    whole construction, so a second negative direction signals an inadequate
    grid or an eps out of regime.
    """
    grid = op.q.grid
    mx, my = grid.nx // 2, grid.ny // 2
    if not 2 <= k <= mx * (my + 1):
        raise ValueError(f"k must lie in [2, {mx * (my + 1)}], the coefficients on this grid")
    kx2 = grid.kx[1 : mx + 1, None, None] ** 2
    ky2 = grid.ky_r[None, :, None] ** 2
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
    A = LinearOperator(shape, matvec=lambda v: matvec_block(v.reshape(-1, 1)).ravel(),
                       matmat=matvec_block, dtype=float)
    M = LinearOperator(shape, matvec=lambda v: prec_block(v.reshape(-1, 1)).ravel(),
                       matmat=prec_block, dtype=float)

    # the start block: the lump potential well shape for the ground-state
    # direction, then k columns of i.i.d. normal coefficients (the
    # coefficients of an i.i.d. normal field of the class, by the isometry)
    block = k + 1
    x, y = _quarter_axes(grid)
    well = -op.dq.data * np.exp(-0.05 * (x**2 + y**2))
    well = _coefficients(well[..., None], 1)[:ax, :ay].reshape(unknowns, 1)
    rng = np.random.default_rng(seed)
    X = np.hstack([well, rng.standard_normal((unknowns, k))])

    with warnings.catch_warnings():
        # the residual check below gives the verdict; a small problem is
        # solved densely, which scipy announces and returns without history
        warnings.filterwarnings("ignore", message="(Exited|Failed|The problem size)",
                                category=UserWarning)
        vals, vecs, *history = lobpcg(A, X, M=M, tol=tol * _LOBPCG_TOL_FACTOR, maxiter=max_iter,
                                      largest=False, retResidualNormsHistory=True)
    solver = "lobpcg" if history else "dense"
    iterations = len(history[0]) - 2 if history else 0

    # merge with the outside diagonal: lowest k of both, inside first on ties
    inside = grid.dealias_mask[1 : mx + 1]
    candidates = np.concatenate([vals, np.where(inside, np.inf, symbol[..., 0]).ravel()])
    order = np.argsort(candidates, kind="stable")[:k]
    won = order < vals.size
    vals_in, vecs_in = vals[order[won]], vecs[:, order[won]]
    residuals = np.linalg.norm(A.matmat(vecs_in) - vecs_in * vals_in, axis=0)
    max_residual = float(np.max(residuals, initial=0.0))
    if not max_residual <= tol:
        raise NotConverged(
            f"LOBPCG: residual {max_residual:.3e} > {tol:.1e} "
            f"after {iterations} iterations"
        )

    coeffs = np.zeros((mx, my + 1, k))
    coeffs[:ax, :ay, won] = vecs_in.reshape(ax, ay, -1)
    coeffs.reshape(-1, k)[order[~won] - vals.size, np.flatnonzero(~won)] = 1.0
    quarters = _values(coeffs, 1)
    pairs = []
    for j in range(k):
        f = _tagged(grid, np.ascontiguousarray(quarters[:, :, j]), Symmetry.EVEN_X_EVEN_Y)
        f = f.scaled(1.0 / l2_norm(f))
        pairs.append(EigenPair(eigenvalue=float(candidates[order[j]]), psi=f))

    neg = [p for p in pairs if p.eigenvalue < 0.0]
    if len(neg) == 0:
        raise NotConverged("no negative eigenvalue found")
    if len(neg) > 1:
        raise MultipleNegative(
            f"found {len(neg)} negative eigenvalues: "
            + ", ".join(f"{p.eigenvalue:.4e}" for p in neg)
        )
    pos = [p.eigenvalue for p in pairs if p.eigenvalue > 0.0]
    phi0 = pairs[0].psi
    phi1 = antiderivative_x(phi0)
    return EigenResult(
        pairs=tuple(pairs),
        phi0=phi0,
        phi1=phi1,
        lambda1=pairs[0].eigenvalue,
        lambda2=float(pos[0]) if pos else math.nan,
        negative_count=len(neg),
        iterations=iterations,
        block=block if history else 0,
        max_residual=max_residual,
        unknowns=unknowns,
        solver=solver,
    )


# ---------------------------------------------------------------------------
# weighted norm suite
# ---------------------------------------------------------------------------
#
# A suite reads the derivatives of its field f from one table df(m, n), the
# memoized ``cache(partial(derivative, f))``, and evaluates each summand once.

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


def _star_terms(f: RealField2D, df: _Table, eps: float, delta: float) -> dict[str, float]:
    """Every summand of the weighted solution norm of ``f``, by name, from
    its derivative table ``df``; ``a`` is the energy norm of the linearized
    problem (L2, eps-weighted derivatives)."""
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
    terms["fy4_32"] = e**5.5 * weighted_sup(df(0, 4), 1.5, 0.0)
    terms["fxy_32"] = e**0.5 * weighted_sup(df(1, 1), 1.5, 0.0)
    terms["fxxy_32"] = e**0.5 * weighted_sup(df(2, 1), 1.5, 0.0)
    terms["fxyy_32"] = e**1.5 * weighted_sup(df(1, 2), 1.5, 0.0)
    terms["fxxyy_32"] = e**2.5 * weighted_sup(df(2, 2), 1.5, 0.0)
    try:
        adx = antiderivative_x(df(0, 2))
    except NonZeroMean:
        # no dx^-1 of data without zero x-mean (even in x: f1, f2)
        ix = [math.nan] * 3
    else:
        orders = (adx, derivative(adx, 0, 1), derivative(adx, 0, 2))
        ix = [weighted_sup(g, 1.5, d) for g in orders]
    terms["ix_fyy"] = e**1.5 * ix[0]
    terms["ix_fy3"] = e**3.5 * ix[1]
    terms["ix_fy4"] = e**5.5 * ix[2]
    return terms


# terms dominated by truncation noise at desk eps, excluded from the
# contraction stopping proxy but still reported
STAR_PROXY_EXCLUDED = ("fy4_32", "ix_fy4")


def star_norm_proxy(f: RealField2D, eps: float, delta: float = DELTA_DEFAULT) -> float:
    """The weighted solution norm without its ``STAR_PROXY_EXCLUDED`` terms,
    the stopping proxy of the outer fixed point."""
    terms = _star_terms(f, cache(partial(derivative, f)), eps, delta)
    return sum(v for k, v in terms.items() if k not in STAR_PROXY_EXCLUDED)


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
    df = cache(partial(derivative, f))
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
