import dataclasses
import inspect
import math

import numpy as np
import pytest
from scipy import fft as sfft

import transonic.linearized as lin_mod
from transonic.errors import MultipleNegative, NonZeroMean, NotConverged, SymmetryViolation
from transonic.grid import (
    RealField2D,
    Symmetry,
    _project_parity,
    _stored,
    antiderivative_x,
    dealias,
    derivative,
    inner,
    l2_norm,
    make_grid,
    weighted_sup,
    zeros,
)
from transonic.linearized import (
    LinearizedOperator,
    LinearOperator,
    _coefficients,
    _dealias_rectangle,
    _quarter_potential,
    _values,
    eigen_extremes,
    lobpcg,
    make_linearized_operator,
    norm_suite,
    solve_linearized,
    star_norm_proxy,
)
from transonic.lump import SQRT2, LumpParams, lump_derivative, sample_lump

from reference import apply_L, apply_linearized, apply_lump_linearization, constant, coordinates


def l2_pair(f, g):
    """sqrt(||f||^2 + ||g||^2): the b norm of f with g = dx f, the c norm with g = dy f."""
    return math.sqrt(l2_norm(f) ** 2 + l2_norm(g) ** 2)


def zero_coupling_operator(eps, grid):
    z = zeros(grid, Symmetry.EVEN_X_EVEN_Y)
    return LinearizedOperator(
        eps=eps, dq=z, coeff_nl=6 * (SQRT2 - eps**2), coeff_lump_nl=0.0,
    )


class TestOperatorData:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_lambda_coupling_negative_and_quadratic(self, eps):
        g = make_grid(16, 16, 5, 5)
        op = make_linearized_operator(eps, g)
        lambda_coupling = op.coeff_lump_nl - op.coeff_nl
        assert lambda_coupling < 0
        assert -2.0 <= lambda_coupling / eps**2 <= -1.0

    def test_coefficients(self):
        g = make_grid(16, 16, 5, 5)
        op = make_linearized_operator(0.1, g)
        assert op.coeff_nl == pytest.approx(6 * (SQRT2 - 0.01))
        p = LumpParams.from_epsilon(0.1)
        assert op.coeff_lump_nl == pytest.approx(6 * SQRT2 * p.B**2.5)


class TestApply:
    def test_zero(self):
        g = make_grid(32, 32, 5, 5)
        op = make_linearized_operator(0.1, g)
        out = apply_linearized(op, zeros(g, Symmetry.ODD_X_EVEN_Y))
        assert np.max(np.abs(out.values)) == 0.0

    def test_symmetry_guard(self):
        g = make_grid(32, 32, 5, 5)
        op = make_linearized_operator(0.1, g)
        with pytest.raises(SymmetryViolation):
            apply_linearized(op, zeros(g, Symmetry.EVEN_X_EVEN_Y))

    def test_single_mode_symbol(self):
        eps = 0.1
        g = make_grid(64, 64, 10, 10)
        op = zero_coupling_operator(eps, g)
        k1 = 3 * math.pi / g.Lx
        k2 = 2 * math.pi / g.Ly
        X, Y, _ = coordinates(g)
        mode = RealField2D(g, np.sin(k1 * X) * np.cos(k2 * Y), Symmetry.ODD_X_EVEN_Y)
        out = apply_linearized(op, mode)
        sym = k1**4 + (2 * SQRT2 - eps**2) * k1**2 + 2 * k2**2 \
            + 2 * eps**2 * k1**2 * k2**2 + eps**4 * k2**4
        assert np.max(np.abs(out.values - sym * mode.values)) <= 1e-10

    def test_self_adjoint(self, rand_field):
        g = make_grid(128, 128, 20, 20)
        op = make_linearized_operator(0.1, g)
        worst = 0.0
        for s in range(5):
            u = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=s)
            v = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=100 + s)
            ip1 = inner(apply_linearized(op, u), v)
            ip2 = inner(u, apply_linearized(op, v))
            worst = max(worst, abs(ip1 - ip2) / max(abs(ip1), 1e-300))
        assert worst <= 1e-9

    def test_lump_linearization_kernel_vs_nonkernel(self):
        # the spectral operator at grid truncation: translation mode nearly
        # annihilated, the lump itself far from the kernel
        eps = 0.1
        g = make_grid(512, 512, 40, 40)
        op = make_linearized_operator(eps, g)
        p = LumpParams.from_epsilon(eps)
        mode = sample_lump(p, g, 1, 0)
        r_mode = np.max(np.abs(apply_lump_linearization(op, mode).values))
        r_lump = np.max(np.abs(apply_lump_linearization(op, sample_lump(p, g)).values))
        assert r_mode <= 1e-2 * r_lump


class TestSolve:
    def test_zero_rhs(self):
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        phi, iterations = solve_linearized(
            op, zeros(g, Symmetry.EVEN_X_EVEN_Y), zeros(g, Symmetry.ODD_X_ODD_Y)
        )
        assert np.max(np.abs(phi.values)) == 0.0
        assert iterations == 0

    def test_symmetry_guards(self):
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        with pytest.raises(SymmetryViolation):
            solve_linearized(op, zeros(g, Symmetry.ODD_X_EVEN_Y), zeros(g, Symmetry.ODD_X_ODD_Y))

    @pytest.mark.parametrize("sym", [Symmetry.ODD_X_ODD_Y, Symmetry.EVEN_X_EVEN_Y])
    def test_start_must_be_odd_even(self, rand_field, sym):
        # a start of any other class is refused
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        x0 = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=1).values
        if sym is Symmetry.EVEN_X_EVEN_Y:
            x0 = np.abs(x0)
        else:
            x0 = x0 * np.sin(np.pi * coordinates(g)[1] / g.Ly)
        h1, h2 = zeros(g, Symmetry.EVEN_X_EVEN_Y), zeros(g, Symmetry.ODD_X_ODD_Y)
        with pytest.raises(SymmetryViolation, match="x0"):
            solve_linearized(op, h1, h2, x0=RealField2D(g, x0, sym))

    def test_manufactured_recovery(self, rand_field):
        # band-limited manufactured solution: full right-hand side folded into
        # h1 through the zero-mode-free antiderivative
        g = make_grid(128, 128, 20, 20)
        op = make_linearized_operator(0.1, g)
        phi_star = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=5)
        rhs = apply_linearized(op, phi_star)
        h1 = antiderivative_x(rhs)
        h2 = zeros(g, Symmetry.ODD_X_ODD_Y)
        phi, _ = solve_linearized(op, h1, h2, tol=1e-10)
        assert np.max(np.abs(phi.values - phi_star.values)) <= 1e-6

    def test_restarted_minres_meets_tol(self, rand_field, monkeypatch):
        # one case of the a-priori sweep whose first MINRES pass stops on the
        # preconditioned residual short of tol in the plain relative residual
        import transonic.linearized as lin

        passes = []
        minres = lin.minres

        def counted(*args, **kwargs):
            passes.append(1)
            return minres(*args, **kwargs)

        monkeypatch.setattr(lin, "minres", counted)
        g = make_grid(128, 128, 20, 20)
        op = make_linearized_operator(0.1, g)
        h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=0, kmax=6)
        h2 = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=50, kmax=6)
        phi, _ = solve_linearized(op, h1, h2, tol=1e-9)
        rhs = derivative(h1, 1, 0) + derivative(h2, 0, 1)
        assert len(passes) >= 2
        assert l2_norm(apply_linearized(op, phi) - rhs) <= 1e-9 * l2_norm(rhs)

    def test_iteration_count_and_start(self, rand_field, monkeypatch):
        # the count returned is MINRES's own, cold and from a start; a start
        # near the solution saves iterations
        import transonic.linearized as lin

        seen = []
        minres = lin.minres

        def counted(*args, **kwargs):
            n = []
            out = minres(*args, callback=lambda xk: n.append(1), **kwargs)
            seen.append(len(n))
            return out

        monkeypatch.setattr(lin, "minres", counted)
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=1, kmax=6)
        h2 = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=51, kmax=6)
        phi, cold = solve_linearized(op, h1, h2)
        assert cold == sum(seen) > 0
        seen.clear()
        kick = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=9, amplitude=1e-4)
        _, warm = solve_linearized(op, h1, h2, x0=phi + kick.scaled(np.max(np.abs(phi.values))))
        assert warm == sum(seen)
        assert warm < cold

    def test_unreachable_tol_raises(self, rand_field, monkeypatch):
        monkeypatch.setattr(lin_mod, "_MINRES_MAX_ITER", 40)
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=1, kmax=6)
        h2 = zeros(g, Symmetry.ODD_X_ODD_Y)
        with pytest.raises(NotConverged, match="linearized solve"):
            solve_linearized(op, h1, h2, tol=1e-16)

    @pytest.mark.slow
    def test_apriori_ratio_stable_under_doubling(self, rand_field):
        eps = 0.1
        ratios = {}
        for n in (128, 256):
            g = make_grid(n, n, 20, 20)
            op = make_linearized_operator(eps, g)
            vals = []
            for s in range(10):
                h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=s, kmax=6)
                h2 = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=50 + s, kmax=6)
                phi, _ = solve_linearized(op, h1, h2, tol=1e-9)
                b = l2_pair(h1, derivative(h1, 1, 0))
                c = l2_pair(h2, derivative(h2, 0, 1))
                vals.append(norm_suite(phi, eps).a / (b + c))
            ratios[n] = max(vals)
        assert ratios[256] <= 2.0 * ratios[128]
        assert ratios[128] <= 2.0 * ratios[256]


def _indefinite_system(n=80, seed=4):
    """A symmetric indefinite matrix (four negative diagonal entries among
    positive ones up to 100, plus a symmetric coupling), a right-hand side
    and the positive diagonal preconditioner 1 / |diag|."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(1.0, 100.0, n)
    diag[:4] *= -0.05
    S = rng.standard_normal((n, n))
    A = np.diag(diag) + 0.2 * (S + S.T)
    return A, rng.standard_normal(n), 1.0 / np.abs(np.diag(A))


@pytest.mark.parametrize("start, rtol, maxiter", [
    ("cold", 1e-12, None), ("warm", 1e-12, None), ("cold", 1e-12, 5),
    # istop 0: a warm start that solves the diagonal system exactly
    ("exact", 1e-12, None),
    # istop -1: b a unit eigenvector of the diagonal system, M = I
    ("eigen", 1e-12, None),
])
def test_minres_matches_scipy(capsys, start, rtol, maxiter):
    # the package port against scipy's minres on the same system: scipy
    # prints its istop and iteration count with show=True
    import re

    from scipy.sparse.linalg import minres as scipy_minres

    A, b, m = _indefinite_system()
    x0 = None if start == "cold" else np.linalg.solve(A, b) + 1e-3 * np.sin(np.arange(b.size))
    if start == "exact":
        # nonzero integers of the system's signs: A x0 and b - A x0 = 0 are exact
        A = np.diag(np.sign(np.diag(A)) * np.ceil(np.abs(np.diag(A))))
        x0 = np.arange(b.size) - 7.0
        b = A @ x0
    elif start == "eigen":
        A, b, m, x0 = np.diag(np.diag(A)), np.eye(b.size)[3], np.ones(b.size), None
    calls = []
    x, istop, itn = lin_mod.minres(lambda v: A @ v, b, x0=x0, M=lambda v: m * v, rtol=rtol,
                                   maxiter=maxiter, callback=lambda xk: calls.append(1))
    capsys.readouterr()
    x_sp, _ = scipy_minres(A, b, x0=x0, M=np.diag(m), rtol=rtol, maxiter=maxiter, show=True)
    printed = re.search(r"istop\s*=\s*(-?\d+)\s+itn\s*=\s*(\d+)", capsys.readouterr().out)
    # scipy's beta1 == 0 return prints no exit line: it is its istop 0
    # ("beta1 = 0.  The exact solution is x0"), after no iteration
    istop_sp, itn_sp = map(int, printed.groups()) if printed else (0, 0)
    assert printed or start == "exact"
    assert istop == istop_sp == {"exact": 0, "eigen": -1}.get(start, 6 if maxiter else 1)
    assert abs(itn - itn_sp) <= 1
    assert len(calls) == itn
    assert np.max(np.abs(x - x_sp)) <= 1e-10 * np.max(np.abs(x_sp))


@pytest.mark.parametrize("d, m, match", [
    # M indefinite on b itself
    ([1.0, 2.0], [-1.0, 1.0], "on b - A x0"),
    # M positive on b = e1, negative on the next Lanczos vector A e1 = e2
    ([0.0, 0.0], [1.0, -1.0], "Lanczos vector of iteration 1"),
])
def test_minres_refuses_indefinite_preconditioner(d, m, match):
    A = np.array([[d[0], 1.0], [1.0, d[1]]])
    with pytest.raises(ValueError, match=match):
        lin_mod.minres(lambda v: A @ v, np.array([1.0, 0.0]), M=lambda v: np.array(m) * v)


class TestReducedOperator:
    def test_nonzero_mean_rejected(self):
        g = make_grid(32, 32, 5, 5)
        op = make_linearized_operator(0.1, g)
        with pytest.raises(NonZeroMean):
            apply_L(op, constant(g, 1.0))

    def test_linearity(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        psi = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=7)
        psi = RealField2D(g, psi.values - psi.values.mean(axis=0, keepdims=True),
                          Symmetry.EVEN_X_EVEN_Y)
        a = apply_L(op, psi.scaled(2.0))
        b = apply_L(op, psi).scaled(2.0)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))

    def test_conjugated_kernel_identity_closed_form(self):
        # x-antiderivative of the fourth-order kernel identity, with the
        # transport antiderivatives in closed rational form
        eps = 0.1
        p = LumpParams.from_epsilon(eps)
        c2 = 2 * SQRT2 - eps**2
        cl = 6 * SQRT2 * p.B**2.5
        x = np.linspace(-30, 30, 101)
        y = np.linspace(-20, 20, 81)
        X, Y = np.meshgrid(x, y, indexing="ij")
        Q = p.B * X**2 + p.C * Y**2 + p.E
        adx_dyy = -(p.A * p.C / p.B) * (p.B * X**2 - p.C * Y**2 + p.E) / Q**2
        resid = (
            lump_derivative(p, 3, 0, X, Y)
            - c2 * lump_derivative(p, 1, 0, X, Y)
            - 0.5 * cl * lump_derivative(p, 1, 0, X, Y) ** 2
            - 2.0 * adx_dyy
        )
        assert np.max(np.abs(resid)) <= 1e-6


class TestEigen:
    @pytest.fixture(scope="class")
    def eigdata(self):
        g = make_grid(128, 128, 30, 30)
        out = {}
        for eps in (0.0, 0.1):
            op = make_linearized_operator(eps, g)
            out[eps] = (op, eigen_extremes(op, k=3, tol=1e-8))
        return out

    def test_single_negative_eigenvalue(self, eigdata):
        for eps, (_, res) in eigdata.items():
            assert sum(v < 0.0 for v in res.eigenvalues) == 1
            assert res.eigenvalues[0] < 0 < res.lambda2

    def test_normalization_and_tags(self, eigdata):
        _, res = eigdata[0.1]
        assert l2_norm(res.phi0) == pytest.approx(1.0, rel=1e-8)
        assert res.phi1.symmetry is Symmetry.ODD_X_EVEN_Y

    def test_self_consistency(self, eigdata):
        op, res = eigdata[0.1]
        out = apply_L(op, res.phi0)
        rel = np.max(np.abs(out.values - res.eigenvalues[0] * res.phi0.values))
        assert rel <= 1e-5 * np.max(np.abs(res.phi0.values))

    def test_fourth_order_identity(self, eigdata):
        # phi1 satisfies the fourth-order eigen identity with the lump
        # nonlinearity: A_lump(phi1) = -lambda1 dxx phi1
        op, res = eigdata[0.1]
        lhs = apply_lump_linearization(op, res.phi1)
        rhs = derivative(res.phi1, 2, 0).scaled(-res.eigenvalues[0])
        rel = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(rhs.values))
        assert rel <= 1e-5

    def test_lambda1_drift_quadratic(self, eigdata):
        lam0 = eigdata[0.0][1].eigenvalues[0]
        lam1 = eigdata[0.1][1].eigenvalues[0]
        assert abs(lam1 - lam0) <= 0.5 * 0.1**2 * abs(lam0)

    def test_k_guard(self, eigdata):
        op, _ = eigdata[0.1]
        with pytest.raises(ValueError):
            eigen_extremes(op, k=1)
        # no more pairs than cosine coefficients: 8 x 9 at 16^2
        small = make_linearized_operator(0.1, make_grid(16, 16, 10, 10))
        assert eigen_extremes(small, k=72).eigenvalues[-1] < math.inf
        with pytest.raises(ValueError):
            eigen_extremes(small, k=73)

    def test_convergence_reported(self, eigdata):
        _, res = eigdata[0.1]
        assert res.iterations > 5
        assert 0.0 < res.max_residual <= 1e-8

    def test_iteration_budget_exhausted_raises(self, eigdata):
        op, _ = eigdata[0.1]
        with pytest.raises(NotConverged, match="residual"):
            eigen_extremes(op, k=3, tol=1e-8, max_iter=5)


@pytest.mark.parametrize("factor, error, message", [
    # twice the lump coupling deepens the well to a second bound state
    # (about -16.7 and -1.34)
    (2.0, MultipleNegative, r"^found 2 negative eigenvalues: -\d"),
    # without it the operator is its positive symbol alone
    (0.0, NotConverged, "^no negative eigenvalue found$"),
])
def test_morse_index_verdict_fires(factor, error, message):
    op = make_linearized_operator(0.1, make_grid(64, 64, 20, 20))
    with pytest.raises(error, match=message):
        eigen_extremes(dataclasses.replace(op, coeff_lump_nl=factor * op.coeff_lump_nl))


def test_cosine_basis_is_isometric_projection():
    g = make_grid(32, 16, 5, 5)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((g.nx, g.ny, 2))
    for j in range(2):
        proj = _project_parity(raw[:, :, j], Symmetry.EVEN_X_EVEN_Y)
        coeffs = _coefficients(RealField2D(g, proj, Symmetry.EVEN_X_EVEN_Y))
        assert coeffs.shape == (g.nx // 2, g.ny // 2 + 1)
        back = _values(coeffs, g, 1).values
        proj = proj - proj.mean(axis=0, keepdims=True)
        assert np.max(np.abs(back - proj)) <= 1e-13
        assert np.sum(coeffs**2) == pytest.approx(np.sum(proj**2), rel=1e-13)


def dense_reduced_operator(op):
    """apply_L assembled on an orthonormal basis of the even/even, zero-x-mean
    subspace of the operator's n^2 grid, independent of the cosine basis
    LOBPCG uses: the basis and the eigenpairs of the symmetrized matrix."""
    g = op.dq.grid
    n = g.nx
    orbit = np.zeros((n, n, n // 2 + 1, n // 2 + 1))
    for p in range(n // 2 + 1):
        for q in range(n // 2 + 1):
            orbit[[p, -p, p, -p], [q, q, -q, -q], p, q] = 1.0
    orbit -= orbit.mean(axis=0, keepdims=True)
    U, sv, _ = np.linalg.svd(orbit.reshape(n * n, -1), full_matrices=False)
    basis = U[:, sv > 1e-8 * sv[0]]
    assert basis.shape[1] == (n // 2) * (n // 2 + 1)
    images = np.column_stack([
        apply_L(op, RealField2D(g, col.reshape(n, n), Symmetry.EVEN_X_EVEN_Y)).values.ravel()
        for col in basis.T
    ])
    H = basis.T @ images
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    return basis, evals, evecs


@pytest.mark.parametrize("n, L, k, merged", [(64, 20, 3, False), (16, 80, 6, True)],
                         ids=["64-L20-k3", "16-L80-k6"])
def test_eigen_matches_dense_reference(n, L, k, merged):
    g = make_grid(n, n, L, L)
    op = make_linearized_operator(0.1, g)
    basis, evals, evecs = dense_reduced_operator(op)

    res = eigen_extremes(op, k=k, tol=1e-9)
    got = np.array(res.eigenvalues)
    assert np.max(np.abs(got - evals[:k]) / np.abs(evals[:k])) <= 1e-8
    # the out-of-mask coefficients are exact eigenvectors with the diagonal
    # symbol; at 16^2, L = 80 one of them is among the lowest k
    kx = g.kx[1 : n // 2 + 1, None]
    ky = g.ky[None, :]
    diagonal = (kx**2 + op.c2 + 2.0 * ky**2 / kx**2)[~g.dealias_mask[1 : n // 2 + 1]]
    hits = np.min(np.abs(got[:, None] - diagonal[None, :]), axis=1) <= 1e-12 * np.abs(got)
    assert hits.any() == merged
    ref = RealField2D(g, (basis @ evecs[:, 0]).reshape(n, n), Symmetry.EVEN_X_EVEN_Y)
    ref = ref.scaled(1.0 / l2_norm(ref))
    ref_vals = ref.values * np.sign(inner(ref, res.phi0))
    assert np.max(np.abs(res.phi0.values - ref_vals)) <= 1e-6 * np.max(np.abs(ref_vals))


@pytest.fixture(scope="module", params=[0.0, 0.2], ids=["eps0", "eps0.2"])
def dense_reference(request):
    op = make_linearized_operator(request.param, make_grid(64, 64, 20, 20))
    return op, dense_reduced_operator(op)[1]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_eigen_verdict_has_margin(dense_reference, seed):
    # LOBPCG returns its iterate of least mean residual, so it is asked for a
    # tighter target than the verdict: at the default tol every pair passes
    op, evals = dense_reference
    tol = inspect.signature(eigen_extremes).parameters["tol"].default
    res = eigen_extremes(op, seed=seed)
    assert res.solver == "lobpcg"
    assert res.max_residual <= tol
    got = np.array(res.eigenvalues)
    assert np.max(np.abs(got - evals[: got.size])) <= 1e-8


def known_spectrum(n=300, seed=0):
    """Q diag(d) Q^T for d = (-3, 0.5, 0.6, 0.8, 1..100) and Q orthogonal near
    the identity, as LinearOperators with the diagonal preconditioner
    1 / (|H_ii| + 1); returns H, its lowest eigenvalues by eigh, A, M, rng."""
    rng = np.random.default_rng(seed)
    d = np.concatenate([[-3.0, 0.5, 0.6, 0.8], np.linspace(1.0, 100.0, n - 4)])
    Q = np.linalg.qr(np.eye(n) + 0.01 * rng.standard_normal((n, n)))[0]
    H = (Q * d) @ Q.T
    H = 0.5 * (H + H.T)
    evals = np.linalg.eigvalsh(H)
    assert np.max(np.abs(evals - np.sort(d))) <= 1e-12 * np.max(np.abs(d))
    pre = 1.0 / (np.abs(np.diag(H)) + 1.0)
    A = LinearOperator(H.shape, matmat=lambda X: H @ X)
    M = LinearOperator(H.shape, matmat=lambda X: pre[:, None] * X)
    return H, evals, A, M, rng


def assert_lowest_pairs(H, evals, vals, vecs, k, tol):
    assert np.max(np.abs(vals[:k] - evals[:k])) <= 1e-10
    assert np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))) <= 1e-12
    residuals = np.linalg.norm(H @ vecs[:, :k] - vecs[:, :k] * vals[:k], axis=0)
    assert np.max(residuals) <= 2 * tol


def test_lobpcg_lowest_pairs_match_eigh():
    H, evals, A, M, rng = known_spectrum()
    vals, vecs, iterations = lobpcg(A, rng.standard_normal((300, 4)), M=M, tol=1e-9,
                                    maxiter=300, k=3)
    assert 0 < iterations < 300
    assert_lowest_pairs(H, evals, vals, vecs, 3, 1e-9)


def test_lobpcg_start_block_with_a_repeated_column():
    # Householder QR completes the dependent start block to an orthonormal one
    H, evals, A, M, rng = known_spectrum()
    X = rng.standard_normal((300, 4))
    X[:, 2] = X[:, 1]
    vals, vecs, _ = lobpcg(A, X, M=M, tol=1e-9, maxiter=300, k=3)
    assert_lowest_pairs(H, evals, vals, vecs, 3, 1e-9)


def test_lobpcg_steps_without_p_when_the_gram_fails(monkeypatch):
    # every Rayleigh-Ritz Gram (larger than the block) is refused at its
    # first Cholesky, so each step is taken again without P
    H, evals, A, M, rng = known_spectrum()
    cholesky = np.linalg.cholesky
    refused = []

    def refusing(G):
        if G.shape[0] > 4:
            first = not refused or refused[-1] == "taken"
            refused.append("refused" if first else "taken")
            if first:
                raise np.linalg.LinAlgError("refused")
        return cholesky(G)

    monkeypatch.setattr(np.linalg, "cholesky", refusing)
    vals, vecs, iterations = lobpcg(A, rng.standard_normal((300, 4)), M=M, tol=1e-9,
                                    maxiter=500, k=3)
    monkeypatch.undo()
    assert refused.count("refused") == refused.count("taken") == iterations
    assert_lowest_pairs(H, evals, vals, vecs, 3, 1e-9)


def test_lobpcg_stops_when_w_is_dependent_on_x():
    # a preconditioner that maps every residual into span(X), here to 0,
    # leaves W = 0 after the projection: its Cholesky QR fails and the start
    # block's Ritz pairs come back after no iteration
    H, _, A, _, rng = known_spectrum()
    X0 = rng.standard_normal((300, 4))
    M = LinearOperator(H.shape, matmat=np.zeros_like)
    vals, vecs, iterations = lobpcg(A, X0, M=M, tol=1e-9, maxiter=300, k=3)
    assert iterations == 0
    Q = np.linalg.qr(X0)[0]
    assert np.allclose(vals, np.linalg.eigvalsh(Q.T @ H @ Q), rtol=0, atol=1e-12)
    assert np.max(np.abs(Q @ (Q.T @ vecs) - vecs)) <= 1e-12


def test_lobpcg_drops_p_when_its_active_columns_are_dependent(monkeypatch):
    # P[:, active] refused as dependent at every step: each step is taken
    # on [X, W] alone, and the iteration still finds the lowest pairs
    H, evals, A, M, rng = known_spectrum()
    orthonormalized = lin_mod._orthonormalized
    dropped = []

    def refusing(V, *images):
        if images:  # the P block, with AP
            dropped.append(V.shape[1])
            raise np.linalg.LinAlgError("dependent")
        return orthonormalized(V)

    monkeypatch.setattr(lin_mod, "_orthonormalized", refusing)
    vals, vecs, iterations = lobpcg(A, rng.standard_normal((300, 4)), M=M, tol=1e-9,
                                    maxiter=500, k=3)
    monkeypatch.undo()
    assert len(dropped) == iterations - 1
    assert_lowest_pairs(H, evals, vals, vecs, 3, 1e-9)


def test_lobpcg_stops_when_even_the_x_w_gram_fails(monkeypatch):
    # every Rayleigh-Ritz Gram (larger than the block) is refused, with P and
    # then without: the loop's else branch returns the start block's pairs
    H, _, A, M, rng = known_spectrum()
    X0 = rng.standard_normal((300, 4))
    cholesky = np.linalg.cholesky
    refused = []

    def refusing(G):
        if G.shape[0] > 4:
            refused.append(G.shape[0])
            raise np.linalg.LinAlgError("refused")
        return cholesky(G)

    monkeypatch.setattr(np.linalg, "cholesky", refusing)
    vals, vecs, iterations = lobpcg(A, X0, M=M, tol=1e-9, maxiter=300, k=3)
    monkeypatch.undo()
    assert iterations == 0
    assert refused == [8, 8]  # no P at the first step: both tries are [X, W]
    Q = np.linalg.qr(X0)[0]
    assert np.allclose(vals, np.linalg.eigvalsh(Q.T @ H @ Q), rtol=0, atol=1e-12)


def test_lobpcg_iteration_budget():
    # two iterations return unconverged columns, which eigen_extremes' verdict
    # refuses
    H, _, A, M, rng = known_spectrum()
    vals, vecs, iterations = lobpcg(A, rng.standard_normal((300, 4)), M=M, tol=1e-9,
                                    maxiter=2, k=3)
    assert iterations == 2
    assert np.max(np.linalg.norm(H @ vecs[:, :3] - vecs[:, :3] * vals[:3], axis=0)) > 1e-9
    op = make_linearized_operator(0.1, make_grid(64, 64, 20, 20))
    with pytest.raises(NotConverged, match="after 2 iterations"):
        eigen_extremes(op, k=3, max_iter=2)


def test_eigen_maps_back_one_column(monkeypatch):
    # only phi0's coefficients go back to the grid; the other k - 1
    # eigenvalues come without eigenfunctions
    shapes = []
    values = lin_mod._values
    monkeypatch.setattr(lin_mod, "_values", lambda coeffs, grid, px:
                        shapes.append(coeffs.shape) or values(coeffs, grid, px))
    op = make_linearized_operator(0.1, make_grid(64, 64, 20, 20))
    res = eigen_extremes(op, k=4)
    assert shapes == [(32, 33)]
    assert len(res.eigenvalues) == 4
    assert list(res.eigenvalues) == sorted(res.eigenvalues)
    assert sum(v < 0.0 for v in res.eigenvalues) == 1


@pytest.mark.parametrize("nx, ny", [(64, 64), (64, 32)])
def test_pruned_potential_matches_masked_transforms(nx, ny):
    # the masked full-box DCT-I pair, against the routine that maps the
    # dealias rectangle to itself
    g = make_grid(nx, ny, 20, 10)
    op = make_linearized_operator(0.1, g)
    mx, my = nx // 2, ny // 2
    mask = g.dealias_mask[: mx + 1, :, None]
    tdq = _stored(dealias(op.dq).values)[..., None]

    def masked(tv):
        t = sfft.dctn(mask * tv, type=1, axes=(0, 1), norm="ortho")
        return op.coeff_nl * mask * sfft.dctn(tdq * t, type=1, axes=(0, 1), norm="ortho")

    ax, ay = _dealias_rectangle(g)
    potential = _quarter_potential(op, op.coeff_nl)
    rng = np.random.default_rng(5)
    kx = g.kx[1:mx, None, None]
    # the eigen block, and MINRES's kx times sine coefficients
    for rows in (rng.standard_normal((ax, ay, 3)), kx * rng.standard_normal((mx - 1, my + 1, 1))):
        tv = np.zeros((mx + 1, my + 1, rows.shape[2]))
        tv[1 : rows.shape[0] + 1, : rows.shape[1]] = rows
        ref = masked(tv)
        got = potential(rows[:ax, :ay])
        assert got.shape == (ax, ay, rows.shape[2])
        assert np.max(np.abs(got - ref[1 : ax + 1, :ay])) <= 1e-15 * np.max(np.abs(ref))
        ref[1 : ax + 1, :ay] = 0.0
        assert not ref[1:].any()


def test_sine_cosine_basis_is_isometric_projection():
    g = make_grid(32, 16, 5, 5)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((g.nx, g.ny, 2))
    for j in range(2):
        proj = _project_parity(raw[:, :, j], Symmetry.ODD_X_EVEN_Y)
        coeffs = _coefficients(RealField2D(g, proj, Symmetry.ODD_X_EVEN_Y))
        assert coeffs.shape == (g.nx // 2 - 1, g.ny // 2 + 1)
        back = _values(coeffs, g, -1).values
        assert np.max(np.abs(back - proj)) <= 1e-13
        assert np.sum(coeffs**2) == pytest.approx(np.sum(proj**2), rel=1e-13)


def test_linear_solve_matches_dense_reference(rand_field, monkeypatch):
    # apply_linearized assembled on an orthonormal basis of the odd/even
    # subspace of a 32^2 grid, independent of the DST/DCT code MINRES uses
    import transonic.linearized as lin

    g = make_grid(32, 32, 10, 10)
    op = make_linearized_operator(0.1, g)
    n, h = g.nx, g.nx // 2
    orbit = np.zeros((n, n, h - 1, h + 1))
    for p in range(1, h):
        for q in range(h + 1):
            orbit[[p, p, -p, -p], [q, -q, q, -q], p - 1, q] = [1.0, 1.0, -1.0, -1.0]
    U, sv, _ = np.linalg.svd(orbit.reshape(n * n, -1), full_matrices=False)
    basis = U[:, sv > 1e-8 * sv[0]]
    assert basis.shape[1] == (h - 1) * (h + 1)
    images = np.column_stack([
        apply_linearized(op, RealField2D(g, c.reshape(n, n), Symmetry.ODD_X_EVEN_Y)).values.ravel()
        for c in basis.T
    ])
    H = basis.T @ images

    # the coefficient basis vectors in closed form: normalized sin(kx x) in
    # x, normalized cos(ky y) in y, at the grid's x_j / dx = j - n/2
    j = np.arange(n) - h
    sines = np.sin(np.pi * np.outer(j, np.arange(1, h)) / h) / math.sqrt(h)
    cosines = np.cos(np.pi * np.outer(j, np.arange(h + 1)) / h) * math.sqrt(2.0 / n)
    cosines[:, [0, h]] /= math.sqrt(2.0)
    E = np.einsum("jm,kl->jkml", sines, cosines).reshape(n * n, -1)
    R = basis.T @ E
    assert np.max(np.abs(R.T @ R - np.eye(R.shape[1]))) <= 1e-12

    operators = []
    solve = lin.minres
    monkeypatch.setattr(lin, "minres",
                        lambda *a, **k: operators.append(a[0]) or solve(*a, **k))
    h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=2, kmax=6)
    h2 = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=3, kmax=6)
    phi, _ = solve_linearized(op, h1, h2, tol=1e-12)
    matvec = operators[0]  # the operator MINRES was given, its first argument
    Hc = np.column_stack([matvec(e) for e in np.eye(R.shape[1])])
    ref = R.T @ H @ R
    assert np.max(np.abs(Hc - ref)) <= 1e-12 * np.max(np.abs(ref))

    rhs = derivative(h1, 1, 0) + derivative(h2, 0, 1)
    phi_ref = basis @ np.linalg.solve(H, basis.T @ rhs.values.ravel())
    assert np.max(np.abs(phi.values.ravel() - phi_ref)) <= 1e-9 * np.max(np.abs(phi_ref))


class TestNormSuite:
    def test_zero_field(self):
        g = make_grid(64, 64, 10, 10)
        s = norm_suite(zeros(g, Symmetry.ODD_X_EVEN_Y), 0.1)
        assert all(getattr(s, k) == 0.0 for k in ("a", "b", "c", "star", "dstar", "tstar", "qstar", "pstar"))

    def test_star_contains_a(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=13)
        s = norm_suite(f, 0.1)
        assert s.star >= s.a

    def test_delta_guard(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=13)
        with pytest.raises(ValueError):
            norm_suite(f, 0.1, delta=0.0)

    def test_antiderivative_term_requires_zero_mean(self):
        g = make_grid(64, 64, 10, 10)
        X, Y, _ = coordinates(g)
        vals = np.cos(np.pi * Y / g.Ly) * (2.0 + np.cos(np.pi * X / g.Lx))
        f = RealField2D(g, vals, Symmetry.EVEN_X_EVEN_Y)
        with pytest.raises(NonZeroMean):
            antiderivative_x(derivative(f, 0, 2))
        # so the suite's three dx^-1 summands, and star, are nan; every other
        # norm is reported
        suite = norm_suite(f, 0.1)
        assert math.isnan(suite.star)
        assert all(math.isfinite(v) for k, v in vars(suite).items() if k != "star")

    def test_proxy_excludes_most_singular_terms(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=14)
        assert star_norm_proxy(f, 0.1) <= norm_suite(f, 0.1).star

    def test_suite_matches_standalone_norms(self, rand_field):
        # the suite reads one derivative table; the norms written out here take
        # their own derivatives, and every sum has the same term order
        g = make_grid(64, 64, 10, 10)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=15)
        s = norm_suite(f, 0.1)
        e = 0.1
        w = lambda m, n: weighted_sup(derivative(f, m, n), 1.5, 0.1)
        qstar = (
            w(0, 0) + w(1, 0) + w(2, 0) + e * w(3, 0)
            + e**2 * w(0, 1) + e**2 * w(1, 1) + e**4 * w(0, 2) + e**4 * w(1, 2)
        )
        assert s.qstar == qstar
        assert s.b == l2_pair(f, derivative(f, 1, 0))
        assert s.c == l2_pair(f, derivative(f, 0, 1))
