import math

import numpy as np
import pytest

from transonic.errors import NonZeroMean, NotConverged, SymmetryViolation
from transonic.grid import (
    RealField2D,
    Symmetry,
    antiderivative_x,
    constant,
    derivative,
    inner,
    l2_norm,
    make_grid,
    symmetrize,
    zeros,
)
from transonic.linearized import (
    LinearizedOperator,
    _cosine_coefficients,
    _cosine_values,
    _sine_cosine_coefficients,
    _sine_cosine_values,
    a_norm,
    apply_L,
    apply_linearized,
    apply_lump_linearization,
    b_norm,
    c_norm,
    eigen_extremes,
    make_linearized_operator,
    norm_suite,
    solve_linearized,
    star_norm,
    star_norm_proxy,
)
from transonic.lump import SQRT2, LumpParams, lump_derivative, sample_lump


def zero_coupling_operator(eps, grid):
    z = zeros(grid, Symmetry.EVEN_X_EVEN_Y)
    return LinearizedOperator(
        eps=eps, q=z, dq=z, coeff_nl=6 * (SQRT2 - eps**2), coeff_lump_nl=0.0,
        lambda_coupling=0.0,
    )


class TestOperatorData:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.3])
    def test_lambda_coupling_negative_and_quadratic(self, eps):
        g = make_grid(16, 16, 5, 5)
        op = make_linearized_operator(eps, g)
        assert op.lambda_coupling < 0
        assert -2.0 <= op.lambda_coupling / eps**2 <= -1.0

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
        mode = RealField2D(g, np.sin(k1 * g.X) * np.cos(k2 * g.Y), Symmetry.ODD_X_EVEN_Y)
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
        phi = solve_linearized(op, zeros(g, Symmetry.EVEN_X_EVEN_Y), zeros(g, Symmetry.ODD_X_ODD_Y))
        assert np.max(np.abs(phi.values)) == 0.0

    def test_symmetry_guards(self):
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        with pytest.raises(SymmetryViolation):
            solve_linearized(op, zeros(g, Symmetry.ODD_X_EVEN_Y), zeros(g, Symmetry.ODD_X_ODD_Y))

    def test_manufactured_recovery(self, rand_field):
        # band-limited manufactured solution: full right-hand side folded into
        # h1 through the zero-mode-free antiderivative
        g = make_grid(128, 128, 20, 20)
        op = make_linearized_operator(0.1, g)
        phi_star = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=5)
        rhs = apply_linearized(op, phi_star)
        h1 = antiderivative_x(rhs).with_symmetry(Symmetry.EVEN_X_EVEN_Y)
        h2 = zeros(g, Symmetry.ODD_X_ODD_Y)
        phi = solve_linearized(op, h1, h2, tol=1e-10)
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
        phi = solve_linearized(op, h1, h2, tol=1e-9)
        rhs = symmetrize(derivative(h1, 1, 0) + derivative(h2, 0, 1), Symmetry.ODD_X_EVEN_Y)
        assert len(passes) >= 2
        assert l2_norm(apply_linearized(op, phi) - rhs) <= 1e-9 * l2_norm(rhs)

    def test_unreachable_tol_raises(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        op = make_linearized_operator(0.1, g)
        h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=1, kmax=6)
        h2 = zeros(g, Symmetry.ODD_X_ODD_Y)
        with pytest.raises(NotConverged, match="linearized solve"):
            solve_linearized(op, h1, h2, tol=1e-16, max_iter=1)

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
                phi = solve_linearized(op, h1, h2, tol=1e-9)
                vals.append(a_norm(phi, eps) / (b_norm(h1) + c_norm(h2)))
            ratios[n] = max(vals)
        assert ratios[256] <= 2.0 * ratios[128]
        assert ratios[128] <= 2.0 * ratios[256]


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
        psi = RealField2D(g, psi.values - psi.values.mean(axis=0, keepdims=True))
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
            assert res.negative_count == 1
            assert res.lambda1 < 0 < res.lambda2

    def test_normalization_and_tags(self, eigdata):
        _, res = eigdata[0.1]
        assert l2_norm(res.phi0) == pytest.approx(1.0, rel=1e-8)
        assert res.phi1.symmetry is Symmetry.ODD_X_EVEN_Y

    def test_self_consistency(self, eigdata):
        op, res = eigdata[0.1]
        out = apply_L(op, res.phi0)
        rel = np.max(np.abs(out.values - res.lambda1 * res.phi0.values))
        assert rel <= 1e-5 * np.max(np.abs(res.phi0.values))

    def test_fourth_order_identity(self, eigdata):
        # phi1 satisfies the fourth-order eigen identity with the lump
        # nonlinearity: A_lump(phi1) = -lambda1 dxx phi1
        op, res = eigdata[0.1]
        lhs = apply_lump_linearization(op, res.phi1)
        rhs = derivative(res.phi1, 2, 0).scaled(-res.lambda1)
        rel = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(rhs.values))
        assert rel <= 1e-5

    def test_lambda1_drift_quadratic(self, eigdata):
        lam0 = eigdata[0.0][1].lambda1
        lam1 = eigdata[0.1][1].lambda1
        assert abs(lam1 - lam0) <= 0.5 * 0.1**2 * abs(lam0)

    def test_k_guard(self, eigdata):
        op, _ = eigdata[0.1]
        with pytest.raises(ValueError):
            eigen_extremes(op, k=1)

    def test_convergence_reported(self, eigdata):
        _, res = eigdata[0.1]
        assert res.iterations > 5
        assert 0.0 < res.max_residual <= 1e-8

    def test_iteration_budget_exhausted_raises(self, eigdata):
        op, _ = eigdata[0.1]
        with pytest.raises(NotConverged, match="residual"):
            eigen_extremes(op, k=3, tol=1e-8, max_iter=5)


def test_cosine_basis_is_isometric_projection():
    g = make_grid(32, 16, 5, 5)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((g.nx, g.ny, 2))
    coeffs = _cosine_coefficients(raw)
    assert coeffs.shape == (g.nx // 2, g.ny // 2 + 1, 2)
    back = _cosine_values(coeffs)
    for j in range(2):
        proj = symmetrize(RealField2D(g, raw[:, :, j]), Symmetry.EVEN_X_EVEN_Y).values
        proj = proj - proj.mean(axis=0, keepdims=True)
        assert np.max(np.abs(back[:, :, j] - proj)) <= 1e-13
        assert np.sum(coeffs[:, :, j] ** 2) == pytest.approx(np.sum(proj**2), rel=1e-13)


def test_eigen_matches_dense_reference():
    # apply_L assembled on an orthonormal basis of the even/even, zero-x-mean
    # subspace of a 64^2 grid, independent of the cosine basis LOBPCG uses
    g = make_grid(64, 64, 20, 20)
    op = make_linearized_operator(0.1, g)
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
        apply_L(op, RealField2D(g, col.reshape(n, n))).values.ravel() for col in basis.T
    ])
    H = basis.T @ images
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))

    k = 3
    res = eigen_extremes(op, k=k, tol=1e-9)
    got = np.array([p.eigenvalue for p in res.pairs])
    assert np.max(np.abs(got - evals[:k]) / np.abs(evals[:k])) <= 1e-8
    ref = RealField2D(g, (basis @ evecs[:, 0]).reshape(n, n))
    ref = ref.scaled(1.0 / l2_norm(ref))
    ref_vals = ref.values * np.sign(inner(ref, res.phi0))
    assert np.max(np.abs(res.phi0.values - ref_vals)) <= 1e-6 * np.max(np.abs(ref_vals))


def test_sine_cosine_basis_is_isometric_projection():
    g = make_grid(32, 16, 5, 5)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((g.nx, g.ny, 2))
    coeffs = _sine_cosine_coefficients(raw)
    assert coeffs.shape == (g.nx // 2 - 1, g.ny // 2 + 1, 2)
    back = _sine_cosine_values(coeffs)
    for j in range(2):
        proj = symmetrize(RealField2D(g, raw[:, :, j]), Symmetry.ODD_X_EVEN_Y).values
        assert np.max(np.abs(back[:, :, j] - proj)) <= 1e-13
        assert np.sum(coeffs[:, :, j] ** 2) == pytest.approx(np.sum(proj**2), rel=1e-13)


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
    # x, normalized cos(ky y) in y, on the grid indices
    j = np.arange(n)
    sines = np.sin(np.pi * np.outer(j, np.arange(1, h)) / h) / math.sqrt(h)
    cosines = np.cos(np.pi * np.outer(j, np.arange(h + 1)) / h) * math.sqrt(2.0 / n)
    cosines[:, [0, h]] /= math.sqrt(2.0)
    E = np.einsum("jm,kl->jkml", sines, cosines).reshape(n * n, -1)
    R = basis.T @ E
    assert np.max(np.abs(R.T @ R - np.eye(R.shape[1]))) <= 1e-12

    operators = []
    make = lin.LinearOperator
    monkeypatch.setattr(lin, "LinearOperator",
                        lambda *a, **k: operators.append(k["matvec"]) or make(*a, **k))
    h1 = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=2, kmax=6)
    h2 = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=3, kmax=6)
    phi = solve_linearized(op, h1, h2, tol=1e-12)
    matvec = operators[0]  # the operator; the preconditioner comes second
    Hc = np.column_stack([matvec(e) for e in np.eye(R.shape[1])])
    ref = R.T @ H @ R
    assert np.max(np.abs(Hc - ref)) <= 1e-12 * np.max(np.abs(ref))

    rhs = symmetrize(derivative(h1, 1, 0) + derivative(h2, 0, 1), Symmetry.ODD_X_EVEN_Y)
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
        vals = np.cos(np.pi * g.Y / g.Ly) * (2.0 + np.cos(np.pi * g.X / g.Lx))
        f = RealField2D(g, vals)
        with pytest.raises(NonZeroMean):
            norm_suite(f, 0.1)

    def test_proxy_excludes_most_singular_terms(self, rand_field):
        g = make_grid(64, 64, 10, 10)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=14)
        assert star_norm_proxy(f, 0.1) <= star_norm(f, 0.1)
