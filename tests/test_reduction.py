import gc
import inspect
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import transonic.grid as grid_mod
import transonic.linearized as lin_mod
import transonic.lump as lump_mod
import transonic.reduction as red_mod
from transonic.errors import GridMismatch, GuardViolated, NotConverged, SymmetryViolation
from transonic.grid import (
    RealField2D,
    Symmetry,
    _stored,
    _unfold,
    derivative,
    l2_norm,
    make_grid,
    weighted_sup,
    zeros,
)
from transonic.linearized import norm_suite
from transonic.lump import SQRT2, LumpParams, lump_derivative, sample_lump
from transonic.reduction import (
    F0_eval,
    ReductionState,
    _rhs_integrands,
    assemble_rhs,
    f0_exponent,
    f1_derivative,
    f1_from_g1,
    gamma_q_field,
    outer_fixed_point,
    solve_f2,
    transport_residual,
)

from reference import apply_linearized, coordinates

GRID = make_grid(256, 256, 40, 40)


@pytest.fixture
def picard_passes(monkeypatch):
    """A list that grows by one entry per transport Picard pass."""
    passes = []
    antiderivative = red_mod._decaying_antiderivative
    monkeypatch.setattr(
        red_mod, "_decaying_antiderivative", lambda *a: passes.append(1) or antiderivative(*a)
    )
    return passes


class TestF1:
    def test_zero(self):
        out = f1_from_g1(zeros(GRID, Symmetry.ODD_X_EVEN_Y))
        assert np.max(np.abs(out.values)) == 0.0

    def test_symmetry_guard(self):
        with pytest.raises(SymmetryViolation):
            f1_from_g1(zeros(GRID, Symmetry.EVEN_X_EVEN_Y))

    def test_origin_value_for_lump(self):
        g = make_grid(512, 512, 40, 40)
        st = ReductionState(0.0, g)
        i, j = g.nx // 2, g.ny // 2
        # (sqrt2/2) dq/dx(0,0) with dq/dx(0,0) = -8/3, up to spectral truncation
        assert st.f1.values[i, j] == pytest.approx(0.5 * SQRT2 * (-8 / 3), abs=1e-4)
        assert st.f1.values[i, j] == pytest.approx(-1.88562, abs=1e-4)

    def test_consistency_identity(self):
        # c0 dx g1 = 2 f1 + g1^2 holds exactly for the assembled pair
        st = ReductionState(0.1, GRID)
        dxg1 = derivative(st.g1, 1, 0)
        resid = SQRT2 * dxg1.values - 2.0 * st.f1.values - st.g1.values**2
        assert np.max(np.abs(resid)) <= 1e-10

    @pytest.mark.parametrize("order", [(1, 0), (0, 1), (2, 0), (0, 2)])
    def test_product_rule_orders(self, rand_field, order):
        # g1 band-limited to |k| < n/6, so g1^2 is not aliased and the
        # spectral derivative of f1 is exact to rounding
        g = make_grid(64, 64, 10, 10)
        g1 = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=3, kmax=8)
        got = f1_derivative(lambda m, n: derivative(g1, m, n).values, *order)
        ref = derivative(f1_from_g1(g1), *order).values
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_product_rule_order_guard(self):
        with pytest.raises(ValueError, match="f1 order"):
            f1_derivative(lambda m, n: np.zeros(1), 1, 1)


class TestF0:
    def test_exponent_limit(self):
        assert f0_exponent(LumpParams.from_epsilon(0.0)) == pytest.approx(2.0)

    def test_origin_value(self):
        assert F0_eval(0.0, 0.0, 0.0) == pytest.approx(1.125)

    def test_transport_homogeneous_identity(self):
        # (sqrt2 - e^2) dF0/dx + 2 q F0 = 0, via the log-derivative
        eps = 0.13
        p = LumpParams.from_epsilon(eps)
        x = np.linspace(-20, 20, 41)
        y = np.linspace(-15, 15, 31)
        X, Y = np.meshgrid(x, y, indexing="ij")
        h = 1e-6
        dlog = (F0_eval(eps, X + h, Y) - F0_eval(eps, X - h, Y)) / (2 * h) / F0_eval(eps, X, Y)
        target = -2.0 * lump_derivative(p, 0, 0, X, Y) / (SQRT2 - eps**2)
        assert np.max(np.abs(dlog - target)) <= 1e-8 * np.max(np.abs(target))

    def test_even(self):
        assert F0_eval(0.1, 3.0, -2.0) == F0_eval(0.1, -3.0, 2.0)


class TestSolveF2:
    def test_tag_and_symmetry(self):
        st = ReductionState(0.1, GRID)
        f2 = solve_f2(st)
        assert f2.symmetry is Symmetry.EVEN_X_EVEN_Y

    def test_guard_violated(self, rand_field):
        big_phi = rand_field(GRID, Symmetry.ODD_X_EVEN_Y, seed=3, amplitude=1.0)
        st = ReductionState(0.1, GRID, phi=big_phi)
        with pytest.raises(GuardViolated):
            solve_f2(st)

    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_guard_floor_at_tiny_eps(self, rand_field, eps):
        # 10 eps^2 lies below phi's rounding error here; the floor lets a
        # rounding-level phi through and still stops a large one
        g = make_grid(64, 64, 20, 20)
        phi = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=3, amplitude=1e-15)
        assert weighted_sup(phi, 1.0, 0.1) > 10.0 * eps**2
        solve_f2(ReductionState(eps, g, phi=phi))
        with pytest.raises(GuardViolated, match="weighted amplitude"):
            solve_f2(ReductionState(eps, g, phi=phi.scaled(1e6)))

    def test_residual_coarse(self):
        st = ReductionState(0.1, GRID)
        f2 = solve_f2(st)
        assert transport_residual(st, f2) <= 1e-5

    @pytest.mark.slow
    def test_residual_default_grid(self):
        g = make_grid(512, 512, 40, 40)
        st = ReductionState(0.1, g)
        f2 = solve_f2(st)
        assert transport_residual(st, f2) <= 1e-7

    def test_pass_count_stable_under_roundoff(self, rand_field, picard_passes):
        # the stop sits above the roundoff floor: a 1e-13 change of phi moves
        # neither the pass count nor f2 beyond the floor (up to ~6e-10 of its
        # sup, from rounding amplified by max F0 / min F0 ~ 2e7 on this box)
        g = make_grid(128, 128, 40, 40)
        phi = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=1, amplitude=2e-3)
        kick = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=101, amplitude=2e-16)
        runs = []
        for p in (phi, phi + kick):
            picard_passes.clear()
            runs.append((solve_f2(ReductionState(0.1, g, phi=p)), len(picard_passes)))
        (f2a, na), (f2b, nb) = runs
        assert na == nb
        assert np.max(np.abs(f2a.values - f2b.values)) < 1e-9 * np.max(np.abs(f2a.values))

    def test_zero_hypothetical_forcing(self):
        # with every源 term removed the map returns the zero solution
        from transonic.reduction import _decaying_antiderivative

        x = GRID.dx * np.arange(GRID.nx // 2 + 1)
        u = _decaying_antiderivative(x, np.zeros((GRID.ny // 2 + 1, x.size)), 7.0)
        assert np.max(np.abs(u)) == 0.0


def _full_line_antiderivative(grid_x, I_vals, decay_power):
    """Reference: the complex full-line rule on (nx, lines) samples, the mean
    term integrated exactly, the spectral cumulative integral of the rest,
    and the same tail correction at x = L - h."""
    L = -grid_x[0]
    m = I_vals.mean(axis=0, keepdims=True)
    hat = np.fft.fft(I_vals - m, axis=0)
    k = 2.0 * np.pi * np.fft.fftfreq(grid_x.size, d=grid_x[1] - grid_x[0])
    inv = np.zeros_like(k, dtype=np.complex128)
    inv[k != 0] = 1.0 / (1j * k[k != 0])
    U = np.real(np.fft.ifft(hat * inv[:, None], axis=0))
    base = (U[0:1, :] - U) + m * (L - grid_x)[:, None]
    return base + I_vals[-1:, :] * grid_x[-1] / max(decay_power - 1.0, 1.0)


def _complex_interp_x(vals, refine):
    """Reference: zero-padded complex trigonometric interpolation along axis
    0, the Nyquist coefficient split evenly between +k and -k."""
    nx = vals.shape[0]
    nxr = refine * nx
    hat = np.fft.fft(vals, axis=0)
    pad = np.zeros((nxr, vals.shape[1]), dtype=complex)
    h = nx // 2
    pad[:h, :] = hat[:h, :]
    pad[nxr - h + 1 :, :] = hat[h + 1 :, :]
    pad[h, :] = pad[nxr - h, :] = 0.5 * hat[h, :]
    return np.real(np.fft.ifft(pad, axis=0)) * refine


class TestHalfLineTransforms:
    def test_antiderivative_matches_full_line(self):
        n, L = 256, 40.0
        h = 2.0 * L / n
        x_half = h * np.arange(n // 2 + 1)
        y = np.linspace(0.0, 30.0, 7)[:, None]
        lines = x_half * (1.0 + y**2) / (1.0 + x_half**2 + y**2) ** 3
        lines[:, [0, -1]] = 0.0  # odd: zero at x = 0 and at x = L, the copy of -L
        # the full periodic line x = -L..L-h, odd about x = 0
        idx = np.arange(n) - n // 2
        full = (np.sign(idx) * lines[:, np.abs(idx)]).T
        grid_x = -L + h * np.arange(n)
        ref = _full_line_antiderivative(grid_x, full, 5.0)
        ref_half = np.concatenate([ref[n // 2 :], ref[:1]]).T
        u = red_mod._decaying_antiderivative(x_half, lines, 5.0)
        assert np.max(np.abs(u - ref_half)) <= 1e-13 * np.max(np.abs(ref_half))

    @pytest.mark.parametrize("sym", [Symmetry.ODD_X_EVEN_Y, Symmetry.EVEN_X_EVEN_Y])
    def test_interpolation_matches_complex_zero_padding(self, rand_field, sym):
        f = rand_field(SMALL, sym, seed=4, kmax=SMALL.nx // 2)  # up to the Nyquist row
        ref = red_mod._quarter_lines(_stored(_complex_interp_x(f.values, 4)))
        out = red_mod._refined_lines(red_mod._quarter_lines(f.data), sym.x_parity, 4)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_quarter_lines_round_trip(self, rand_field):
        f = rand_field(SMALL, Symmetry.EVEN_X_EVEN_Y, seed=6)
        lines = red_mod._quarter_lines(f.data)
        assert lines.shape == (SMALL.ny // 2 + 1, SMALL.nx // 2 + 1)
        assert lines.flags.c_contiguous
        # row b, column a: the samples at y = b dy, x = a dx
        half = slice(SMALL.nx // 2, None)
        assert np.array_equal(lines[:-1, :-1], f.values[half, half].T)
        assert np.array_equal(_unfold(red_mod._quarter_lines(lines), 1, 1), f.values)

    def test_refine_4_resolves_f2(self, monkeypatch):
        # f2 of a 128^2 construction at F2_REFINE = 4 against 8, over the
        # transport check's window: 3.2e-4 of the sup measured, 0.37 at 2
        g = make_grid(128, 128, 40, 40)
        state, _, _ = outer_fixed_point(0.1, g)
        f2 = {}
        for refine in (2, 4, 8):
            monkeypatch.setattr(red_mod, "F2_REFINE", refine)
            f2[refine] = solve_f2(ReductionState(0.1, g, phi=state.phi)).values
        window = np.abs(g.x) <= red_mod.F2_CHECK_WINDOW * g.Lx - 2.0 * g.dx
        scale = np.max(np.abs(f2[8]))
        gap = {r: np.max(np.abs(f2[r] - f2[8])[window, :]) / scale for r in (2, 4)}
        assert gap[4] <= 1e-3
        assert gap[2] >= 1e-1


class TestTransportResidual:
    def test_reads_the_solve_of_solve_f2(self, rand_field, picard_passes):
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=2, amplitude=1e-3)
        st = ReductionState(0.1, SMALL, phi=phi)
        f2 = solve_f2(st)
        picard_passes.clear()
        assert transport_residual(st, f2) <= 1e-3
        assert picard_passes == []

    def test_reads_the_terms_of_solve_f2(self, rand_field, monkeypatch):
        # the refined transport terms are built once per phi, by the solve
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=2, amplitude=1e-3)
        st = ReductionState(0.1, SMALL, phi=phi)
        f2 = solve_f2(st)
        rebuilt = []
        interp, sample = red_mod._refined_lines, lump_mod.lump_derivative
        monkeypatch.setattr(red_mod, "_refined_lines", lambda *a: rebuilt.append(1) or interp(*a))
        monkeypatch.setattr(lump_mod, "lump_derivative",
                            lambda *a: rebuilt.append(1) or sample(*a))
        monkeypatch.setattr(red_mod, "lump_derivative",
                            lambda *a: rebuilt.append(1) or sample(*a))
        assert transport_residual(st, f2) <= 1e-3
        assert rebuilt == []

    def test_reads_the_solve_of_outer_fixed_point(self, picard_passes):
        state, f2, _ = outer_fixed_point(0.1, SMALL, tol=1e-6)
        picard_passes.clear()
        assert transport_residual(state, f2) <= 1e-3
        assert picard_passes == []

    def test_reports_f2_of_another_phi(self, rand_field):
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=2, amplitude=1e-3)
        st = ReductionState(0.1, SMALL, phi=phi)
        other = solve_f2(ReductionState(0.1, SMALL, phi=phi.scaled(4.0)))
        resid = transport_residual(st, other)
        own = solve_f2(st)
        # the check's coarse window: 8 refined steps are 2 grid steps
        window = np.abs(SMALL.x) <= red_mod.F2_CHECK_WINDOW * SMALL.Lx - 2.0 * SMALL.dx
        mismatch = float(np.max(np.abs(own.values - other.values)[window, :]))
        assert mismatch > 2.0 * transport_residual(st, own)
        assert resid >= 0.999 * mismatch


class TestAssembleRhs:
    @pytest.fixture(scope="class")
    def bundle(self):
        # the loop only needs (h1, h2); the pieces P1, P2, P3, Gamma_q and
        # P1_hat = P1 + Gamma_q + dx(phi_sq) are rebuilt here from the same
        # integrands and the state's derivative table
        st = ReductionState(0.15, GRID)
        f2 = solve_f2(st)
        h1, h2 = assemble_rhs(st, f2)
        # the integrands are quarter boxes: unfolded, the public constructor
        # checks each declared parity to 1e-10 (the zeros of an odd axis too)
        def field(vals, sym):
            return RealField2D(GRID, _unfold(vals, sym.x_parity, sym.y_parity), sym)

        h1_vals, h2_vals, p3_vals = _rhs_integrands(st, f2)
        h1_p1 = field(h1_vals, Symmetry.EVEN_X_EVEN_Y)
        P2 = derivative(field(h2_vals, Symmetry.ODD_X_ODD_Y), 0, 1)
        P3 = field(p3_vals, Symmetry.ODD_X_EVEN_Y)
        gamma = gamma_q_field(st.params, GRID)
        phi_sq = field(3.0 * (SQRT2 - st.eps**2) * st.phi_d(1, 0) ** 2,
                       Symmetry.EVEN_X_EVEN_Y)
        P1 = derivative(h1_p1, 1, 0)
        b = SimpleNamespace(
            h1=h1, h2=h2, P1=P1, P2=P2, P3=P3, Gamma_q=gamma,
            P1_hat=P1 + gamma + derivative(phi_sq, 1, 0),
        )
        return st, f2, b

    def test_parities(self, bundle):
        _, _, b = bundle
        assert b.h1.symmetry is Symmetry.EVEN_X_EVEN_Y
        assert b.h2.symmetry is Symmetry.ODD_X_ODD_Y
        assert b.P1.symmetry is Symmetry.ODD_X_EVEN_Y
        assert b.P2.symmetry is Symmetry.ODD_X_EVEN_Y
        assert b.P3.symmetry is Symmetry.ODD_X_EVEN_Y
        assert b.Gamma_q.symmetry is Symmetry.ODD_X_EVEN_Y

    def test_assembly_identity(self, bundle):
        _, _, b = bundle
        lhs = derivative(b.h1, 1, 0) + derivative(b.h2, 0, 1)
        rhs = b.P1_hat + b.P2 + b.P3
        rel = l2_norm(lhs - rhs) / l2_norm(rhs)
        assert rel <= 1e-8

    def test_gamma_q_scaling(self):
        # |Gamma_q| <= C e^2 (1+r)^-5: the weighted sup over eps^2 stays bounded
        vals = {}
        for eps in (0.2, 0.1, 0.05):
            p = LumpParams.from_epsilon(eps)
            vals[eps] = weighted_sup(gamma_q_field(p, GRID), 5.0, 0.0) / eps**2
        ratios = [vals[0.2] / vals[0.1], vals[0.1] / vals[0.05]]
        assert all(0.25 <= r <= 4.0 for r in ratios)

    def test_readoff_matches_printed_forms(self, bundle):
        # transcription check: differentiate the structural integrands and
        # compare with the printed composite-derivative forms assembled
        # spectrally from the same state fields
        st, f2, b = bundle
        eps = st.eps
        e2, e4 = eps**2, eps**4
        sc = SQRT2 - e2
        g1, f1 = st.g1, st.f1

        def dx(f, k=1):
            return derivative(f, k, 0)

        def dy(f, k=1):
            return derivative(f, 0, k)

        def prod(a, b):
            return RealField2D(GRID, a.values * b.values, a.symmetry.product(b.symmetry))

        even, odd = Symmetry.EVEN_X_EVEN_Y, Symmetry.ODD_X_EVEN_Y
        trio = RealField2D(GRID, (f1.values + e2 * f2.values), even)
        mix = RealField2D(GRID, g1.values * f1.values**2 + 2 * e2 * f1.values * f2.values * g1.values + e4 * g1.values * f2.values**2, odd)
        cubic = RealField2D(
            GRID,
            6 * e2 * f1.values * f2.values
            + e2 * trio.values**3
            + 3 * e4 * f2.values**2
            + e2 * f2.values * g1.values**2,
            even,
        )
        p1_direct = (
            dx(prod(g1, dx(g1)), 2).scaled(e2).values
            + dx(mix, 2).scaled(e2).values
            - dx(RealField2D(GRID, f2.values**2, even)).scaled(sc * e4).values
            - dx(RealField2D(GRID, f1.values**2, even)).scaled(e4 / sc).values
            + dx(prod(dx(g1), f2)).scaled(2 * e2).values
            + dx(RealField2D(GRID, dx(g1).values**2, even)).scaled(
                (2 * e2 - 0.5 * SQRT2 * e4) / (2 - SQRT2 * e2)
            ).values
            + dx(cubic).scaled(sc).values
            + dx(prod(f1, f2)).scaled(2 * e4).values
            - dx(prod(g1, dx(f1))).scaled(SQRT2 * e2).values
        )

        # hybrid-vs-spectral truncation floors the agreement near 6e-3 on
        # this grid; transcription slips in the eps^2-weighted terms sit at
        # 1e-1 and are what this guards (the end-to-end residual criterion
        # pins the eps^4-weighted ones far more tightly)
        X, Y, _ = coordinates(GRID)
        interior = (np.abs(X) < 25) & (np.abs(Y) < 25)
        rel = np.max(np.abs(b.P1.values - p1_direct)[interior]) / np.max(np.abs(b.P1.values))
        assert rel <= 2e-2

        p2_direct = (
            dy(prod(dx(g1), dy(g1))).scaled(SQRT2 * e2).values
            + dy(mix, 2).scaled(e4).values
            + dy(prod(dy(g1), f2)).scaled(4 * e4).values
            - dy(prod(dy(g1), f1)).scaled(2 * e4 / sc).values
            + dy(prod(dy(g1), dx(g1))).scaled(2 * e2 / sc).values
        )
        rel2 = np.max(np.abs(b.P2.values - p2_direct)[interior]) / np.max(np.abs(b.P2.values))
        assert rel2 <= 2e-2


SMALL = make_grid(64, 64, 20, 20)


class TestBuildState:
    def test_tagged_phi_not_rechecked(self, rand_field, monkeypatch):
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=5, amplitude=1e-3)
        calls = []
        check = grid_mod._symmetry_defect
        monkeypatch.setattr(
            grid_mod, "_symmetry_defect", lambda *a: calls.append(a) or check(*a)
        )
        st = ReductionState(0.1, SMALL, phi=phi)
        assert calls == []
        assert st.g1.symmetry is Symmetry.ODD_X_EVEN_Y

    def test_wrong_class_phi_rejected(self, rand_field):
        for sym in (s for s in Symmetry if s is not Symmetry.ODD_X_EVEN_Y):
            bad = rand_field(SMALL, sym, seed=5, amplitude=1e-3)
            with pytest.raises(SymmetryViolation, match="phi"):
                ReductionState(0.1, SMALL, phi=bad)

    def test_phi_on_other_grid_rejected(self, rand_field):
        phi = rand_field(GRID, Symmetry.ODD_X_EVEN_Y, seed=5, amplitude=1e-3)
        with pytest.raises(GridMismatch):
            ReductionState(0.1, SMALL, phi=phi)


class TestDerivativeTable:
    def test_g1_orders_memoized_and_read_only(self, rand_field):
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=4, amplitude=1e-3)
        d = ReductionState(0.1, SMALL, phi=phi)
        g1_x = d.g1_d(1, 0)
        assert d.g1_d(1, 0) is g1_x
        assert not g1_x.flags.writeable
        assert np.array_equal(g1_x, d.q_d(1, 0) + derivative(phi, 1, 0).data)

    def test_lump_work_independent_of_iterations(self, monkeypatch):
        # the lump derivatives sampled on the grid and on the quarter lines
        # of the x-refined transport grid (sample_lump, Gamma_q, the
        # transport lump data) depend on (eps, grid) only: a longer outer
        # iteration samples none more
        calls = []
        sample = lump_mod.lump_derivative
        lines = (SMALL.ny // 2 + 1, red_mod.F2_REFINE * SMALL.nx // 2 + 1)
        quarter = (SMALL.nx // 2 + 1, 1)  # the x column of the grid's quarter box

        def counted(p, m, n, x, y):
            if np.shape(x) in ((SMALL.nx, SMALL.ny), quarter, lines):
                calls.append((m, n))
            return sample(p, m, n, x, y)

        monkeypatch.setattr(lump_mod, "lump_derivative", counted)
        monkeypatch.setattr(red_mod, "lump_derivative", counted)
        per_run = {}
        for tol in (1e-3, 1e-9):
            sample_lump.cache_clear()
            gamma_q_field.cache_clear()
            red_mod._gamma_q_antiderivative.cache_clear()
            red_mod._transport_lump.cache_clear()
            calls.clear()
            _, _, rep = outer_fixed_point(0.1, SMALL, tol=tol)
            per_run[rep.iterations] = len(calls)
        assert len(per_run) == 2
        assert len(set(per_run.values())) == 1

    def test_phi_derivatives_taken_once(self, rand_field, monkeypatch):
        # phi's orders come from one table: phi is transformed forward once
        # and each order it is asked for is built once; f2 is transformed
        # forward once too
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=2, amplitude=1e-3)
        st = ReductionState(0.1, SMALL, phi=phi)
        taken, forward, transformed_fields = [], [], []
        order, spectrum = grid_mod._derivative, grid_mod._spectrum

        def counted(f, spec, m, n):
            if f is st.phi:
                taken.append((m, n))
            return order(f, spec, m, n)

        def transformed(f):
            if f is st.phi:
                forward.append(1)
            transformed_fields.append(f)
            return spectrum(f)

        monkeypatch.setattr(grid_mod, "_derivative", counted)
        monkeypatch.setattr(grid_mod, "_spectrum", transformed)
        f2 = solve_f2(st)
        assemble_rhs(st, f2)
        assert taken
        assert len(taken) == len(set(taken))
        assert len(forward) == 1
        assert sum(f is f2 for f in transformed_fields) == 1

    def test_gamma_q_antiderivative_once(self, rand_field, monkeypatch):
        # dx^-1 Gamma_q depends on (eps, grid) only: after the first step
        # assemble_rhs antidifferentiates P3 alone
        antiderivative = red_mod.antiderivative_x
        taken = []
        monkeypatch.setattr(
            red_mod, "antiderivative_x", lambda f: taken.append(1) or antiderivative(f)
        )
        red_mod._gamma_q_antiderivative.cache_clear()
        for seed in (2, 3):
            phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=seed, amplitude=1e-3)
            st = ReductionState(0.1, SMALL, phi=phi)
            taken.clear()
            assemble_rhs(st, solve_f2(st))
        assert len(taken) == 1

    def test_dropped_state_freed_without_gc(self, rand_field):
        # the table must not refer back to its state: a cycle would keep
        # every outer step's state alive until the cycle collector runs
        phi = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=2, amplitude=1e-3)
        st = ReductionState(0.1, SMALL, phi=phi)
        assemble_rhs(st, solve_f2(st))
        ref = weakref.ref(st)
        gc.disable()
        try:
            del st
            assert ref() is None
        finally:
            gc.enable()


class TestOuterFixedPoint:
    def test_warm_starts_save_work(self, monkeypatch):
        # the transport Picard starts from the previous fine f2 and MINRES
        # from the previous phi; starting both from zero takes more of each
        # and the same outer iterations
        _, _, warm = outer_fixed_point(0.1, SMALL)
        build, solve = red_mod.ReductionState, red_mod.solve_linearized
        monkeypatch.setattr(
            red_mod, "ReductionState", lambda *a, f2_start=None, **k: build(*a, **k)
        )
        monkeypatch.setattr(
            red_mod, "solve_linearized", lambda *a, x0=None, **k: solve(*a, **k)
        )
        _, _, cold = outer_fixed_point(0.1, SMALL)
        assert warm.iterations == cold.iterations
        assert len(warm.picard_passes) == warm.iterations + 1
        assert len(warm.minres_iterations) == warm.iterations
        assert sum(warm.picard_passes) < sum(cold.picard_passes)
        assert sum(warm.minres_iterations) < sum(cold.minres_iterations)

    def test_dq_dealiased_once_per_operator(self, monkeypatch):
        # T dq is a property of the operator: every linear solve of a
        # construction, and its verdict, reads the one truncation
        make, dealias = red_mod.make_linearized_operator, lin_mod.dealias
        ops, truncated = [], []

        def made(*a, **k):
            ops.append(make(*a, **k))
            return ops[-1]

        def counted(f):
            truncated.extend(op for op in ops if f is op.dq)
            return dealias(f)

        monkeypatch.setattr(red_mod, "make_linearized_operator", made)
        monkeypatch.setattr(lin_mod, "dealias", counted)
        _, _, rep = outer_fixed_point(0.1, SMALL)
        assert rep.iterations > 1
        assert len(ops) == 1
        assert len(truncated) == 1 and truncated[0] is ops[0]

    def test_verdict_holds_in_the_field_residual(self, monkeypatch):
        # every linear solve of a construction meets its tol in the relative
        # residual of the field-space operator, not only of the coefficient
        # operator it takes its verdict from
        solve = red_mod.solve_linearized
        solves = []

        def checked(*a, **k):
            bound = inspect.signature(solve).bind(*a, **k)
            bound.apply_defaults()
            phi, n = solve(*a, **k)
            solves.append((bound.arguments, phi))
            return phi, n

        monkeypatch.setattr(red_mod, "solve_linearized", checked)
        _, _, rep = outer_fixed_point(0.1, SMALL)
        assert len(solves) == rep.iterations > 1
        for args, phi in solves:
            rhs = derivative(args["h1"], 1, 0) + derivative(args["h2"], 0, 1)
            res = l2_norm(apply_linearized(args["op"], phi) - rhs)
            assert res <= args["tol"] * (1 + 1e-9) * l2_norm(rhs)

    def test_non_contracting_map_stops_early(self, rand_field, monkeypatch):
        # a linear solve whose updates double each step: NotConverged once
        # two consecutive update ratios reach 1, not after max_iter steps
        base = rand_field(SMALL, Symmetry.ODD_X_EVEN_Y, seed=7, amplitude=1e-8)
        calls = []

        def doubling(*a, **k):
            calls.append(1)
            return base.scaled(2.0 ** len(calls)), 0

        monkeypatch.setattr(red_mod, "solve_linearized", doubling)
        with pytest.raises(NotConverged, match="does not contract"):
            outer_fixed_point(0.1, SMALL, max_iter=200)
        assert len(calls) == 3

    def test_eps_zero_trivial(self):
        g = make_grid(64, 64, 20, 20)
        state, f2, rep = outer_fixed_point(0.0, g)
        assert rep.iterations == 1
        assert norm_suite(state.phi, 0.0).star == 0.0
        assert np.max(np.abs(state.phi.values)) == 0.0
        assert f2 is not None

    def test_eps_guard(self):
        g = make_grid(64, 64, 20, 20)
        with pytest.raises(ValueError):
            outer_fixed_point(0.35, g)

    def test_converges_and_contracts(self):
        g = make_grid(128, 128, 30, 30)
        state, _, rep = outer_fixed_point(0.2, g, tol=1e-8)
        assert all(r < 1.0 for r in rep.contraction_ratios)
        assert norm_suite(state.phi, 0.2).star > 0
        # updates decay monotonically after the first step
        ups = rep.update_star_norms
        assert all(ups[i + 1] < ups[i] for i in range(1, len(ups) - 1))
