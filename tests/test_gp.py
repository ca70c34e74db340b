import math
from types import SimpleNamespace

import numpy as np
import pytest

from transonic.errors import SymmetryViolation
from transonic.grid import RealField2D, Symmetry, _unfold, make_grid, zeros
from transonic.gp import (
    ComplexField2D,
    assemble_phi,
    energy,
    farfield_fit,
    gp_system_residual,
)
from transonic.reduction import ReductionState, outer_fixed_point, solve_f2

GRID = make_grid(256, 256, 40, 40)


@pytest.fixture(scope="module")
def converged():
    state, f2, _ = outer_fixed_point(0.1, GRID, tol=1e-8)
    return state, f2


class TestAssemblePhi:
    def test_eps_zero_identity(self):
        st = ReductionState(0.0, GRID)
        f2 = solve_f2(st)
        phi = assemble_phi(st, f2)
        assert np.max(np.abs(phi.re.values - 1.0)) == 0.0
        assert np.max(np.abs(phi.im.values)) == 0.0

    def test_symmetry_guard(self):
        # the even/even tag of Re(Phi) is trusted, so f2 must carry it
        st = ReductionState(0.0, GRID)
        with pytest.raises(SymmetryViolation):
            assemble_phi(st, zeros(GRID, Symmetry.ODD_X_EVEN_Y))

    def test_imaginary_part_odd(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        i, j = GRID.nx // 2, GRID.ny // 2
        assert phi.im.values[i, j] == 0.0

    def test_modulus_tends_to_one(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        mod = np.hypot(phi.re.values, phi.im.values)
        ring = GRID.r >= 0.9 * GRID.Lx
        assert np.max(np.abs(mod[ring] - 1.0)) <= 5.0 / (0.9 * GRID.Lx)


class TestResidualReport:
    def test_report_fields(self, converged):
        state, f2 = converged
        rpt = gp_system_residual(state, f2)
        assert rpt.c == pytest.approx(math.sqrt(2) - 0.01)
        assert rpt.res1_sup > 0 and rpt.res2_sup > 0
        assert rpt.res1_weighted >= rpt.res1_sup
        assert rpt.energy > 0
        assert rpt.theorem_gap < 10

    def test_evaluator_transcription(self, converged):
        # independent inline transcription of the two residual expressions on
        # the same derivative data the evaluator uses
        from transonic.gp import _fd_derivative
        from transonic.lump import SQRT2

        st, f2 = converged

        def g1_d(m, n):
            # the table holds the stored quarter box of each order
            sym = Symmetry.ODD_X_EVEN_Y.differentiated(m, n)
            return _unfold(st.g1_d(m, n), sym.x_parity, sym.y_parity)

        d = SimpleNamespace(g1_d=g1_d)
        f2_x = _fd_derivative(f2.values, GRID.dx, 0, 1)
        f2_xx = _fd_derivative(f2.values, GRID.dx, 0, 2)
        f2_yy = _fd_derivative(f2.values, GRID.dy, 1, 2)
        eps = st.eps
        e2, e4 = eps**2, eps**4
        g1 = d.g1_d(0, 0)
        f1 = 0.5 * SQRT2 * d.g1_d(1, 0) - 0.5 * g1**2
        f1_xx = 0.5 * SQRT2 * d.g1_d(3, 0) - d.g1_d(1, 0) ** 2 - g1 * d.g1_d(2, 0)
        f1_yy = 0.5 * SQRT2 * d.g1_d(1, 2) - d.g1_d(0, 1) ** 2 - g1 * d.g1_d(0, 2)
        f1_x = 0.5 * SQRT2 * d.g1_d(2, 0) - g1 * d.g1_d(1, 0)
        fv = 1.0 + e2 * f1 + e4 * f2.values
        gv = eps * g1
        bulk = fv**2 + gv**2 - 1.0
        r1 = (
            st.c * eps * (eps * d.g1_d(1, 0))
            + e4 * (e2 * f1_yy + e4 * f2_yy)
            + e2 * (e2 * f1_xx + e4 * f2_xx)
            - bulk * fv
        )
        r2 = (
            -st.c * eps * (e2 * f1_x + e4 * f2_x)
            + e4 * (eps * d.g1_d(0, 2))
            + e2 * (eps * d.g1_d(2, 0))
            - bulk * gv
        )
        rpt = gp_system_residual(st, f2)
        m = 8
        win = np.zeros_like(r1, dtype=bool)
        win[m:-m, m:-m] = True
        assert np.max(np.abs(r1)[win]) == pytest.approx(rpt.res1_sup, rel=1e-12)
        assert np.max(np.abs(r2)[win]) == pytest.approx(rpt.res2_sup, rel=1e-12)

    def test_ablation_inflates(self, converged):
        state, f2 = converged
        rpt = gp_system_residual(state, f2)
        bare = ReductionState(state.eps, GRID)
        rpt0 = gp_system_residual(bare, zeros(GRID, Symmetry.EVEN_X_EVEN_Y))
        assert rpt0.res1_sup >= 10 * rpt.res1_sup
        assert rpt0.res2_sup >= 10 * rpt.res2_sup


class TestEnergy:
    def test_constant_zero(self):
        one = RealField2D(GRID, np.ones((GRID.nx, GRID.ny)), Symmetry.EVEN_X_EVEN_Y)
        z = zeros(GRID, Symmetry.EVEN_X_EVEN_Y)
        # the centered stencil's rounding leaves ~1e-28 of gradient energy;
        # the potential term is exactly zero
        assert abs(energy(ComplexField2D(re=one, im=z), 0.1)) <= 1e-18

    def test_grid_inside_edge_margin_rejected(self):
        # the interior window is empty at 16^2: an error, not an energy of 0
        g = make_grid(16, 16, 5, 5)
        re = RealField2D(g, np.full((16, 16), 1.5), Symmetry.EVEN_X_EVEN_Y)
        phi = ComplexField2D(re=re, im=zeros(g, Symmetry.ODD_X_EVEN_Y))
        with pytest.raises(ValueError, match="EDGE_MARGIN"):
            energy(phi, 0.1)

    def test_phase_invariance(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        e0 = energy(phi, state.eps)
        th = 0.7324
        # the rotated parts mix two parity classes, so no RealField2D holds
        # them; energy reads only the grid and the full-grid values
        re = SimpleNamespace(
            values=math.cos(th) * phi.re.values - math.sin(th) * phi.im.values
        )
        im = SimpleNamespace(
            values=math.sin(th) * phi.re.values + math.cos(th) * phi.im.values
        )
        e1 = energy(SimpleNamespace(grid=GRID, re=re, im=im), state.eps)
        assert e1 == pytest.approx(e0, rel=1e-12)

    def test_positive_for_constructed(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        assert energy(phi, state.eps) > 0

    @pytest.mark.slow
    def test_energy_stable_under_domain_doubling(self):
        # fixed spacing, half-widths doubled: the tail of the finite-energy
        # profile contributes a few percent at most
        vals = {}
        for n, L in ((256, 40.0), (512, 80.0)):
            g = make_grid(n, n, L, L)
            state, f2, _ = outer_fixed_point(0.1, g, tol=1e-8)
            vals[L] = energy(assemble_phi(state, f2), 0.1)
        assert abs(vals[80.0] - vals[40.0]) / vals[40.0] <= 0.05

    def test_theorem_gap_first_order_dominates(self):
        # sup|Phi - 1 - i eps q| = eps^2 * gap shrinks as eps -> 0
        sups = {}
        for eps in (0.2, 0.05):
            st = ReductionState(eps, GRID)
            f2 = solve_f2(st)
            rpt = gp_system_residual(st, f2)
            sups[eps] = rpt.theorem_gap * eps**2
        assert sups[0.05] < 0.25 * sups[0.2]


class TestFarField:
    def test_beta_vanishes_by_symmetry(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        alpha, beta, _ = farfield_fit(phi, state.eps)
        assert alpha != 0.0
        assert abs(beta) <= 1e-3 * abs(alpha)

    def test_alpha_matches_lump_dipole(self, converged):
        # the imaginary tail is the lump's dipole: alpha ~ -A/B
        state, f2 = converged
        phi = assemble_phi(state, f2)
        alpha, _, resid = farfield_fit(phi, state.eps)
        p = state.params
        assert alpha == pytest.approx(-p.A / p.B, rel=0.1)
        assert resid <= 0.05

    def test_real_part_subdominant_on_ring(self, converged):
        state, f2 = converged
        phi = assemble_phi(state, f2)
        ring = (GRID.r >= 0.6 * GRID.Lx) & (GRID.r <= 0.9 * GRID.Lx)
        re_tail = np.max(GRID.r[ring] * np.abs(phi.re.values[ring] - 1.0))
        im_tail = np.max(GRID.r[ring] * np.abs(phi.im.values[ring]))
        assert re_tail <= 0.2 * im_tail

    def test_empty_ring_rejected(self, converged):
        state, _ = converged
        g = make_grid(16, 16, 40, 40)
        sub = ReductionState(state.eps, g)
        f2 = solve_f2(sub)
        phi = assemble_phi(sub, f2)
        # the 16-point grid still has ring nodes; shrink the box instead
        small = make_grid(16, 16, 0.5, 0.5)
        tiny = ReductionState(state.eps, small)
        f2t = solve_f2(tiny)
        phit = assemble_phi(tiny, f2t)
        alpha, beta, resid = farfield_fit(phit, state.eps)
        assert np.isfinite(alpha)
