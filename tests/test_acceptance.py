"""
Acceptance criteria, one test per criterion, each printing a PASS line.

The construction sweep (criteria 9 and 10) runs once per session on the
default 512^2 box; everything downstream reuses it.  Run with
``pytest -m acceptance -v -s`` to see the per-criterion lines.
"""

import math
from functools import partial

import numpy as np
import pytest

from transonic.grid import Symmetry, derivative, make_grid, weighted_sup, zeros
from transonic.gp import gp_system_residual
from transonic.kernel import (
    KernelSymbolParams,
    decay_scan,
    kernel_residue_eval,
)
from transonic.linearized import (
    eigen_extremes,
    _transport_norms,
    make_linearized_operator,
    star_norm_proxy,
)
from transonic.lump import LumpParams, kpi_residual, linearized_kernel_residuals
from transonic.reduction import ReductionState, outer_fixed_point, solve_f2, transport_residual

from reference import _roots_ab, dispersion_roots, kernel_fourier_eval

pytestmark = pytest.mark.acceptance

DEFAULT = dict(n=512, L=40.0)
EPS_SWEEP = (0.05, 0.1, 0.2)


def _grid(n=None, L=None):
    n = n or DEFAULT["n"]
    L = L or DEFAULT["L"]
    return make_grid(n, n, L, L)


@pytest.fixture(scope="session")
def sweep512():
    out = {}
    g = _grid()
    for eps in EPS_SWEEP:
        state, f2, report = outer_fixed_point(eps, g, tol=1e-8)
        gp = gp_system_residual(state, f2)
        out[eps] = (state, f2, report, gp)
    return out


@pytest.fixture(scope="session")
def state256():
    state, f2, _ = outer_fixed_point(0.1, _grid(n=256), tol=1e-8)
    return state, f2


def test_01_lump_exactness():
    g = _grid()
    worst = 0.0
    for eps in (0.0, 0.05, 0.1, 0.2):
        r = kpi_residual(LumpParams.from_epsilon(eps), g)
        worst = max(worst, float(np.max(np.abs(r.values))))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 01 lump exactness: PASS (worst residual {worst:.2e})")


def test_02_kernel_factorization_and_roots():
    worst = 0.0
    for eps in (0.1, 0.2):
        dr = dispersion_roots(eps)
        p = dr.params
        rng = np.random.default_rng(7)
        xi = rng.uniform(-2 / eps, 2 / eps, 5000)
        a, b, D = _roots_ab(p, xi)
        e4 = eps**4
        worst = max(worst, float(np.max(np.abs(e4 * a * b - (xi**4 + xi**2)) / (xi**4 + xi**2))))
        worst = max(
            worst,
            float(np.max(np.abs(e4 * (a + b) - (1 + eps**2 * xi**2)) / (1 + eps**2 * xi**2))),
        )
        worst = max(worst, float(abs(dr.D(dr.c_eps))))
    dr = dispersion_roots(0.1)
    e2 = 0.01
    exact = (1 - 2 * e2 + 2 * math.sqrt(1 - e2 + e2 * e2)) / (3 * e2)
    worst = max(worst, abs(dr.c_eps**2 - exact) / exact)
    assert worst <= 1e-10
    assert dr.c_eps**2 == pytest.approx(99.0025, abs=5e-3)
    print(f"\nACCEPTANCE 02 factorization/roots: PASS (worst defect {worst:.2e})")


def _seeded_points(rng, combos, count=10):
    """Off-axis points 1 <= r <= 10 whose kernel values are not near a zero
    crossing for any requested (eps, m, n) combination."""
    cands = []
    for _ in range(30):
        r = rng.uniform(1.0, 10.0)
        th = rng.uniform(0.2, math.pi / 2 - 0.2)
        cands.append((r * math.cos(th), r * math.sin(th), r))
    vals = {c: np.array([abs(kernel_residue_eval(p, m, n, x, y)) for (x, y, r) in cands])
            for c, (p, m, n) in combos.items()}
    norm = {c: np.median(vals[c] * np.array([r**2 for (_, _, r) in cands])) for c in combos}
    picked = []
    for i, (x, y, r) in enumerate(cands):
        if all(vals[c][i] * r**2 >= 0.15 * norm[c] for c in combos):
            picked.append((x, y))
        if len(picked) == count:
            break
    assert len(picked) == count
    return picked


def test_03_green_route_equivalence():
    rng = np.random.default_rng(20240810)
    combos = {}
    for eps in (0.1, 0.2):
        p = KernelSymbolParams.normalized(eps)
        combos[(eps, 1, 0)] = (p, 1, 0)
        combos[(eps, 2, 0)] = (p, 2, 0)
    pts = _seeded_points(rng, combos)
    worst2 = 0.0
    for (eps, m, n), (p, _, _) in combos.items():
        x1max = 250.0 if m == 2 else 120.0
        gaps1 = []
        gaps2 = []
        for (x, y) in pts:
            vr = kernel_residue_eval(p, m, n, x, y)
            v1 = kernel_fourier_eval(p, m, n, x, y, refine=1, xi1_max=x1max)
            v2 = kernel_fourier_eval(p, m, n, x, y, refine=2, xi1_max=x1max)
            gaps1.append(abs(v1 - vr) / abs(vr))
            gaps2.append(abs(v2 - vr) / abs(vr))
        worst2 = max(worst2, max(gaps2))
        # doubling the inversion quadrature halves the study's gap or better
        # (rms across points: a single point already at the scheme's rounding
        # floor must not mask the convergence of the rest)
        rms1 = float(np.sqrt(np.mean(np.square(gaps1))))
        rms2 = float(np.sqrt(np.mean(np.square(gaps2))))
        assert rms2 <= 0.5 * rms1, (eps, m, n)
    assert worst2 <= 1e-4
    print(f"\nACCEPTANCE 03 route equivalence: PASS (pointwise gap {worst2:.2e} at refine 2)")


@pytest.fixture(scope="session")
def farfield_scans():
    radii = np.geomspace(10.0, 60.0, 10)
    angles = (0.35, 0.8, 1.2)
    reps = {}
    for eps in (0.1, 0.2):
        p = KernelSymbolParams.normalized(eps)
        for mn in ((1, 0), (2, 0), (1, 1), (0, 2), (1, 2)):
            reps[(eps, mn)] = decay_scan(p, *mn, radii, angles)
    return reps


def test_04_far_field_exponents(farfield_scans):
    for mn in ((2, 0), (1, 1), (0, 2), (1, 2)):
        rep = farfield_scans[(0.2, mn)]
        assert len(rep.fitted_slope_per_ray) >= 3
        assert all(s <= -1.35 for s in rep.fitted_slope_per_ray), mn
    rep10 = farfield_scans[(0.2, (1, 0))]
    assert all(-1.25 <= s <= -0.9 for s in rep10.fitted_slope_per_ray)
    slopes = [f"{s:.2f}" for s in farfield_scans[(0.2, (2, 0))].fitted_slope_per_ray]
    print(f"\nACCEPTANCE 04 far-field exponents: PASS ((2,0) slopes {slopes})")


def test_05_eps_scaling_of_prefactor(farfield_scans):
    ratio = farfield_scans[(0.1, (0, 2))].max_prefactor / farfield_scans[(0.2, (0, 2))].max_prefactor
    target = 2.0**1.5
    assert target / 4.0 <= ratio <= target * 4.0
    print(f"\nACCEPTANCE 05 eps-scaling: PASS (prefactor ratio {ratio:.2f}, envelope {target:.2f} x/4)")


def test_06_morse_index():
    lam = {}
    for eps in (0.0, 0.05, 0.1, 0.2):
        op = make_linearized_operator(eps, _grid())
        res = eigen_extremes(op, k=4)
        assert sum(v < 0.0 for v in res.eigenvalues) == 1
        lam[eps] = res.eigenvalues[0]
    for eps in (0.05, 0.1, 0.2):
        assert abs(lam[eps] - lam[0.0]) <= 0.5 * eps**2 * abs(lam[0.0])
    op_big = make_linearized_operator(0.0, _grid(n=1024))
    res_big = eigen_extremes(op_big, k=2, tol=2e-7)
    rel = abs(res_big.eigenvalues[0] - lam[0.0]) / abs(lam[0.0])
    assert rel <= 5e-4  # three significant digits across resolutions
    assert lam[0.0] == pytest.approx(-6.645, abs=5e-3)  # frozen regression constant
    print(
        f"\nACCEPTANCE 06 Morse index one: PASS "
        f"(lambda1(0) = {lam[0.0]:.5f}, two-resolution rel {rel:.1e})"
    )


def test_07_translational_nondegeneracy():
    g = _grid()
    worst = 0.0
    for eps in (0.0, 0.1, 0.2):
        rx, ry = linearized_kernel_residuals(LumpParams.from_epsilon(eps), g)
        worst = max(worst, float(np.max(np.abs(rx.values))), float(np.max(np.abs(ry.values))))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 07 translational modes annihilated: PASS (sup {worst:.2e})")


def test_08_transport_solver(sweep512, rand_field):
    state, f2, _, _ = sweep512[0.1]
    resid = transport_residual(state, f2)
    assert resid <= 1e-7

    # empirical Lipschitz constant in phi scales no worse than eps^(-3/2)
    lips = {}
    for eps in (0.1, 0.2):
        g = state.grid
        base = ReductionState(eps, g)
        out = []
        for s in (1, 2):
            phi = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=s, kmax=6)
            phi = phi.scaled(2.0 * eps**2 / weighted_sup(phi, 1.0, 0.1))
            st = ReductionState(eps, g, phi=phi)
            out.append((phi, solve_f2(st)))
        (phi_a, f2a), (phi_b, f2b) = out
        # qstar alone: f2 has no zero x-mean, which the suite's phi terms need
        df2 = f2a - f2b
        num = _transport_norms(df2, partial(derivative, df2), eps, 0.1)[0]
        den = star_norm_proxy(phi_a - phi_b, eps, 0.1)
        lips[eps] = num / den
    allowed = 3.0 * (0.1 / 0.2) ** -1.5
    assert lips[0.1] / lips[0.2] <= allowed
    print(
        f"\nACCEPTANCE 08 transport solver: PASS "
        f"(residual {resid:.2e}, Lipschitz ratio {lips[0.1]/lips[0.2]:.2f} <= {allowed:.2f})"
    )


def test_09_outer_contraction(sweep512):
    proxies = {}
    rates = {}
    gaps = {}
    for eps in EPS_SWEEP:
        state, _, report, gp = sweep512[eps]
        proxies[eps] = star_norm_proxy(state.phi, eps, 0.1) / eps**2
        rates[eps] = max(report.contraction_ratios) if report.contraction_ratios else 0.0
        gaps[eps] = gp.theorem_gap
    spread = max(proxies.values()) / min(proxies.values())
    assert spread <= 2.0
    # measured rates must comply with the sqrt(eps) contraction envelope
    # anchored at eps = 0.2 (they undershoot it: the asymptotic rate of the
    # iteration is quadratic in eps, well inside the bound)
    for eps in (0.05, 0.1):
        envelope = 3.0 * rates[0.2] * math.sqrt(eps / 0.2)
        assert rates[eps] <= envelope
    assert max(gaps.values()) <= 5.0
    assert max(gaps.values()) / min(gaps.values()) <= 2.5
    print(
        f"\nACCEPTANCE 09 outer contraction: PASS "
        f"(proxy/eps^2 spread {spread:.2f}, rates {[f'{rates[e]:.3f}' for e in EPS_SWEEP]}, "
        f"gaps {[f'{gaps[e]:.2f}' for e in EPS_SWEEP]})"
    )


def test_10_gp_oracle(sweep512, state256):
    _, _, _, fine = sweep512[0.1]
    coarse = gp_system_residual(*state256)
    f1 = coarse.res1_sup / fine.res1_sup
    f2 = coarse.res2_sup / fine.res2_sup
    assert f1 >= 4.0 and f2 >= 4.0

    state02, _, _, conv = sweep512[0.2]
    bare = ReductionState(0.2, state02.grid)
    ab = gp_system_residual(bare, zeros(state02.grid, Symmetry.EVEN_X_EVEN_Y))
    i1 = ab.res1_sup / conv.res1_sup
    i2 = ab.res2_sup / conv.res2_sup
    assert i1 >= 10.0 and i2 >= 10.0
    print(
        f"\nACCEPTANCE 10 end-to-end oracle: PASS "
        f"(doubling gains {f1:.0f}x/{f2:.0f}x, ablation inflation {i1:.0f}x/{i2:.0f}x)"
    )


def test_11_determinism(tmp_path):
    from transonic.cli import main

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["construct", "--epsilon", "0.2", "--nx", "64", "--ny", "64",
             "--Lx", "20", "--Ly", "20", "--tol", "1e-6", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    for f in ("phi.bin", "f1.bin", "f2.bin", "g1.bin"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    print("\nACCEPTANCE 11 determinism: PASS (field files bit-identical)")
