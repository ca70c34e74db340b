import collections
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

import transonic.kernel as K
from transonic.errors import QuadratureNotConverged
from transonic.grid import Symmetry, make_grid
from transonic.kernel import (
    ALLOWED_ORDERS,
    FAR_FIELD_SLOPE,
    KernelSymbolParams,
    decay_scan,
    integral_scan,
    kernel_fft,
    kernel_residue_eval,
    symbol_eval,
)

from reference import _roots_ab, dispersion_roots, kernel_fourier_eval


def _array_profile(p, m, n, xi, y):
    """Re xi^m S_n(xi, y) evaluated on an array from ``_roots_ab``, with the
    rounding scale of the difference of the two root terms: their magnitudes
    before cancellation, times the conditioning 1 + |sqrt(root)| y of the
    exponentials."""
    xi = np.asarray(xi, dtype=float)
    a, b, droot = _roots_ab(p, xi)
    a, b = a.astype(np.complex128), b.astype(np.complex128)
    ra, rb = np.sqrt(a), np.sqrt(b)
    pw = 0.5 * (n - 1)
    ta = a**pw * np.exp(-ra * y)
    tb = b**pw * np.exp(-rb * y)
    vals = np.real(xi**m * (ta - tb) / droot)
    scale = np.abs(xi**m) * (np.abs(ta) + np.abs(tb)) * (1.0 + (np.abs(ra) + np.abs(rb)) * y)
    return vals, scale / np.abs(droot)


class TestSymbol:
    def test_origin(self):
        p = KernelSymbolParams.normalized(0.2)
        assert symbol_eval(p, 0.0, 0.0) == 0.0

    def test_unit_point(self):
        p = KernelSymbolParams.normalized(0.3)
        assert symbol_eval(p, 1.0, 0.0) == pytest.approx(2.0)

    def test_gp_preset_coefficients(self):
        p = KernelSymbolParams.gp(0.1)
        # xi1^4 + (2 sqrt2 - e^2) xi1^2 + 2 xi2^2 + 2 e^2 xi1^2 xi2^2 + e^4 xi2^4
        val = symbol_eval(p, 1.3, 0.7)
        e2 = 0.01
        expect = (
            1.3**4
            + (2 * math.sqrt(2) - e2) * 1.3**2
            + 2 * 0.7**2
            + 2 * e2 * 1.3**2 * 0.7**2
            + e2**2 * 0.7**4
        )
        assert val == pytest.approx(expect, rel=1e-14)

    def test_factorization_random_sample(self):
        for eps in (0.1, 0.2, 0.5):
            p = KernelSymbolParams.normalized(eps)
            rng = np.random.default_rng(1)
            x1 = rng.uniform(-3 / eps, 3 / eps, 10_000)
            x2 = rng.uniform(-3 / eps, 3 / eps, 10_000)
            a, b, _ = _roots_ab(p, x1)
            fact = eps**4 * (x2**2 + a) * (x2**2 + b)
            direct = symbol_eval(p, x1, x2)
            assert np.max(np.abs(fact.real - direct) / np.abs(direct)) <= 1e-11
            assert np.max(np.abs(fact.imag)) <= 1e-11 * np.max(direct)

    def test_coefficient_guard(self):
        with pytest.raises(ValueError):
            KernelSymbolParams(0.1, 1.0, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            KernelSymbolParams.normalized(0.6)


class TestDispersionRoots:
    def test_branch_point_value(self):
        dr = dispersion_roots(0.1)
        e2 = 0.01
        expect = (1 - 2 * e2 + 2 * math.sqrt(1 - e2 + e2 * e2)) / (3 * e2)
        assert dr.c_eps**2 == pytest.approx(expect, rel=1e-14)
        assert dr.c_eps**2 == pytest.approx(99.0025, abs=3e-3)
        assert abs(dr.c_eps**2 - (1 / e2 - 1)) == pytest.approx(0.0025, abs=1e-4)

    def test_root_identities(self):
        for eps in (0.1, 0.2, 0.4):
            dr = dispersion_roots(eps)
            p = dr.params
            rng = np.random.default_rng(2)
            xi = rng.uniform(-3 / eps, 3 / eps, 10_000)
            a, b, D = _roots_ab(p, xi)
            e4 = eps**4
            assert np.max(np.abs(e4 * a * b - (xi**4 + xi**2)) / (xi**4 + xi**2)) <= 1e-11
            assert np.max(np.abs(e4 * (a + b) - (1 + eps**2 * xi**2)) / (1 + eps**2 * xi**2)) <= 1e-11
            rhs = (1 + eps**2 * xi**2) ** 2 - 4 * e4 * (xi**2 + xi**4)
            assert np.max(np.abs(D**2 - rhs) / (np.abs(rhs) + 1e-30)) <= 1e-9

    def test_root_is_root(self):
        dr = dispersion_roots(0.2)
        assert abs(dr.D(dr.c_eps)) <= 1e-10
        inside = np.linspace(-0.99 * dr.c_eps, 0.99 * dr.c_eps, 101)
        assert np.all(np.real(dr.D(inside)) > 0)
        assert np.max(np.abs(np.imag(dr.D(inside)))) == 0.0

    def test_eps_guard(self):
        with pytest.raises(ValueError):
            dispersion_roots(0.0)


class TestKernelFft:
    @pytest.mark.parametrize("preset", ["normalized", "gp"])
    @pytest.mark.parametrize("m, n", sorted(ALLOWED_ORDERS))
    def test_discrete_delta(self, preset, m, n):
        # the kernel derivative is the symbol ratio, pole zeroed, applied to
        # the grid delta at the x = y = 0 node: here by full-grid numpy FFTs
        p = getattr(KernelSymbolParams, preset)(0.2)
        g = make_grid(64, 64, 10, 10)
        fld = kernel_fft(p, g, m, n)
        kx = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.dx)
        ky = 2 * np.pi * np.fft.fftfreq(g.ny, d=g.dy)
        KX, KY = np.meshgrid(kx, ky, indexing="ij")
        numer = (1j * KX) ** m * (1j * KY) ** n
        # odd orders drop the Nyquist row (column) so that real data stay real
        numer[g.nx // 2] *= m % 2 == 0
        numer[:, g.ny // 2] *= n % 2 == 0
        denom = symbol_eval(p, KX, KY)
        denom[0, 0] = np.inf
        delta = np.zeros((g.nx, g.ny))
        delta[g.nx // 2, g.ny // 2] = 1 / (g.dx * g.dy)
        expect = np.fft.ifft2(np.fft.fft2(delta) * numer / denom)
        scale = np.max(np.abs(expect.real))
        assert np.max(np.abs(expect.imag)) <= 1e-10 * scale
        assert np.max(np.abs(fld.values - expect.real)) <= 1e-10 * scale
        assert fld.symmetry is Symmetry.from_parities((-1) ** m, (-1) ** n)

    def test_parity_tags(self):
        p = KernelSymbolParams.normalized(0.2)
        g = make_grid(64, 64, 10, 10)
        assert kernel_fft(p, g, 1, 0).symmetry is Symmetry.ODD_X_EVEN_Y
        assert kernel_fft(p, g, 1, 1).symmetry is Symmetry.ODD_X_ODD_Y
        assert kernel_fft(p, g, 0, 2).symmetry is Symmetry.EVEN_X_EVEN_Y

    def test_unsupported_order(self):
        p = KernelSymbolParams.normalized(0.2)
        g = make_grid(32, 32, 5, 5)
        with pytest.raises(ValueError):
            kernel_fft(p, g, 2, 2)


class TestResidueRoute:
    def test_parity_relations(self):
        p = KernelSymbolParams.normalized(0.2)
        v = kernel_residue_eval(p, 2, 0, 3.0, 2.0)
        assert kernel_residue_eval(p, 2, 0, -3.0, 2.0) == pytest.approx(v, rel=1e-12)
        w = kernel_residue_eval(p, 1, 0, 3.0, 2.0)
        assert kernel_residue_eval(p, 1, 0, -3.0, 2.0) == pytest.approx(-w, rel=1e-12)

    def test_odd_y_orders_vanish_on_axis(self):
        p = KernelSymbolParams.normalized(0.2)
        for mn in ((0, 1), (1, 1), (0, 3)):
            assert kernel_residue_eval(p, *mn, 3.0, 0.0) == 0.0

    def test_origin_rejected(self):
        p = KernelSymbolParams.normalized(0.2)
        with pytest.raises(ValueError):
            kernel_residue_eval(p, 1, 0, 0.0, 0.0)

    def test_axis_first_derivative_bounded(self):
        # r |K_(1,0)| stays bounded along the axis
        p = KernelSymbolParams.normalized(0.2)
        vals = [x * kernel_residue_eval(p, 1, 0, x, 0.0) for x in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0)]
        assert max(abs(v) for v in vals) <= 0.5
        assert abs(vals[-1] - vals[-2]) <= 0.05 * abs(vals[-1])

    @pytest.mark.parametrize("mn,xy", [((1, 0), (3.0, 2.0)), ((2, 0), (2.0, 1.0)), ((1, 0), (5.0, 0.0))])
    def test_cross_route_agreement(self, mn, xy):
        m, n = mn
        p = KernelSymbolParams.normalized(0.2)
        vr = kernel_residue_eval(p, m, n, *xy)
        x1max = 500.0 if m == 2 else 150.0
        vf = kernel_fourier_eval(p, m, n, *xy, refine=2, xi1_max=x1max)
        assert vf == pytest.approx(vr, rel=2e-4)

    def test_gp_preset_supported(self):
        p = KernelSymbolParams.gp(0.2)
        v = kernel_residue_eval(p, 1, 0, 3.0, 2.0)
        vf = kernel_fourier_eval(p, 1, 0, 3.0, 2.0, refine=2, xi1_max=150.0)
        assert vf == pytest.approx(v, rel=2e-4)

    @pytest.mark.slow
    def test_brute_force_2d_quadrature(self):
        # nested adaptive quadrature of the plane integral, fully independent
        # of both production routes
        from scipy import integrate

        p = KernelSymbolParams.normalized(0.2)
        x, y = 0.3125, 1.796875

        def inner(xi1):
            f = lambda xi2: xi1 * xi2 / symbol_eval(p, xi1, xi2)
            v1, _ = integrate.quad(f, 0, 200, weight="sin", wvar=y, limit=2000)
            v2, _ = integrate.quad(f, 200, np.inf, weight="sin", wvar=y, limit=2000)
            return v1 + v2

        pts = np.concatenate([np.linspace(1e-6, 50, 4001), np.linspace(50, 400, 1401)[1:]])
        vals = np.array([inner(t) for t in pts])
        brute = integrate.trapezoid(vals * np.sin(x * pts), pts) / np.pi**2
        vr = kernel_residue_eval(p, 1, 1, x, y)
        assert brute == pytest.approx(vr, rel=1e-6)


class TestScalarRoute:
    """The QUADPACK callbacks evaluate the reduced profile one float at a
    time in real arithmetic; ``_roots_ab`` is the array form."""

    @pytest.mark.parametrize("preset", ["normalized", "gp"])
    def test_profile_matches_array_form(self, preset):
        p = getattr(KernelSymbolParams, preset)(0.2)
        c = K._scale_xi(p)  # gp: no branch point, 1/eps
        xis = np.concatenate([
            np.linspace(0.0, 0.5 * c, 9)[1:],
            [c * (1.0 - 1e-8), c * (1.0 + 1e-8)],
            np.geomspace(2.0 * c, 2e5, 12),
        ])
        for m, n in FAR_FIELD_SLOPE:
            for y in (0.0, 1e-3, 0.05, 2.0):
                f = K._integrand(p, m, n, y)
                got = np.array([f(float(t)) for t in xis])
                ref, scale = _array_profile(p, m, n, xis, y)
                assert np.all(np.abs(got - ref) <= 1e-13 * scale + 1e-300), (m, n, y)

    @pytest.mark.parametrize("preset", ["normalized", "gp"])
    def test_profile_matches_50_digit_reference(self, preset):
        # S_n from the complex roots in 50-digit arithmetic, where the
        # difference of the two root terms costs nothing
        mp = pytest.importorskip("mpmath")
        p = getattr(KernelSymbolParams, preset)(0.2)
        c = K._scale_xi(p)
        xis = np.concatenate([
            np.linspace(0.1 * c, 0.5 * c, 9),
            [c * (1.0 - 1e-8), c * (1.0 + 1e-8)],
            np.geomspace(2.0 * c, 2e5, 12),
        ])
        with mp.workdps(50):
            big_e = mp.mpf(p.d4) * mp.mpf(p.eps) ** 4
            for m, n in FAR_FIELD_SLOPE:
                for y in (0.0, 1e-3, 0.05, 2.0):
                    f = K._integrand(p, m, n, y)
                    for xi in map(float, xis):
                        s = mp.mpf(xi) ** 2
                        lin = p.b2 + p.g * mp.mpf(p.eps) ** 2 * s
                        droot = mp.sqrt(mp.mpc(lin**2 - 4 * big_e * (p.a4 * s**2 + p.a2 * s)))
                        ra = mp.sqrt((lin - droot) / (2 * big_e))
                        rb = mp.sqrt((lin + droot) / (2 * big_e))
                        num = ra ** (n - 1) * mp.exp(-ra * y) - rb ** (n - 1) * mp.exp(-rb * y)
                        ref = float(mp.re(mp.mpf(xi) ** m * num / droot))
                        assert abs(f(xi) - ref) <= 1e-12 * abs(ref) + 1e-300, (m, n, y, xi)

    @pytest.mark.parametrize("mn", [(3, 0), (1, 2)])
    def test_gp_axis_quadrature_quiet(self, mn):
        # on the gp axis the m + n = 3 integrands tend to a constant, so
        # rounding noise in S_n trips QUADPACK's roundoff detection
        p = KernelSymbolParams.gp(0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1.0, 2.0, 5.0):
                kernel_residue_eval(p, *mn, x, 0.0)

    def test_tight_tolerance_still_raises(self, monkeypatch):
        p = KernelSymbolParams.normalized(0.2)
        monkeypatch.setattr(K, "QUAD_TOL", 1e-16)
        with pytest.raises(QuadratureNotConverged):
            kernel_residue_eval(p, 1, 0, 5.0, 0.0)

    def test_branch_point_matches_dispersion_roots(self):
        for eps in (0.1, 0.2, 0.5):
            p = KernelSymbolParams.normalized(eps)
            assert K.branch_point(p) == pytest.approx(dispersion_roots(eps).c_eps, rel=1e-14)
        assert K.branch_point(KernelSymbolParams.gp(0.2)) is None

    @pytest.mark.parametrize(
        "p",
        [
            KernelSymbolParams.normalized(0.2),  # A2 < 0
            KernelSymbolParams(0.2, 1, 1, 0.01, 2, 1),  # A2 = 0, A1 < 0
            KernelSymbolParams.gp(0.2),  # A2 = 0, A1 >= 0
            KernelSymbolParams(0.2, 1, 1, 0.01, 3, 1),  # A2 > 0, two positive roots
            KernelSymbolParams(0.2, 1, 1, 0.02, 3, 1),  # A2 > 0, complex roots
            KernelSymbolParams(0.2, 1, 1, 1, 3, 1),  # A2 > 0, two negative roots
        ],
    )
    def test_branch_point_is_smallest_positive_root(self, p):
        roots = np.roots(K._discriminant_coeffs(p))
        pos = sorted(r.real for r in roots if r.imag == 0.0 and r.real > 0.0)
        if pos:
            assert K.branch_point(p) == pytest.approx(math.sqrt(pos[0]), rel=1e-14)
        else:
            assert K.branch_point(p) is None


class TestScans:
    def test_far_field_slopes(self):
        p = KernelSymbolParams.normalized(0.2)
        radii = np.geomspace(10, 60, 10)
        rep = decay_scan(p, 2, 0, radii, (0.35, 0.8, 1.2))
        assert rep.bound_slope == FAR_FIELD_SLOPE[(2, 0)]
        assert all(s <= -1.35 for s in rep.fitted_slope_per_ray)
        rep10 = decay_scan(p, 1, 0, radii, (0.35, 0.8, 1.2))
        assert all(-1.25 <= s <= -0.9 for s in rep10.fitted_slope_per_ray)

    def test_near_origin_mode(self):
        p = KernelSymbolParams.normalized(0.2)
        radii = np.geomspace(1e-3, 0.5, 8)
        rep = decay_scan(p, 1, 0, radii, (0.6,))
        # r|K_(1,0)| <= C near the origin: slope no steeper than -1 (modulo fit noise)
        assert rep.fitted_slope_per_ray[0] >= -1.1

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 1)])
    def test_odd_n_ray_on_the_x_axis_is_nan(self, m, n):
        # K_mn is odd in y for odd n, so every value on the ray at angle 0 is
        # exactly 0: no radius is kept, and that ray reports no slope
        p = KernelSymbolParams.normalized(0.2)
        radii = np.geomspace(2.0, 8.0, 4)
        assert all(kernel_residue_eval(p, m, n, r, 0.0) == 0.0 for r in radii)
        rep = decay_scan(p, m, n, radii, (0.0, 0.8))
        assert math.isnan(rep.fitted_slope_per_ray[0])
        assert math.isfinite(rep.fitted_slope_per_ray[1])
        assert math.isfinite(rep.max_prefactor)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_integral_scan_needs_a_positive_radius(self, r):
        with pytest.raises(ValueError, match="r must be positive"):
            integral_scan(KernelSymbolParams.normalized(0.2), 1, 0, r)

    @pytest.mark.slow
    def test_integral_scan_bounded(self, monkeypatch):
        p = KernelSymbolParams.normalized(0.2)
        vals = {r: integral_scan(p, 1, 0, r) for r in (1.0, 2.0, 4.0, 8.0)}
        ratios = [vals[r] / r for r in (1.0, 2.0, 4.0, 8.0)]
        # value/r bounded: growth per doubling stays modest and shrinking
        assert ratios[3] / ratios[2] <= 1.5
        assert ratios[3] / ratios[2] <= ratios[2] / ratios[1] + 0.05
        # a cap of 10 shells: these radii settle within 9 shells
        monkeypatch.setattr(K, "SCAN_MAX_SHELLS", 10)
        small = [integral_scan(p, 1, 0, r) for r in (0.25, 0.5, 1.0)]
        assert small[0] <= small[1] <= small[2]

    @pytest.mark.slow
    def test_integral_scan_mixed_order(self):
        p = KernelSymbolParams.normalized(0.2)
        vals = {r: integral_scan(p, 1, 1, r) for r in (1.0, 2.0, 4.0, 8.0)}
        ratios = [vals[r] / math.sqrt(r) for r in (1.0, 2.0, 4.0, 8.0)]
        assert max(ratios) <= 2.0 * ratios[0]
        assert ratios[3] <= 1.1 * ratios[2]

    @pytest.mark.parametrize("m, n, expect", [(3, 0, 0.4382197515), (0, 3, 23.49686814)])
    def test_integral_scan_gp_third_order(self, m, n, expect):
        # the deep shells reach small y, whose tails must run to the decay
        # cutoff: the values are those of a tail cap of 2e8
        assert integral_scan(KernelSymbolParams.gp(0.2), m, n, 1.0) == pytest.approx(expect, rel=1e-8)


class TestNodeTable:
    """One scan computes the row of each quadrature node once and shares it
    across points; the values are those of a fresh evaluation."""

    @pytest.mark.parametrize("preset", ["normalized", "gp"])
    def test_shared_table_matches_fresh(self, preset):
        p = getattr(KernelSymbolParams, preset)(0.2)
        for m, n in FAR_FIELD_SLOPE:
            nodes = functools.cache(K._row_builder(p, m, n))
            for x, y in ((0.4, 0.05), (2.0, 1e-3), (5.0, 0.0)):
                kernel_residue_eval(p, m, n, x, y, nodes=nodes)
            assert nodes.cache_info().currsize
            for x, y in ((3.0, 0.0), (1.5, 0.7), (0.3, 2.0)):
                shared = kernel_residue_eval(p, m, n, x, y, nodes=nodes)
                assert shared == kernel_residue_eval(p, m, n, x, y), (preset, m, n, x, y)

    def test_integral_scan_computes_roots_once_per_node(self, monkeypatch):
        calls = collections.Counter()
        rows = K._row_builder

        def counting(p, m, n):
            inner = rows(p, m, n)

            def f(xi):
                calls[xi] += 1
                return inner(xi)

            return f

        monkeypatch.setattr(K, "_row_builder", counting)
        monkeypatch.setattr(K, "SCAN_THETA_NODES", 4)
        monkeypatch.setattr(K, "SCAN_SHELL_NODES", 2)
        # r = 0.05 is below the spline switch, so every point is a residue
        # evaluation, all of one scan
        integral_scan(KernelSymbolParams.normalized(0.2), 1, 1, 0.05)
        assert len(calls) > 1000
        assert max(calls.values()) == 1


class TestShellRule:
    """The ball scan extrapolates its origin tail geometrically and stops
    once the estimate settles."""

    def test_geometric_series_summed_exactly(self):
        c, q = 2.0, 0.3
        terms = (c * q**k for k in itertools.count())
        assert K._extrapolated_sum(terms, 20) == pytest.approx(c / (1.0 - q), rel=4e-16)
        # three terms: two ratios give two equal estimates
        assert next(terms) == pytest.approx(c * q**3, rel=1e-15)

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_ratio_at_or_above_one_raises(self, q):
        with pytest.raises(QuadratureNotConverged, match="did not settle"):
            K._extrapolated_sum((q**k for k in itertools.count()), 20)

    def test_cap_reached_raises(self):
        with pytest.raises(QuadratureNotConverged, match="within 5 shells"):
            K._extrapolated_sum((1.0 / (k + 1) ** 2 for k in itertools.count()), 5)

    @pytest.mark.slow
    def test_large_ball_accounts_for_its_tail(self):
        # sixteen shells leave out about 1e-8 of the value
        p = KernelSymbolParams.normalized(0.2)
        full = math.fsum(itertools.islice(K._ball_shells(p, 1, 1, 8.0), 16))
        assert integral_scan(p, 1, 1, 8.0) == pytest.approx(full, rel=1e-7)
