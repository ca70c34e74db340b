import importlib
import math
import pkgutil
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft as sfft

import transonic
import transonic.grid as grid_module
from transonic.cli import main
from transonic.errors import GridMismatch, NonZeroMean, SymmetryViolation
from transonic.grid import (
    ZERO_MEAN_TOL,
    RealField2D,
    Symmetry,
    _ik_power,
    _project_parity,
    _symmetry_defect,
    antiderivative_x,
    dealias,
    derivative,
    l2_norm,
    make_grid,
    spectral_table,
    weighted_sup,
    zeros,
)
from transonic.io import read_field, write_field
from transonic.linearized import (
    DELTA_DEFAULT,
    STAR_PROXY_EXCLUDED,
    _constant_symbol,
    _star_terms,
    make_linearized_operator,
    star_norm_proxy,
)
from transonic.lump import LumpParams, lump_derivative, sample_lump

from reference import apply_L, constant, coordinates, product_dealiased


class TestMakeGrid:
    def test_default_spacing(self):
        g = make_grid(256, 256, 40, 40)
        assert g.dx == pytest.approx(0.3125)

    def test_smallest_legal(self):
        g = make_grid(16, 16, 1, 1)
        assert g.nx == 16 and g.Ly == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(100, 64, 40, 40)

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(ValueError):
            make_grid(64, 64, 0.0, 40)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_rejects_nonfinite_halfwidth(self, L):
        with pytest.raises(ValueError, match="finite"):
            make_grid(64, 64, L, 40)
        with pytest.raises(ValueError, match="finite"):
            make_grid(64, 64, 40, L)

    def test_points_and_wavenumbers(self):
        g = make_grid(32, 32, 5, 5)
        assert g.x[0] == -5.0
        assert g.x[1] - g.x[0] == pytest.approx(2 * 5 / 32)
        assert g.kx[1] == pytest.approx(math.pi / 5)

    def test_quarter_box_layout(self):
        # the wavenumbers k = 0..n/2 and the mask index the stored quarter's
        # spectrum; the Nyquist entry is the last and positive
        g = make_grid(64, 32, 9, 5)
        assert g.kx.shape == (g.nx // 2 + 1,) and g.ky.shape == (g.ny // 2 + 1,)
        assert g.kx[-1] == pytest.approx(math.pi * g.nx / (2 * g.Lx), rel=1e-15)
        assert g.kx[-1] > 0
        assert g.dealias_mask.shape == (g.nx // 2 + 1, g.ny // 2 + 1)
        for order in (1, 3):
            assert _ik_power(g.kx, order)[-1] == 0.0
            assert _ik_power(g.ky, order)[-1] == 0.0


class TestDerivative:
    def test_exact_mode(self):
        g = make_grid(64, 64, 7, 7)
        X = coordinates(g)[0]
        f = RealField2D(g, np.sin(np.pi * X / g.Lx), Symmetry.ODD_X_EVEN_Y)
        d = derivative(f, 1, 0)
        expected = (np.pi / g.Lx) * np.cos(np.pi * X / g.Lx)
        assert np.max(np.abs(d.values - expected)) < 1e-12
        assert d.symmetry is Symmetry.EVEN_X_EVEN_Y

    def test_parity_bookkeeping(self):
        g = make_grid(32, 32, 5, 5)
        f = zeros(g, Symmetry.ODD_X_EVEN_Y)
        assert derivative(f, 1, 0).symmetry is Symmetry.EVEN_X_EVEN_Y
        assert derivative(f, 0, 1).symmetry is Symmetry.ODD_X_ODD_Y
        assert derivative(f, 1, 1).symmetry is Symmetry.EVEN_X_ODD_Y

    def test_commutes(self, rand_field):
        g = make_grid(64, 64, 9, 9)
        f = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=3)
        a = derivative(derivative(f, 1, 0), 0, 1)
        b = derivative(f, 1, 1)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_order_guard(self):
        g = make_grid(32, 32, 5, 5)
        with pytest.raises(ValueError):
            derivative(zeros(g, Symmetry.ODD_X_EVEN_Y), 5, 0)

    def test_fourth_derivative_matches_closed_form(self):
        # resolution floor: dx ~ 0.08 and a box large enough that the seam
        # kink of the sampled lump stays below the target
        p = LumpParams.from_epsilon(0.0)
        g = make_grid(2048, 2048, 80, 80)
        q = sample_lump(p, g)
        d4 = derivative(q, 4, 0)
        X, Y, _ = coordinates(g)
        exact = lump_derivative(p, 4, 0, X, Y)
        interior = (np.abs(X) < 10) & (np.abs(Y) < 10)
        rel = np.max(np.abs(d4.values - exact)[interior]) / np.max(np.abs(exact))
        assert rel <= 1e-6

    def test_fourth_derivative_default_grid_level(self):
        # frozen truncation level of the default configuration
        p = LumpParams.from_epsilon(0.0)
        g = make_grid(512, 512, 40, 40)
        q = sample_lump(p, g)
        d4 = derivative(q, 4, 0)
        X, Y, _ = coordinates(g)
        exact = lump_derivative(p, 4, 0, X, Y)
        interior = (np.abs(X) < 10) & (np.abs(Y) < 10)
        rel = np.max(np.abs(d4.values - exact)[interior]) / np.max(np.abs(exact))
        assert rel <= 2e-5


class TestAntiderivative:
    def test_exact_mode(self):
        g = make_grid(64, 64, 7, 7)
        X, Y, _ = coordinates(g)
        prof = np.cos(np.pi * Y / g.Ly)
        f = RealField2D(g, np.cos(np.pi * X / g.Lx) * prof, Symmetry.EVEN_X_EVEN_Y)
        a = antiderivative_x(f)
        expected = (g.Lx / np.pi) * np.sin(np.pi * X / g.Lx) * prof
        assert np.max(np.abs(a.values - expected)) < 1e-12
        assert a.symmetry is Symmetry.ODD_X_EVEN_Y

    def test_roundtrip_removes_x_mean(self, rand_field):
        g = make_grid(64, 64, 9, 9)
        f = rand_field(g, Symmetry.EVEN_X_EVEN_Y, seed=11)
        d = derivative(f, 1, 0)
        back = antiderivative_x(d)
        target = f.values - f.values.mean(axis=0, keepdims=True)
        assert np.max(np.abs(back.values - target)) < 1e-12

    def test_recovers_sampled_lump(self):
        # spectral derivative of the sampled lump has exactly zero line means,
        # so the antiderivative recovers the lump minus its x-mean
        p = LumpParams.from_epsilon(0.0)
        g = make_grid(512, 512, 40, 40)
        q = sample_lump(p, g)
        back = antiderivative_x(derivative(q, 1, 0))
        target = q.values - q.values.mean(axis=0, keepdims=True)
        assert np.max(np.abs(back.values - target)) <= 1e-6

    def test_nonzero_mean_rejected(self):
        g = make_grid(32, 32, 5, 5)
        with pytest.raises(NonZeroMean):
            antiderivative_x(constant(g, 1.0))


class TestProduct:
    def test_identity_factor(self, rand_field):
        g = make_grid(64, 64, 9, 9)
        f = constant(g, 1.0)
        h = rand_field(g, Symmetry.EVEN_X_ODD_Y, seed=4)
        prod = product_dealiased(f, h)
        assert np.max(np.abs(prod.values - dealias(h).values)) < 1e-13

    def test_parity_product(self, rand_field):
        g = make_grid(64, 64, 9, 9)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=5)
        h = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=6)
        assert product_dealiased(f, h).symmetry is Symmetry.EVEN_X_EVEN_Y

    def test_lump_square_value(self):
        # x = 1 must be a grid node; expected value frozen from the closed
        # form.  The dealiased square of the sampled lump carries the box-seam
        # truncation of the slowly-decaying tail (~ dx q(L)/L, first order),
        # so the tolerance is the measured level of this configuration and a
        # refinement halves the defect.
        p = LumpParams.from_epsilon(0.0)
        expected = float(lump_derivative(p, 0, 0, 1.0, 0.0)) ** 2  # 1.8839840974...
        errs = []
        for n, L in ((512, 32), (1024, 32)):
            g = make_grid(n, n, L, L)
            q = sample_lump(p, g)
            sq = product_dealiased(q, q)
            i = int(round((1.0 + g.Lx) / g.dx))
            j = int(round((0.0 + g.Ly) / g.dy))
            errs.append(abs(float(sq.values[i, j]) - expected))
            # the raw pointwise square matches the oracle to rounding
            assert q.values[i, j] ** 2 == pytest.approx(expected, rel=1e-13)
        assert errs[0] <= 3e-4
        assert errs[1] <= 0.6 * errs[0]

    def test_grid_mismatch(self):
        a = zeros(make_grid(32, 32, 5, 5), Symmetry.EVEN_X_EVEN_Y)
        b = zeros(make_grid(32, 32, 6, 5), Symmetry.EVEN_X_EVEN_Y)
        with pytest.raises(GridMismatch):
            product_dealiased(a, b)


class TestNorms:
    def test_weighted_sup_zero(self):
        g = make_grid(32, 32, 5, 5)
        assert weighted_sup(zeros(g, Symmetry.EVEN_X_EVEN_Y), 2.0, 0.1) == 0.0

    def test_weighted_sup_exact_cancellation(self):
        g = make_grid(128, 128, 20, 20)
        f = RealField2D(g, (1.0 + coordinates(g)[2]) ** -2.0, Symmetry.EVEN_X_EVEN_Y)
        assert weighted_sup(f, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_sup_lump_bounded(self):
        p = LumpParams.from_epsilon(0.0)
        vals = []
        for L, n in ((40, 512), (80, 1024)):
            g = make_grid(n, n, L, L)
            vals.append(weighted_sup(sample_lump(p, g), 1.0, 0.0))
        assert vals[0] > 0
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05  # stable under doubling

    def test_weighted_sup_weight_memoized(self, rand_field):
        # the weight is built once per (grid, p - delta), and every call
        # returns exactly the value of the direct formula
        g = make_grid(64, 64, 9, 9)
        fields = [rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=s) for s in (1, 2)]
        r = coordinates(g)[2]
        grid_module._radial_weight.cache_clear()
        for p, delta in ((1.5, 0.1), (1.0, 0.0), (1.5, 0.1)):
            for f in fields:
                direct = float(np.max((1.0 + r) ** (p - delta) * np.abs(f.values)))
                assert weighted_sup(f, p, delta) == direct
        assert grid_module._radial_weight.cache_info().misses == 2

    def test_l2_norm_area(self):
        g = make_grid(16, 16, 1, 1)
        assert l2_norm(constant(g, 1.0)) == pytest.approx(2.0)

    def test_l2_self_convergence(self):
        # quadrature self-convergence on the closed-form derivative field
        p = LumpParams.from_epsilon(0.0)
        vals = []
        for n in (256, 512):
            g = make_grid(n, n, 40, 40)
            vals.append(l2_norm(sample_lump(p, g, 1, 0)))
        assert abs(vals[1] - vals[0]) / vals[0] < 0.01

    def test_monotone_under_domination(self, rand_field):
        g = make_grid(64, 64, 9, 9)
        f = rand_field(g, Symmetry.ODD_X_ODD_Y, seed=8)
        big = RealField2D(g, 2.0 * np.abs(f.values), Symmetry.EVEN_X_EVEN_Y)
        assert weighted_sup(big, 1.5, 0.1) >= weighted_sup(f, 1.5, 0.1)
        assert l2_norm(big) >= l2_norm(f)


class TestSymmetryTags:
    def test_violation_detected(self):
        g = make_grid(32, 32, 5, 5)
        vals = np.zeros((32, 32))
        vals[3, 4] = 1.0
        with pytest.raises(SymmetryViolation):
            RealField2D(g, vals, Symmetry.ODD_X_EVEN_Y)

    def test_projected_data_enter_tagged(self):
        g = make_grid(32, 32, 5, 5)
        raw = np.random.default_rng(9).standard_normal((32, 32))
        s = RealField2D(g, _project_parity(raw, Symmetry.ODD_X_ODD_Y), Symmetry.ODD_X_ODD_Y)
        assert s.symmetry is Symmetry.ODD_X_ODD_Y

    def test_fields_are_immutable(self):
        g = make_grid(32, 32, 5, 5)
        f = zeros(g, Symmetry.ODD_X_EVEN_Y)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


TAGS = list(Symmetry)
SMALL = ["--nx", "64", "--ny", "64", "--Lx", "20", "--Ly", "20"]


def _fourier_multiply(g, vals, fx, fy):
    """Real part of ifft2(fx(kx) fy(ky) fft2(vals)) in plain numpy.fft: an
    operation reference with no parity projection."""
    kx = 2.0 * np.pi * np.fft.fftfreq(g.nx, d=g.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(g.ny, d=g.dy)
    hat = np.fft.fft2(vals) * fx(kx)[:, None] * fy(ky)[None, :]
    return np.fft.ifft2(hat).real


def _inverse_ik(k):
    out = np.zeros(k.shape, dtype=complex)
    out[k != 0] = 1.0 / (1j * k[k != 0])
    return out


class TestProjectionRemovesOnlyRoundoff:
    """Every operation builds its output in the class of the tag it computes.
    Against an unprojected FFT reference that costs only roundoff; a wrong tag
    would drop the field's part in the other classes and fail here."""

    GRID = make_grid(64, 64, 9, 9)
    # a derivative of order m + n scales the transform roundoff near the
    # Nyquist wavenumber by |k|^(m+n); content up to half of it keeps that
    # far below the 1e-12 bound
    KMAX = 16

    @staticmethod
    def _assert_close(got, ref, what):
        err = np.max(np.abs(got - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), f"{what}: {err:.3e}"

    @pytest.mark.parametrize("sym", TAGS)
    def test_derivative(self, rand_field, sym):
        f = rand_field(self.GRID, sym, seed=21, kmax=self.KMAX)
        for m in range(5):
            for n in range(5):
                if m == n == 0:
                    continue
                d = derivative(f, m, n)
                assert d.symmetry is sym.differentiated(m, n)
                ref = _fourier_multiply(self.GRID, f.values,
                                        lambda k: (1j * k) ** m, lambda k: (1j * k) ** n)
                self._assert_close(d.values, ref, f"{sym.value} ({m}, {n})")

    @pytest.mark.parametrize("sym", TAGS)
    def test_antiderivative_x(self, rand_field, sym):
        f = rand_field(self.GRID, sym, seed=22, kmax=self.KMAX)
        f = RealField2D(self.GRID, f.values - f.values.mean(axis=0), sym)
        a = antiderivative_x(f)
        assert a.symmetry is sym.differentiated(1, 0)
        ref = _fourier_multiply(self.GRID, f.values, _inverse_ik, np.ones_like)
        self._assert_close(a.values, ref, sym.value)

    @pytest.mark.parametrize("sym", TAGS)
    def test_dealias(self, rand_field, sym):
        # modes up to 23 reach past the 2/3 cutoff (21 at 64 points)
        f = rand_field(self.GRID, sym, seed=23, kmax=24)
        keep = lambda k: (np.abs(np.fft.fftfreq(k.size) * k.size) <= k.size // 3).astype(float)
        ref = _fourier_multiply(self.GRID, f.values, keep, keep)
        assert np.max(np.abs(ref - f.values)) > 1e-3  # the truncation does something
        self._assert_close(dealias(f).values, ref, sym.value)


def _rfft_route(f, *factors):
    """The multiplier ``factors`` by a plain rfft2/irfft2 round trip, with no
    parity projection."""
    hat = sfft.rfft2(f.values)
    for factor in factors:
        hat = hat * factor
    return sfft.irfft2(hat, s=f.values.shape)


class TestQuarterBoxMultiplier:
    """Tagged multipliers run on the quarter box (one DCT-I or DST-I per axis
    and its inverse); against the rfft2 route they cost only roundoff, on a
    non-square grid with content up to both Nyquist wavenumbers.  The rfft2
    reference builds its own factors in the (nx, ny/2+1) layout, x
    wavenumbers in FFT order, independent of ``Grid2D`` and ``_ik_power``."""

    GRID = make_grid(64, 32, 9, 5)
    KX = 2.0 * np.pi * np.fft.fftfreq(GRID.nx, d=GRID.dx)
    KY = 2.0 * np.pi * np.fft.rfftfreq(GRID.ny, d=GRID.dy)

    @staticmethod
    def _ik(k, m):
        """(i k)^m with the Nyquist entry (the largest |k|) zeroed for odd m."""
        factor = (1j * k) ** m
        if m % 2 == 1:
            factor[np.argmax(np.abs(k))] = 0.0
        return factor

    def _field(self, sym, seed, zero_mean=False):
        raw = np.random.default_rng(seed).standard_normal((self.GRID.nx, self.GRID.ny))
        vals = _project_parity(raw, sym)
        if zero_mean:
            vals = vals - vals.mean(axis=0)
        f = RealField2D(self.GRID, vals, sym)
        hat = np.abs(sfft.rfft2(f.values))
        if sym.x_parity > 0:
            assert np.max(hat[self.GRID.nx // 2]) > 1e-3 * np.max(hat)
        if sym.y_parity > 0:
            assert np.max(hat[:, -1]) > 1e-3 * np.max(hat)
        return f

    @staticmethod
    def _assert_close(got, ref, what):
        assert got.symmetry in TAGS
        err = np.max(np.abs(got.values - ref))
        assert err <= 1e-13 * np.max(np.abs(ref)), f"{what}: {err:.3e}"

    @pytest.mark.parametrize("sym", TAGS)
    def test_derivative(self, sym):
        f = self._field(sym, seed=31)
        for m in range(5):
            for n in range(5):
                if m == n == 0:
                    continue
                factors = [self._ik(self.KX, m)[:, None], self._ik(self.KY, n)[None, :]]
                got = derivative(f, m, n)
                assert got.symmetry is sym.differentiated(m, n)
                self._assert_close(got, _rfft_route(f, *factors), f"{sym.value} ({m}, {n})")

    @pytest.mark.parametrize("sym", TAGS)
    def test_antiderivative_x(self, sym):
        f = self._field(sym, seed=32, zero_mean=True)
        kx = self.KX
        inv = np.zeros(kx.shape, dtype=complex)
        inv[kx != 0] = 1.0 / (1j * kx[kx != 0])
        inv[self.GRID.nx // 2] = 0.0
        self._assert_close(antiderivative_x(f), _rfft_route(f, inv[:, None]), sym.value)

    @pytest.mark.parametrize("sym", TAGS)
    def test_dealias(self, sym):
        f = self._field(sym, seed=33)
        g = self.GRID
        mask = ((np.abs(np.fft.fftfreq(g.nx) * g.nx) <= g.nx // 3)[:, None]
                & (np.arange(g.ny // 2 + 1) <= g.ny // 3)[None, :])
        self._assert_close(dealias(f), _rfft_route(f, mask), sym.value)

    @pytest.mark.parametrize("sym", TAGS)
    def test_constant_symbol(self, sym):
        f = self._field(sym, seed=34)
        op = make_linearized_operator(0.1, self.GRID)
        kx, ky, e2 = self.KX[:, None], self.KY[None, :], op.eps**2
        symbol = kx**4 + op.c2 * kx**2 + 2.0 * ky**2 + 2.0 * e2 * kx**2 * ky**2 + e2**2 * ky**4
        got = grid_module._multiplied(f, sym, _constant_symbol(op, self.GRID))
        self._assert_close(got, _rfft_route(f, symbol), sym.value)


def _no_unfold(*args):
    raise AssertionError("the full grid was unfolded")


class TestZeroMeanCheck:
    """``_check_zero_x_mean`` reads the stored quarter, never the unfolded
    grid, and raises exactly when a full-grid x-line mean exceeds
    ``ZERO_MEAN_TOL`` times the sup; an even-in-x field gets an x-constant
    y-profile at 0.5 and 2 times that threshold, odd-in-x data have none."""

    GRID = make_grid(64, 32, 9, 5)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("sym", TAGS)
    def test_threshold(self, sym, factor, monkeypatch):
        g = self.GRID
        rng = np.random.default_rng(41)
        vals = _project_parity(rng.standard_normal((g.nx, g.ny)), sym)
        vals = vals - vals.mean(axis=0)
        if sym.x_parity > 0:
            row = _project_parity(rng.standard_normal((g.nx, g.ny)), sym).mean(axis=0)
            shift = factor * ZERO_MEAN_TOL * np.max(np.abs(vals))
            vals = vals + shift * row / np.max(np.abs(row))
        f = RealField2D(g, vals, sym)
        full = f.values
        expected = np.max(np.abs(full.mean(axis=0))) > ZERO_MEAN_TOL * np.max(np.abs(full))
        assert expected == (sym.x_parity > 0 and factor > 1)
        fresh = grid_module._tagged(g, f.data.copy(), sym)
        monkeypatch.setattr(grid_module, "_unfold", _no_unfold)
        if expected:
            with pytest.raises(NonZeroMean):
                grid_module._check_zero_x_mean(fresh, "test")
        else:
            grid_module._check_zero_x_mean(fresh, "test")


class TestSpectralTable:
    """``spectral_table(f)`` keeps f's spectrum: every order costs one product
    and one inverse transform, and gives ``derivative``'s bytes."""

    GRID = make_grid(64, 32, 9, 5)
    ORDERS = [(m, n) for m in range(5) for n in range(5)]

    @pytest.mark.parametrize("sym", TAGS)
    def test_orders_match_derivative(self, rand_field, sym):
        f = rand_field(self.GRID, sym, seed=35)
        df = spectral_table(f)
        for m, n in self.ORDERS:
            got = df(m, n)
            assert got is df(m, n)
            assert got.symmetry is sym.differentiated(m, n)
            assert np.array_equal(got.data, derivative(f, m, n).data), (m, n)
        assert df(0, 0) is f

    @pytest.mark.parametrize("sym", TAGS)
    def test_one_forward_transform(self, rand_field, sym, monkeypatch):
        f = rand_field(self.GRID, sym, seed=36)
        calls = []

        def counted(name):
            real = getattr(sfft, name)
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        names = ("dct", "dst", "idct", "idst")
        monkeypatch.setattr(grid_module, "sfft", SimpleNamespace(**{k: counted(k) for k in names}))
        df = spectral_table(f)
        for m, n in self.ORDERS + self.ORDERS:
            df(m, n)
        forward = [c for c in calls if c in ("dct", "dst")]
        # one DCT-I or DST-I per axis, once; one inverse per order but (0, 0)
        assert len(forward) == 2
        assert len(calls) - len(forward) == 2 * (len(self.ORDERS) - 1)

    def test_star_proxy_sums_the_kept_terms(self, rand_field):
        phi = rand_field(make_grid(64, 64, 20, 20), Symmetry.ODD_X_EVEN_Y, seed=37, amplitude=1e-2)
        terms = _star_terms(phi, spectral_table(phi), 0.1, DELTA_DEFAULT)
        kept = [v for k, v in terms.items() if k not in STAR_PROXY_EXCLUDED]
        assert len(kept) == len(terms) - len(STAR_PROXY_EXCLUDED)
        assert all(math.isfinite(v) for v in kept)
        assert star_norm_proxy(phi, 0.1) == sum(kept)


def test_construct_takes_no_full_grid_transform(tmp_path, monkeypatch):
    # a construction multiplies fields on the quarter box only: no
    # rfft2/irfft2 call and no parity projection at all (the lump samples
    # are taken on the quarter box); apply_L, the full-grid test reference,
    # still takes the rfft2 route
    calls = []

    def counted(name):
        real = getattr(sfft, name)
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in ("rfft2", "irfft2"):
        monkeypatch.setattr(sfft, name, counted(name))
    project = grid_module._project_parity
    projected = []

    def recorded(vals, symmetry):
        caller = sys._getframe(1)
        f = caller.f_locals.get("f", caller.f_locals.get("self"))
        projected.append((caller.f_code.co_name, getattr(f, "symmetry", None)))
        return project(vals, symmetry)

    for info in pkgutil.iter_modules(transonic.__path__):
        mod = importlib.import_module(f"transonic.{info.name}")
        if getattr(mod, "_project_parity", None) is project:
            monkeypatch.setattr(mod, "_project_parity", recorded)
    run = str(tmp_path / "c")
    assert main(["construct", "--epsilon", "0.2", "--tol", "1e-6", "--out", run] + SMALL) == 0
    assert calls == []
    assert projected == []

    g = make_grid(64, 64, 20, 20)
    even = Symmetry.EVEN_X_EVEN_Y
    psi = _project_parity(np.random.default_rng(5).standard_normal((64, 64)), even)
    psi = RealField2D(g, psi - psi.mean(axis=0), even)
    out = apply_L(make_linearized_operator(0.1, g), psi)
    assert calls.count("rfft2") > 0 and calls.count("irfft2") > 0
    assert out.symmetry is even


class TestTagInvariant:
    def test_every_tagged_build_is_exact(self, tmp_path, monkeypatch):
        # every field an operation builds with a trusted tag must already be
        # exactly symmetric: construct, residual, eigen and an odd/odd kernel
        # at 64^2, with the trusted builder checked in every module that
        # imports it
        trusted = grid_module._tagged
        defects = []

        def checked(g, vals, symmetry):
            f = trusted(g, vals, symmetry)
            defects.append(_symmetry_defect(f.values, symmetry))
            return f

        for info in pkgutil.iter_modules(transonic.__path__):
            mod = importlib.import_module(f"transonic.{info.name}")
            if getattr(mod, "_tagged", None) is trusted:
                monkeypatch.setattr(mod, "_tagged", checked)
        run = str(tmp_path / "c")
        assert main(["construct", "--epsilon", "0.2", "--tol", "1e-6", "--out", run] + SMALL) == 0
        assert main(["residual", "--in", run, "--out", str(tmp_path / "r")]) == 0
        assert main(["eigen", "--epsilon", "0.1", "--k", "3", "--out", str(tmp_path / "e")]
                    + SMALL) == 0
        assert main(["kernel", "--epsilon", "0.2", "--m", "1", "--n", "1", "--x", "3", "--y", "2"]
                    + SMALL) == 0
        assert len(defects) > 100
        assert max(defects) == 0.0


class TestIO:
    def test_roundtrip(self, tmp_path, rand_field):
        g = make_grid(32, 64, 5, 7)
        f = rand_field(g, Symmetry.ODD_X_EVEN_Y, seed=10)
        binp = write_field(tmp_path, "sample", f)
        back = read_field(binp)
        assert back.grid == g
        assert back.symmetry is f.symmetry
        assert np.array_equal(back.values, f.values)

    def test_sidecar_layout(self, tmp_path):
        import json

        g = make_grid(32, 32, 5, 5)
        write_field(tmp_path, "z", zeros(g, Symmetry.ODD_X_EVEN_Y))
        meta = json.loads((tmp_path / "z.json").read_text())
        assert set(meta) == {"nx", "ny", "Lx", "Ly", "symmetry", "quantity-name"}
        assert meta["quantity-name"] == "z"
