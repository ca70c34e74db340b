"""Property tests of the field storage: a tagged field keeps only its quarter
box, and every operation on it must agree with the same operation on the
full grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transonic.errors import SymmetryViolation
from transonic.grid import (
    RealField2D,
    Symmetry,
    _project_parity,
    inner,
    l2_norm,
    make_grid,
    weighted_sup,
)
from transonic.io import read_field, write_field

from reference import coordinates

CLASSES = list(Symmetry)
SIZES = st.sampled_from([16, 32, 64])
HALF_WIDTHS = st.floats(0.5, 100.0, allow_nan=False, allow_infinity=False)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw):
    return make_grid(draw(SIZES), draw(SIZES), draw(HALF_WIDTHS), draw(HALF_WIDTHS))


def projected(grid, symmetry, seed):
    """Random full-grid samples, exactly in ``symmetry`` by projection."""
    raw = np.random.default_rng(seed).standard_normal((grid.nx, grid.ny))
    return _project_parity(raw, symmetry)


def full_l2(vals, grid):
    return float(np.sqrt(np.sum(vals**2) * grid.dx * grid.dy))


property_test = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("sym", CLASSES, ids=lambda s: s.value)
class TestQuarterStorage:
    @property_test
    @given(grid=grids(), seed=SEEDS)
    def test_constructor_round_trip(self, sym, grid, seed):
        vals = projected(grid, sym, seed)
        f = RealField2D(grid, vals, sym)
        assert f.data.shape == (grid.nx // 2 + 1, grid.ny // 2 + 1)
        # data[a, b] is the sample at x = a dx, y = b dy
        assert np.array_equal(f.data[:-1, :-1], vals[grid.nx // 2 :, grid.ny // 2 :])
        assert np.array_equal(f.values, vals)
        # input off its class by less than the tolerance is projected
        noisy = vals + 1e-12 * np.random.default_rng(seed + 1).standard_normal(vals.shape)
        assert np.array_equal(RealField2D(grid, noisy, sym).values, _project_parity(noisy, sym))

    @property_test
    @given(grid=grids(), seed=SEEDS, p=st.floats(0.0, 3.0), delta=st.floats(0.0, 0.9))
    def test_weighted_sup_is_the_full_grid_value(self, sym, grid, seed, p, delta):
        f = RealField2D(grid, projected(grid, sym, seed), sym)
        full = float(np.max((1.0 + coordinates(grid)[2]) ** (p - delta) * np.abs(f.values)))
        assert weighted_sup(f, p, delta) == full

    @property_test
    @given(grid=grids(), seed=SEEDS, other=st.sampled_from(CLASSES))
    def test_l2_norm_and_inner_match_full_grid_sums(self, sym, grid, seed, other):
        f = RealField2D(grid, projected(grid, sym, seed), sym)
        g = RealField2D(grid, projected(grid, other, seed + 1), other)
        assert l2_norm(f) == pytest.approx(full_l2(f.values, grid), rel=1e-14)
        full = float(np.sum(f.values * g.values) * grid.dx * grid.dy)
        assert abs(inner(f, g) - full) <= 1e-14 * l2_norm(f) * l2_norm(g)

    @property_test
    @given(grid=grids(), seed=SEEDS, other=st.sampled_from(CLASSES))
    def test_sum_and_difference(self, sym, grid, seed, other):
        f = RealField2D(grid, projected(grid, sym, seed), sym)
        g = RealField2D(grid, projected(grid, other, seed + 1), other)
        if other is not sym:
            # a sum of two classes is in none: no field holds it
            for op in (f.__add__, f.__sub__):
                with pytest.raises(SymmetryViolation):
                    op(g)
            return
        for got, ref in ((f + g, f.values + g.values), (f - g, f.values - g.values)):
            assert got.symmetry is sym
            assert np.array_equal(got.values, ref)

    @property_test
    @given(grid=grids(), seed=SEEDS)
    def test_io_round_trip_keeps_the_quarter_bits(self, sym, grid, seed, tmp_path_factory):
        f = RealField2D(grid, projected(grid, sym, seed), sym)
        back = read_field(write_field(tmp_path_factory.mktemp("io"), "f", f))
        assert back.symmetry is sym
        assert back.data.tobytes() == f.data.tobytes()


@pytest.mark.parametrize("shape, bad, match", [
    ((16, 8), None, "shape"),
    ((16, 16), np.nan, "finite"),
], ids=["shape", "non-finite"])
def test_constructor_refuses_bad_samples(shape, bad, match):
    # the public constructor is where data enter: the wrong number of
    # samples, or one that is not finite, is refused before the class check
    grid = make_grid(16, 16, 5.0, 5.0)
    vals = np.zeros(shape)
    if bad is not None:
        vals[8, 8] = bad
    with pytest.raises(ValueError, match=match):
        RealField2D(grid, vals, Symmetry.EVEN_X_EVEN_Y)
