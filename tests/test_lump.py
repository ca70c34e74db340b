import numpy as np
import pytest

from transonic.grid import RealField2D, Symmetry, _project_parity, derivative, make_grid
from transonic.lump import (
    SQRT2,
    LumpParams,
    kpi_residual,
    linearized_kernel_residuals,
    lump_derivative,
    sample_lump,
)

from reference import coordinates

GRID = make_grid(256, 256, 40, 40)


def test_epsilon_zero_coefficients():
    p = LumpParams.from_epsilon(0.0)
    assert p.A == pytest.approx(2 * SQRT2)
    assert p.B == pytest.approx(1.0)
    assert p.C == pytest.approx(SQRT2)
    assert p.E == pytest.approx(3 / (2 * SQRT2))


def test_epsilon_guard():
    with pytest.raises(ValueError):
        LumpParams.from_epsilon(0.5)
    with pytest.raises(ValueError):
        LumpParams.from_epsilon(-0.1)


def test_eval_odd_in_x():
    p = LumpParams.from_epsilon(0.0)
    assert lump_derivative(p, 0, 0, 0.0, 3.7) == 0.0


def test_eval_reference_point():
    p = LumpParams.from_epsilon(0.0)
    expected = -2 * SQRT2 / (1 + 3 / (2 * SQRT2))  # -1.3725830020...
    assert lump_derivative(p, 0, 0, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-1.37258, abs=5e-6)


def test_small_eps_perturbation_quadratic():
    p0 = LumpParams.from_epsilon(0.0)
    p1 = LumpParams.from_epsilon(0.01)
    delta = abs(lump_derivative(p1, 0, 0, 1.0, 0.0) - lump_derivative(p0, 0, 0, 1.0, 0.0))
    assert delta <= 5e-4


def test_derivative_even_in_y_axis():
    p = LumpParams.from_epsilon(0.0)
    xs = np.linspace(-5, 5, 11)
    vals = lump_derivative(p, 0, 1, xs, np.zeros_like(xs))
    assert np.max(np.abs(vals)) == 0.0


def test_derivative_origin_slope():
    p = LumpParams.from_epsilon(0.0)
    assert lump_derivative(p, 1, 0, 0.0, 0.0) == pytest.approx(-8.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("mn", [(1, 0), (2, 0), (0, 2), (3, 1), (2, 2), (4, 1), (1, 4), (5, 0), (0, 5)])
def test_derivative_chain_against_finite_difference(mn):
    # each order validated against a centered difference of the next-lower
    # order, anchoring the recurrence at the direct evaluation
    m, n = mn
    p = LumpParams.from_epsilon(0.1)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(20, 2))
    h = 1e-4
    if m >= 1:
        fd = (
            lump_derivative(p, m - 1, n, pts[:, 0] + h, pts[:, 1])
            - lump_derivative(p, m - 1, n, pts[:, 0] - h, pts[:, 1])
        ) / (2 * h)
    else:
        fd = (
            lump_derivative(p, m, n - 1, pts[:, 0], pts[:, 1] + h)
            - lump_derivative(p, m, n - 1, pts[:, 0], pts[:, 1] - h)
        ) / (2 * h)
    exact = lump_derivative(p, m, n, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(fd - exact) / (np.abs(exact) + 1e-9)) <= 1e-6


# on both axes, off them, and near r = 30
MP_POINTS = [(0.0, 0.0), (1.3, 0.0), (0.0, -2.1), (0.7, 1.9), (-2.4, 0.5), (21.0, -21.5),
             (0.0, 30.0), (-29.5, 4.0)]


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
def test_every_order_against_mpmath(eps):
    # an independent check of the recursion: mpmath differentiates the closed
    # form -A x / (B x^2 + C y^2 + E) itself at 40 digits
    mpmath = pytest.importorskip("mpmath")
    p = LumpParams.from_epsilon(eps)
    with mpmath.workdps(40):
        A, B, C, E = (mpmath.mpf(v) for v in (p.A, p.B, p.C, p.E))
        q = lambda x, y: -A * x / (B * x**2 + C * y**2 + E)
        for m, n in ((m, n) for m in range(6) for n in range(6 - m)):
            for x, y in MP_POINTS:
                got = lump_derivative(p, m, n, x, y)
                ref = mpmath.diff(q, (x, y), (m, n))
                if (m % 2 == 0 and x == 0.0) or (n % 2 == 1 and y == 0.0):
                    # odd in x (y) there: exactly zero on that axis
                    assert got == 0.0 and abs(ref) < 1e-30, (m, n, x, y)
                else:
                    assert abs(got - ref) <= 1e-12 * abs(ref), (m, n, x, y, got, ref)


def test_derivative_order_guard():
    p = LumpParams.from_epsilon(0.0)
    with pytest.raises(ValueError):
        lump_derivative(p, 3, 3, 0.0, 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2, 0.3])
def test_kpi_residual_vanishes(eps):
    r = kpi_residual(LumpParams.from_epsilon(eps), GRID)
    assert np.max(np.abs(r.values)) <= 1e-8


def test_kpi_residual_coefficient_perturbation():
    # replacing the nonlinear coefficient by its eps-0 value leaves an O(eps^2)
    # defect: nonzero, shrinking ~4x when eps halves
    r1 = kpi_residual(LumpParams.from_epsilon(0.1), GRID, nonlinear_coeff=3 * SQRT2)
    r2 = kpi_residual(LumpParams.from_epsilon(0.05), GRID, nonlinear_coeff=3 * SQRT2)
    s1 = np.max(np.abs(r1.values))
    s2 = np.max(np.abs(r2.values))
    assert s1 > 1e-3
    assert s1 / s2 == pytest.approx(4.0, rel=0.3)


def test_kernel_field_tags_and_values():
    p = LumpParams.from_epsilon(0.0)
    fx, fy = sample_lump(p, GRID, 1, 0), sample_lump(p, GRID, 0, 1)
    assert fx.symmetry is Symmetry.EVEN_X_EVEN_Y
    assert fy.symmetry is Symmetry.ODD_X_ODD_Y
    i = GRID.nx // 2
    j = GRID.ny // 2
    assert fx.values[i, j] == pytest.approx(-8.0 / 3.0, rel=1e-12)
    assert np.max(np.abs(fy.values[:, j])) == 0.0


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
def test_translation_modes_in_kernel(eps):
    rx, ry = linearized_kernel_residuals(LumpParams.from_epsilon(eps), GRID)
    assert np.max(np.abs(rx.values)) <= 1e-7
    assert np.max(np.abs(ry.values)) <= 1e-7


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("n, L", [(64, 20), (512, 40)])
def test_lump_check_sups_are_the_full_grid_sups(n, L, eps):
    # the residuals are taken on the quarter box only; the sups lump-check
    # reports are, bit for bit, those of the closed forms on the whole grid
    g = make_grid(n, n, L, L)
    p = LumpParams.from_epsilon(eps)
    c2 = 2.0 * SQRT2 - eps**2
    cl = 6.0 * SQRT2 * p.B**2.5
    X, Y, _ = coordinates(g)
    d = lambda m, k: lump_derivative(p, m, k, X, Y)
    full = (
        d(4, 0) - c2 * d(2, 0) - p.nonlinear_coeff * 2.0 * d(1, 0) * d(2, 0) - 2.0 * d(0, 2),
        d(5, 0) - c2 * d(3, 0) - cl * (d(2, 0) ** 2 + d(1, 0) * d(3, 0)) - 2.0 * d(1, 2),
        d(4, 1) - c2 * d(2, 1) - cl * (d(2, 0) * d(1, 1) + d(1, 0) * d(2, 1)) - 2.0 * d(0, 3),
    )
    got = (kpi_residual(p, g), *linearized_kernel_residuals(p, g))
    for f, ref in zip(got, full):
        assert np.max(np.abs(f.values)) == np.max(np.abs(ref))


def test_parity_exact():
    # integer-scaled points so the reflected coordinates are exact negations
    p = LumpParams.from_epsilon(0.13)
    x = (np.arange(31) - 15) * 0.6
    y = (np.arange(29) - 14) * 0.5
    X, Y = np.meshgrid(x, y, indexing="ij")
    q = lump_derivative(p, 0, 0, X, Y)
    assert np.array_equal(q[::-1, :], -q)
    assert np.array_equal(q[:, ::-1], q)


def test_r_times_q_bounded_and_stable():
    p = LumpParams.from_epsilon(0.0)
    sups = []
    for L, n in ((40, 256), (80, 512)):
        g = make_grid(n, n, L, L)
        sups.append(float(np.max(coordinates(g)[2] * np.abs(sample_lump(p, g).values))))
    assert sups[0] > 0
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05


def test_spectral_derivative_agrees_interior():
    # the 1e-6 level needs the seam of the sampled tail pushed out to L=80;
    # the default box sits at its measured 4e-6 truncation level
    p = LumpParams.from_epsilon(0.1)
    g = make_grid(1024, 1024, 80, 80)
    q = sample_lump(p, g)
    spec = derivative(q, 1, 0)
    X, Y, _ = coordinates(g)
    exact = lump_derivative(p, 1, 0, X, Y)
    interior = (np.abs(X) < 20) & (np.abs(Y) < 20)
    rel = np.max(np.abs(spec.values - exact)[interior]) / np.max(np.abs(exact))
    assert rel <= 1e-6

    g = make_grid(512, 512, 40, 40)
    q = sample_lump(p, g)
    spec = derivative(q, 1, 0)
    X, Y, _ = coordinates(g)
    exact = lump_derivative(p, 1, 0, X, Y)
    interior = (np.abs(X) < 10) & (np.abs(Y) < 10)
    rel = np.max(np.abs(spec.values - exact)[interior]) / np.max(np.abs(exact))
    assert rel <= 1e-5


def test_quarter_samples_are_the_projected_full_grid_samples():
    # the closed form taken on the quarter box x, y >= 0 only is, byte for
    # byte, the parity projection of its samples on the whole grid, for the
    # six Gamma_q orders and the lump itself
    p = LumpParams.from_epsilon(0.1)
    X, Y, _ = coordinates(GRID)
    for m, n in ((0, 0), (4, 0), (2, 0), (1, 0), (0, 2), (2, 2), (0, 4)):
        sym = Symmetry.ODD_X_EVEN_Y.differentiated(m, n)
        full = lump_derivative(p, m, n, X, Y)
        full = RealField2D(GRID, _project_parity(full, sym), sym)
        assert sample_lump(p, GRID, m, n).data.tobytes() == full.data.tobytes()
