"""Panel quadrature, cumulative integrals, and the piecewise-linear transform."""

import mpmath as mp
import numpy as np
import pytest

from halfsum import quadrature
from halfsum.errors import QuadratureFailed
from halfsum.quadrature import (RunningIntegral, _fast_len, _is_uniform, counter,
                                fourier_piecewise_linear, integrate_adaptive,
                                trapezoid_convolution)


def test_polynomial_is_exact():
    val = integrate_adaptive(lambda x: x ** 3 - 2 * x, 0.0, 2.0, 1e-12)
    assert abs(val - (4.0 - 4.0)) < 1e-12


def test_gauss_kronrod_rule_is_g20_k41():
    x, kronrod, gauss = quadrature._GK_NODES, quadrature._K41, quadrature._G20
    assert x.size == quadrature.PANEL_NODES == 41
    assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0)
    assert np.all(kronrod > 0) and abs(kronrod.sum() - 2.0) < 1e-15
    on = gauss > 0
    assert on.sum() == 20 and abs(gauss.sum() - 2.0) < 1e-15
    assert np.max(np.abs(x[on] - np.polynomial.legendre.leggauss(20)[0])) < 1e-15
    # K41 is exact through degree 3 * 20 + 1, the embedded G20 through 2 * 20 - 1
    for rule, degree in ((kronrod, 61), (gauss, 39)):
        for k in range(degree + 1):
            assert abs(rule @ x ** k - (1 + (-1) ** k) / (k + 1)) < 1e-14, (degree, k)


def test_oscillatory_integral():
    # int_0^20 sin(5 t) dt = (1 - cos(100))/5
    val = integrate_adaptive(lambda x: np.sin(5 * x), 0.0, 20.0, 1e-10)
    assert abs(val - (1 - np.cos(100.0)) / 5) < 1e-9


def test_complex_integrand():
    val = integrate_adaptive(lambda x: np.exp((1j - 1) * x), 0.0, 40.0, 1e-10)
    assert abs(val - 1.0 / (1 - 1j)) < 1e-9


def test_empty_interval():
    assert integrate_adaptive(lambda x: x, 3.0, 3.0, 1e-8) == 0


def test_budget_exhaustion_reports_interval():
    # oscillation far too fast for the budget
    with pytest.raises(QuadratureFailed) as err:
        integrate_adaptive(lambda x: np.sin(1e6 * x), 0.0, 1.0,
                           1e-14, max_evals=2000)
    assert err.value.interval is not None


def test_budget_bounds_every_refinement_block(monkeypatch):
    # no panel resolves sin(1e9 x): rejected panels are bisected in blocks of
    # at most _CHUNK_PANELS, and no block starts that would pass the budget,
    # so neither memory nor evaluations grow past them
    sizes = []
    panel_values = quadrature._panel_values

    def record(f, lo, hi):
        sizes.append(lo.size)
        return panel_values(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_values", record)
    budget = 1_000_000
    start = counter.count
    with pytest.raises(QuadratureFailed) as err:
        integrate_adaptive(lambda x: np.sin(1e9 * x), 0.0, 1.0, 1e-10, max_evals=budget)
    assert counter.count - start <= budget
    assert max(sizes) == quadrature._CHUNK_PANELS
    lo, hi = err.value.interval
    assert 0.0 <= lo < hi <= 1.0


def test_running_integral_matches_batch():
    ri = RunningIntegral(lambda t: np.cos(t) * np.exp(-0.01 * t), 0.0,
                         tol_density=1e-12)
    partials = [ri.value_to(x) for x in (5.0, 50.0, 500.0)]
    direct = integrate_adaptive(lambda t: np.cos(t) * np.exp(-0.01 * t),
                                0.0, 500.0, 1e-11)
    assert abs(partials[-1] - direct) < 1e-8


def test_running_integral_integrates_columns_from_one_evaluation():
    # the oscillating column sets the panels; the smooth one rides along at
    # the same nodes, and every column must meet its target before a panel
    # is accepted
    rate = -0.1 + 40j
    hard = lambda t: np.sin(40 * t) * np.exp(-0.1 * t)
    start = counter.count
    alone = RunningIntegral(hard, 0.0, tol_density=1e-12).value_to(30.0)
    alone_evals = counter.count - start
    start = counter.count
    both = RunningIntegral(lambda t: np.stack([np.cos(t), hard(t)]), 0.0,
                           tol_density=1e-12).value_to(30.0)
    assert counter.count - start == alone_evals
    assert both.shape == (2,)
    assert abs(both[1] - alone) < 1e-15
    assert abs(both[0] - np.sin(30.0)) < 1e-12
    assert abs(both[1] - ((np.exp(rate * 30.0) - 1) / rate).imag) < 1e-12


def test_jump_is_bisected_to_rounding_width():
    # the panel holding a jump at pi/3 is bisected until its nodes round onto
    # its edges, where both rules see one value and agree, so the jump is
    # integrated exactly; no round cap stops it first (the 12/6-point
    # Gauss-Legendre pair, with no node within 0.047 of a panel's edge,
    # accepted a panel with the jump there and returned 0.953125)
    step = lambda t: (t > np.pi / 3).astype(float)
    start = counter.count
    assert abs(integrate_adaptive(step, 0.0, 2.0, 1e-12) - (2 - np.pi / 3)) < 1e-12
    assert counter.count - start < 5000
    ri = RunningIntegral(step, 0.0, tol_density=1e-12)
    assert abs(ri.value_to(2.0) - (2 - np.pi / 3)) < 1e-12


def test_non_finite_integrand_fails_at_once():
    # a NaN panel is never accepted, and the first round that rejects one
    # names it instead of bisecting it until the budget runs out
    holed = lambda t: np.where(t < 1.5, 1.0, np.nan)
    for run in (lambda: integrate_adaptive(holed, 0.0, 2.0, 1e-12),
                lambda: RunningIntegral(holed, 0.0).value_to(2.0)):
        start = counter.count
        with pytest.raises(QuadratureFailed) as err:
            run()
        assert counter.count - start <= 200
        lo, hi = err.value.interval
        assert lo < 2.0 and hi > 1.5


def test_running_integral_of_smooth_decaying_oscillation():
    # int_1^X sin t / t^2 dt = [Ci(t) - sin(t) / t]_1^X on long G20/K41 panels
    top = 2.0 ** 22
    want = float((mp.ci(top) - mp.sin(top) / top) - (mp.ci(1) - mp.sin(1)))
    start = counter.count
    got = RunningIntegral(lambda t: np.sin(t) / t ** 2, 1.0, tol_density=1e-11).value_to(top)
    assert counter.count - start <= 7.5e6
    assert abs(got - want) < 1e-13


def test_running_integral_rejects_backward():
    ri = RunningIntegral(lambda t: t, 0.0)
    ri.value_to(10.0)
    with pytest.raises(QuadratureFailed):
        ri.value_to(5.0)


def test_filon_matches_quadrature():
    grid = np.linspace(0.0, 10.0, 2049)
    values = np.exp(-grid) * (1 + 0.5j)
    xis = np.array([0.0, 1e-6, 0.5, 7.0])
    for xi, got in zip(xis, fourier_piecewise_linear(grid, values, xis)):
        want = integrate_adaptive(
            lambda t, xi=xi: np.interp(t, grid, values.real) * np.exp(-1j * xi * t)
            + 1j * np.interp(t, grid, values.imag) * np.exp(-1j * xi * t),
            0.0, 10.0, 1e-10)
        assert abs(got - want) < 1e-8


# The triangle 1 - |t - 1| on [0, 2] is its own linear interpolant on any grid
# through t = 1, so its exact transform e^{-i xi} (sin(xi/2) / (xi/2))^2 is what
# the Filon sum must return.  h = 1/128; at xi h = 1.01e-4 and 1e-3 the
# closed-form Filon weights lose up to 8 digits to cancellation, and 63.99 and
# 64.0 sit on both sides of the switch to them at xi h = 0.5.  Values are at 50
# digits (tools/oracle_recheck.py recomputes them).
TRIANGLE_TRANSFORM = {
    0.012928: 0.9999025080480220815 - 0.012927459834577335016j,
    0.128: 0.99046575425638059215 - 0.12747657020274879251j,
    63.99: 0.00011732497761742075256 - 0.00026799696521479326277j,
    64.0: 0.00011635993231915652082 - 0.00027319686667281489347j,
}


def test_filon_weights_keep_full_precision():
    grid = np.linspace(0.0, 2.0, 257)
    values = 1.0 - np.abs(grid - 1.0)
    xis = np.array(list(TRIANGLE_TRANSFORM))
    for xi, got in zip(xis, fourier_piecewise_linear(grid, values, xis)):
        assert abs(got - TRIANGLE_TRANSFORM[xi]) < 5e-15, xi


def test_filon_array_matches_single_frequencies():
    grid = np.linspace(0.0, 10.0, 1001)
    values = np.exp(-grid) * (1 + 0.5j)
    for xi in (np.linspace(-30.0, 30.0, 10_001),                 # chirp-z blocks
               np.array([3.0, -1.0, 0.0, 1e-7, 25.0, 0.5])):     # direct product
        got = fourier_piecewise_linear(grid, values, xi)
        assert got.shape == xi.shape
        for i in range(0, xi.size, max(1, xi.size // 50)):
            one = fourier_piecewise_linear(grid, values, xi[i:i + 1])
            assert abs(got[i] - one[0]) < 1e-12


def test_filon_narrow_uniform_bracket_takes_chirp_z():
    # 129 frequencies 2e-10 wide around 1: their steps are equal only to the
    # rounding of the points, which still counts as uniform
    grid = np.linspace(0.0, 10.0, 1001)
    values = np.exp(-grid) * (1 + 0.5j)
    xi = np.linspace(1.0 - 1e-10, 1.0 + 1e-10, 129)
    assert _is_uniform(xi)
    got = fourier_piecewise_linear(grid, values, xi)
    for i in (0, 64, 128):
        assert abs(got[i] - fourier_piecewise_linear(grid, values, xi[i:i + 1])[0]) < 1e-12


def test_fast_len_is_the_least_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    want = [0] * 10001
    for n in range(10000, 0, -1):
        want[n] = n if smooth(n) else want[n + 1]
    assert all(_fast_len(n) == want[n] for n in range(1, 10001))


@pytest.mark.parametrize("n", [1, 2, 7, 97, 1000])
@pytest.mark.parametrize("dtype", [float, complex])
def test_trapezoid_convolution_matches_direct_sum(n, dtype):
    # a padded length short of 2n - 1 would wrap the product circularly
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n))
    if dtype is complex:
        a, b = a + 1j * rng.standard_normal(n), b - 1j * rng.standard_normal(n)
    h = 0.01
    got = trapezoid_convolution(a, b, h)
    want = np.empty(n, dtype=dtype)
    scale = 0.0
    for i in range(n):
        g = a[i::-1] * b[:i + 1]
        want[i] = h * (g.sum() - 0.5 * (g[0] + g[-1]))
        scale = max(scale, h * np.abs(g).sum())
    assert got.dtype == np.dtype(dtype)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _convolution_operands():
    h = 20.0 / 4096
    t = np.arange(4097) * h
    return np.sin(t), np.exp(-t), h


def test_trapezoid_convolution_real_matches_complex():
    a, b, h = _convolution_operands()
    real = trapezoid_convolution(a, b, h)
    cplx = trapezoid_convolution(a.astype(complex), b.astype(complex), h)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.max(np.abs(real - cplx)) <= 1e-15 * np.max(np.abs(cplx))
    # int_0^t sin(t - s) e^-s ds = (sin t - cos t + e^-t) / 2
    t = np.arange(a.size) * h
    assert np.max(np.abs(real - (np.sin(t) - np.cos(t) + np.exp(-t)) / 2)) < 1e-5


def test_budget_accepts_panels_whose_error_fits():
    # |x - 0.3| needs bisections down to the kink; with the budget cut while
    # rejected panels still wait, what is left is accepted only when their
    # error estimates fit in tol
    exact = (0.3 ** 2 + 0.7 ** 2) / 2
    got = integrate_adaptive(lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-6, max_evals=8 * 41)
    assert abs(got - exact) < 1e-6
    with pytest.raises(QuadratureFailed):
        integrate_adaptive(lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-6, max_evals=6 * 41)
