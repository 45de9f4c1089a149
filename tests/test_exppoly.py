"""Exact algebra of exponential-polynomial kernels."""

import math

import mpmath as mp
import numpy as np
import pytest

from halfsum.errors import InvalidKernel
from halfsum.exppoly import ExpPoly, Term, _cell_moments, _tail


def test_term_rejects_nonnegative_rate():
    with pytest.raises(InvalidKernel):
        Term(1.0, 0, 0.5)
    with pytest.raises(InvalidKernel):
        Term(1.0, -1, -1.0)


def test_merge_cancels_duplicates():
    p = ExpPoly([Term(1.0, 0, -1.0), Term(-1.0, 0, -1.0), Term(2.0, 1, -2.0)])
    assert len(p) == 1
    assert p.terms[0].power == 1


def test_mass_exponential():
    # lam * e^{-lam x} integrates to 1
    for lam in (0.5, 1.0, 3.0):
        p = ExpPoly([Term(lam, 0, -lam)])
        assert abs(p.mass() - 1.0) < 1e-14


def test_mass_polynomial_weight():
    # x^2 e^{-x} integrates to 2! = 2
    p = ExpPoly([Term(1.0, 2, -1.0)])
    assert abs(p.mass() - 2.0) < 1e-14


def test_moments_and_derivative_are_exact():
    # int x^j x^2 e^(-x) dx = (2 + j)!, and the derivative against central differences
    p = ExpPoly([Term(1.0, 2, -1.0)])
    assert [p.moment(j) for j in range(3)] == [2.0, 6.0, 24.0]
    q = ExpPoly([Term(1.0, 1, -0.5 + 0.3j), Term(2.0, 0, -2.0), Term(-0.5, 3, -1.0)])
    x, h = np.linspace(0.1, 8.0, 50), 1e-5
    slope = (q(x + h) - q(x - h)) / (2 * h)
    assert np.max(np.abs(q.derivative()(x) - slope)) < 1e-9


def test_antiderivative_matches_numeric():
    p = ExpPoly([Term(1.0, 1, -0.5 + 0.3j), Term(2.0, 0, -2.0)])
    grid = np.linspace(0.0, 8.0, 20001)
    vals = p(grid)
    numeric = np.trapezoid(vals, grid)
    assert abs(p.integral(0.0, 8.0) - numeric) < 1e-6


@pytest.mark.parametrize("mu", [-1.0, -0.05, -7.5, -0.5 + 2.0j, -2.0 - 5.0j, -0.1 + 0.3j])
def test_tail_matches_the_incomplete_gamma_function(mu):
    # int_a^inf t^p e^(mu t) dt = Gamma(p + 1, -mu a) / (-mu)^(p + 1), at 50
    # digits; mpmath.quad to infinity is not accurate enough as a reference
    with mp.workdps(50):
        for p in range(7):
            for a in (0.0, 0.7, 40.0):
                want = mp.gammainc(p + 1, -mp.mpc(mu) * a) / (-mp.mpc(mu)) ** (p + 1)
                got = _tail(p, mu, a)
                assert isinstance(got, float) == (not isinstance(mu, complex)), (p, a)
                assert abs(got - want) <= 1e-14 * max(1, abs(want)), (p, a)


@pytest.mark.parametrize("z", [0.0, -0.3, -0.49, -0.51, -2.9, -3.1, -12.0,
                               -0.2 + 0.3j, -1.0 + 2.5j, -0.01 - 6.0j,
                               0.3j, -0.45j, 0.55j, -1.5j, 40.0j])
def test_cell_moments_match_quadrature(z):
    # z on both sides of the switch radius, r = 1/2 for the Filon weights'
    # (j, p) <= (0, 1) and 3 for (3, 3); purely imaginary z = -i xi h as the
    # Filon weights take them.  The 50-digit quadratures agree with those on
    # eight subintervals to 1e-52
    with mp.workdps(50):
        want = [[mp.quad(lambda s: (1 - s) ** j * s ** p * mp.exp(mp.mpc(z) * s), [0, 1])
                 for p in range(4)] for j in range(4)]
    for jmax, pmax in ((0, 1), (3, 3)):
        got = _cell_moments(np.array([z]), jmax, pmax)[..., 0]
        assert got.shape == (jmax + 1, pmax + 1)
        for j in range(jmax + 1):
            for p in range(pmax + 1):
                assert abs(got[j, p] - want[j][p]) <= 1e-14 * max(1, abs(want[j][p])), (j, p)


def test_tail_identities():
    p = ExpPoly([Term(1.5, 1, -1.0)])
    assert abs(p.integral(0.0, 3.0) + p.tail_integral(3.0) - p.mass()) < 1e-13
    assert p.abs_tail_bound(3.0) >= abs(p.tail_integral(3.0)) - 1e-15


def test_transform_exponential():
    lam = 1.7
    p = ExpPoly([Term(lam, 0, -lam)])
    for xi in (-3.0, 0.0, 0.25, 10.0):
        assert abs(p.transform(xi) - lam / (lam + 1j * xi)) < 1e-14


def test_transform_at_zero_equals_mass():
    p = ExpPoly([Term(1.0, 2, -1.0 + 1.0j), Term(0.5, 0, -0.25)])
    assert abs(p.transform(0.0) - p.mass()) < 1e-13


def test_convolution_simple_poles():
    # e^{-x} * e^{-2x} = e^{-x} - e^{-2x}
    a = ExpPoly([Term(1.0, 0, -1.0)])
    b = ExpPoly([Term(1.0, 0, -2.0)])
    c = a.convolve(b)
    x = np.linspace(0.0, 10.0, 101)
    assert np.max(np.abs(c(x) - (np.exp(-x) - np.exp(-2 * x)))) < 1e-13


def test_convolution_repeated_pole():
    # e^{-x} * e^{-x} = x e^{-x}
    a = ExpPoly([Term(1.0, 0, -1.0)])
    c = a.convolve(a)
    x = np.linspace(0.0, 10.0, 101)
    assert np.max(np.abs(c(x) - x * np.exp(-x))) < 1e-13


def test_convolution_theorem_on_transforms():
    a = ExpPoly([Term(1.0, 1, -1.0), Term(0.3, 0, -0.5 + 2.0j)])
    b = ExpPoly([Term(2.0, 0, -2.0)])
    c = a.convolve(b)
    for xi in (-7.0, -0.5, 0.0, 1.3, 20.0):
        assert abs(c.transform(xi) - a.transform(xi) * b.transform(xi)) < 1e-12


def _unit_term(rate, power):
    """rate^(p+1) x^p e^(-rate x) / p!, of unit mass and unit L1 norm."""
    return ExpPoly([Term(rate ** (power + 1) / math.factorial(power), power, -rate)])


@pytest.mark.parametrize("powers", [(0, 1), (2, 3)])
@pytest.mark.parametrize("rate", [np.nextafter(0.2, 1.0)]
                         + [0.2 * (1 + gap) for gap in (1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.5)])
def test_convolution_of_near_equal_rates(rate, powers):
    # a partial-fraction split cancels like gap^-(a+b-1), which at one ulp
    # leaves no correct digit
    a, b = _unit_term(0.2, powers[0]), _unit_term(rate, powers[1])
    c = a.convolve(b)
    for xi in (0.0, 1.0, 10.0):
        want = a.transform(xi) * b.transform(xi)
        assert abs(c.transform(xi) - want) < 1e-10 * max(1.0, abs(want)), xi


def test_power_matches_iterated_convolution():
    a = ExpPoly([Term(1.0, 0, -1.0)])
    p3 = a.convolve(a).convolve(a)
    # (e^{-x})^{*3} = x^2/2 e^{-x}
    x = np.linspace(0.0, 15.0, 301)
    assert np.max(np.abs(p3(x) - x ** 2 / 2 * np.exp(-x))) < 1e-12


def test_evaluation_zero_on_negative_axis():
    p = ExpPoly([Term(1.0, 0, -1.0)])
    assert p(-1.0) == 0
    vals = p(np.array([-2.0, -0.1, 0.0, 1.0]))
    assert vals[0] == 0 and vals[1] == 0 and vals[2] == 1.0
    assert abs(vals[3] - math.exp(-1)) < 1e-15


def test_real_terms_evaluate_in_float64():
    x = np.linspace(0.0, 30.0, 3001)
    p = ExpPoly([Term(2.0 + 0j, 1, -0.5 + 0j), Term(-1.0, 0, -3.0)])
    vals = p(x)
    assert vals.dtype == np.float64
    assert isinstance(p(1.5), np.float64)
    # the same sum in complex arithmetic; real and complex exp may differ in
    # their last bit
    want = sum(complex(t.coef) * x ** t.power * np.exp(complex(t.rate) * x) for t in p)
    assert not np.any(want.imag)
    assert np.max(np.abs(vals - want.real)) <= 1e-15 * np.max(np.abs(want))


def test_complex_terms_stay_complex():
    # the additive counterexample kernel has a complex rate
    c = 2.0
    p = ExpPoly([Term(c, 0, -1.0 + 0j), Term(-c / (1.0 + 1j), 0, -1.0 + 1j)])
    x = np.linspace(0.0, 10.0, 101)
    vals = p(x)
    assert vals.dtype == np.complex128
    assert np.max(np.abs(vals - (c * np.exp(-x) - c / (1.0 + 1j) * np.exp((-1.0 + 1j) * x)))) < 1e-15


@pytest.mark.parametrize("build", [
    lambda: Term(1.0, 0, complex(np.nan, 0.0)),
    lambda: Term(1.0, 0, complex(-np.inf, 0.0)),
    lambda: Term(np.inf, 0, -1.0),
])
def test_exppoly_inputs_are_checked(build):
    with pytest.raises(InvalidKernel):
        build()
