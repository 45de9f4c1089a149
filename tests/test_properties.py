"""Structural invariants checked over randomized inputs."""

import numpy as np
from hypothesis import example, given, settings as hyp_settings, strategies as st

from halfsum.config import DEFAULT
from halfsum.engine import Status, embed_sequence, estimate_limit, method_Mr
from halfsum.engine import TestFunction as Probe
from halfsum.exppoly import ExpPoly, Term
from halfsum.kernels import (Flavor, convolve, evaluate, exponential,
                             finite_mixture, normalize, parse_kernel_arg,
                             power, power_law)

rates = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
coeffs = st.floats(min_value=-2.0, max_value=2.0).filter(lambda c: abs(c) > 0.05)


@hyp_settings(max_examples=25, deadline=None)
@given(rates, rates)
def test_convolution_mass_is_multiplicative(r1, r2):
    a, b = exponential(r1), exponential(r2)
    c = convolve(a, b)
    assert abs(c.mass() - a.mass() * b.mass()) < 1e-9


@hyp_settings(max_examples=25, deadline=None)
@given(rates, rates, st.floats(min_value=-20.0, max_value=20.0))
@example(0.2, 0.20000000000000004, 0.0)
def test_transform_of_convolution_is_product(r1, r2, xi):
    a = ExpPoly([Term(r1, 0, -r1)])
    b = ExpPoly([Term(r2, 1, -r2)])
    c = a.convolve(b)
    assert abs(c.transform(xi) - a.transform(xi) * b.transform(xi)) < 1e-10


@hyp_settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(coeffs, rates), min_size=1, max_size=3))
def test_normalize_yields_unit_mass(parts):
    k = finite_mixture([(c, exponential(r)) for c, r in parts], Flavor.ADDITIVE)
    if abs(k.mass()) <= DEFAULT.mass_epsilon:
        return  # degenerate mixtures are rejected elsewhere
    assert abs(normalize(k).mass() - 1.0) < 1e-9


@hyp_settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=40),
       st.floats(min_value=1.0, max_value=200.0))
def test_embedded_sequence_respects_bound(seq, x):
    f = embed_sequence(seq)
    assert abs(f(np.array([x]))[0]) <= f.bound + 1e-12


@hyp_settings(max_examples=25, deadline=None)
@given(rates, rates, st.floats(min_value=0.0, max_value=15.0))
def test_power_two_matches_self_convolution(r, _unused, x):
    k = exponential(r)
    assert abs(evaluate(power(k, 2), x) - evaluate(convolve(k, k), x)) < 1e-9


@hyp_settings(max_examples=25, deadline=None)
@given(rates)
def test_kernel_spec_string_roundtrip(r):
    k = parse_kernel_arg(f"catalog:power_law({r!r})")
    assert k.body.params["r"] == r
    assert abs(k.mass() - 1.0) < 1e-12


@hyp_settings(max_examples=5, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0).filter(lambda c: abs(c) > 1e-3))
def test_regularity_on_random_constants(c):
    f = Probe(label="const", evaluator=lambda x, c=c: np.full(x.shape, c),
                     bound=abs(c), support_flavor=Flavor.MULTIPLICATIVE,
                     classical_limit=c)
    res = estimate_limit(method_Mr(1.0), f, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - c) <= 2 * DEFAULT.tol_limit(abs(c))


@hyp_settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=0.0, max_value=30.0))
def test_multiplicative_kernel_transport_pointwise(r, u):
    # psi(e^u) equals the additive transport at u (the dt/t measure absorbs
    # the Jacobian, so the densities transport without a factor)
    from halfsum.kernels import to_additive
    mult = power_law(r)
    add = to_additive(mult)
    t = float(np.exp(u))
    assert abs(evaluate(mult, t) - evaluate(add, u)) < 1e-12
