"""Structural invariants checked over randomized inputs."""

import dataclasses
import itertools
import math

import numpy as np
from hypothesis import example, given, settings as hyp_settings, strategies as st

from halfsum import engine
from halfsum.config import DEFAULT
from halfsum.corpus import method_catalog
from halfsum.engine import Status, Variant, embed_sequence, estimate_limit, method_Mr
from halfsum.engine import TestFunction as Probe
from halfsum.exppoly import ExpPoly, Term
from halfsum.kernels import (MASS_EPSILON, Flavor, convolve, counterexample_additive,
                             counterexample_multiplicative, evaluate, exponential,
                             finite_mixture, normalize, parse_kernel_arg, power, power_law,
                             sampled_kernel)
from halfsum.quadrature import counter
from halfsum.spectrum import transform_grid, transform_numeric

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
    if abs(k.mass()) <= MASS_EPSILON:
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


# the exponents s = -sign mu - 1 of the moments the multiplicative catalog
# and the counterexample kernels take, forward and dual, complex ones included
_MOMENT_KERNELS = ([(m.kernel, m.variant) for m in method_catalog().values()
                    if m.kernel.flavor is Flavor.MULTIPLICATIVE]
                   + [(counterexample_multiplicative(a), v) for a in (0.5, 1.0, 2.0)
                      for v in Variant])
MOMENT_EXPONENTS = sorted({complex(-(1 if v is Variant.FORWARD else -1) * t.rate - 1.0)
                           for k, v in _MOMENT_KERNELS for t in k.additive_form()},
                          key=lambda s: (s.real, s.imag))
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_by_cell_moments(values, s, p, lo, hi, m):
    """sum_n a_n int_(cell n) (log tau)^j tau^s dtau, tau = t / 2^m, j = 0..p.

    Each cell [n, n+1] cut to [lo, hi] by 4-point Gauss-Legendre and the cells
    summed pairwise: nothing telescopes, so no cell integral is the difference
    of two values of order one.
    """
    edges = np.concatenate(([lo], np.arange(math.floor(lo) + 1, math.ceil(hi)), [hi]))
    total = np.zeros(p + 1, dtype=complex)
    for k in range(0, edges.size - 1, 1 << 15):
        e = edges[k:k + (1 << 15) + 1]
        half = 0.5 * np.diff(e)
        tau = ((e[:-1] + half)[:, None] + half[:, None] * _GL_NODES) * 2.0 ** -m
        w = tau ** s * (half[:, None] * _GL_WEIGHTS * 2.0 ** -m)
        a = values[(np.floor(e[:-1]).astype(np.int64) - 1) % values.size][:, None]
        log_tau = np.log(tau)
        for j in range(p + 1):
            total[j] += np.sum(a * w * log_tau ** j)
    return total


def _periodic(values):
    """The step function of ``values`` repeated, with its period declared."""
    return embed_sequence(lambda n: values[(np.asarray(n) - 1) % values.size],
                          period=values.size)


@st.composite
def periodic_values(draw):
    period = draw(st.integers(min_value=1, max_value=9))
    entries = st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=period,
                       max_size=period)
    values = np.array(draw(entries))
    if draw(st.booleans()):
        values = values + 1j * np.array(draw(entries))
    return values


@hyp_settings(max_examples=30, deadline=None)
@given(periodic_values(), st.sampled_from(MOMENT_EXPONENTS), st.integers(0, 3),
       st.integers(3, 20), st.sampled_from(("whole", "from", "to")),
       st.floats(min_value=0.05, max_value=0.95))
def test_periodic_moments_match_cell_by_cell_sums(values, s, p, m, piece, cut):
    # the by-parts moments of a declared period against a sum over every cell
    lo, hi = 2.0 ** m, 2.0 ** (m + 1)
    if piece == "from":
        lo += cut * 2.0 ** m
    elif piece == "to":
        hi = lo + cut * 2.0 ** m
    s = s.real if s.imag == 0 else s
    f = _periodic(values)
    moments = engine._moment_backend(f, p, s, DEFAULT.max_evals)
    order = f.oscillation.ORDER
    start = counter.count
    got = moments.segment(lo, hi, m)
    # a fixed charge per piece by parts, one per cell otherwise
    by_parts = lo >= moments.reach and hi - lo > 2 * order
    charge = 2 * order if by_parts else math.ceil(hi) - math.floor(lo)
    assert counter.count - start == charge
    want = _cell_by_cell_moments(values, s, p, lo, hi, m)
    assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))), (got, want)


def test_by_parts_holds_from_its_first_piece():
    # the first piece by parts, just past ``reach``: a reach set too low
    # (a tenth of its value) shows here as errors of 1e-10
    sequences = (np.array([-1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]),
                 np.exp(1j * np.arange(9.0)) + np.arange(9.0) / 4)
    for values, s, p in itertools.product(sequences, MOMENT_EXPONENTS, range(4)):
        s = s.real if s.imag == 0 else s
        f = _periodic(values)
        moments = engine._moment_backend(f, p, s, DEFAULT.max_evals)
        lo = max(moments.reach, 4.0) + 0.5
        m = math.frexp(lo)[1] - 1
        if 2.0 ** (m + 1) - lo <= 2 * f.oscillation.ORDER:
            lo, m = 2.0 ** (m + 1), m + 1
        got = moments.segment(lo, 2.0 ** (m + 1), m)
        want = _cell_by_cell_moments(values, s, p, lo, 2.0 ** (m + 1), m)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))), (values, s, p)


# ---------------------------------------------------------------------------
# exact sampled convolutions

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _cellwise_convolution(a, b, u, kinks):
    """int_0^u a(s) b(u - s) ds by 20-point Gauss-Legendre on every piece
    between the points of ``kinks``, u - ``kinks`` and a 0.25 raster."""
    cuts = np.concatenate([kinks, u - kinks, np.arange(0.0, u, 0.25), [u]])
    cuts = np.unique(cuts[(cuts >= 0.0) & (cuts <= u)])
    lo, hi = cuts[:-1, None], cuts[1:, None]
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_NODES
    return np.sum(0.5 * (hi - lo) * _GL_WEIGHTS * a(s.ravel()).reshape(s.shape)
                  * b((u - s).ravel()).reshape(s.shape))


@st.composite
def sampled_kernels(draw):
    """A sampled kernel of 8-64 real or complex samples on [g0, g0 + (n-1) h], g0 >= 0,
    whose last tenth decays geometrically, so its fitted tail is that decay."""
    n = draw(st.integers(8, 64))
    g0 = draw(st.floats(0.0, 3.0))
    h = draw(st.floats(0.05, 0.5))
    decay = draw(st.floats(0.3, 3.0))
    u = g0 + h * np.arange(n)
    shape = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        shape = shape + 1j * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    shape[-(n // 10 + 2):] = 1.0
    return sampled_kernel(u, shape * np.exp(-decay * (u - g0)), Flavor.ADDITIVE)


closed_forms = st.one_of(st.builds(exponential, rates),
                         st.builds(counterexample_additive, st.floats(0.5, 3.0)))


@hyp_settings(max_examples=25, deadline=None)
@given(sampled_kernels(), closed_forms, st.sampled_from([1, 2, 3]),
       st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
def test_sampled_convolution_is_exact(k, closed, k_th, where):
    # k * closed, k * k, and k * k^2 = k^3 against a cellwise reference on
    # the union of both operands' kinks
    other = closed if k_th == 1 else power(k, k_th - 1)
    conv = convolve(k, closed) if k_th == 1 else power(k, k_th)
    kinks = k.body.grid if k_th == 1 else np.union1d(k.body.grid, other.breaks)
    ends = k.body.grid[-1] * k_th
    u = 0.1 + (ends + 5.0) * np.array(where)
    got = conv.shape(u)
    for x, value in zip(u, got):
        want = _cellwise_convolution(k.shape, other.shape, x, kinks)
        assert abs(value - want) <= 1e-12 * (1 + abs(value)), x
    assert abs(conv.mass() - k.mass() * other.mass()) <= 1e-12 * (1 + abs(conv.mass()))
    xi = np.array([-3.0, -0.5, 0.0, 0.7, 4.0])
    product = transform_grid(k, xi) * transform_grid(other, xi)
    numeric = transform_numeric(conv, xi, DEFAULT.replace(tol_quad=1e-11))
    assert np.max(np.abs(numeric - product)) < 1e-9


def test_sampled_convolution_meets_an_independent_reference():
    # a 400-sample exp(-u) on [0, 30] with exponential(2), between and past its nodes
    u = np.linspace(0.0, 30.0, 400)
    k = sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE)
    e2 = exponential(2.0)
    conv = convolve(k, e2)
    xs = np.random.default_rng(7).uniform(0.0, 40.0, 200)
    want = np.array([_cellwise_convolution(k.shape, e2.shape, x, u) for x in xs])
    assert np.max(np.abs(conv.shape(xs) - want)) < 1e-12


# ---------------------------------------------------------------------------
# declared oscillation: the additive windows without panels

@st.composite
def trig_polynomials(draw):
    """1-2 conjugate pairs (c, w), (conj c, -w): a real trigonometric polynomial."""
    pairs = draw(st.lists(st.tuples(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                                    st.floats(0.1, 5.0)), min_size=1, max_size=2))
    coefs = [c for c, _ in pairs] + [c.conjugate() for c, _ in pairs]
    freqs = [w for _, w in pairs] + [-w for _, w in pairs]
    return engine.TrigPolynomial(coefs, freqs)


def _sampled_exp():
    u = np.linspace(0.0, 30.0, 400)
    return normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE))


window_kernels = st.one_of(st.builds(exponential, rates),
                           st.builds(counterexample_additive, st.floats(0.5, 3.0)),
                           st.builds(lambda r: power(exponential(r), 2), rates),
                           st.builds(_sampled_exp))


@hyp_settings(max_examples=100, deadline=None)
@given(window_kernels, trig_polynomials(), st.sampled_from(list(Variant)),
       st.one_of(st.floats(0.5, 40.0), st.floats(40.0, 2000.0)))
def test_declared_and_undeclared_windows_agree(kernel, osc, variant, x):
    # the transform identity (and a closed form's exact integral below cut)
    # against panels over the window
    f = Probe("trig", lambda t, o=osc: (o.amplitudes @ np.exp(1j * np.multiply.outer(o.freqs, t))).real,
              float(np.abs(osc.amplitudes).sum()), Flavor.ADDITIVE, oscillation=osc)
    undeclared = dataclasses.replace(f, oscillation=None)
    got = engine._make_evaluator(kernel, f, variant, DEFAULT)(x)
    want = engine._make_evaluator(kernel, undeclared, variant, DEFAULT)(x)
    assert abs(got - want) <= DEFAULT.tol_quad * (1 + f.bound)
