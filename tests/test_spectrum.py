"""Transforms and the nonvanishing classifier."""

import tracemalloc

import numpy as np
import pytest

from halfsum import spectrum
from halfsum.config import DEFAULT
from halfsum.errors import FlavorMismatch, InvalidArgument, TransformFailed
from halfsum.kernels import (Flavor, Sampled, convolve, counterexample_additive,
                             counterexample_multiplicative, exponential,
                             finite_mixture, normalize, power, power_law,
                             sampled_kernel)
from halfsum.quadrature import _CHUNK_PANELS, counter, fourier_piecewise_linear
from halfsum.spectrum import (classify_wiener, dual_transform_identity_check,
                              fourier_transform, mellin_transform,
                              transform_grid, transform_numeric)


def test_exponential_transform_formula():
    lam = 1.3
    k = exponential(lam)
    for xi in (-10.0, 0.0, 0.7, 25.0):
        assert abs(fourier_transform(k, xi) - lam / (lam + 1j * xi)) < 1e-14


def test_power_law_transform_formula():
    for r in (0.5, 1.0, 2.0):
        k = power_law(r)
        for xi in (-5.0, 0.0, 3.0):
            assert abs(mellin_transform(k, xi) - r / (r + 1j * xi)) < 1e-14


def test_transform_flavor_guards():
    with pytest.raises(FlavorMismatch):
        fourier_transform(power_law(1.0), 0.0)
    with pytest.raises(FlavorMismatch):
        mellin_transform(exponential(1.0), 0.0)


def test_numeric_transform_cross_check():
    k = exponential(2.0)
    xi = np.array([-7.0, 0.0, 1.5, 12.0])
    analytic = transform_grid(k, xi)
    numeric = transform_numeric(k, xi)
    assert np.max(np.abs(analytic - numeric)) < 1e-7


def test_numeric_transform_multiplicative_cross_check():
    k = counterexample_multiplicative(1.0)
    xi = np.array([0.0, 1.0, 4.0])
    analytic = transform_grid(k, xi)
    numeric = transform_numeric(k, xi)
    assert np.max(np.abs(analytic - numeric)) < 1e-7
    assert abs(analytic[1]) < 1e-13  # the planted zero


# 201 random frequencies: closed forms share one or two groups, the 512-sample
# kernel (585 first panels) groups of 7
_GROUPED_KERNELS = {
    "exp2": lambda: exponential(2.0),
    "pow0.5": lambda: power_law(0.5),
    "ce_mult1": lambda: counterexample_multiplicative(1.0),
    "sampled512": lambda: _sampled(lambda u: np.exp(-u) * (1.0 + 0.5 * np.sin(u)), 512),
}
_GROUPED_XI = np.random.default_rng(11).uniform(-50.0, 50.0, 201)


@pytest.mark.parametrize("name", _GROUPED_KERNELS)
def test_grouped_transform_matches_one_frequency_at_a_time(name):
    k = _GROUPED_KERNELS[name]()
    grouped = transform_numeric(k, _GROUPED_XI)
    single = np.array([transform_numeric(k, np.array([x]))[0] for x in _GROUPED_XI])
    assert np.max(np.abs(grouped - single)) < DEFAULT.tol_quad


@pytest.mark.parametrize("name", ["pow0.5", "sampled512"])
def test_grouped_evaluations_stay_within_the_panel_budget(monkeypatch, name):
    # one evaluation of R columns sees at most _CHUNK_PANELS panel-columns
    seen, original = [], spectrum.integrate_adaptive

    def recording(f, *args, **kwargs):
        def g(u):
            vals = f(u)
            seen.append((vals.shape[0], u.size))
            return vals
        return original(g, *args, **kwargs)

    monkeypatch.setattr(spectrum, "integrate_adaptive", recording)
    transform_numeric(_GROUPED_KERNELS[name](), _GROUPED_XI)
    assert max(rows for rows, _ in seen) > 1
    assert all(nodes <= _CHUNK_PANELS * 21 / rows for rows, nodes in seen), \
        max(rows * nodes for rows, nodes in seen)


def test_grouped_transform_memory_stays_flat():
    # 8192 samples lay out 4096 first panels: groups of one, as many
    # panel-columns per evaluation as a one-column call
    k = _sampled(lambda u: np.exp(-u), 8192)
    xi = np.linspace(-50.0, 50.0, 81)
    tracemalloc.start()
    try:
        transform_numeric(k, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_transform_numeric_budget_miss_names_the_group():
    xi = np.array([3.0, -7.0, 0.5])
    with pytest.raises(TransformFailed, match=r"3 frequencies in \[-7, 3\]"):
        transform_numeric(exponential(2.0), xi, DEFAULT.replace(max_evals=100))


def test_transform_numeric_keeps_the_shape_of_xi():
    k = exponential(2.0)
    xi = np.array([[-7.0, 0.0, 1.5], [12.0, -0.25, 3.0]])
    got = transform_numeric(k, xi)
    assert got.shape == xi.shape
    assert np.max(np.abs(got - 2.0 / (2.0 + 1j * xi))) < 1e-8
    assert transform_numeric(k, 1.5).shape == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transform_numeric_rejects_non_finite_frequencies(bad):
    start = counter.count
    with pytest.raises(InvalidArgument, match=str(bad)):
        transform_numeric(exponential(1.0), np.array([0.5, bad, 2.0]))
    assert counter.count == start


def test_classify_exponential_is_analytic():
    profile = classify_wiener(exponential(1.0))
    assert profile.verdict.kind == "nonvanishing_on_window"
    # N = 1 and |Q| = |1 + i xi| <= 1 + W on the window |xi| <= W
    assert abs(profile.verdict.margin - 1.0 / (1.0 + DEFAULT.freq_window)) < 1e-15
    # analytic margin is a true lower bound on the grid
    assert profile.min_modulus >= profile.verdict.margin - 1e-12


def test_classify_locates_planted_zero():
    for alpha in (0.5, 1.0, 2.0):
        profile = classify_wiener(counterexample_additive(alpha))
        assert profile.verdict.kind == "zero_found"
        assert abs(profile.verdict.zero_at - alpha) < 1e-6
        assert profile.verdict.zero_modulus < 1e-9


@pytest.mark.parametrize("sampled", [False, True])
def test_refinement_batches_its_probes(sampled, monkeypatch):
    kernel = counterexample_additive(1.0)
    if sampled:
        kernel = _sampled(kernel.body.form, 256)
    # 60 ternary steps took 121 single-frequency calls; equally spaced
    # sub-grids of 129 frequencies narrow the bracket as far in 6 calls
    calls = []
    monkeypatch.setattr(spectrum, "transform_grid",
                        lambda k, xi: calls.append(np.size(xi)) or transform_grid(k, xi))
    at, modulus = spectrum._refine_minimum(kernel, 0.9, 1.1, DEFAULT.refine_max_iter)
    assert calls == [129] * 6
    assert abs(modulus - abs(transform_grid(kernel, np.array([at]))[0])) < 1e-15
    if not sampled:
        assert abs(at - 1.0) < 0.2 * (2.0 / 3.0) ** DEFAULT.refine_max_iter
        assert modulus < DEFAULT.zero_epsilon
    calls.clear()
    classify_wiener(kernel)
    assert len(calls) <= 1 + 6 + DEFAULT.grid_pass_limit


def test_classify_mixture_certifies_window():
    k = finite_mixture([(0.5, exponential(1.0)), (0.5, exponential(3.0))],
                       Flavor.ADDITIVE)
    profile = classify_wiener(k)
    assert profile.verdict.kind == "nonvanishing_on_window"
    assert 0 < profile.verdict.margin <= profile.min_modulus


# Whole-line verdicts of closed forms, keyed by the expression that builds the
# kernel: (kind, zero_at, tolerance on zero_at).  tools/oracle_recheck.py
# rechecks each row from hand-written rational transforms at 50 digits.
WIENER_VERDICTS = {
    "exponential(1)": ("nonvanishing_on_window", None, None),
    "power_law(2)": ("nonvanishing_on_window", None, None),
    "power(power_law(1), 2)": ("nonvanishing_on_window", None, None),
    "power(exponential(1), 3)": ("nonvanishing_on_window", None, None),
    "convolve(exponential(1), exponential(2))": ("nonvanishing_on_window", None, None),
    # near-equal rates convolve to one pole of high order
    "convolve(exponential(1), exponential(1 + 1e-12))": ("nonvanishing_on_window", None, None),
    "convolve(exponential(1), exponential(1 + 1e-9))": ("nonvanishing_on_window", None, None),
    "convolve(exponential(1), exponential(1 + 1e-6))": ("nonvanishing_on_window", None, None),
    "convolve(exponential(1), exponential(1 + 1e-3))": ("nonvanishing_on_window", None, None),
    "convolve(exponential(1), exponential(1.1))": ("nonvanishing_on_window", None, None),
    "mixture(exponential(1), exponential(3))": ("nonvanishing_on_window", None, None),
    "counterexample_additive(0.5)": ("zero_found", 0.5, 1e-12),
    "counterexample_additive(1)": ("zero_found", 1.0, 1e-12),
    "counterexample_additive(3)": ("zero_found", 3.0, 1e-12),
    "counterexample_multiplicative(2)": ("zero_found", 2.0, 1e-12),
    "power(counterexample_additive(2), 2)": ("zero_found", 2.0, 1e-6),
    "power(counterexample_additive(1), 3)": ("zero_found", 1.0, 1e-6),
}

KERNEL_NAMES = {
    "exponential": exponential, "power_law": power_law, "power": power,
    "convolve": convolve, "counterexample_additive": counterexample_additive,
    "counterexample_multiplicative": counterexample_multiplicative,
    # the equal-weight mixture of additive kernels
    "mixture": lambda *ks: finite_mixture([(1.0 / len(ks), k) for k in ks], Flavor.ADDITIVE),
}


@pytest.mark.parametrize("expr", list(WIENER_VERDICTS))
def test_closed_form_verdict_from_the_rational_transform(expr, monkeypatch):
    kind, zero_at, tol = WIENER_VERDICTS[expr]
    calls = []
    monkeypatch.setattr(spectrum, "transform_grid",
                        lambda k, xi: calls.append(np.size(xi)) or transform_grid(k, xi))
    profile = classify_wiener(eval(expr, dict(KERNEL_NAMES)))
    assert calls == [1001]      # the exported grid only: no refinement
    assert profile.verdict.kind == kind
    if zero_at is None:
        assert 0 < profile.verdict.margin <= profile.min_modulus
    else:
        assert abs(profile.verdict.zero_at - zero_at) < tol
        assert profile.verdict.zero_modulus < DEFAULT.zero_epsilon


@pytest.mark.parametrize("sampled", [False, True])
def test_classify_needs_two_frequencies(sampled):
    kernel = _sampled(lambda u: np.exp(-u), 256) if sampled else exponential(1.0)
    for n in (0, 1):
        with pytest.raises(InvalidArgument):
            classify_wiener(kernel, n_points=n)


def test_classify_requires_normalized():
    k = finite_mixture([(2.0, exponential(1.0))], Flavor.ADDITIVE)
    with pytest.raises(InvalidArgument):
        classify_wiener(k)


def _sampled(fn, samples, flavor=Flavor.ADDITIVE):
    """Normalized kernel sampled as fn(u) at equally spaced u in [0, 40]."""
    u = np.linspace(0.0, 40.0, samples)
    t = np.exp(u) if flavor is Flavor.MULTIPLICATIVE else u
    return normalize(sampled_kernel(t, fn(u), flavor))


def test_classify_sampled_kernel():
    profile = classify_wiener(_sampled(lambda u: np.exp(-u), 8192))
    # no analytic proof and no planted zero: the Lipschitz bound certifies the window
    assert profile.verdict.kind == "nonvanishing_on_window"
    assert profile.verdict.margin > 0.01
    assert profile.min_modulus > 1e-3


def test_classify_sampled_counterexample_never_certified():
    # sampling moves the planted zero just off the real axis (|F| ~ 6e-6 at
    # 200 001 frequencies): no Lipschitz certificate can hold there
    profile = classify_wiener(_sampled(counterexample_additive(1.0).body.form, 8192))
    assert profile.verdict.kind != "nonvanishing_on_window"
    assert profile.min_modulus < 1e-4


def test_sampled_transform_branches_agree():
    k = _sampled(lambda u: np.exp(-u), 512)
    xi = np.array([-7.0, 0.0, 0.3, 1.5, 12.0])      # unequal steps: direct product
    grid_vals = transform_grid(k, xi)
    assert np.max(np.abs(grid_vals - 1.0 / (1.0 + 1j * xi))) < 1e-4
    assert np.max(np.abs(transform_numeric(k, xi) - grid_vals)) < 1e-12
    for x, want in zip(xi, grid_vals):
        assert abs(fourier_transform(k, x) - want) < 1e-15
    # equal steps take the chirp-z path; it agrees with the direct product
    uniform = np.linspace(-12.0, 12.0, 9)
    direct = np.array([fourier_transform(k, x) for x in uniform])
    assert np.max(np.abs(transform_grid(k, uniform) - direct)) < 1e-12


def test_transform_numeric_is_independent_of_the_sampled_formula(monkeypatch):
    # a formula that drops the tail model moves transform_grid; the quadrature
    # of the body does not go through it
    u = np.linspace(0.0, 8.0, 64)
    k = normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE))
    xi = np.array([-3.0, 0.0, 0.7, 5.0])
    grid_vals, numeric = transform_grid(k, xi), transform_numeric(k, xi)
    monkeypatch.setattr(Sampled, "transform",
                        lambda body, xi: fourier_piecewise_linear(body.grid, body.values, xi))
    assert np.min(np.abs(transform_grid(k, xi) - grid_vals)) > 1e-5
    assert np.array_equal(transform_numeric(k, xi), numeric)


def test_sampled_transform_at_zero_is_the_mass():
    # samples that start past the origin: the kernel is zero left of them
    t = np.linspace(0.3, 40.0, 1589)
    k = normalize(sampled_kernel(t, np.exp(-t), Flavor.ADDITIVE))
    assert abs(transform_grid(k, np.array([0.0]))[0] - k.mass()) < 1e-12


def test_sampled_mellin_transform():
    k = _sampled(lambda u: 2.0 * np.exp(-2.0 * u), 512, Flavor.MULTIPLICATIVE)
    for x in (-5.0, 0.0, 3.0):
        got = mellin_transform(k, x)
        assert got == transform_grid(k, np.array([x]))[0]
        assert abs(got - 2.0 / (2.0 + 1j * x)) < 1e-4


def test_sampled_chirp_z_matches_direct_on_fine_grid():
    k = _sampled(lambda u: np.exp(-u), 8192)
    xi = np.linspace(-50.0, 50.0, 200_001)
    full = transform_grid(k, xi)
    pick = np.sort(np.random.default_rng(5).choice(xi.size, 300, replace=False))
    assert np.max(np.abs(full[pick] - transform_grid(k, xi[pick]))) < 1e-10


def test_verdict_serialization():
    profile = classify_wiener(counterexample_additive(1.0))
    d = profile.verdict.to_dict()
    assert d["kind"] == "zero_found"
    assert "zero_at" in d and "zero_modulus" in d


def test_reflection_identity():
    report = dual_transform_identity_check(exponential(1.0), DEFAULT, n_points=21)
    assert report.max_deviation < 1e-7


def test_reflection_identity_sampled():
    k = _sampled(lambda u: np.exp(-u) * (1.0 + 0.5 * np.sin(u)), 512)
    report = dual_transform_identity_check(k, DEFAULT, n_points=81)
    assert report.max_deviation < 1e-10


def test_reflection_identity_sampled_sees_a_wrong_transform(monkeypatch):
    # the quadrature side does not go through the piecewise-linear formula,
    # so a formula that drops the tail model shows as a deviation
    u = np.linspace(0.0, 8.0, 64)
    k = normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE))
    assert abs(k.body.tail_value) > 1e-4
    monkeypatch.setattr(Sampled, "transform",
                        lambda body, xi: fourier_piecewise_linear(body.grid, body.values, xi))
    assert dual_transform_identity_check(k, DEFAULT, n_points=21).max_deviation > 1e-5


@pytest.mark.parametrize("n_points", [0, -1])
def test_reflection_identity_needs_a_frequency(n_points):
    with pytest.raises(InvalidArgument, match="at least 1 frequency"):
        dual_transform_identity_check(exponential(1.0), DEFAULT, n_points=n_points)
