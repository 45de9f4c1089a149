"""Operator evaluation and the limit estimator."""

import dataclasses

import mpmath as mp
import numpy as np
import pytest

from halfsum import corpus, engine, quadrature
from halfsum.config import DEFAULT
from halfsum.corpus import corpus_map, method_catalog
from halfsum.engine import (MethodDescriptor, Status, Variant, apply_dual,
                            apply_forward, chain_apply, discrete_cesaro,
                            embed_sequence, estimate_limit, k_estimator,
                            method_Mr, method_holder, nested_apply,
                            transport_function, uniform_continuity_bound)
from halfsum.errors import FlavorMismatch, InvalidArgument, QuadratureFailed
from halfsum.exppoly import ExpPoly, Term
from halfsum.kernels import (Flavor, convolve,
                             counterexample_additive,
                             counterexample_multiplicative, exponential,
                             normalize, power, power_law, sampled_kernel,
                             to_additive)
from halfsum.quadrature import RunningIntegral, counter, trapezoid_convolution

SIN_ADD = corpus_map()[("sin", Flavor.ADDITIVE)]
SIN_MUL = corpus_map()[("sin", Flavor.MULTIPLICATIVE)]
COS_MUL = corpus_map()[("cos", Flavor.MULTIPLICATIVE)]
# the general panel path: copies that do not declare their oscillation
SIN_UNDECLARED = dataclasses.replace(SIN_MUL, oscillation=None)
COS_UNDECLARED = dataclasses.replace(COS_MUL, oscillation=None)
ONE_ADD = corpus_map()[("one", Flavor.ADDITIVE)]
ONE_MUL = corpus_map()[("one", Flavor.MULTIPLICATIVE)]
SETTLE_MUL = corpus_map()[("settle", Flavor.MULTIPLICATIVE)]


def _undeclared(f):
    """f without its oscillation declaration: its additive windows run on panels,
    floored at its noise, which is what the ``declared=False`` cases below guard."""
    return dataclasses.replace(f, oscillation=None)


# the floor tests below run each function as declared, and undeclared on panels
DECLARED = pytest.mark.parametrize("declared", [True, False],
                                   ids=["declared", "undeclared"])


def _as_declared(f, declared: bool):
    return f if declared else _undeclared(f)


# ---------------------------------------------------------------------------
# pointwise operator values against closed forms

def test_additive_forward_sin_closed_form():
    # int_0^x sin(t) e^{-(x-t)} dt = (sin x - cos x + e^{-x}) / 2
    k = exponential(1.0)
    for x in (0.5, 3.0, 20.0, 200.0):
        want = (np.sin(x) - np.cos(x) + np.exp(-x)) / 2
        assert abs(apply_forward(k, SIN_ADD, x) - want) < 1e-8


def test_additive_dual_exponential_decay():
    # int_x^inf e^{-t} e^{-(t-x)} dt = e^{-x} / 2
    k = exponential(1.0)
    f = corpus_map()[("settle", Flavor.ADDITIVE)]  # 0.3 + e^{-t}
    for x in (1.0, 5.0, 30.0):
        want = 0.3 + np.exp(-x) / 2
        assert abs(apply_dual(k, f, x) - want) < 1e-8


def test_multiplicative_forward_constant():
    # M_1 applied to 1: int_1^x (t/x) dt/t = 1 - 1/x
    k = power_law(1.0)
    for x in (2.0, 64.0, 1e5):
        assert abs(apply_forward(k, ONE_MUL, x) - (1 - 1 / x)) < 1e-10


def test_multiplicative_dual_constant():
    # M*_1 applied to 1: int_x^inf x t^{-2} dt = 1 exactly
    k = power_law(1.0)
    for x in (2.0, 100.0, 1e4):
        assert abs(apply_dual(k, ONE_MUL, x) - 1.0) < 1e-6


def test_moment_paths_match_closed_forms_on_sin():
    # sin oscillates in t, so M_1 and M*_1 run on the moment integrals in t:
    # M_1 sin(x) = (cos 1 - cos x)/x and M*_1 sin(x) = sin x - x Ci(x)
    xs = (4.0, 64.0, 1024.0, 2.0 ** 20)
    forward = engine._make_evaluator(power_law(1.0), SIN_MUL, Variant.FORWARD, DEFAULT)
    dual = engine._make_evaluator(power_law(1.0), SIN_MUL, Variant.DUAL, DEFAULT)
    for x in xs:
        assert abs(forward(x) - (np.cos(1.0) - np.cos(x)) / x) < 1e-12, x
        assert abs(dual(x) - (np.sin(x) - x * float(mp.ci(x)))) < 1e-8, x


def test_dual_past_edge_cap_fails_at_once():
    x = 4e7
    start = counter.count
    with pytest.raises(QuadratureFailed) as info:
        apply_dual(power_law(1.0), SIN_MUL, x)
    assert info.value.interval == (x, 2 * x)
    assert counter.count == start


def test_moment_integrals_keep_the_configured_budget():
    # settings.max_evals reaches the moment integrals in t: under the default
    # budget this value takes about 2.3e7 evaluations on panels.  The corpus'
    # sin declares its oscillation and takes it in 1.9e3, by parts, so the
    # panels run on an undeclared copy
    with pytest.raises(QuadratureFailed):
        apply_dual(power_law(1.0), SIN_UNDECLARED, 4.0, DEFAULT.replace(max_evals=10 ** 5))


def test_domain_guards():
    with pytest.raises(InvalidArgument):
        apply_forward(power_law(1.0), ONE_MUL, 0.5)
    with pytest.raises(InvalidArgument):
        apply_forward(exponential(1.0), SIN_ADD, -1.0)
    with pytest.raises(FlavorMismatch):
        apply_forward(exponential(1.0), ONE_MUL, 2.0)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("apply", [apply_forward, apply_dual])
@pytest.mark.parametrize("kernel, f", [(exponential(1.0), SIN_ADD), (power_law(1.0), SIN_MUL)])
def test_non_finite_points_are_rejected_before_any_quadrature(kernel, f, apply, x):
    # a nan point gave 0j (forward) or a TypeError (dual), and an additive
    # window ran its quadrature before failing
    start = counter.count
    with pytest.raises(InvalidArgument):
        apply(kernel, f, x)
    assert counter.count == start


# the characters chi_omega and ladder points of the exact window references
# (tools/oracle_recheck.py recomputes the references at 50 digits)
CHARACTER_OMEGAS = (0.5, 1.0, 2.0)
CHARACTER_XS = (4.0, 37.5, 1024.0, 2.0 ** 20, 2.0 ** 30)


def character_reference(form: ExpPoly, omega: float, u: float, variant: Variant) -> complex:
    """The exact window of a closed-form kernel phi on chi_omega at u.

    Forward: e^{i omega u} int_0^u phi(s) e^{-i omega s} ds; dual:
    e^{i omega u} int_0^inf phi(s) e^{i omega s} ds.  phi(s) e^{-+i omega s}
    is phi's ExpPoly with every rate shifted by -+i omega.
    """
    sign = -1 if variant is Variant.FORWARD else 1
    shifted = ExpPoly([Term(t.coef, t.power, t.rate + sign * 1j * omega) for t in form])
    inner = shifted.integral(0.0, u) if variant is Variant.FORWARD else shifted.mass()
    # the phase from the exact product omega * u: rounded to a double, the
    # phase errs by up to ulp(omega u) / 2, 2.4e-7 at omega = 3.7, u = 1.5 * 2^29
    with mp.workdps(40):
        return complex(mp.expj(mp.mpf(omega) * mp.mpf(u))) * inner


@pytest.mark.parametrize("name", sorted(method_catalog()))
def test_character_windows_match_the_exact_formula(name):
    # both window paths: additive methods in x, multiplicative ones in
    # u = log x, where chi_omega(t) = t^{i omega} is e^{i omega u}
    method = method_catalog()[name]
    kernel = method.kernel
    for omega in CHARACTER_OMEGAS:
        f = corpus_map()[(f"char_{omega:g}", kernel.flavor)]
        window = engine._make_evaluator(kernel, f, method.variant, DEFAULT)
        for x in CHARACTER_XS:
            u = x if kernel.flavor is Flavor.ADDITIVE else np.log(x)
            want = character_reference(kernel.additive_form(), omega, u, method.variant)
            assert abs(window(x) - want) <= DEFAULT.tol_quad * (1 + f.bound), (omega, x)


# off that grid: a frequency whose products omega * t are not exact, and
# points whose ulp is not a power-of-two multiple of the grid's, all but the
# first past x ~ 2^26, where the window's noise floor sets in
# (tools/oracle_recheck.py recomputes these references at 50 digits too)
OFFGRID_OMEGAS = (0.5, 1.0, 2.0, 3.7)
OFFGRID_XS = (2.0 ** 24 + 0.3, 2.0 ** 27, 1.5 * 2.0 ** 29, 2.0 ** 30)
OFFGRID_METHODS = ("S_exp1", "S*_exp1", "S_ce1")


@DECLARED
@pytest.mark.parametrize("name", OFFGRID_METHODS)
def test_noise_floored_windows_stay_accurate_off_the_grid(name, declared):
    # on panels the floor lifts the quadrature target to noise * ||phi||_1,
    # up to 2.2e-6 here; the averaging head must still bring each value
    # within the per-point target, and at bounded cost
    method = method_catalog()[name]
    kernel = method.kernel
    kernel.l1_norm()
    for omega in OFFGRID_OMEGAS:
        f = _as_declared(corpus._char_additive(omega), declared)
        window = engine._make_evaluator(kernel, f, method.variant, DEFAULT)
        for x in OFFGRID_XS:
            start = counter.count
            got = window(x)
            assert counter.count - start <= 1e5, (omega, x)
            want = character_reference(kernel.additive_form(), omega, x, method.variant)
            assert abs(got - want) <= DEFAULT.tol_quad * (1 + f.bound), (omega, x)


@DECLARED
def test_character_ladder_past_the_noise_floor_stays_cheap(declared):
    # the K ladder on char_1 out to x = 2^30 stays cheap and every value
    # within the per-point target.  It does not guard the floor: on panels,
    # floored past x ~ 2^26, and with noise=None the G20/K41 panels take
    # 2.1e4 evaluations here too (the floor's guard is the sin_sq test below)
    f = _as_declared(corpus_map()[("char_1", Flavor.ADDITIVE)], declared)
    method = method_catalog()["K"]
    res = estimate_limit(method, f, DEFAULT)
    assert res.trace[-1][0] == 2.0 ** 30
    assert res.evaluations <= 1e5
    for x, got in res.trace:
        want = character_reference(method.kernel.additive_form(), 1.0, x, method.variant)
        assert abs(got - want) <= DEFAULT.tol_quad * (1 + f.bound), x


@DECLARED
@pytest.mark.parametrize("label, apply, budget", [("S_exp2", apply_forward, 1e6),
                                                  ("S*_exp1", apply_dual, 2e6)])
def test_sin_sq_window_is_cheap_at_its_noise_floor(label, apply, budget, declared):
    # at x = 2^14 sin(t^2) is accurate only to about 3 t^2 eps; floored, the
    # panels' windows take 6.0e5 (forward) and 1.0e6 (dual) evaluations.
    # Without the floor the forward window bisects that rounding for 1.4e7
    # evaluations and the dual one spends the 6e7 budget and raises
    # QuadratureFailed
    f = _as_declared(corpus_map()[("sin_sq", Flavor.ADDITIVE)], declared)
    kernel = method_catalog()[label].kernel
    kernel.l1_norm()
    start = counter.count
    apply(kernel, f, 2.0 ** 14)
    assert counter.count - start <= budget


@DECLARED
@pytest.mark.parametrize("label", ["S_exp2", "S*_exp1"])
def test_sin_sq_converges_past_its_rounding_noise(label, declared):
    # sin(t^2) is accurate only to about t^2 eps, so past x ~ 2^14 no panel's
    # error estimate meets an unfloored target and a point spends the 6e7
    # budget: on panels only the floor ends each point.  The limit is 0
    # (S_exp1's known value, and both kernels' transforms have no real zero)
    f = _as_declared(corpus_map()[("sin_sq", Flavor.ADDITIVE)], declared)
    res = estimate_limit(method_catalog()[label], f, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate) <= res.tolerance_used


# S_exp1 on sin(t^2) at x = 4096: e^-x int_0^x e^t sin(t^2) dt, that is
# Im[e^(-x + i/4) int_(-i/2)^(x - i/2) e^(i w^2) dw], through erf at 50 digits
# (mpmath), frozen as a double; tools/oracle_recheck.py recomputes it
SIN_SQ_S_EXP1 = {4096.0: -7.646705472563559e-05}


def test_sin_sq_window_is_accurate_and_cheap():
    # sin(t^2) turns through 2 x = 8192 radians per unit of s at the far end
    f = corpus_map()[("sin_sq", Flavor.ADDITIVE)]
    kernel = method_catalog()["S_exp1"].kernel
    for x, want in SIN_SQ_S_EXP1.items():
        start = counter.count
        assert abs(apply_forward(kernel, f, x) - want) < 1e-9, x
        assert counter.count - start <= 100, x


# S*_exp1 on sin(t^2) at x = 128: int_0^inf sin((x + s)^2) e^-s ds, that is
# Im[e^(x + i/4) int_(x + i/2)^inf e^(i w^2) dw], through erfc at 50 digits
# (mpmath), frozen as a double; tools/oracle_recheck.py recomputes it
SIN_SQ_S_STAR_EXP1 = {128.0: -0.0032450217508670173}


def test_sin_sq_windows_by_parts_meet_their_references():
    # K = 12 boundary terms at each end, K antiderivative values per end
    f = corpus_map()[("sin_sq", Flavor.ADDITIVE)]
    kernel = exponential(1.0)
    for apply, refs in ((apply_forward, SIN_SQ_S_EXP1), (apply_dual, SIN_SQ_S_STAR_EXP1)):
        for x, want in refs.items():
            start = counter.count
            assert abs(apply(kernel, f, x) - want) < 1e-12, (apply.__name__, x)
            assert counter.count - start <= 2 * f.oscillation.ORDER, (apply.__name__, x)


def test_chirp_window_starts_where_its_remainder_fits():
    # exponential(50): ||phi^(12)||_1 = 50^12 puts the start T of the window
    # by parts past t_min, and the panels take the slow part below it
    f = corpus_map()[("sin_sq", Flavor.ADDITIVE)]
    undeclared = _undeclared(f)
    kernel = exponential(50.0)
    for apply in (apply_forward, apply_dual):
        for x in (4.0, 100.0, 300.0):
            got, want = apply(kernel, f, x), apply(kernel, undeclared, x)
            assert abs(got - want) <= DEFAULT.tol_quad * (1 + f.bound), (apply.__name__, x)


# ---------------------------------------------------------------------------
# sequence embedding and the discrete bridge

def test_embed_sequence_step_values():
    f = embed_sequence([3.0, -1.0, 2.0], "abc")
    vals = f(np.array([1.0, 1.9, 2.5, 3.0, 4.2, 100.0]))
    assert np.allclose(vals, [3.0, 3.0, -1.0, 2.0, 0.0, 0.0])
    assert f.support_flavor is Flavor.MULTIPLICATIVE
    assert f.bound == 3.0


def test_embed_sequence_callable():
    f = embed_sequence(lambda n: (-1.0) ** n, "alt")
    assert f(np.array([2.5]))[0] == 1.0
    assert f(np.array([3.5]))[0] == -1.0


def test_embed_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        embed_sequence([])
    with pytest.raises(InvalidArgument):
        embed_sequence([1.0, float("inf")])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embed_rejects_a_callable_with_a_non_finite_term(bad):
    # the 4096-term probe is checked as a list is: a NaN term would give a
    # NaN bound and tolerance, an infinite one an infinite bound
    with pytest.raises(InvalidArgument, match="finite"):
        embed_sequence(lambda n: np.where(n == 4000, bad, 1.0), "bad")


@pytest.mark.parametrize("seq", [lambda n: np.ones(3), lambda n: 1.0,
                                 lambda n: np.ones((np.size(n), 2))])
def test_embed_rejects_a_callable_that_is_not_one_term_per_index(seq):
    with pytest.raises(InvalidArgument, match="one term per index"):
        embed_sequence(seq, "bad")


def test_embed_rejects_a_wrong_period():
    blocks = lambda n: ((n - 1) & 3) < 2
    assert embed_sequence(blocks, "blocks", period=4).bound == 1.0
    for period in (3, 2, 0, 4097, 4.0, True):
        with pytest.raises(InvalidArgument):
            embed_sequence(blocks, "blocks", period=period)
    with pytest.raises(InvalidArgument):
        embed_sequence([1.0, 1.0, 0.0, 0.0], "blocks", period=4)


def test_embed_sequence_rejects_index_past_int64():
    f = embed_sequence(lambda n: (-1.0) ** n, "alt")
    for x in (2.0 ** 63, float("inf"), float("nan")):
        with pytest.raises(QuadratureFailed):
            f(np.array([3.0, x]))


def test_discrete_cesaro():
    assert abs(discrete_cesaro(lambda n: (-1.0) ** n, 10)) < 1e-15
    assert abs(discrete_cesaro([1.0, 2.0, 3.0, 4.0], 4) - 2.5) < 1e-15


@pytest.mark.parametrize("n", [0, -3, 2.0, True])
def test_discrete_cesaro_needs_a_count(n):
    with pytest.raises(InvalidArgument):
        discrete_cesaro([1.0, 2.0, 3.0, 4.0], n)


def test_embedded_mean_tracks_discrete_mean():
    f = embed_sequence(lambda n: (-1.0) ** n, "alt")
    x = 4096.0
    continuous = apply_forward(power_law(1.0), f, x)
    discrete = discrete_cesaro(lambda n: (-1.0) ** n, 4096)
    assert abs(continuous - discrete) < 1e-3


# ---------------------------------------------------------------------------
# exact cell sums

# int_1^N (log t)^j t^s dt for j = 0, 1, 2, keyed by s: computed at 50 digits
# and frozen as doubles (tools/oracle_recheck.py recomputes them)
CELL_MOMENTS_N = 1000
CELL_MOMENTS = {
    -1.5: (1.9367544467966324, 3.436624089580557, 10.728603047096367),
    -0.5: (61.245553203367585, 314.3936976059729, 1760.3185208019688),
    (-0.5+2j): ((15.176581310074473-0.7044420822102282j),
                (104.19480875542135-0.8920257231155106j),
                (706.1190924448138+42.206571582302466j)),
}


def test_cell_moments_of_ones_match_frozen_integrals():
    ones = lambda n: np.ones(np.shape(n))
    for s, want in CELL_MOMENTS.items():
        # tau = t / 2^0: the piece [1, N] about the origin t = 1
        got = engine._CellMoments(ones, 2, s).segment(1.0, float(CELL_MOMENTS_N), 0)
        assert got.shape == (3,)
        for j in range(3):
            assert abs(got[j] - want[j]) <= 1e-13 * abs(want[j]), (s, j)


def test_cell_moments_chunking_does_not_change_sums(monkeypatch):
    blocks = lambda n: ((np.asarray(n) - 1) % 4 < 2).astype(float)
    pieces = [(1.0, 30.0, 0), (32.0, 64.0, 5), (64.0, 100.5, 6), (3.25, 90.75, 1)]
    want = [engine._CellMoments(blocks, 2, -0.5).segment(*piece) for piece in pieces]
    monkeypatch.setattr(engine._CellMoments, "CHUNK", 7)
    got = [engine._CellMoments(blocks, 2, -0.5).segment(*piece) for piece in pieces]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


def test_running_integral_chunking_does_not_change_integrals(monkeypatch):
    # a range of whole panels of length 30 cuts into the same panels for any
    # chunk size: here 234 chunks of 7 panels against one default chunk
    g = lambda t: np.stack([np.sin(t) / t, (1.0 + np.cos(3.0 * t)) / t])
    top = 1.0 + 30.0 * 7 * 234

    def run():
        start = counter.count
        return RunningIntegral(g, 1.0, tol_density=1e-11).value_to(top), counter.count - start

    want, want_evals = run()
    monkeypatch.setattr(quadrature, "_CHUNK_PANELS", 7)
    got, got_evals = run()
    assert got_evals == want_evals
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), np.abs(got / want - 1)


def test_finite_sequence_stops_at_last_term():
    finite = embed_sequence([1.0] * 5, "five")
    gated = embed_sequence(lambda n: (np.asarray(n) <= 5) * 1.0, "five_gated")
    for method in (method_Mr(1.0, Variant.DUAL), method_holder(2)):
        a = estimate_limit(method, finite, DEFAULT)
        b = estimate_limit(method, gated, DEFAULT)
        assert a.status is b.status is Status.CONVERGED
        assert abs(a.estimate - b.estimate) < 1e-12
        # cells only: the evaluator alone, at the ladder points the run visited
        ev = engine._make_evaluator(method.kernel, finite, method.variant, DEFAULT)
        start = counter.count
        for x, _ in a.trace:
            ev(x)
        assert counter.count - start <= 10 * len(a.trace)


def test_evaluations_count_only_the_operator():
    # the kernel's norm quadrature runs once per kernel object; it is not counted
    f = corpus_map()[("finite_ones", Flavor.MULTIPLICATIVE)]
    for label in ("M*_1", "H_2"):
        reused = method_catalog()[label]
        estimate_limit(reused, f, DEFAULT)
        fresh = estimate_limit(method_catalog()[label], f, DEFAULT)
        start = counter.count
        again = estimate_limit(reused, f, DEFAULT)
        assert counter.count - start == again.evaluations == fresh.evaluations, label


def test_cell_sums_under_complex_rates_match_direct_sum():
    import mpmath as mp
    kernel = normalize(counterexample_multiplicative(2.0))
    form = kernel.additive_form()
    assert any(t.rate.imag != 0 for t in form)
    a = lambda n: np.cos(np.asarray(n)) + 0.5 * ((np.asarray(n) - 1) % 3 == 0)
    f = embed_sequence(a, "cos_n")

    def phi(u):
        return sum(mp.mpc(t.coef) * u ** t.power * mp.exp(mp.mpc(t.rate) * u) for t in form)

    for x in (7.5, 33.0, 120.25):
        with mp.workdps(30):
            want = sum(float(a(n)) * mp.quad(lambda t: phi(mp.log(x / t)) / t,
                                             [n, min(n + 1, x)])
                       for n in range(1, int(x) + 1) if n < x)
        got = apply_forward(kernel, f, x)
        assert abs(got - complex(want)) < 1e-12 * (1 + abs(complex(want))), x


# forward M_1/2 on blocks (1, 1, 0, 0 repeated) at x = 2^14, 2^16:
# x^(-1/2) sum_(n < x) a_n (sqrt(n+1) - sqrt(n)) at 50 digits (mpmath),
# frozen as doubles; tools/oracle_recheck.py recomputes them.  The periodic
# path takes every segment past t ~ 200 by parts, not by cell sums.
BLOCKS_M_HALF = {
    16384: 0.4978501585044805,
    65536: 0.4989250791503768,
}


def test_periodic_moments_match_frozen_blocks_mean():
    f = corpus_map()[("blocks", Flavor.MULTIPLICATIVE)]
    kernel = method_Mr(0.5).kernel
    for x, want in BLOCKS_M_HALF.items():
        assert abs(apply_forward(kernel, f, float(x)) - want) < 1e-12, x


def test_periodic_sequence_converges_in_few_cells():
    # exact cell sums took 3.36e7 cells here: every cell up to 2^25
    f = corpus_map()[("blocks", Flavor.MULTIPLICATIVE)]
    res = estimate_limit(method_catalog()["M_1/2"], f, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 0.5) < res.tolerance_used
    assert res.evaluations < 1e5
    assert res.evaluations == estimate_limit(method_catalog()["M_1/2"], f, DEFAULT).evaluations


# ---------------------------------------------------------------------------
# limit estimation statuses

def test_estimate_converged_constant():
    res = estimate_limit(method_Mr(1.0), ONE_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 1.0) < 2e-4
    assert res.trace and res.evaluations > 0
    assert res.tolerance_used > 0


def test_estimate_converged_oscillatory():
    res = estimate_limit(method_Mr(1.0), SIN_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate) < 2e-4


def test_estimate_oscillating_character():
    char = corpus_map()[("char_1", Flavor.MULTIPLICATIVE)]
    res = estimate_limit(method_Mr(1.0), char, DEFAULT)
    assert res.status is Status.OSCILLATING
    assert res.oscillation_amplitude > 0.3
    assert res.estimate is None


@pytest.mark.parametrize("alpha", CHARACTER_OMEGAS)
def test_multiplicative_counterexample_separates_on_its_character(alpha):
    # the counterexample kernel's transform vanishes at alpha, so its mean of
    # t^(i alpha) is x^(i alpha) times a vanishing tail, while M's mean
    # x^(i alpha) / (1 + i alpha) keeps turning
    char = corpus_map()[(f"char_{alpha:g}", Flavor.MULTIPLICATIVE)]
    ce = MethodDescriptor(counterexample_multiplicative(alpha), label=f"M_ce{alpha:g}")
    res = estimate_limit(ce, char, DEFAULT)
    assert res.status is Status.CONVERGED, alpha
    assert abs(res.estimate) < res.tolerance_used, alpha
    assert estimate_limit(method_Mr(1.0), char, DEFAULT).status is Status.OSCILLATING, alpha


def test_estimate_settling_function():
    res = estimate_limit(method_Mr(1.0), SETTLE_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 0.3) < 2e-4


def test_dual_on_log_periodic_sequence():
    # a_n = 1 when floor(log2 n) is even: with q = 2^-r, M*_r at x = 2^m is
    # 1/(1+q) for even m and q/(1+q) for odd m
    f = embed_sequence(lambda n: (np.frexp(np.asarray(n, dtype=float))[1] - 1) % 2 == 0,
                       "log_periodic")
    for r in (0.5, 1.0, 2.0):
        q = 2.0 ** -r
        res = estimate_limit(method_Mr(r, Variant.DUAL), f, DEFAULT)
        assert res.status is Status.OSCILLATING, r
        assert abs(res.oscillation_amplitude - (1 - q) / (2 * (1 + q))) < 1e-6, r
        for x, v in res.trace:
            m = int(np.log2(x))
            assert x == 2.0 ** m
            want = 1 / (1 + q) if m % 2 == 0 else q / (1 + q)
            assert abs(v - want) < 1e-8, (r, x)


def test_estimate_dual_variant():
    res = estimate_limit(method_Mr(1.0, Variant.DUAL), ONE_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 1.0) < 2e-4


def test_dual_off_ladder_matches_fresh_values(monkeypatch):
    # on a ratio-3 ladder no point past the first is a power of two: each one
    # integrates its own partial piece [x, 2^(m+1)] and takes the whole dyadic
    # segments above it from the table the first point filled, so the run
    # costs the default ladder's table plus pieces shorter than x.  A lower
    # edge cap keeps the sin moment integrals short.  Neither function
    # declares its oscillation, so their pieces are exact cell sums and
    # panels, whose cost grows with the piece (the corpus' alt and sin cost
    # a fixed charge per piece far out, so a ratio-3 ladder that cuts more
    # pieces costs more: 2 242 evaluations on sin against 1 800).
    monkeypatch.setattr(engine._MultClosed, "EDGE_CAP", 2.0 ** 20)
    settings = DEFAULT.replace(ladder_ratio=3.0, ladder_max_steps=6)
    method = method_Mr(1.0, Variant.DUAL)
    alt = embed_sequence(lambda n: np.where((n & 1) == 1, -1.0, 1.0), "alt")
    for f in (alt, SIN_UNDECLARED):
        res = estimate_limit(method, f, settings)
        assert len(res.trace) == 7, f.label
        assert res.evaluations <= 1.01 * estimate_limit(method, f, DEFAULT).evaluations, f.label
        for x, v in res.trace:
            assert abs(v - apply_dual(method.kernel, f, x, settings)) < 1e-12, (f.label, x)


# M*_2 on alt at x = 2^14, 2^15, 2^16: sum_{n >= x} (-1)^n x^2 (n^-2 - (n+1)^-2)
# at 50 digits (mpmath nsum), frozen as doubles; tools/oracle_recheck.py
# recomputes them
DUAL_M2_ALT = {
    16384: 6.1035156022626325e-05,
    32768: 3.051757809657829e-05,
    65536: 1.5258789058947286e-05,
}


def test_dual_keeps_its_accuracy_as_x_grows():
    # each dyadic piece is expanded about its own origin, so the factor x^2
    # of M*_2 never multiplies moments taken from t = 1 and their rounding
    f = corpus_map()[("alt", Flavor.MULTIPLICATIVE)]
    kernel = method_Mr(2.0, Variant.DUAL).kernel
    for x, want in DUAL_M2_ALT.items():
        assert abs(apply_dual(kernel, f, float(x)) - want) < 1e-11, x


# M*_1 on sin at x = 4, 7.5, 64, 1000, 2^14: sin x - x Ci(x) at 50 digits
# (mpmath), frozen as doubles; tools/oracle_recheck.py recomputes them
DUAL_M1_SIN = {
    4.0: -0.1928757037602066,
    7.5: 0.07075095249023183,
    64.0: 0.006561768543959499,
    1000.0: 0.0005640294413202782,
    16384.0: -5.0573884874099977e-05,
}


def test_dual_mean_of_sin_matches_frozen_values():
    kernel = method_Mr(1.0, Variant.DUAL).kernel
    for x, want in DUAL_M1_SIN.items():
        assert abs(apply_dual(kernel, SIN_MUL, x) - want) < 1e-10, x


# M*_1 on cos at x = 4, 64, 1000, 2^14, 2^20: cos x + x Si(x) - pi x / 2 at
# 50 digits (mpmath), frozen as doubles; tools/oracle_recheck.py recomputes them
DUAL_M1_COS = {
    4.0: 0.09598362775301385,
    64.0: -0.014163670873879567,
    1000.0: -0.0008257498346980923,
    16384.0: 3.4169757918090414e-05,
    1048576.0: -3.1518110260799545e-07,
}


def test_dual_mean_of_declared_cos_matches_frozen_values():
    # by parts past t ~ 500: errors of 8.9e-14, 1.4e-12, 2.2e-11 and 3.6e-10,
    # as on panels, from the tail completion past EDGE_CAP
    kernel = method_Mr(1.0, Variant.DUAL).kernel
    for x, want in DUAL_M1_COS.items():
        if x <= 2.0 ** 14:
            assert abs(apply_dual(kernel, COS_MUL, x) - want) < 1e-9, x


@pytest.mark.xfail(strict=True, reason="known gap (ROADMAP item 3): the dual's recent-average "
                   "tail completion past EDGE_CAP errs by 2.3e-8 at x = 2^20, declared or not")
def test_dual_mean_of_declared_cos_meets_the_point_tolerance_far_out():
    kernel = method_Mr(1.0, Variant.DUAL).kernel
    x, tol = 2.0 ** 20, DEFAULT.tol_quad * (1.0 + COS_MUL.bound)   # the per-point target
    assert abs(apply_dual(kernel, COS_MUL, x) - DUAL_M1_COS[x]) < tol


# M*_1 on sin(3 t) at x = 4, 64, 1000, 2^14: sin(3 x) - 3 x Ci(3 x) at 50
# digits (mpmath), frozen as doubles; tools/oracle_recheck.py recomputes them
DUAL_M1_SIN3 = {
    4.0: 0.060787164608929134,
    64.0: -0.00488767550706227,
    1000.0: -0.000325178474325903,
    16384.0: 4.282855803964865e-06,
}


def test_dual_moment_panels_resolve_sin_3t():
    # the moment integrals' fixed panels are short enough that the rule's
    # error estimate sees what it misses: 36-long panels pass sin(3 t) with
    # errors up to 8e-10, where the 30-long ones err by 4.2e-11 at most
    f = engine.TestFunction("sin(3t)", lambda t: np.sin(3.0 * t), 1.0, Flavor.MULTIPLICATIVE)
    kernel = method_Mr(1.0, Variant.DUAL).kernel
    for x, want in DUAL_M1_SIN3.items():
        assert abs(apply_dual(kernel, f, x) - want) < 1e-10, x


# M*_1 on sin(10 t) at x = 10, 100, 1000: sin(10 x) - 10 x Ci(10 x) at 50
# digits (mpmath), frozen as doubles; tools/oracle_recheck.py recomputes them
DUAL_M1_SIN10 = {
    10.0: 0.00851687315129042,
    100.0: 0.0005640294413202782,
    1000.0: -9.52216434000147e-05,
}


@pytest.mark.xfail(strict=True, reason="known gap: the dual's panel tolerance is absolute "
                   "per unit t, so panels that miss sin(10 t) pass where t^-2 is small, "
                   "and x amplifies their error (1.1e-9 at x = 10, 1.1e-7 at x = 1000)")
def test_dual_mean_of_fast_sin_meets_the_point_tolerance(monkeypatch):
    # the per-point target tol_quad (1 + bound); the cap only shortens the run
    monkeypatch.setattr(engine._MultClosed, "EDGE_CAP", 2.0 ** 20)
    f = engine.TestFunction("sin(10t)", lambda t: np.sin(10.0 * t), 1.0, Flavor.MULTIPLICATIVE)
    kernel = method_Mr(1.0, Variant.DUAL).kernel
    for x, want in DUAL_M1_SIN10.items():
        assert abs(apply_dual(kernel, f, x) - want) < DEFAULT.tol_quad * (1.0 + f.bound), x


# ---------------------------------------------------------------------------
# declared oscillation: far moments by parts

@pytest.mark.parametrize("label", ["M", "M_2", "H_2", "M*_1", "M*_2"])
@pytest.mark.parametrize("declared, undeclared", [(SIN_MUL, SIN_UNDECLARED),
                                                  (COS_MUL, COS_UNDECLARED)],
                         ids=["sin", "cos"])
def test_declared_oscillation_keeps_the_panel_answers(declared, undeclared, label):
    method = method_catalog()[label]
    want = estimate_limit(method, undeclared, DEFAULT)
    got = estimate_limit(method, declared, DEFAULT)
    assert got.status is want.status
    assert [x for x, _ in got.trace] == [x for x, _ in want.trace]
    for (x, v), (_, w) in zip(got.trace, want.trace):
        assert abs(v - w) < 1e-12, x


@pytest.mark.parametrize("label", ["M_1/2", "M*_1"])
def test_declared_sin_ladder_is_cheap(label):
    # on panels these ladders take 4.6e7 and 2.3e7 evaluations
    res = estimate_limit(method_catalog()[label], SIN_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert res.evaluations <= 1e4, res.evaluations


@pytest.mark.parametrize("coefs, freqs", [
    ((1.0, 1.0), (1.0, 0.0)),
    ((1.0,), (np.nan,)),
    ((1.0,), (np.inf,)),
    ((np.nan,), (1.0,)),
    ((1.0, np.inf), (1.0, 2.0)),
    ((1.0, 1.0), (1.0,)),
    ((), ()),
])
def test_trig_polynomial_rejects_bad_terms(coefs, freqs):
    with pytest.raises(InvalidArgument):
        engine.TrigPolynomial(coefs, freqs)


def test_k_estimator_labels():
    k_add = k_estimator(Flavor.ADDITIVE)
    k_mul = k_estimator(Flavor.MULTIPLICATIVE)
    assert k_add.kernel.flavor is Flavor.ADDITIVE
    assert k_mul.kernel.flavor is Flavor.MULTIPLICATIVE


def test_method_descriptor_validation():
    # an iteration count where the label goes fails loudly: a method is its
    # kernel, and an iterate is built with power() or method_holder()
    for count in (0, 1, 2):
        with pytest.raises(InvalidArgument):
            MethodDescriptor(exponential(1.0), Variant.FORWARD, count)
    with pytest.raises(InvalidArgument):
        method_Mr(-1.0)
    for k in (0, -1, 2.0, True, False):
        with pytest.raises(InvalidArgument):
            method_holder(k)
        with pytest.raises(InvalidArgument):
            power(power_law(1.0), k)
    assert method_holder(np.int64(2)).label == "H_2"


def test_an_iterate_is_checked_for_mass():
    # the square of an unnormalized sampled e^(-u/10) has mass about 100
    u = np.linspace(0.0, 40.0, 512)
    raw = sampled_kernel(u, np.exp(-0.1 * u), Flavor.ADDITIVE)
    with pytest.raises(InvalidArgument, match="not normalized"):
        MethodDescriptor(power(raw, 2), Variant.FORWARD, "unnormalized squared")
    # the normalized square is exact, tail included, so its mass is 1
    squared = power(normalize(raw), 2)
    assert abs(squared.mass() - 1.0) < 1e-12
    res = estimate_limit(MethodDescriptor(squared, Variant.FORWARD, "sampled squared"), ONE_ADD)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 1.0) < res.tolerance_used


# ---------------------------------------------------------------------------
# iterates are kernel powers

def _sampled_exp():
    u = np.linspace(0.0, 30.0, 400)
    return normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE))


def test_sampled_power_matches_chained_convolutions():
    # power() convolves the sampled kernel once on its own grid; the
    # reference applies it twice on a dense grid of the function
    k = _sampled_exp()
    squared = power(k, 2)
    xs = [3.0, 8.0, 20.0]
    for label in ("one", "sin", "settle"):
        f = corpus_map()[(label, Flavor.ADDITIVE)]
        chained = _full_grid_chain([k, k], f, xs, 2 ** 14)
        for x, want in zip(xs, chained):
            assert abs(apply_forward(squared, f, x) - want) < 1e-5, (label, x)


def _sampled_m1():
    """t^-1 on [1, e^8], the kernel of M_1, as 300 samples."""
    t = np.exp(np.linspace(0.0, 8.0, 300))
    return normalize(sampled_kernel(t, 1.0 / t, Flavor.MULTIPLICATIVE))


def test_sampled_iterate_converges():
    method = MethodDescriptor(power(_sampled_m1(), 2), Variant.FORWARD, "sampled H_2")
    res = estimate_limit(method, SETTLE_MUL, DEFAULT)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - 0.3) < 2 * DEFAULT.tol_limit(SETTLE_MUL.bound)
    assert res.evaluations > 0


# ---------------------------------------------------------------------------
# sampled kernels run the same window as closed forms

def test_sampled_window_matches_closed_form_on_fast_oscillation():
    # sin(t^2) at x = 1000 turns about 300 times per unit of s: a sum over
    # the kernel's grid nodes alone misses the closed form by 9.4e-2
    f = corpus_map()[("sin_sq", Flavor.ADDITIVE)]
    k = _sampled_exp()
    for x in (10.0, 1000.0):
        assert abs(apply_forward(k, f, x) - apply_forward(exponential(1.0), f, x)) < 1e-5, x


def test_sampled_dual_matches_closed_form():
    # int_0^inf sin(x + s) e^{-s} ds against the sampled e^{-s}
    k = _sampled_exp()
    for x in (3.0, 10.0, 100.0):
        assert abs(apply_dual(k, SIN_ADD, x) - apply_dual(exponential(1.0), SIN_ADD, x)) < 1e-6, x


@DECLARED
def test_sampled_window_past_the_noise_floor_stays_cheap(declared):
    # past the window's cut the value is e^{ix} C for a constant C, so the
    # point x = 2^20, below the floor, gives every other value.  Without the
    # floor, panels one grid cell long bisect the ulp(x) staircase for
    # 5e5-5e6 evaluations per point at x = 2^28-2^30
    f = _as_declared(corpus_map()[("char_1", Flavor.ADDITIVE)], declared)
    kernel = _sampled_exp()
    kernel.l1_norm()
    for variant in Variant:
        window = engine._make_evaluator(kernel, f, variant, DEFAULT)
        c = window(2.0 ** 20) * np.exp(-1j * 2.0 ** 20)
        for x in (2.0 ** 28, 2.0 ** 29, 2.0 ** 30):
            start = counter.count
            got = window(x)
            assert counter.count - start <= 5e4, (variant, x)
            assert abs(got - np.exp(1j * x) * c) <= DEFAULT.tol_quad * (1 + f.bound), (variant, x)


def test_declared_character_windows_cost_no_evaluation():
    # from the body's transform: a sampled body at x >= cut, the transported
    # multiplicative character under a closed form at every point
    forward = engine._make_evaluator(_sampled_exp(), corpus_map()[("char_1", Flavor.ADDITIVE)],
                                     Variant.FORWARD, DEFAULT)
    mult = corpus_map()[("char_2", Flavor.MULTIPLICATIVE)]
    for label in ("M", "M*_1/2", "H_3"):
        method = method_catalog()[label]
        window = engine._make_evaluator(method.kernel, mult, method.variant, DEFAULT)
        start = counter.count
        for x in (1.5, 64.0, 2.0 ** 40):
            window(x)
        forward(2.0 ** 30)
        assert counter.count == start, label


def test_real_declared_windows_stay_real():
    # a real declaration on a real body has a real window, as on panels: the
    # transform's rounding left imaginary parts of about 1e-17 (-0.0424+1.5e-17j
    # for the first value, -5.0e-17j on the dual of the sampled e^-u)
    u = np.linspace(0.0, 40.0, 512)
    sampled = normalize(sampled_kernel(u, np.exp(-u), Flavor.ADDITIVE))
    values = [apply_forward(exponential(1.0), SIN_ADD, 4.0), apply_dual(sampled, SIN_ADD, 4.0),
              apply_forward(sampled, SIN_ADD, 100.0)]
    res = estimate_limit(method_catalog()["S_exp1"], SIN_ADD, DEFAULT)
    values += [v for _, v in res.trace]
    assert len(values) == 3 + 29
    assert all(complex(v).imag == 0 for v in values)
    # a complex declaration keeps its imaginary part
    char_1 = corpus_map()[("char_1", Flavor.ADDITIVE)]
    assert complex(apply_forward(exponential(1.0), char_1, 4.0)).imag != 0


@pytest.mark.parametrize("method, function, flavor", [
    ("S_exp1", "sin", Flavor.ADDITIVE), ("S*_exp1", "sin", Flavor.ADDITIVE),
    ("S_ce1", "sin", Flavor.ADDITIVE), ("K", "char_1", Flavor.ADDITIVE),
    ("M", "char_1", Flavor.MULTIPLICATIVE), ("M*_1", "char_1", Flavor.MULTIPLICATIVE)])
def test_far_ladder_stops_at_its_first_value_that_is_not_finite(method, function, flavor):
    # 1100 steps of 2 take x past the largest double, and exact phases
    # overflow from x ~ 1e300: the ladder stops there and keeps its finite trace
    res = estimate_limit(method_catalog()[method], corpus_map()[(function, flavor)],
                         DEFAULT.replace(ladder_max_steps=1100))
    assert res.status is Status.OSCILLATING
    assert len(res.trace) > 900
    assert all(np.isfinite(x) and np.isfinite(v) for x, v in res.trace)


@pytest.mark.parametrize("kernel, function, x", [
    (exponential(1.0), ("sin", Flavor.ADDITIVE), 2.0 ** 1000),
    (power_law(1.0), ("alt", Flavor.MULTIPLICATIVE), 1e308)], ids=["exp1_sin", "power1_alt"])
def test_windows_near_the_largest_double_are_finite_or_fail(kernel, function, x):
    # a declared window's phase overflowed to NaN, and the dyadic pieces of
    # [1, 1e308] formed 2^1024 and raised OverflowError
    try:
        value = apply_forward(kernel, corpus_map()[function], x)
    except QuadratureFailed:
        return
    assert np.isfinite(value)


@pytest.mark.parametrize("label, limit", [("sin", 0.0), ("blocks", 0.5)])
def test_sampled_mean_converges_on_functions_periodic_in_t(label, limit):
    f = corpus_map()[(label, Flavor.MULTIPLICATIVE)]
    res = estimate_limit(MethodDescriptor(_sampled_m1(), Variant.FORWARD, "sampled M_1"), f)
    assert res.status is Status.CONVERGED
    assert abs(res.estimate - limit) < 2 * res.tolerance_used


# ---------------------------------------------------------------------------
# composition and transport

# U_(k1 * k2) f at COMPOSITION_XS for criterion 2's kernel pairs and functions,
# from the hand-written products e1 * e2 = e2 * p1 = 2 (e^-s - e^-2s) and
# e1 * p1 = s e^-s, p1 the additive transport of power_law(1)
# (tools/oracle_recheck.py recomputes them at 50 digits)
COMPOSITION_XS = (1.0, 3.0, 7.0, 15.0, 31.0)
COMPOSITION = {
    ("e1", "e2", "one"): (0.39957640089372803, 0.9029046154409385, 0.99817706759761,
                          0.9999993881954525, 0.9999999999999312),
    ("e1", "e2", "sin"): (0.1578581413174927, 0.6710150670694381, -0.3200324835081581,
                          0.5858706216489992, -0.6296529437472973),
    ("e1", "e2", "settle"): (0.3905434867413438, 0.47497716245707006, 0.31039736692337544,
                             0.30000838172379696, 0.30000000000204485),
    ("e1", "p1", "one"): (0.26424111765711533, 0.8008517265285442, 0.9927049442755639,
                          0.999995105562872, 0.9999999999988984),
    ("e1", "p1", "sin"): (0.09772828823737247, 0.5945703850359506, -0.37330359930943424,
                          0.3798464036479747, -0.45737117890171486),
    ("e1", "p1", "settle"): (0.2632120558828558, 0.464297325613951, 0.3201525914387548,
                             0.30003294567991806, 0.30000000001621063),
    ("e2", "p1", "one"): (0.39957640089372803, 0.9029046154409385, 0.99817706759761,
                          0.9999993881954525, 0.9999999999999312),
    ("e2", "p1", "sin"): (0.1578581413174927, 0.6710150670694381, -0.3200324835081581,
                          0.5858706216489992, -0.6296529437472973),
    ("e2", "p1", "settle"): (0.3905434867413438, 0.47497716245707006, 0.31039736692337544,
                             0.30000838172379696, 0.30000000000204485),
}
COMPOSITION_KERNELS = {"e1": exponential(1.0), "e2": exponential(2.0),
                       "p1": to_additive(power_law(1.0))}


def test_chain_apply_matches_nested():
    for (a, b, label), want in COMPOSITION.items():
        k1, k2 = COMPOSITION_KERNELS[a], COMPOSITION_KERNELS[b]
        f = corpus_map()[(label, Flavor.ADDITIVE)]
        nested = nested_apply(k2, k1, f, COMPOSITION_XS)
        direct = chain_apply([convolve(k1, k2)], f, COMPOSITION_XS)
        assert np.max(np.abs(nested - np.array(want))) < 1e-9, (a, b, label)
        assert np.max(np.abs(direct - np.array(want))) < 1e-9, (a, b, label)


def _full_grid_chain(kernels, f, xs, grid_points):
    """Every kernel convolved by FFT over the whole grid, then read at xs."""
    grid = np.linspace(0.0, max(xs), grid_points + 1)
    values = f(grid)
    for k in kernels:
        values = trapezoid_convolution(values, k.shape(grid), grid[1])
    return np.interp(xs, grid, values)


@pytest.mark.parametrize("labels", [("e1",), ("sampled",), ("e1", "ce"), ("sampled", "e2"),
                                    ("sampled", "e1", "sampled")])
@pytest.mark.parametrize("function", ["sin", "char_1"])
def test_chain_apply_probe_sums_match_full_grid(labels, function):
    # the trapezoid chain on 2^20 cells (h = 3e-5) is good to about 3e-10,
    # falling 4x per doubling of the cells; a sampled chain's exact
    # convolution adds nothing measurable to that (1.1e-10 to 3.1e-10 here)
    named = {"e1": exponential(1.0), "e2": exponential(2.0),
             "ce": counterexample_additive(1.0), "sampled": _sampled_exp()}
    kernels = [named[label] for label in labels]
    f = corpus_map()[(function, Flavor.ADDITIVE)]
    xs = np.array([1.0, 3.0, 7.0, 15.0, 31.0])
    got = chain_apply(kernels, f, xs)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - _full_grid_chain(kernels, f, xs, 2 ** 20))) < 1e-9


def test_chain_apply_absolute_accuracy():
    # U_exp(1) sin at x is (sin x - cos x + e^-x) / 2
    xs = np.array([1.0, 3.0, 7.0, 15.0, 31.0])
    want = (np.sin(xs) - np.cos(xs) + np.exp(-xs)) / 2
    assert np.max(np.abs(chain_apply([exponential(1.0)], SIN_ADD, xs) - want)) < 1e-9


def test_chain_apply_at_large_probes():
    # U_(e1 * e2) sin = Im U chi_1, and e1 * e2 = 2 (e^-s - e^-2s)
    form = ExpPoly([Term(2.0, 0, -1.0), Term(-2.0, 0, -2.0)])
    xs = np.array([1e3, 1e5])
    got = chain_apply([exponential(1.0), exponential(2.0)], SIN_ADD, xs)
    for x, value in zip(xs, got):
        want = character_reference(form, 1.0, x, Variant.FORWARD).imag
        assert abs(value - want) <= DEFAULT.tol_quad * (1 + SIN_ADD.bound), x


def test_chain_apply_with_near_equal_rates():
    # rates one part in 1e9 apart convolve like equal ones
    xs = [3.0, 30.0]
    near = chain_apply([exponential(1.0), exponential(1.0 + 1e-9)], SIN_ADD, xs)
    equal = chain_apply([exponential(1.0), exponential(1.0)], SIN_ADD, xs)
    assert np.max(np.abs(near - equal)) < 1e-8


@pytest.mark.parametrize("kernels, xs, grid_points", [
    ([exponential(1.0)], [-1.0], 2 ** 10),
    ([exponential(1.0)], [0.0], 2 ** 10),
    ([exponential(1.0)], [2.0, np.nan], 2 ** 10),
    ([exponential(1.0)], [np.inf], 2 ** 10),
    ([exponential(1.0)], [], 2 ** 10),
    ([], [2.0], 2 ** 10),
])
def test_chain_apply_rejects_invalid_input(kernels, xs, grid_points):
    with pytest.raises(InvalidArgument):
        chain_apply(kernels, SIN_ADD, xs, grid_points=grid_points)


def test_test_function_dtype_follows_its_values():
    x = np.linspace(0.0, 5.0, 11)
    assert SIN_ADD(x).dtype == np.float64
    assert ONE_ADD(x).dtype == np.float64
    assert corpus_map()[("char_1", Flavor.ADDITIVE)](x).dtype == np.complex128
    # a finite sequence keeps the dtype of its terms
    n = x + 1.0
    assert corpus_map()[("finite_ones", Flavor.MULTIPLICATIVE)](n).dtype == np.float64
    assert embed_sequence([1, 0, 1], "ints")(n).dtype == np.float64
    assert embed_sequence([1.0, 1j], "unit")(n).dtype == np.complex128


def test_chain_apply_keeps_sampled_tail():
    # sampled exp(-u) ends at u = 6; past it the kernel is its geometric tail
    t = np.linspace(0.0, 6.0, 400)
    k = normalize(sampled_kernel(t, np.exp(-t), Flavor.ADDITIVE))
    xs = [12.0, 20.0]
    direct = np.array([apply_forward(k, ONE_ADD, x) for x in xs])
    assert np.max(np.abs(chain_apply([k], ONE_ADD, xs) - direct)) < 1e-5


def test_transport_function_round_trip():
    g = transport_function(ONE_MUL)
    assert g.support_flavor is Flavor.ADDITIVE
    assert abs(g(np.array([3.0]))[0] - 1.0) < 1e-15
    with pytest.raises(FlavorMismatch):
        transport_function(ONE_ADD)


def test_transport_carries_only_a_declaration_in_log_t():
    # a declaration is given in the coordinate osc_scale names: t^(i a) is
    # e^(i a u) in u = log t, while sin declares its oscillation in t
    char = corpus_map()[("char_1", Flavor.MULTIPLICATIVE)]
    assert transport_function(char).oscillation is char.oscillation
    assert transport_function(SIN_MUL).oscillation is None


def test_transported_method_agrees():
    # M_psi(f) should match S_{transported psi}(f o exp)
    res_mul = estimate_limit(method_Mr(1.0), SETTLE_MUL, DEFAULT)
    add_kernel = to_additive(power_law(1.0))
    res_add = estimate_limit(
        MethodDescriptor(add_kernel, Variant.FORWARD, "transported"),
        transport_function(SETTLE_MUL), DEFAULT)
    assert res_mul.status is Status.CONVERGED
    assert res_add.status is Status.CONVERGED
    assert abs(res_mul.estimate - res_add.estimate) < 2 * DEFAULT.tol_limit(1.3)


# ---------------------------------------------------------------------------
# modulus of continuity

def test_continuity_bound_exponential():
    # for Exp(1): int |phi(t) - phi(t+d)| dt + int_0^d |phi| = 2 (1 - e^{-d})
    for delta in (1e-1, 1e-2, 1e-3):
        got = uniform_continuity_bound(exponential(1.0), delta)
        assert abs(got - 2 * (1 - np.exp(-delta))) < 1e-9


@pytest.mark.parametrize("delta", [-0.5, -1e-3, np.inf, np.nan])
def test_continuity_bound_needs_a_finite_nonnegative_delta(delta):
    with pytest.raises(InvalidArgument, match="delta"):
        uniform_continuity_bound(exponential(1.0), delta)


def test_continuity_bound_controls_operator():
    k = exponential(1.0)
    delta = 1e-2
    bound = uniform_continuity_bound(k, delta)
    for x in (5.0, 17.0):
        gap = abs(apply_forward(k, SIN_ADD, x + delta) - apply_forward(k, SIN_ADD, x))
        assert gap <= bound + 1e-6


def test_unbounded_function_diverges():
    # log t is declared bounded by 1, so its growing means pass the cap
    # 10 * bound * ||phi||_1 three times in a row
    log = engine.TestFunction("log", np.log, 1.0, Flavor.MULTIPLICATIVE, osc_scale="log")
    res = estimate_limit(method_catalog()["M"], log, DEFAULT)
    assert res.status is Status.DIVERGED
    assert res.estimate is None
    assert res.trace[-1][0] == 2.0 ** 18
    assert [abs(v) for _, v in res.trace[-3:]] == sorted(abs(v) for _, v in res.trace[-3:])


@pytest.mark.parametrize("call, error", [
    (lambda: chain_apply([power_law(1.0)], corpus_map()[("one", Flavor.MULTIPLICATIVE)],
                         [5.0], DEFAULT), FlavorMismatch),
    (lambda: uniform_continuity_bound(
        sampled_kernel(np.linspace(0.0, 10.0, 64), np.exp(-np.linspace(0.0, 10.0, 64)),
                       Flavor.ADDITIVE), 0.1, DEFAULT), InvalidArgument),
])
def test_operator_inputs_are_checked(call, error):
    with pytest.raises(error):
        call()
