"""End-to-end acceptance gate.

Each test is one pass/fail line covering a headline guarantee of the library,
at its stated numeric tolerance and wall-clock budget.  The nine criteria:

1.  closed-form transform of the power-mean kernels
2.  composition of convolution methods
3.  equivalence of the power-mean family
4.  agreement of iterated means
5.  forward/dual equivalence
6.  separation via a planted transform zero
7.  the continuous/discrete averaging bridge
8.  regularity (classical limits are preserved) with zero false statuses
9.  uniform-continuity bound on the smoothed output

and the wall-clock gate of an exact sampled square.
"""

import time

import numpy as np
import pytest

from halfsum.config import DEFAULT
from halfsum.corpus import builtin_corpus, corpus_map, method_catalog
from halfsum.engine import (MethodDescriptor, Status, Variant, apply_forward,
                            chain_apply, discrete_cesaro, embed_sequence,
                            estimate_limit, method_Mr, nested_apply,
                            uniform_continuity_bound)
from halfsum.kernels import (Flavor, convolve, counterexample_additive,
                             exponential, normalize, power, power_law, sampled_kernel)
from halfsum.spectrum import classify_wiener, transform_numeric
from test_engine import COMPOSITION, COMPOSITION_KERNELS, COMPOSITION_XS


class Budget:
    """Assert the wall-clock budget on exit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeded the {self.seconds:.0f}s budget")


def test_criterion_1_transform_formula():
    with Budget(5):
        xi = np.linspace(-50.0, 50.0, 201)
        for r in (0.5, 1.0, 2.0, 5.0):
            got = transform_numeric(power_law(r), xi)
            want = r / (r + 1j * xi)
            assert np.max(np.abs(got - want)) < 1e-6


def test_criterion_2_composition_law():
    # both sides against U_(k1 * k2) f from hand-written kernel products,
    # frozen at 50 digits (tools/oracle_recheck.py)
    with Budget(10):
        cm = corpus_map()
        worst = 0.0
        for (a, b, label), want in COMPOSITION.items():
            k1, k2 = COMPOSITION_KERNELS[a], COMPOSITION_KERNELS[b]
            f = cm[(label, Flavor.ADDITIVE)]
            nested = nested_apply(k2, k1, f, COMPOSITION_XS)
            direct = chain_apply([convolve(k1, k2)], f, COMPOSITION_XS)
            worst = max(worst, float(np.max(np.abs(nested - np.array(want)))),
                        float(np.max(np.abs(direct - np.array(want)))))
        assert worst < 1e-6


def test_criterion_3_power_mean_equivalence():
    with Budget(60):
        cm = corpus_map()
        methods = [method_Mr(0.5), method_Mr(1.0), method_Mr(2.0)]
        targets = [("sin", 0.0), ("one", 1.0), ("half", 0.5), ("settle", 0.3)]
        for label, limit in targets:
            f = cm[(label, Flavor.MULTIPLICATIVE)]
            estimates = []
            for m in methods:
                res = estimate_limit(m, f, DEFAULT)
                assert res.status is Status.CONVERGED, (label, m.label)
                assert abs(res.estimate - limit) < 2e-4, (label, m.label)
                estimates.append(res.estimate)
            spread = max(abs(u - v) for u in estimates for v in estimates)
            assert spread < 2e-4, label


def test_criterion_4_iterated_means_agree():
    with Budget(120):
        cat = method_catalog()
        for f in builtin_corpus():
            if f.support_flavor is not Flavor.MULTIPLICATIVE:
                continue
            base = estimate_limit(cat["H_1"], f, DEFAULT)
            if base.status is not Status.CONVERGED:
                continue
            for label in ("H_2", "H_3"):
                res = estimate_limit(cat[label], f, DEFAULT)
                assert res.status is Status.CONVERGED, (f.label, label)
                assert abs(res.estimate - base.estimate) < 2e-4, (f.label, label)


def test_criterion_5_forward_dual_equivalence():
    with Budget(60):
        cm = corpus_map()
        for label in ("one", "sin", "settle"):
            f = cm[(label, Flavor.MULTIPLICATIVE)]
            for r in (0.5, 1.0, 2.0):
                fwd = estimate_limit(method_Mr(r), f, DEFAULT)
                dual = estimate_limit(method_Mr(r, Variant.DUAL), f, DEFAULT)
                assert fwd.status is Status.CONVERGED, (label, r)
                assert dual.status is Status.CONVERGED, (label, r)
                assert abs(fwd.estimate - dual.estimate) < 2e-4, (label, r)


def test_criterion_6_transform_zero_separation():
    with Budget(30):
        char = corpus_map()[("char_1", Flavor.ADDITIVE)]
        ce = MethodDescriptor(counterexample_additive(1.0), Variant.FORWARD, "ce")
        res_ce = estimate_limit(ce, char, DEFAULT)
        assert res_ce.status is Status.CONVERGED
        assert abs(res_ce.estimate) < 1e-3
        res_k = estimate_limit(method_catalog()["K"], char, DEFAULT)
        assert res_k.status is Status.OSCILLATING
        assert res_k.oscillation_amplitude > 0.3
        profile = classify_wiener(counterexample_additive(1.0))
        assert profile.verdict.kind == "zero_found"
        assert abs(profile.verdict.zero_at - 1.0) < 1e-6


def test_criterion_7_discrete_bridge():
    with Budget(10):
        alt = embed_sequence(lambda n: (-1.0) ** n, "alt")
        res = estimate_limit(method_Mr(1.0), alt, DEFAULT)
        assert res.status is Status.CONVERGED
        assert abs(res.estimate) < 1e-3
        discrete = discrete_cesaro(lambda n: (-1.0) ** n, 2 ** 20)
        assert abs(res.estimate - discrete) < 1e-3


def test_criterion_8_regularity_zero_false_statuses():
    with Budget(120):
        cat = method_catalog()
        for f in builtin_corpus():
            if f.classical_limit is None:
                continue
            for label, method in cat.items():
                if method.kernel.flavor is not f.support_flavor:
                    continue
                res = estimate_limit(method, f, DEFAULT)
                assert res.status is Status.CONVERGED, (f.label, label, res.status)
                assert abs(res.estimate - f.classical_limit) < 2e-4, (f.label, label)


def test_criterion_9_uniform_continuity_bound():
    with Budget(30):
        kernel = exponential(1.0)
        f = corpus_map()[("sin", Flavor.ADDITIVE)]
        probes = np.array([0.5, 2.0, 5.0, 11.0, 23.0, 47.0])
        for delta in (1e-1, 1e-2, 1e-3):
            bound = uniform_continuity_bound(kernel, delta)
            measured = max(
                abs(apply_forward(kernel, f, x + delta) - apply_forward(kernel, f, x))
                for x in probes)
            assert measured <= bound + 1e-5, delta


def test_sampled_square_is_fast():
    # the square of a normalized 32 768-sample e^(-u) is exact, u e^(-u), at
    # its 65 535 kinks; an O(N^2) direct product of the cells took 0.85-0.89 s
    # on a 2-core Xeon, the FFT product of the cells about 0.03 s there
    t = np.linspace(0.0, 40.0, 32768)
    k = normalize(sampled_kernel(t, np.exp(-t), Flavor.ADDITIVE))
    start = time.perf_counter()
    square = power(k, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"squaring took {elapsed:.3f}s"
    u = square.breaks
    assert u.size == 2 * t.size - 1
    assert np.max(np.abs(square.body.values - u * np.exp(-u))) < 1e-10
