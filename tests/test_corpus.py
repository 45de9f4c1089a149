"""Builtin corpus, method catalog, and the verification matrix."""

import json

import mpmath as mp
import numpy as np
import pytest

from halfsum.config import DEFAULT
from halfsum.corpus import (VerificationCase, _judge, builtin_cases, builtin_corpus,
                            corpus_map, load_cases, method_catalog, run_matrix)
from halfsum.engine import Chirp, Status, SummationResult, estimate_limit, transport_function
from halfsum.errors import ConfigError, FlavorMismatch
from halfsum.kernels import Flavor
from halfsum.spectrum import transform_grid


def test_corpus_labels_unique_per_flavor():
    seen = set()
    for f in builtin_corpus():
        key = (f.label, f.support_flavor)
        assert key not in seen
        seen.add(key)


def test_corpus_bounds_hold_on_samples():
    for f in builtin_corpus():
        lo = 1.0 if f.support_flavor is Flavor.MULTIPLICATIVE else 0.0
        x = np.linspace(lo + 1e-9, lo + 500.0, 4001)
        assert np.max(np.abs(f(x))) <= f.bound + 1e-12, f.label


def test_corpus_known_values_are_well_formed():
    # entries are (method label, expected value or None, note)
    for f in builtin_corpus():
        for method, value, note in f.known_values:
            assert isinstance(method, str) and isinstance(note, str), f.label
            if value is not None:
                complex(value)


def test_corpus_map_lookup():
    m = corpus_map()
    assert ("sin", Flavor.ADDITIVE) in m
    assert ("sin", Flavor.MULTIPLICATIVE) in m
    assert ("alt", Flavor.MULTIPLICATIVE) in m
    assert ("alt", Flavor.ADDITIVE) not in m


def test_bit_form_sequences_equal_their_arithmetic_forms():
    # alt and blocks are written with bit operations; each must give the
    # float64 values of its arithmetic form, bit for bit
    n = np.arange(1, 2 ** 20 + 1)
    m = corpus_map()
    for label, old in (("alt", (-1.0) ** n), ("blocks", ((n - 1) % 4 < 2).astype(float))):
        f = m[(label, Flavor.MULTIPLICATIVE)]
        new = np.asarray(f.sequence(n), dtype=float)
        assert new.tobytes() == old.tobytes(), label
        assert f(n + 0.5).tobytes() == old.tobytes(), label


def test_declared_oscillations_match_their_functions():
    # f = mean + B_1', B_k = B_(k+1)' and |B_K| <= bound, by central
    # differences at random t in [1, 1e4], kept inside a cell for sequences,
    # in the coordinate osc_scale names: u = log t for the multiplicative
    # characters, at u = t / 20.  The chirp sin(t^2) is checked below
    declared = [f for f in builtin_corpus() if f.oscillation is not None]
    assert {f.label for f in declared} == {"sin", "cos", "alt", "blocks", "char_0.5",
                                           "char_1", "char_2", "sin_sq"}
    rng = np.random.default_rng(11)
    t = rng.integers(1, 10 ** 4, 200) + rng.uniform(0.1, 0.9, 200)
    for f in declared:
        if isinstance(f.oscillation, Chirp):
            continue
        g, at = (transport_function(f), t / 20) if f.osc_scale == "log" else (f, t)
        up, down = at + 1e-5, at - 1e-5     # the steps as rounded, not 2e-5
        osc = f.oscillation
        rows = osc.antiderivatives(at)
        slope = (osc.antiderivatives(up) - osc.antiderivatives(down)) / (up - down)
        assert rows.shape == (osc.ORDER, t.size), f.label
        assert np.max(np.abs(slope[0] - (g(at) - osc.mean))) < 1e-8, f.label
        assert np.max(np.abs(slope[1:] - rows[:-1])) < 1e-8, f.label
        assert np.max(np.abs(rows[-1])) <= osc.bound, f.label


def test_chirp_antiderivatives_integrate_each_other():
    # B_1(t) = -int_t^inf sin(s^2) ds through erfc at 50 digits (mpmath),
    # and B_k(t + 2h) - B_k(t) = int B_(k-1) over [t, t + 2h] by 20-point
    # Gauss-Legendre at random t in [t_min, 1e4], h a power of two, so both
    # ends are exact, near 1/(2t), so the chirp turns 2 radians there
    osc = corpus_map()[("sin_sq", Flavor.ADDITIVE)].oscillation
    for t in (osc.t_min, 37.5, 1e4 + 0.3, 1.5 * 2.0 ** 29, 2.0 ** 30):
        with mp.workdps(50):
            rot = mp.expjpi(mp.mpf(1) / 4)
            want = -mp.im(rot * mp.sqrt(mp.pi) / 2 * mp.erfc(mp.mpf(t) / rot))
        assert abs(osc.antiderivatives(np.array([t]))[0, 0] - want) <= 1e-15 * abs(want), t
    rng = np.random.default_rng(3)
    t = np.exp(rng.uniform(np.log(osc.t_min), np.log(1e4), 100))
    h = 2.0 ** np.floor(np.log2(0.5 / t))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    inside = (t + h)[:, None] + h[:, None] * nodes
    rows = osc.antiderivatives(inside.ravel()).reshape(osc.ORDER, *inside.shape)
    integrals = h * (rows * weights).sum(axis=-1)
    steps = osc.antiderivatives(t + 2 * h) - osc.antiderivatives(t)
    k = np.arange(1, osc.ORDER)[:, None]
    # the truncated series leave the recurrence a residual below 1e-17
    assert np.all(np.abs(steps[1:] - integrals[:-1])
                  <= 2 * h * (1e-17 + 1e-12 * (2 * t) ** (1.0 - k)))
    assert np.max(np.abs(osc.antiderivatives(t)[-1])) <= osc.bound


def test_method_catalog_is_normalized():
    for label, method in method_catalog().items():
        assert abs(method.kernel.mass() - 1.0) < 1e-6, label


def test_catalog_iterates():
    # H_k runs the k-th convolution power of t^-1, e^-u in u = log t, whose
    # transform is (1 + i xi)^-k
    cat = method_catalog()
    xi = np.linspace(-20.0, 20.0, 81)
    for k in (1, 2, 3):
        got = transform_grid(cat[f"H_{k}"].kernel, xi)
        assert np.max(np.abs(got - (1.0 + 1j * xi) ** -k)) < 1e-14, k


def test_case_roundtrip():
    for case in builtin_cases():
        again = VerificationCase.from_dict(case.to_dict())
        assert again == case


def test_case_validation():
    with pytest.raises(ConfigError):
        VerificationCase("x", "one", Flavor.ADDITIVE, ("K",), "sideways")
    with pytest.raises(ConfigError):
        VerificationCase("x", "one", Flavor.ADDITIVE, ("K",), "separation")
    with pytest.raises(ConfigError):
        VerificationCase.from_dict({"case_id": "x"})
    # no methods ended in a traceback from max() of nothing
    with pytest.raises(ConfigError):
        VerificationCase("x", "one", Flavor.ADDITIVE, (), "all_agree", 1.0)
    with pytest.raises(ConfigError):
        VerificationCase("x", "one", Flavor.ADDITIVE, ("K", "K"), "all_agree", 1.0)
    # a status that no run can report failed the case only after both methods ran
    with pytest.raises(ConfigError):
        VerificationCase("x", "char_1", Flavor.ADDITIVE, ("S_ce1", "K"), "separation",
                         statuses=("converged", "wobbling"))
    # statuses on an all_agree case were never checked
    with pytest.raises(ConfigError):
        VerificationCase("x", "one", Flavor.MULTIPLICATIVE, ("M",), "all_agree", 1.0,
                         statuses=("oscillating",))


def test_load_cases(tmp_path):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([c.to_dict() for c in builtin_cases()[:2]]))
    cases = load_cases(path)
    assert len(cases) == 2
    with pytest.raises(ConfigError):
        load_cases(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ConfigError):
        load_cases(bad)


def test_run_matrix_rejects_unknown_labels():
    case = VerificationCase("x", "one", Flavor.MULTIPLICATIVE, ("no_such",),
                            "all_agree", 1.0)
    with pytest.raises(ConfigError):
        run_matrix([case], DEFAULT)


def test_run_matrix_rejects_unknown_function():
    case = VerificationCase("x", "no_such_fn", Flavor.MULTIPLICATIVE, ("M",),
                            "all_agree", 1.0)
    with pytest.raises(ConfigError):
        run_matrix([case], DEFAULT)


def test_run_matrix_single_case():
    cases = {c.case_id: c for c in builtin_cases()}
    report = run_matrix([cases["bridge_finite"]], DEFAULT)
    assert report.passed
    assert report.wall_time > 0
    d = report.to_dict()
    assert d["passed"] is True
    assert d["outcomes"][0]["case_id"] == "bridge_finite"


def test_run_matrix_detects_wrong_value():
    case = VerificationCase("wrong", "one", Flavor.MULTIPLICATIVE, ("M",),
                            "all_agree", 0.25)
    report = run_matrix([case], DEFAULT)
    assert not report.passed
    assert "wrong" in report.to_dict()["outcomes"][0]["case_id"]


def test_report_counts_only_its_operators_evaluations():
    # the count leaves out the catalog builds and kernel norms around the
    # operators, which made it 1 664 here against the operators' 270
    cases = {c.case_id: c for c in builtin_cases()}
    pair = [cases["bridge_alt"], cases["bridge_blocks"]]
    fns, cat = corpus_map(), method_catalog()
    direct = sum(estimate_limit(cat[m], fns[(c.function, c.flavor)], DEFAULT).evaluations
                 for c in pair for m in c.methods)
    first, second = run_matrix(pair, DEFAULT), run_matrix(pair, DEFAULT)
    assert first.evaluations == direct > 0
    assert second.evaluations == first.evaluations
    assert first.to_dict()["evaluations"] == direct


def test_run_matrix_checks_flavors_before_any_case_runs(monkeypatch):
    # a method of the other flavor stopped the matrix with FlavorMismatch
    # only after the cases before it had run
    def no_run(*args):
        raise AssertionError("a method ran before every case was resolved")

    monkeypatch.setattr("halfsum.corpus.estimate_limit", no_run)
    good = VerificationCase("good", "one", Flavor.MULTIPLICATIVE, ("M",), "all_agree", 1.0)
    mixed = VerificationCase("mixed", "one", Flavor.ADDITIVE, ("M",), "all_agree", 1.0)
    with pytest.raises(FlavorMismatch):
        run_matrix([good, mixed], DEFAULT)


def test_run_matrix_needs_a_case():
    # an empty matrix verified nothing and reported "passed"
    with pytest.raises(ConfigError):
        run_matrix([], DEFAULT)


def _result(status, estimate=None, amplitude=0.0):
    return SummationResult(estimate, Status(status), [], amplitude)


_AGREE = VerificationCase("agree", "sin", Flavor.MULTIPLICATIVE, ("M", "M_2"), "all_agree", 0.0)
_SEPARATE = VerificationCase("sep", "char_1", Flavor.ADDITIVE, ("S_ce1", "K"), "separation",
                             0.0, statuses=("converged", "oscillating"))
# the converging method second: its value was checked only when it came first
_SEPARATE_SECOND = VerificationCase("sep2", "char_1", Flavor.ADDITIVE, ("K", "S_ce1"),
                                    "separation", 5.0, statuses=("oscillating", "converged"))


@pytest.mark.parametrize("case, results, detail", [
    (_AGREE, {"M": _result("converged", 0j), "M_2": _result("inconclusive")},
     "methods did not converge: ['M_2']"),
    (_AGREE, {"M": _result("converged", 0j), "M_2": _result("converged", 0.5 + 0j)},
     "max deviation 5.000e-01 exceeds tolerance 1.000e-03"),
    (_SEPARATE, {"S_ce1": _result("oscillating", amplitude=1.0),
                 "K": _result("oscillating", amplitude=1.0)},
     "statuses (oscillating, oscillating) != expected (converged, oscillating)"),
    (_SEPARATE, {"S_ce1": _result("converged", 0.5 + 0j), "K": _result("oscillating", amplitude=1.0)},
     "S_ce1 converged to (0.5+0j), not 0.0"),
    (_SEPARATE, {"S_ce1": _result("converged", 0j), "K": _result("oscillating", amplitude=1e-3)},
     "oscillation amplitude 1.000e-03 too small to certify separation"),
    (_SEPARATE_SECOND, {"K": _result("oscillating", amplitude=1.0),
                        "S_ce1": _result("converged", 0j)},
     "S_ce1 converged to 0j, not 5.0"),
])
def test_judge_says_why_a_case_failed(case, results, detail):
    outcome = _judge(case, results, 1e-3)
    assert not outcome.passed
    assert outcome.detail == detail
