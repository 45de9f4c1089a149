"""Builtin corpus, method catalog, and the verification matrix."""

import json

import numpy as np
import pytest

from halfsum.config import DEFAULT
from halfsum.corpus import (VerificationCase, builtin_cases, builtin_corpus,
                            corpus_map, load_cases, method_catalog, run_matrix)
from halfsum.errors import ConfigError
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
    # differences at random t in [1, 1e4], kept inside a cell for sequences
    declared = [f for f in builtin_corpus() if f.oscillation is not None]
    assert {f.label for f in declared} == {"sin", "cos", "alt", "blocks"}
    rng = np.random.default_rng(11)
    t = rng.integers(1, 10 ** 4, 200) + rng.uniform(0.1, 0.9, 200)
    up, down = t + 1e-5, t - 1e-5     # the steps as rounded, not 2e-5
    for f in declared:
        osc = f.oscillation
        rows = osc.antiderivatives(t)
        slope = (osc.antiderivatives(up) - osc.antiderivatives(down)) / (up - down)
        assert rows.shape == (osc.ORDER, t.size), f.label
        assert np.max(np.abs(slope[0] - (f(t) - osc.mean))) < 1e-8, f.label
        assert np.max(np.abs(slope[1:] - rows[:-1])) < 1e-8, f.label
        assert np.max(np.abs(rows[-1])) <= osc.bound, f.label


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


def test_run_matrix_counts_evaluations_in_workers():
    cases = {c.case_id: c for c in builtin_cases()}
    pair = [cases["bridge_alt"], cases["bridge_blocks"]]
    serial = run_matrix(pair, DEFAULT, jobs=1)
    parallel = run_matrix(pair, DEFAULT, jobs=2)
    assert serial.evaluations > 0
    assert parallel.evaluations == serial.evaluations


def test_run_matrix_starts_no_more_workers_than_cases_or_cores(monkeypatch):
    # a pool that records its size and maps serially: no process is started
    import concurrent.futures
    import os
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cases = [VerificationCase(f"one_{i}", "one", Flavor.MULTIPLICATIVE, ("M",),
                              "all_agree", 1.0) for i in range(3)]
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_matrix(cases, DEFAULT, jobs=5000).passed
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_matrix(cases, DEFAULT, jobs=5000).passed
    run_matrix(cases[:1], DEFAULT, jobs=5000)
    assert sizes == [3, 2]
