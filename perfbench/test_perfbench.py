"""Tests of the benchmark itself: answer checking, repeatable counts, tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import halfsum  # noqa: E402
from halfsum import DEFAULT, Flavor, corpus, engine, kernels, quadrature, spectrum  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402


def _one_add():
    return corpus.corpus_map()[("one", Flavor.ADDITIVE)]


def test_wrong_estimate_counts_as_failed():
    f = _one_add()
    method = corpus.method_catalog()["S_exp1"]
    right = jobs._limit_job(f, "S_exp1", method, jobs.expected_answer(f, "S_exp1"))
    wrong = jobs._limit_job(f, "S_exp1", method,
                            jobs.Expect("converged", 0.5 + 0j, 1e-3, "test"))
    assert jobs.check(right)["ok"]
    row = jobs.check(wrong)
    assert not row["ok"] and "err=5.000e-01" in row["status"]


def test_raising_or_other_status_counts_as_failed():
    def boom():
        raise quadrature.QuadratureFailed("budget")
    assert not jobs.check(jobs.Job("raises", boom, jobs.Expect("converged")))["ok"]
    inconclusive = jobs.Job("gap", lambda: ("inconclusive", None),
                            jobs.Expect("converged", 0j, 1e-3))
    assert not jobs.check(inconclusive)["ok"]


def test_every_sweep_pair_has_an_expected_answer():
    sweep = jobs.sweep_jobs()
    assert len(sweep) == 155
    assert all(j.expect.source for j in sweep)


def test_seeded_inputs_follow_the_seed():
    def answers(seed):
        return [(j.name, j.expect.value) for j in jobs.build("sequences", seed)]
    assert answers(3) == answers(3)
    assert answers(3) != answers(4)


_COUNT_SCRIPT = """
import jobs
from halfsum import Flavor, corpus
from halfsum.quadrature import counter
cm = corpus.corpus_map()
job_list = (jobs.pair_jobs([cm[("sin", Flavor.MULTIPLICATIVE)]], ["M", "M_2"])
            + jobs.pair_jobs([cm[("alt", Flavor.MULTIPLICATIVE)]], ["M"]))
assert all(jobs.check(j)["ok"] for j in job_list)
print(counter.count)
"""


def test_evals_repeat_exactly_across_fresh_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))

    def count():
        out = subprocess.run([sys.executable, "-c", _COUNT_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        return int(out.stdout.split()[-1])
    first, second = count(), count()
    assert first > 0 and first == second


def _bindings():
    return {
        "quadrature.integrate_adaptive": quadrature.integrate_adaptive,
        "engine.integrate_adaptive": engine.integrate_adaptive,
        "kernels.integrate_adaptive": kernels.integrate_adaptive,
        "spectrum.integrate_adaptive": spectrum.integrate_adaptive,
        "spectrum.fourier_piecewise_linear": spectrum.fourier_piecewise_linear,
        "corpus.estimate_limit": corpus.estimate_limit,
        "halfsum.estimate_limit": halfsum.estimate_limit,
        "halfsum.classify_wiener": halfsum.classify_wiener,
        "engine.power": engine.power,
        "RunningIntegral.value_to": quadrature.RunningIntegral.__dict__["value_to"],
        "ExpPoly.__call__": halfsum.exppoly.ExpPoly.__dict__["__call__"],
        "Kernel.l1_norm": kernels.Kernel.__dict__["l1_norm"],
    }


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    with tracing.Tracer() as tracer:
        during = _bindings()
        f = corpus.corpus_map()[("sin", Flavor.ADDITIVE)]
        engine.apply_forward(kernels.exponential(1.0), f, 8.0, DEFAULT)
    assert all(during[k] is not before[k] for k in before), \
        [k for k in before if during[k] is before[k]]
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"quadrature.integrate_adaptive", "exppoly.eval"} <= names


def test_self_times_account_for_the_traced_wall_time():
    f = corpus.corpus_map()[("settle", Flavor.MULTIPLICATIVE)]
    job_list = jobs.pair_jobs([f], ["M", "M*_1", "H_2"])
    with tracing.Tracer() as tracer:
        root = tracer.open("bench.job")
        c0 = quadrature.counter.count
        assert all(jobs.check(j)["ok"] for j in job_list)
        tracer.close(root)
        evals = quadrature.counter.count - c0
    layers = tracer.layers()
    wall = root.t1 - root.t0
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(wall, rel=1e-9)
    assert sum(row["evals"] for row in layers.values()) == evals
    m = tracing.layer_metrics(layers, evals)
    assert m["engine.estimate_limit.calls"] == 3
    assert m["engine.ladder_points"] > 0
    assert m["quadrature.running_integral.evals"] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_format(trace, section):
    """The last output line holds exactly the four keys and every metric of its section."""
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                          "additive", "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == spec
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
