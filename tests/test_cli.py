"""Command-line interface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import halfsum
from halfsum.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _json_tail(output: str) -> dict:
    """Parse the trailing JSON object of mixed text/JSON output."""
    start = output.index("{")
    return json.loads(output[start:])


def test_classify_nonvanishing(runner):
    res = runner.invoke(main, ["classify", "catalog:exponential(1)"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["kind"] == "nonvanishing_on_window"
    assert 0 < payload["margin"] <= payload["min_modulus"]


def test_classify_zero_found(runner):
    res = runner.invoke(main, ["classify", "catalog:counterexample_additive(1)"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["kind"] == "zero_found"
    assert abs(payload["zero_at"] - 1.0) < 1e-6


def test_classify_bad_kernel_spec(runner):
    res = runner.invoke(main, ["classify", "catalog:nope(1)"])
    assert res.exit_code == 1
    res = runner.invoke(main, ["classify", "gibberish"])
    assert res.exit_code == 1


@pytest.mark.parametrize("body", [
    {"catalog": "finite_mixture", "params": {"components": [{"params": {"rate": 1}}]}},
    {"catalog": "exponential", "params": {"rate": "x"}},
    {"samples": [[0.0, 1.0, 0.0], [1.0, 0.5]]},
    ["catalog", "samples"],
])
def test_classify_malformed_spec_file(runner, tmp_path, body):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"flavor": "additive", "body": body}))
    res = runner.invoke(main, ["classify", f"file:{path}"])
    assert res.exit_code == 1
    assert "error:" in res.output
    assert not isinstance(res.exception, (KeyError, IndexError, ValueError, TypeError))


@pytest.mark.parametrize("spec", ["catalog:exponential(1)", "catalog:counterexample_additive(1)"])
def test_spectrum_needs_two_points(runner, spec):
    for points in ("0", "1"):
        res = runner.invoke(main, ["spectrum", spec, "--points", points])
        assert res.exit_code == 1
        assert "error:" in res.output


def test_spectrum_csv(runner, tmp_path):
    out = tmp_path / "spec.csv"
    res = runner.invoke(main, ["--output", "csv", "spectrum",
                               "catalog:power_law(2)", "--points", "101",
                               "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "freq,re,im,modulus"
    assert len(lines) == 102
    verdict = _json_tail(res.output)
    assert verdict["verdict"]["kind"] == "nonvanishing_on_window"


def test_spectrum_json(runner):
    res = runner.invoke(main, ["spectrum", "catalog:exponential(1)",
                               "--points", "11"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["frequencies"]) == 11
    assert len(payload["values"]) == 11


def test_sum_converged(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "one"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "converged"
    assert abs(payload["estimate"][0] - 1.0) < 2e-4


def test_sum_oscillating_exits_zero(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "char_1"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "oscillating"
    assert payload["estimate"] is None
    assert payload["amplitude"] > 0.3


def test_sum_trace_csv(runner, tmp_path):
    trace = tmp_path / "trace.csv"
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "one", "--trace", str(trace)])
    assert res.exit_code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) >= 6  # at least a plateau window of ladder points
    x0 = float(lines[1].split(",")[0])
    x1 = float(lines[2].split(",")[0])
    assert x1 == 2 * x0


def test_sum_unknown_function(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "nope"])
    assert res.exit_code == 1


def test_sum_dual_variant(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "settle", "--variant", "dual"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "converged"
    assert abs(payload["estimate"][0] - 0.3) < 2e-4


def test_compare_agreeing_methods(runner):
    res = runner.invoke(main, ["compare", "M", "M_2", "--function", "one"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["agree"] is True
    assert payload["max_delta"] <= payload["tolerance"]


def test_compare_unknown_method(runner):
    res = runner.invoke(main, ["compare", "M", "nope", "--function", "one"])
    assert res.exit_code == 1


def test_compare_flavor_mismatch(runner):
    res = runner.invoke(main, ["compare", "M", "K", "--function", "one"])
    assert res.exit_code == 1


def test_verify_builtin_subset(runner, tmp_path):
    from halfsum.corpus import builtin_cases
    picks = [c.to_dict() for c in builtin_cases() if c.case_id == "bridge_finite"]
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(picks))
    res = runner.invoke(main, ["verify", "--cases", str(path)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["passed"] is True


def test_verify_failing_case(runner, tmp_path):
    case = {"case_id": "bogus", "function": "one", "flavor": "multiplicative",
            "methods": ["M"], "expected": "all_agree", "value": [0.25, 0.0]}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([case]))
    res = runner.invoke(main, ["verify", "--cases", str(path)])
    assert res.exit_code == 3
    payload = json.loads(res.output)
    assert payload["passed"] is False


def test_verify_malformed_case_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["verify", "--cases", str(path)])
    assert res.exit_code == 1


def test_global_option_validation(runner):
    res = runner.invoke(main, ["--tol", "-1", "classify", "catalog:exponential(1)"])
    assert res.exit_code == 1
    res = runner.invoke(main, ["--max-ladder", "0", "classify",
                               "catalog:exponential(1)"])
    assert res.exit_code == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_must_be_positive(runner, jobs):
    res = runner.invoke(main, ["--jobs", jobs, "verify"])
    assert res.exit_code == 1
    assert "error:" in res.output


def test_config_file_overlay(runner, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"ladder_max_steps": 20}))
    res = runner.invoke(main, ["--config", str(cfg), "sum",
                               "--kernel", "catalog:power_law(1)",
                               "--function", "one"])
    assert res.exit_code == 0


# a ladder that does not grow, or a one-point plateau window, reports
# "converged" at once (sin x M gave 0.2985 where the limit is 0); iterates
# run as kernel powers, so the nested-cache grid size is an unknown key; a
# negative pass limit or a string budget crashed mid-run with a traceback,
# and a negative frequency window "certified" with a negative margin
@pytest.mark.parametrize("bad", [
    {"no_such_knob": 1},
    {"iterate_cache_points": 4096},
    {"ladder_ratio": 1.0},
    {"ladder_ratio": 0.5},
    {"plateau_window": 1},
    {"plateau_window": 2.5},
    {"ladder_x0": 0.0},
    {"ladder_max_steps": 0},
    {"ladder_max_steps": 3.0},
    {"grid_pass_limit": -1},
    {"max_evals": "1e5"},
    {"max_evals": 0},
    {"freq_window": -5},
    {"x_max_quad": 0},
    {"refine_max_iter": 0},
])
def test_config_file_rejects_bad_settings(runner, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = runner.invoke(main, ["--config", str(path), "sum",
                               "--kernel", "catalog:power_law(1)",
                               "--function", "sin"])
    assert res.exit_code == 1
    assert "error:" in res.output and "Traceback" not in res.output


def test_demo(runner):
    res = runner.invoke(main, ["demo"])
    assert res.exit_code == 0
    assert "[ok] separation_char" in res.output
    assert "[ok] dual_sin" in res.output


def test_import_loads_no_scipy():
    # importing scipy.fft alone cost 0.3-0.4 s, most of the package's import time
    src = str(Path(halfsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, halfsum, halfsum.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
