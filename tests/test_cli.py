"""Command-line interface: subcommands, formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import halfsum
from halfsum.cli import main
from halfsum.config import DEFAULT, Settings
from halfsum.errors import ConfigError


@pytest.fixture
def runner():
    return CliRunner()


def _json_tail(output: str) -> dict:
    """Parse the trailing JSON object of mixed text/JSON output."""
    start = output.index("{")
    return json.loads(output[start:])


def _assert_one_error_line(res):
    """The command ended in the group's error handler, not in an exception."""
    assert res.exit_code == 1
    assert "error:" in res.output
    assert isinstance(res.exception, SystemExit), res.exception


# exponential(1) minus exponential(2): both have unit mass, so the mixture has none
ZERO_MASS_SPEC = {"flavor": "additive", "body": {"catalog": "finite_mixture", "params": {
    "components": [{"coef": [1, 0], "catalog": "exponential", "params": {"rate": 1}},
                   {"coef": [-1, 0], "catalog": "exponential", "params": {"rate": 2}}]}}}


@pytest.mark.parametrize("argv", [["classify", "SPEC"], ["spectrum", "SPEC"],
                                  ["sum", "--kernel", "SPEC", "--function", "one"]])
def test_zero_mass_kernel_is_an_error(runner, tmp_path, argv):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_MASS_SPEC))
    res = runner.invoke(main, [a.replace("SPEC", f"file:{path}") for a in argv])
    _assert_one_error_line(res)
    assert "mass" in res.output


def test_console_error_prints_no_traceback(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_MASS_SPEC))
    src = str(Path(halfsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-m", "halfsum.cli", "classify", f"file:{path}"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


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


def test_sum_csv(runner):
    res = runner.invoke(main, ["--output", "csv", "sum", "--kernel", "catalog:power_law(1)",
                               "--function", "char_1"])
    assert res.exit_code == 0
    header, row = res.output.splitlines()
    assert header == "estimate_re,estimate_im,status,amplitude,evaluations"
    assert row.startswith(",,oscillating,")


def test_sum_unknown_function(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "nope"])
    _assert_one_error_line(res)


def test_sum_dual_variant(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "settle", "--variant", "dual"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "converged"
    assert abs(payload["estimate"][0] - 0.3) < 2e-4


def test_sum_iterations_run_the_kernel_power(runner):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "sin", "--iterations", "2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "converged"
    assert abs(payload["estimate"][0]) < 2e-4


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sum_iterations_below_one_are_an_error(runner, count):
    res = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                               "--function", "one", "--iterations", count])
    _assert_one_error_line(res)


def test_sum_iterate_of_a_sampled_kernel_keeps_its_mass(runner, tmp_path):
    # a sampled e^(-u/10) on [0, 40]: its cube was a trapezoid sum on a
    # [0, 60] grid of mass 1.0068, refused as "not normalized"; it is an
    # exact body now, of mass 1, whose mean of "one" converges to 1
    u = [40.0 * i / 511 for i in range(512)]
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({"flavor": "additive", "body": {
        "samples": [[t, math.exp(-0.1 * t), 0.0] for t in u]}}))
    argv = ["sum", "--kernel", f"file:{path}", "--function", "one"]
    for count in ("1", "2", "3"):
        res = runner.invoke(main, argv + ["--iterations", count])
        assert res.exit_code == 0, count
        payload = json.loads(res.output)
        assert payload["status"] == "converged", count
        assert abs(payload["estimate"][0] - 1.0) < 2e-4, count


def test_compare_agreeing_methods(runner):
    res = runner.invoke(main, ["compare", "M", "M_2", "--function", "one"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["agree"] is True
    assert payload["max_delta"] <= payload["tolerance"]


def test_compare_oscillating_methods_agree_by_status(runner):
    res = runner.invoke(main, ["compare", "S_exp1", "K", "--function", "char_1"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["S_exp1"]["status"] == payload["K"]["status"] == "oscillating"
    assert payload["agree"] is True and payload["max_delta"] is None


def test_compare_inconclusive_exits_2(runner):
    res = runner.invoke(main, ["--max-ladder", "2", "compare", "S_exp1", "K",
                               "--function", "char_1"])
    assert res.exit_code == 2
    assert json.loads(res.output)["agree"] is None


def test_compare_unknown_method(runner):
    res = runner.invoke(main, ["compare", "M", "nope", "--function", "one"])
    _assert_one_error_line(res)


def test_compare_flavor_mismatch(runner):
    res = runner.invoke(main, ["compare", "M", "K", "--function", "one"])
    _assert_one_error_line(res)


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


GOOD_CASE = {"case_id": "c", "function": "one", "flavor": "multiplicative",
             "methods": ["M"], "expected": "all_agree", "value": [1.0, 0.0]}


@pytest.mark.parametrize("entry", [
    {**GOOD_CASE, "value": [0.25]},
    "abc",
    {**GOOD_CASE, "value": "1"},
    {**GOOD_CASE, "value": [1.0, float("nan")]},
    {**GOOD_CASE, "value": True},
    {**GOOD_CASE, "tolerance": "big"},
    {**GOOD_CASE, "tolerance": 0},
    {**GOOD_CASE, "tolerance": float("inf")},
    {**GOOD_CASE, "case_id": 1},
    {**GOOD_CASE, "methods": [["M"]]},
    {key: v for key, v in GOOD_CASE.items() if key != "value"},
    {**GOOD_CASE, "function": "char_1", "flavor": "additive", "methods": ["S_ce1", "K"],
     "expected": "separation"},
    # no methods ended in a traceback; a duplicate ran twice and was judged once
    {**GOOD_CASE, "methods": []},
    {**GOOD_CASE, "methods": ["M", "M"]},
    # a status no run reports, or a method of the other flavor, stopped the
    # matrix only after methods had run
    {**GOOD_CASE, "function": "char_1", "flavor": "additive", "methods": ["S_ce1", "K"],
     "expected": "separation", "statuses": ["converged", "wobbling"]},
    {**GOOD_CASE, "flavor": "additive"},
])
def test_verify_malformed_case_is_an_error_before_any_method_runs(runner, tmp_path,
                                                                   monkeypatch, entry):
    def no_run(*args):
        raise AssertionError("a method ran on a malformed case file")

    monkeypatch.setattr("halfsum.corpus.estimate_limit", no_run)
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([entry]))
    res = runner.invoke(main, ["verify", "--cases", str(path)])
    _assert_one_error_line(res)


def test_verify_empty_case_file_is_an_error(runner, tmp_path):
    # it printed "passed": true and exited 0, having verified nothing
    path = tmp_path / "cases.json"
    path.write_text("[]")
    _assert_one_error_line(runner.invoke(main, ["verify", "--cases", str(path)]))


def test_verify_measured_entries_are_result_records(runner, tmp_path):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([GOOD_CASE]))
    res = runner.invoke(main, ["verify", "--cases", str(path)])
    assert res.exit_code == 0
    measured = json.loads(res.output)["outcomes"][0]["measured"]["M"]
    summed = runner.invoke(main, ["sum", "--kernel", "catalog:power_law(1)",
                                  "--function", "one"])
    assert set(measured) == set(json.loads(summed.output)) == {
        "estimate", "status", "amplitude", "evaluations", "tolerance"}


# the flags pass the config file's settings check: an infinite tolerance
# reported char_1 as "converged" and a NaN one printed "tolerance": NaN
@pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                   ["--max-ladder", "0"]])
def test_global_option_validation(runner, flags):
    res = runner.invoke(main, flags + ["sum", "--kernel", "catalog:power_law(1)",
                                       "--function", "char_1"])
    _assert_one_error_line(res)


def test_flags_overlay_the_config_file(runner, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"tol_limit_scale": 1e-3, "ladder_max_steps": 20}))
    res = runner.invoke(main, ["--config", str(cfg), "--tol", "1e-2", "sum",
                               "--kernel", "catalog:power_law(1)", "--function", "one"])
    assert res.exit_code == 0
    assert json.loads(res.output)["tolerance"] == pytest.approx(2e-2)


@pytest.mark.parametrize("content", [None, "[1, 2]"])
def test_config_file_that_is_missing_or_not_an_object_is_an_error(runner, tmp_path, content):
    cfg = tmp_path / "settings.json"
    if content is not None:
        cfg.write_text(content)
    _assert_one_error_line(runner.invoke(main, ["--config", str(cfg), "verify"]))


def test_config_file_overlay(runner, tmp_path):
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({"ladder_max_steps": 20}))
    res = runner.invoke(main, ["--config", str(cfg), "sum",
                               "--kernel", "catalog:power_law(1)",
                               "--function", "one"])
    assert res.exit_code == 0


# a ladder that does not grow reports "converged" at once (sin x M gave
# 0.2985 where the limit is 0); iterates run as kernel powers, so the
# nested-cache grid size is an unknown key; a string budget crashed mid-run
# with a traceback
@pytest.mark.parametrize("bad", [
    {"no_such_knob": 1},
    {"iterate_cache_points": 4096},
    {"ladder_ratio": 1.0},
    {"ladder_ratio": 0.5},
    {"ladder_max_steps": 0},
    {"ladder_max_steps": 3.0},
    {"max_evals": "1e5"},
    {"max_evals": 0},
    {"tol_limit_scale": float("inf")},
    {"tol_quad": float("inf")},
    {"ladder_ratio": float("inf")},
])
def test_config_file_rejects_bad_settings(runner, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = runner.invoke(main, ["--config", str(path), "sum",
                               "--kernel", "catalog:power_law(1)",
                               "--function", "sin"])
    assert res.exit_code == 1
    assert "error:" in res.output and "Traceback" not in res.output


# sampled convolutions are exact, so the trapezoid grid's window x_max_quad
# is no longer a setting; nor are the fixed policies that no caller varied,
# now module constants: the values that once crashed mid-run (a negative
# pass limit), "certified" with a negative margin (a negative frequency
# window) or "converged" at once (a one-point plateau window) are refused
# with every other value of those keys
@pytest.mark.parametrize("old", [
    {"x_max_quad": 60.0},
    {"plateau_window": 1},
    {"plateau_window": 2.5},
    {"ladder_x0": 0.0},
    {"grid_pass_limit": -1},
    {"freq_window": -5},
    {"refine_max_iter": 0},
    {"zero_epsilon": 1e-9},
    {"mass_epsilon": 1e-10},
])
def test_config_file_naming_a_removed_setting_is_an_error(runner, tmp_path, old):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    for argv in (["sum", "--kernel", "catalog:power_law(1)", "--function", "one"],
                 ["classify", "catalog:exponential(1)"]):
        res = runner.invoke(main, ["--config", str(path), *argv])
        _assert_one_error_line(res)
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unknown config keys")
        assert lines[0].endswith(str(sorted(old))) and "Traceback" not in res.output


# library callers meet the config file's check: DEFAULT.replace with a NaN
# tolerance limit reported "inconclusive" with a NaN tolerance
@pytest.mark.parametrize("bad", [
    {"tol_limit_scale": float("nan")},
    {"tol_quad": float("inf")},
    {"ladder_ratio": 1.0},
    {"ladder_max_steps": True},
    {"max_evals": "1e5"},
])
def test_settings_check_their_own_bounds(bad):
    with pytest.raises(ConfigError):
        DEFAULT.replace(**bad)
    with pytest.raises(ConfigError):
        Settings(**bad)


def test_demo(runner):
    res = runner.invoke(main, ["demo"])
    assert res.exit_code == 0
    assert "[ok] separation_char" in res.output
    assert "[ok] dual_sin" in res.output


def _fresh_output(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this halfsum."""
    src = str(Path(halfsum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # importing scipy.fft alone cost 0.3-0.4 s, most of the package's import time
    assert _fresh_output("import sys, halfsum, halfsum.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") \
        == "[]"


def test_transforms_load_no_numpy_ma():
    # np.unique (without return_inverse) and np.union1d import numpy.ma on
    # first use: about 10 ms
    assert _fresh_output(
        "import sys, numpy as np, halfsum\n"
        "from halfsum import kernels, spectrum\n"
        "spectrum.classify_wiener(kernels.counterexample_additive(1.0))\n"
        "u = np.linspace(0.0, 40.0, 512)\n"
        "k = kernels.sampled_kernel(u, np.exp(-u), kernels.Flavor.ADDITIVE)\n"
        "spectrum.transform_numeric(k, np.linspace(-50.0, 50.0, 9))\n"
        "print('numpy.ma' in sys.modules)") == "False"
