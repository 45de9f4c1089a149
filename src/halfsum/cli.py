"""Command-line front end.

Subcommands wrap the library: ``classify`` and ``spectrum`` expose the
transform zero-set machinery, ``sum`` and ``compare`` the limit estimator,
``verify`` the builtin verification matrix, and ``demo`` two end-to-end
showcases.  Everything prints machine-readable JSON (or CSV where a table is
the natural shape) so scripts and CI can consume the results.

Exit codes: 0 success, 1 usage or parse error, 2 inconclusive verdict or
status, 3 verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import corpus as corpus_mod
from .config import DEFAULT, Settings, load_settings
from .engine import MethodDescriptor, Status, Variant, estimate_limit
from .errors import HalfsumError
from .kernels import Flavor, normalize, parse_kernel_arg
from .spectrum import classify_wiener

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAIL = 3


def _echo_json(payload: dict):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=False), default=None,
              help="JSON settings file overlaying the defaults.")
@click.option("--tol", type=float, default=None,
              help="Limit-detection tolerance override (positive).")
@click.option("--max-ladder", type=int, default=None,
              help="Maximum number of ladder doublings.")
@click.option("--output", "output_fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Parallel workers for the verification matrix.")
@click.pass_context
def main(ctx, config_path, tol, max_ladder, output_fmt, jobs):
    """Summability methods on the half-line: classify kernels, estimate limits."""
    settings = DEFAULT
    try:
        if config_path is not None:
            settings = load_settings(config_path)
        if tol is not None:
            if tol <= 0:
                raise HalfsumError("--tol must be positive")
            settings = settings.replace(tol_limit_scale=tol)
        if max_ladder is not None:
            if max_ladder < 1:
                raise HalfsumError("--max-ladder must be at least 1")
            settings = settings.replace(ladder_max_steps=max_ladder)
        if jobs < 1:
            raise HalfsumError("--jobs must be at least 1")
    except HalfsumError as exc:
        _fail(str(exc))
    ctx.obj = {"settings": settings, "output": output_fmt, "jobs": jobs}


def _parse_kernel(spec: str, settings: Settings):
    try:
        return parse_kernel_arg(spec, settings)
    except HalfsumError as exc:
        _fail(f"cannot parse kernel spec {spec!r}: {exc}")


def _lookup_function(name: str, flavor: Flavor):
    key = name.removeprefix("catalog:")
    fn = corpus_mod.corpus_map().get((key, flavor))
    if fn is None:
        available = sorted({lab for (lab, fl) in corpus_mod.corpus_map() if fl is flavor})
        _fail(f"unknown {flavor.value} function {key!r}; available: {', '.join(available)}")
    return fn


def _result_payload(result) -> dict:
    est = result.estimate
    return {
        "estimate": None if est is None else [est.real, est.imag],
        "status": result.status.value,
        "amplitude": result.oscillation_amplitude,
        "evaluations": result.evaluations,
        "tolerance": result.tolerance_used,
    }


# ---------------------------------------------------------------------------
# classify / spectrum

@main.command()
@click.argument("kernel_spec")
@click.pass_context
def classify(ctx, kernel_spec):
    """Zero-set verdict for a kernel's transform (whole line for closed forms)."""
    settings = ctx.obj["settings"]
    kernel = normalize(_parse_kernel(kernel_spec, settings), settings)
    try:
        profile = classify_wiener(kernel, settings)
    except HalfsumError as exc:
        _fail(str(exc))
    payload = profile.verdict.to_dict()
    payload["min_modulus"] = profile.min_modulus
    _echo_json(payload)
    sys.exit(EXIT_OK if payload["kind"] != "inconclusive" else EXIT_INCONCLUSIVE)


@main.command()
@click.argument("kernel_spec")
@click.option("--points", type=int, default=1001, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the CSV table here instead of stdout.")
@click.pass_context
def spectrum(ctx, kernel_spec, points, out_path):
    """Export the transform on a frequency grid plus the zero-set verdict."""
    settings = ctx.obj["settings"]
    kernel = normalize(_parse_kernel(kernel_spec, settings), settings)
    try:
        profile = classify_wiener(kernel, settings, n_points=points)
    except HalfsumError as exc:
        _fail(str(exc))
    if ctx.obj["output"] == "json":
        _echo_json({
            "frequencies": profile.frequencies.tolist(),
            "values": [[v.real, v.imag] for v in profile.values],
            "verdict": profile.verdict.to_dict(),
        })
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["freq", "re", "im", "modulus"])
        for xi, v in zip(profile.frequencies, profile.values):
            writer.writerow([repr(float(xi)), repr(float(v.real)),
                             repr(float(v.imag)), repr(float(abs(v)))])
        table = buf.getvalue()
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(table)
        else:
            click.echo(table, nl=False)
        _echo_json({"verdict": profile.verdict.to_dict()})
    sys.exit(EXIT_OK if profile.verdict.kind != "inconclusive" else EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# sum / compare

@main.command(name="sum")
@click.option("--kernel", "kernel_spec", required=True,
              help="catalog:<name>(<params>) or file:<path>")
@click.option("--function", "function_name", required=True,
              help="Corpus function label (flavor follows the kernel).")
@click.option("--variant", type=click.Choice(["forward", "dual"]), default="forward",
              show_default=True)
@click.option("--iterations", type=int, default=1, show_default=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the (x, value) ladder trace as CSV.")
@click.pass_context
def sum_cmd(ctx, kernel_spec, function_name, variant, iterations, trace_path):
    """Estimate the method value of a corpus function."""
    settings = ctx.obj["settings"]
    kernel = normalize(_parse_kernel(kernel_spec, settings), settings)
    f = _lookup_function(function_name, kernel.flavor)
    try:
        method = MethodDescriptor(kernel, Variant(variant), iterations,
                                  label=f"cli:{kernel_spec}")
        result = estimate_limit(method, f, settings)
    except HalfsumError as exc:
        _fail(str(exc))
    if trace_path:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "re", "im"])
            for x, v in result.trace:
                writer.writerow([repr(x), repr(v.real), repr(v.imag)])
    payload = _result_payload(result)
    if ctx.obj["output"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["estimate_re", "estimate_im", "status", "amplitude", "evaluations"])
        est = result.estimate
        writer.writerow(["" if est is None else repr(est.real),
                         "" if est is None else repr(est.imag),
                         result.status.value, repr(result.oscillation_amplitude),
                         result.evaluations])
        click.echo(buf.getvalue(), nl=False)
    else:
        _echo_json(payload)
    sys.exit(EXIT_INCONCLUSIVE if result.status is Status.INCONCLUSIVE else EXIT_OK)


@main.command()
@click.argument("method_a")
@click.argument("method_b")
@click.option("--function", "function_name", required=True)
@click.pass_context
def compare(ctx, method_a, method_b, function_name):
    """Run two named methods on one function and report their agreement."""
    settings = ctx.obj["settings"]
    catalog = corpus_mod.method_catalog()
    methods = {}
    for label in (method_a, method_b):
        if label not in catalog:
            _fail(f"unknown method {label!r}; available: {', '.join(sorted(catalog))}")
        methods[label] = catalog[label]
    flavors = {m.kernel.flavor for m in methods.values()}
    if len(flavors) != 1:
        _fail("methods live on different domain flavors")
    f = _lookup_function(function_name, flavors.pop())
    try:
        results = {lab: estimate_limit(m, f, settings) for lab, m in methods.items()}
    except HalfsumError as exc:
        _fail(str(exc))
    ra, rb = results[method_a], results[method_b]
    tol = 2.0 * settings.tol_limit(f.bound)
    agree = None
    delta = None
    if ra.status is Status.CONVERGED and rb.status is Status.CONVERGED:
        delta = abs(ra.estimate - rb.estimate)
        agree = delta <= tol
    elif Status.INCONCLUSIVE not in (ra.status, rb.status):
        agree = ra.status is rb.status
    _echo_json({
        method_a: _result_payload(ra),
        method_b: _result_payload(rb),
        "max_delta": delta,
        "tolerance": tol,
        "agree": agree,
    })
    if agree is None:
        sys.exit(EXIT_INCONCLUSIVE)
    sys.exit(EXIT_OK if agree else EXIT_VERIFY_FAIL)


# ---------------------------------------------------------------------------
# verify / demo

@main.command()
@click.option("--cases", "cases_path", type=click.Path(), default=None,
              help="JSON case file; defaults to the builtin matrix.")
@click.pass_context
def verify(ctx, cases_path):
    """Run the verification matrix and exit nonzero on any failure."""
    settings = ctx.obj["settings"]
    try:
        cases = (corpus_mod.load_cases(cases_path) if cases_path
                 else corpus_mod.builtin_cases())
        report = corpus_mod.run_matrix(cases, settings, jobs=ctx.obj["jobs"])
    except HalfsumError as exc:
        _fail(str(exc))
    _echo_json(report.to_dict())
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAIL)


@main.command()
@click.pass_context
def demo(ctx):
    """Two end-to-end showcases: the spectral separation and a dual pair."""
    settings = ctx.obj["settings"]
    cases = {c.case_id: c for c in corpus_mod.builtin_cases()}
    picks = [cases["separation_char"], cases["dual_sin"]]
    try:
        report = corpus_mod.run_matrix(picks, settings)
    except HalfsumError as exc:
        _fail(str(exc))
    for outcome in report.outcomes:
        mark = "ok" if outcome.passed else "FAILED"
        click.echo(f"[{mark}] {outcome.case_id}: {outcome.detail}")
    _echo_json(report.to_dict())
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
