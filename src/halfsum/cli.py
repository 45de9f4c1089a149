"""Command-line front end.

Subcommands wrap the library: ``classify`` and ``spectrum`` expose the
transform zero-set machinery, ``sum`` and ``compare`` the limit estimator,
``verify`` the builtin verification matrix, and ``demo`` two end-to-end
showcases.  Everything prints machine-readable JSON (or CSV where a table is
the natural shape) so scripts and CI can consume the results.

Exit codes: 0 success; 1 any library error, printed as one ``error:`` line (a
bad kernel spec, a zero-mass kernel, an iteration count below 1 or an iterate
that is not normalized, bad or non-finite settings, a malformed or empty case
file, an unknown function or method, a method of the wrong flavor); 2 an
inconclusive verdict or status, and click's own option errors; 3 verification
failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import corpus as corpus_mod
from .config import DEFAULT, load_settings, overlay
from .engine import MethodDescriptor, Status, Variant, estimate_limit
from .errors import ConfigError, FlavorMismatch, HalfsumError
from .kernels import Flavor, normalize, parse_kernel_arg, power
from .spectrum import classify_wiener

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAIL = 3


def _echo_json(payload: dict):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _write_csv(rows, path=None):
    """Write ``rows`` (the header first) as CSV to ``path``, or to stdout."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        click.echo(buf.getvalue(), nl=False)


class _Group(click.Group):
    """Ends every command that raises a library error with one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HalfsumError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_USAGE)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=False), default=None,
              help="JSON settings file overlaying the defaults.")
@click.option("--tol", type=float, default=None,
              help="Limit-detection tolerance scale (positive): sets tol_limit_scale, "
                   "so the tolerance is TOL * (1 + sup|f|).")
@click.option("--max-ladder", type=int, default=None,
              help="Maximum number of ladder doublings: sets ladder_max_steps.")
@click.option("--output", "output_fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.pass_context
def main(ctx, config_path, tol, max_ladder, output_fmt):
    """Summability methods on the half-line: classify kernels, estimate limits."""
    settings = load_settings(config_path) if config_path is not None else DEFAULT
    flags = {"tol_limit_scale": tol, "ladder_max_steps": max_ladder}
    settings = overlay({k: v for k, v in flags.items() if v is not None}, settings)
    ctx.obj = {"settings": settings, "output": output_fmt}


def _lookup_function(name: str, flavor: Flavor):
    key = name.removeprefix("catalog:")
    fn = corpus_mod.corpus_map().get((key, flavor))
    if fn is None:
        available = sorted({lab for (lab, fl) in corpus_mod.corpus_map() if fl is flavor})
        raise ConfigError(f"unknown {flavor.value} function {key!r}; "
                          f"available: {', '.join(available)}")
    return fn


# ---------------------------------------------------------------------------
# classify / spectrum

@main.command()
@click.argument("kernel_spec")
@click.pass_context
def classify(ctx, kernel_spec):
    """Zero-set verdict for a kernel's transform (whole line for closed forms)."""
    settings = ctx.obj["settings"]
    kernel = normalize(parse_kernel_arg(kernel_spec), settings)
    profile = classify_wiener(kernel, settings)
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
    kernel = normalize(parse_kernel_arg(kernel_spec), settings)
    profile = classify_wiener(kernel, settings, n_points=points)
    if ctx.obj["output"] == "json":
        _echo_json({
            "frequencies": profile.frequencies.tolist(),
            "values": [[v.real, v.imag] for v in profile.values],
            "verdict": profile.verdict.to_dict(),
        })
    else:
        _write_csv([["freq", "re", "im", "modulus"]]
                   + [[repr(float(xi)), repr(float(v.real)), repr(float(v.imag)),
                       repr(float(abs(v)))]
                      for xi, v in zip(profile.frequencies, profile.values)], out_path)
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
@click.option("--iterations", type=int, default=1, show_default=True,
              help="Run the method of the kernel's convolution power.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the (x, value) ladder trace as CSV.")
@click.pass_context
def sum_cmd(ctx, kernel_spec, function_name, variant, iterations, trace_path):
    """Estimate the method value of a corpus function."""
    settings = ctx.obj["settings"]
    kernel = normalize(parse_kernel_arg(kernel_spec), settings)
    f = _lookup_function(function_name, kernel.flavor)
    method = MethodDescriptor(power(kernel, iterations), Variant(variant),
                              label=f"cli:{kernel_spec}")
    result = estimate_limit(method, f, settings)
    if trace_path:
        _write_csv([["x", "re", "im"]]
                   + [[repr(x), repr(v.real), repr(v.imag)] for x, v in result.trace],
                   trace_path)
    record = result.to_dict()
    if ctx.obj["output"] == "csv":
        estimate = [repr(part) for part in record["estimate"]] if record["estimate"] \
            else ["", ""]
        _write_csv([["estimate_re", "estimate_im", "status", "amplitude", "evaluations"],
                    estimate + [record["status"], repr(record["amplitude"]),
                                record["evaluations"]]])
    else:
        _echo_json(record)
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
    for label in (method_a, method_b):
        if label not in catalog:
            raise ConfigError(f"unknown method {label!r}; "
                              f"available: {', '.join(sorted(catalog))}")
    flavors = {catalog[label].kernel.flavor for label in (method_a, method_b)}
    if len(flavors) != 1:
        raise FlavorMismatch("methods live on different domain flavors")
    f = _lookup_function(function_name, flavors.pop())
    results = {lab: estimate_limit(catalog[lab], f, settings) for lab in (method_a, method_b)}
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
        method_a: ra.to_dict(),
        method_b: rb.to_dict(),
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
    cases = corpus_mod.load_cases(cases_path) if cases_path else corpus_mod.builtin_cases()
    report = corpus_mod.run_matrix(cases, ctx.obj["settings"])
    _echo_json(report.to_dict())
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAIL)


@main.command()
@click.pass_context
def demo(ctx):
    """Two end-to-end showcases: the spectral separation and a dual pair."""
    cases = {c.case_id: c for c in corpus_mod.builtin_cases()}
    picks = [cases["separation_char"], cases["dual_sin"]]
    report = corpus_mod.run_matrix(picks, ctx.obj["settings"])
    for outcome in report.outcomes:
        mark = "ok" if outcome.passed else "FAILED"
        click.echo(f"[{mark}] {outcome.case_id}: {outcome.detail}")
    _echo_json(report.to_dict())
    sys.exit(EXIT_OK if report.passed else EXIT_VERIFY_FAIL)


if __name__ == "__main__":
    main()
