"""halfsum benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify [--seed 1] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --all               # every workload, one after another
    python3 perfbench/run.py --sweep             # opt-in: all 155 corpus x method pairs

Run from the repository root.  Each pass is a fresh interpreter
(``child.py``) that imports halfsum from ``src``, builds the workload's job
list, runs it with ``jobs=1`` and checks every answer.  Passes repeat until
the next one would end after ``--seconds``; the end-to-end metrics are the
medians over passes:

* ``wall_s`` -- time for the whole job list;
* ``setup_s`` -- import of halfsum plus building the corpus, the method
  catalog and the generated inputs;
* ``solved_share`` -- jobs that gave their expected answer, over jobs run;
* ``peak_rss_mb`` -- peak resident memory of the pass.

The two times are in reference-host seconds: each pass also times a fixed
probe that runs no halfsum code (``child.host_probe``) and its times are
scaled by ``HOST_REF_S / probe``, which cancels the host's drifting speed.

With ``--trace 1`` untraced and traced passes alternate, and the output holds
the per-layer metrics of the traced passes (medians) and the tracing overhead.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify", "additive", "sequences", "spectrum")
DEFAULT_SEED = 1
CHILD_TIMEOUT = 150.0
# Probe time that defines a reference-speed host: wall_s and setup_s are
# reported as raw seconds x HOST_REF_S / (the pass's probe time)
HOST_REF_S = 0.18
# BLAS and OpenMP pools pinned to one thread: the jobs run serially
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, trace: bool, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(report["halfsum"]).startswith(SRC + os.sep):
        raise BenchError(f"imported halfsum from {report['halfsum']}, not from {SRC}")
    return report


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solved_share": "ratio", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "ratio" if name.endswith("share") else "count"


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _scaled_median(passes, key):
    """Median over passes of a time scaled to the reference host speed."""
    return statistics.median(p[key] * HOST_REF_S / p["probe_s"] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # compile the sources once so the first pass does not pay for it in setup_s
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    passes, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        need_traced = trace and len(traced) < len(passes)
        if passes and not need_traced:
            done = len(passes) + len(traced)
            if elapsed + elapsed / done > seconds:   # the next pass would end too late
                break
        report = run_pass(workload, seed, need_traced,
                          timeout=max(10.0, CHILD_TIMEOUT - elapsed))
        (traced if need_traced else passes).append(report)

    every = passes + traced
    names = [j["name"] for j in passes[0]["jobs"]]
    # every pass must run the same jobs with the same evaluation count
    consistent = all([j["name"] for j in p["jobs"]] == names
                     and p["evals"] == passes[0]["evals"] for p in every)
    attempted = sum(len(p["jobs"]) for p in every)
    failed = sum(not j["ok"] for p in every for j in p["jobs"])
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "failures": sorted({f"{j['name']}: {j['status']}" for p in every
                            for j in p["jobs"] if not j["ok"]}),
    }
    if trace:
        layers = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        untraced_wall = _median(passes, "wall_s")
        traced_wall = _median(traced, "wall_s")
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["trace.self_share"] = statistics.median(
            t["self_total_s"] / t["wall_s"] for t in traced)
        layers["host.probe_s"] = _median(every, "probe_s")
        result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        values = {"wall_s": _scaled_median(passes, "wall_s"),
                  "setup_s": _scaled_median(passes, "setup_s"),
                  "solved_share": 1.0 - failed / attempted,
                  "peak_rss_mb": _median(passes, "peak_rss_mb")}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return result


def sweep() -> int:
    """Run all 155 corpus x method pairs once and print the per-pair table."""
    report = run_pass("sweep", DEFAULT_SEED, False, timeout=3600.0)
    print(f"{'function':<12} {'flavor':<5} {'method':<8} {'ok':<3} {'s':>8} "
          f"{'evals':>11}  status [source]")
    for j in report["jobs"]:
        name, method = j["name"].split(" x ")
        label, flavor = name.split("/")
        print(f"{label:<12} {flavor:<5} {method:<8} {'yes' if j['ok'] else 'NO':<3} "
              f"{j['s']:8.3f} {j['evals']:>11}  {j['status']} [{j['source']}]")
    failed = [j["name"] for j in report["jobs"] if not j["ok"]]
    print(f"{len(report['jobs'])} pairs, {len(failed)} failed, {report['wall_s']:.1f} s, "
          f"{report['evals']} evaluations")
    print(json.dumps({"pairs": len(report["jobs"]), "failed": failed,
                      "wall_s": report["wall_s"], "evals": report["evals"]}))
    return 0


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running pass
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--sweep", action="store_true",
                    help="run all corpus x method pairs once (not a timed workload)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "halfsum", "__init__.py")):
        print(f"halfsum sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.sweep:
            return sweep()
        if args.all:
            for w in WORKLOADS:
                res = measure(w, args.seed, args.seconds, bool(args.trace))
                shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                                  for k, m in res["metrics"].items())
                print(f"{w}: correct={res['correct']} passes={res['passes']} {shown}")
            return 0
        if not args.workload:
            ap.error("give --workload, --all or --sweep")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(f"{args.workload}: {result['passes']} passes, {result['traced_passes']} traced")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
