"""One benchmark pass in a fresh interpreter: set up, run the job list, report.

    python3 perfbench/child.py <workload|sweep> <seed> <trace 0|1>

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and BLAS threads pinned
to one.  A fresh interpreter per pass keeps the kernels' lazily cached norms
and the global evaluation counter from carrying over between passes.  The
last line of output is one JSON object.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# a fixed module text for the host probe to compile; it is not halfsum code,
# so no change to the library changes the probe
_PROBE_SOURCE = "".join(f"def f{i}(x, y={i}):\n    return [x * y + k for k in range(3)]\n\n"
                        for i in range(300))


def host_probe() -> float:
    """Seconds for a fixed reference computation that runs no halfsum code.

    It mixes what a pass spends its time on: compiling Python (imports),
    interpreted loops, many small NumPy calls and large complex array
    arithmetic.  ``run.py`` scales each pass's times by it, so that the
    host's speed, which drifts here by a fifth within minutes, cancels.
    """
    import numpy as np
    t0 = time.perf_counter()
    for _ in range(2):
        compile(_PROBE_SOURCE, "<probe>", "exec")
    d = {}
    for i in range(180_000):
        d[i % 977] = d.get(i % 977, 0) + i * i % 7
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for k in range(4500):
        acc += float(np.sum(np.exp(-x * (k % 5 + 1)) * x))
    y = np.linspace(1.0, 50.0, 200_000)
    for k in range(3):
        acc += float(np.abs(np.exp(1j * y * (1 + k * 1e-3)) * np.sin(y)).sum())
    return time.perf_counter() - t0


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import halfsum
    import jobs
    import tracing
    from halfsum.quadrature import counter

    job_list = jobs.sweep_jobs() if workload == "sweep" else jobs.build(workload, seed)
    setup_s = time.perf_counter() - T0

    probe_s = host_probe()
    tracer = tracing.Tracer() if trace else None
    results = []
    c_start = counter.count
    t_start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for job in job_list:
            span = tracer.open("bench.job") if tracer else None
            c0, t0 = counter.count, time.perf_counter()
            row = jobs.check(job)
            row["s"] = time.perf_counter() - t0
            row["evals"] = counter.count - c0
            if span:
                tracer.close(span)
            results.append(row)
    wall_s = time.perf_counter() - t_start
    evals = counter.count - c_start
    probe_s = 0.5 * (probe_s + host_probe())

    out = {"halfsum": halfsum.__file__, "setup_s": setup_s, "wall_s": wall_s,
           "probe_s": probe_s, "evals": evals,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "jobs": results}
    if tracer:
        layers = tracer.layers()
        out["layers"] = tracing.layer_metrics(layers, evals)
        out["self_total_s"] = sum(row["self_s"] for row in layers.values())
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
