"""Spans around halfsum's public entry points, recorded from outside the library.

``Tracer`` replaces each traced function by a wrapper in every ``halfsum``
module that binds it by name (``from .quadrature import integrate_adaptive``
makes ``engine.integrate_adaptive`` a second binding), and patches traced
methods on their class.  Leaving the ``with`` block restores every original.

Each span records its name, its parent, its start and end, and the delta of
the library's global evaluation counter.  A span's self time (and self
evaluations) is its own minus what its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from halfsum import corpus, engine, exppoly, kernels, quadrature, spectrum
from halfsum.errors import QuadratureFailed

counter = quadrature.counter

# (owner, attribute, span name): module functions are replaced in every
# halfsum module that binds them; methods are patched on their class
FUNCTIONS = [
    (quadrature, "integrate_adaptive", "quadrature.integrate_adaptive"),
    (quadrature, "fourier_piecewise_linear", "quadrature.fourier_pl"),
    (spectrum, "transform_grid", "spectrum.transform_grid"),
    (spectrum, "classify_wiener", "spectrum.classify_wiener"),
    (spectrum, "transform_numeric", "spectrum.transform_numeric"),
    (engine, "estimate_limit", "engine.estimate_limit"),
    (engine, "chain_apply", "engine.chain_apply"),
    (kernels, "convolve", "kernels.convolve"),
    (kernels, "power", "kernels.power"),
    (corpus, "run_matrix", "corpus.run_matrix"),
]
METHODS = [
    (quadrature.RunningIntegral, "value_to", "quadrature.running_integral"),
    (exppoly.ExpPoly, "__call__", "exppoly.eval"),
    (kernels.Kernel, "l1_norm", "kernels.norm_moments"),
    (kernels.Kernel, "first_moment", "kernels.norm_moments"),
]
# layers whose counter deltas are quadrature nodes or dense grid samples; what
# remains of the counter is engine work (exact cell sums, sampled-kernel sums)
_NOT_CELLS = ("quadrature.integrate_adaptive", "quadrature.running_integral",
              "engine.chain_apply")


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "c0", "c1", "failed", "items")

    def __init__(self, name, parent, t0, c0):
        self.name, self.parent, self.t0, self.c0 = name, parent, t0, c0
        self.t1 = t0
        self.c1 = c0
        self.failed = False
        self.items = 0   # transform_grid points, estimate_limit ladder points


def _items(name, args, result):
    if name == "spectrum.transform_grid":
        return int(np.size(args[1]))
    if name == "engine.estimate_limit":
        return len(result.trace)
    return 0


class Tracer:
    """Record spans while installed; ``with Tracer() as t:`` installs and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "halfsum" or key.startswith("halfsum."))]
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except QuadratureFailed:
                span.failed = True
                raise
            finally:
                tracer.close(span)
            span.items = _items(name, args, result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter(), counter.count)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.t1 = time.perf_counter()
        span.c1 = counter.count
        self._stack.pop()

    # -- per-layer figures ----------------------------------------------------

    def layers(self) -> dict:
        """Per-layer calls, self time, self evaluations and inclusive time."""
        n = len(self.spans)
        child_t = [0.0] * n
        child_c = [0] * n
        for s in self.spans:
            if s.parent is not None:
                child_t[s.parent] += s.t1 - s.t0
                child_c[s.parent] += s.c1 - s.c0
        out: dict = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "evals": 0,
                                          "failed": 0, "items": 0, "s": 0.0,
                                          "inclusive_evals": 0})
            row["calls"] += 1
            row["self_s"] += (s.t1 - s.t0) - child_t[i]
            row["evals"] += (s.c1 - s.c0) - child_c[i]
            row["failed"] += int(s.failed)
            row["items"] += s.items
            if not self._inside_same(i):
                row["s"] += s.t1 - s.t0
                row["inclusive_evals"] += s.c1 - s.c0
        return out

    def _inside_same(self, i) -> bool:
        name = self.spans[i].name
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


def layer_metrics(layers: dict, evals: int) -> dict:
    """The per-layer metrics the benchmark reports, by their metric names."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    m = {}
    for layer, keys in (("quadrature.running_integral", ("calls", "self_s", "evals")),
                        ("quadrature.integrate_adaptive", ("calls", "self_s", "evals", "failed")),
                        ("quadrature.fourier_pl", ("calls", "self_s")),
                        ("spectrum.transform_grid", ("calls", "self_s")),
                        ("engine.estimate_limit", ("calls", "self_s")),
                        ("exppoly.eval", ("calls", "self_s")),
                        ("kernels.convolve", ("self_s",)),
                        ("kernels.power", ("self_s",)),
                        ("kernels.norm_moments", ("self_s",))):
        for key in keys:
            m[f"{layer}.{key}"] = get(layer, key)
    m["spectrum.transform_grid.points"] = get("spectrum.transform_grid", "items")
    ladder = get("engine.estimate_limit", "items")
    m["engine.ladder_points"] = ladder
    m["engine.evals_per_ladder_point"] = (
        get("engine.estimate_limit", "inclusive_evals") / ladder if ladder else 0.0)
    m["engine.cell_evals"] = sum(row["evals"] for name, row in layers.items()
                                 if name not in _NOT_CELLS)
    for layer in ("spectrum.classify_wiener", "spectrum.transform_numeric",
                  "engine.chain_apply", "corpus.run_matrix"):
        m[f"{layer}.s"] = get(layer, "s")
    m["evals"] = evals
    return m
