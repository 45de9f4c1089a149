"""Summability operators and the limit estimator.

The forward operator integrates the function against the kernel over the
window ending at x; the dual integrates over the window starting at x with
the reflected kernel argument.  Under the log substitution u = log t a
multiplicative operator applied to f is the additive operator of the
transported kernel applied to f o exp at log x, and ``_make_evaluator`` is
the one place that chooses the coordinate.  Sampled multiplicative kernels,
and closed forms on functions that oscillate in log t, run the additive
evaluator at log x.  Closed forms on sequences and on functions that
oscillate in t stay in t: the operator decomposes into moment integrals of
the function, accumulated incrementally along the evaluation ladder.  One
moment backend per distinct kernel rate returns all the moments of that rate
at once; for embedded sequences it is one exact cell pass, which stops at the
last term of a finite sequence.  The forward and dual expansions in the
moments are one sum, ``_expand_moments``, and differ only in a sign.

A method iterated k times is the method of the kernel's k-th convolution
power (``iterated_kernel``): closed forms stay ``ExpPoly`` products, sampled
kernels are convolved on a grid, and the power then runs through the same
evaluators as any other kernel.

Limit estimation is heuristic plateau detection on a geometric ladder of
evaluation points.  The four statuses are honest: ``converged`` and
``diverged`` carry evidence from the trace, ``oscillating`` requires a
stable spread across two doubling windows, and everything else is
``inconclusive``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Settings
from .errors import FlavorMismatch, InvalidArgument, QuadratureFailed
from .exppoly import ExpPoly
from .kernels import (Flavor, Kernel, additive_values, exponential, power,
                      power_law, to_additive)
from .quadrature import (RunningIntegral, counter, integrate_adaptive,
                         trapezoid_convolution)

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# domain types

class Variant(enum.Enum):
    FORWARD = "forward"
    DUAL = "dual"


class Status(enum.Enum):
    CONVERGED = "converged"
    OSCILLATING = "oscillating"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TestFunction:
    """Bounded evaluator on a half-line with provenance metadata.

    ``evaluator`` must accept numpy arrays of abscissae in native coordinates.
    ``osc_scale`` says in which coordinate the oscillation is O(1): ``linear``
    (the abscissa itself) or ``log``.  A closed-form multiplicative operator
    integrates in that coordinate.
    ``sequence`` is set for step embeddings and unlocks exact cell sums.
    """

    label: str
    evaluator: Callable
    bound: float
    support_flavor: Flavor
    classical_limit: Optional[complex] = None
    known_values: tuple = ()
    osc_scale: str = "linear"
    sequence: Optional[Callable] = None

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=complex)


@dataclass(frozen=True)
class MethodDescriptor:
    kernel: Kernel
    variant: Variant = Variant.FORWARD
    iterations: int = 1
    label: str = ""

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidArgument("method iterations must be >= 1")
        if abs(self.kernel.mass() - 1.0) > 1e-6:
            raise InvalidArgument(f"method kernel is not normalized (mass {self.kernel.mass():.6g})")


@dataclass
class SummationResult:
    estimate: Optional[complex]
    status: Status
    trace: list  # [(x, value), ...]
    oscillation_amplitude: float = 0.0
    tolerance_used: float = 0.0
    evaluations: int = 0


# ---------------------------------------------------------------------------
# sequence embedding

class _FiniteSequence:
    """a_1, ..., a_L continued by zero, as a vectorized callable on integer arrays.

    Exact cell sums read ``length`` and stop at the last term.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.length = values.size

    def __call__(self, n):
        n = np.asarray(n, dtype=np.int64)
        out = np.zeros(n.shape, dtype=complex)
        ok = (n >= 1) & (n <= self.length)
        out[ok] = self.values[n[ok] - 1]
        return out


def embed_sequence(a, label: str = "sequence") -> TestFunction:
    """Step function f(x) = a_[x] on [1, inf) for a bounded sequence a_1, a_2, ...

    ``a`` is either a finite sequence (continued by zero) or a vectorized
    callable on integer arrays.
    """
    if callable(a):
        seq = a
        probe = np.abs(np.asarray(seq(np.arange(1, 4097))))
        bound = float(probe.max())
    else:
        arr = np.asarray(list(a), dtype=complex)
        if arr.size == 0:
            raise InvalidArgument("cannot embed an empty sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgument("sequence entries must be finite")
        seq = _FiniteSequence(arr)
        bound = float(np.abs(arr).max())

    def evaluator(x, _seq=seq):
        n = np.floor(np.asarray(x, dtype=float))
        if not np.all(np.abs(n) < 2.0 ** 63):
            raise QuadratureFailed("sequence index past the int64 range or not finite")
        return _seq(n.astype(np.int64))

    return TestFunction(label=label, evaluator=evaluator, bound=bound,
                        support_flavor=Flavor.MULTIPLICATIVE,
                        osc_scale="linear", sequence=seq)


def discrete_cesaro(a, n: int) -> complex:
    """Plain arithmetic mean of a_1..a_n (the discrete bridge oracle)."""
    idx = np.arange(1, n + 1)
    vals = a(idx) if callable(a) else np.asarray(list(a)[:n], dtype=complex)
    return complex(np.sum(vals) / n)


# ---------------------------------------------------------------------------
# closed-form multiplicative machinery

def _real_if_exact(s: complex):
    """``s`` as a float when its imaginary part is exactly zero.

    Catalog rates are real but stored as complex; a float exponent keeps
    ``t ** s`` on numpy's real power, several times cheaper than its complex
    power.  Complex exponents pass through unchanged.
    """
    s = complex(s)
    return s.real if s.imag == 0 else s


def _logpow_antiderivs(p: int, s, t: np.ndarray) -> np.ndarray:
    """Antiderivatives G_j of (log t)^j t^s at ``t``, one row per j = 0..p (s != -1).

    By parts, G_0 = t^(s+1)/(s+1) and G_j = G_0 (log t)^j - j/(s+1) G_{j-1}.
    """
    base = t ** (s + 1) / (s + 1)
    out = np.empty((p + 1, t.size), dtype=base.dtype)
    out[0] = base
    if p:
        log_t = np.log(t)
        for j in range(1, p + 1):
            out[j] = base * log_t ** j - (j / (s + 1)) * out[j - 1]
    return out


class _CellMoments:
    """Exact cumulative cell sums  sum_n a_n int_n^{n+1} (log t)^j t^s dt, j = 0..p.

    One pass serves every moment of a kernel rate: each cell's a_n, and each
    edge's antiderivatives, are evaluated once, and the p+1 sums are one
    product of the antiderivative differences with the sequence values.
    Chunked so that arbitrarily distant endpoints never materialize the whole
    index range at once; a finite sequence stops the sums at its last term.
    """

    CHUNK = 1 << 18

    def __init__(self, seq, p: int, s: complex):
        self.seq = seq
        self.p = p
        self.s = _real_if_exact(s)
        self.last = seq.length if isinstance(seq, _FiniteSequence) else math.inf
        self.n_done = 1          # cells [1, n_done) summed
        self.total = np.zeros(p + 1, dtype=complex)

    def _cells(self, lo: int, hi: int) -> np.ndarray:
        total = np.zeros(self.p + 1, dtype=complex)
        n, hi = lo, min(hi, self.last + 1)
        while n < hi:
            m = min(n + self.CHUNK, hi)
            a = np.asarray(self.seq(np.arange(n, m, dtype=np.int64)))
            g = _logpow_antiderivs(self.p, self.s, np.arange(n, m + 1, dtype=float))
            total += np.diff(g) @ a
            counter.add(m - n)
            n = m
        return total

    def _partial_cell(self, lo: float, hi: float) -> np.ndarray:
        """Contribution of the (single) cell slice [lo, hi) inside one index cell."""
        if hi <= lo:
            return np.zeros(self.p + 1, dtype=complex)
        a = np.asarray(self.seq(np.array([int(math.floor(lo))])))[0]
        g = _logpow_antiderivs(self.p, self.s, np.array([lo, hi]))
        return a * (g[:, 1] - g[:, 0])

    def value_to(self, x: float) -> np.ndarray:
        """int_1^x f(t) (log t)^j t^s dt for j = 0..p; endpoints never decrease."""
        n_x = int(math.floor(x))
        if n_x < self.n_done:
            raise QuadratureFailed("cell-sum endpoints must be nondecreasing")
        self.total = self.total + self._cells(self.n_done, n_x)
        self.n_done = n_x
        if x > n_x >= 1:
            return self.total + self._partial_cell(float(n_x), x)
        return self.total

    def range_value(self, a: float, b: float) -> np.ndarray:
        """int_a^b, stateless (no cumulative cache): cost is O(b - a)."""
        a = max(a, 1.0)
        if b <= a:
            return np.zeros(self.p + 1, dtype=complex)
        na, nb = int(math.floor(a)), int(math.floor(b))
        if na == nb:
            return self._partial_cell(a, b)
        return (self._partial_cell(a, float(na + 1)) + self._cells(na + 1, nb)
                + self._partial_cell(float(nb), b))


class _SmoothMoments:
    """Cumulative moment integrals int_1^x f(t) (log t)^j t^s dt, j = 0..p, of a smooth f.

    One running integral per j, in t with weight (log t)^j t^s.
    """

    def __init__(self, f: TestFunction, p: int, s: complex, settings: Settings):
        s = _real_if_exact(s)
        self.tol = settings.tol_quad

        # one expression per branch: numpy then reuses the product's
        # temporaries in place, which a named f value would prevent
        def g(t, j):
            if j:
                return f(t) * np.log(t) ** j * t ** s
            return f(t) * t ** s

        self.integrals = [RunningIntegral(functools.partial(g, j=j), 1.0,
                                          tol_density=1e-11, panel=3.0)
                          for j in range(p + 1)]

    def value_to(self, x: float) -> np.ndarray:
        """Moments to x; endpoints never decrease."""
        return np.array([ri.value_to(x) for ri in self.integrals])

    def range_value(self, a: float, b: float) -> np.ndarray:
        """int_a^b by adaptive quadrature, for endpoints behind the running integrals."""
        return np.array([integrate_adaptive(ri.f, a, b, self.tol, order=12,
                                            initial_panels=max(4, int((b - a) / 2.0)))
                         for ri in self.integrals])


def _moment_backends(form: ExpPoly, f: TestFunction, sign: int, settings: Settings) -> dict:
    """One moment backend per distinct rate mu of ``form``, with s = -sign * mu - 1.

    The backend of rate mu returns the moments for j = 0..p at once, p the
    highest power carried at that rate: exact cell sums for embedded
    sequences, running quadrature otherwise.
    """
    top: dict[complex, int] = {}
    for t in form:
        top[t.rate] = max(top.get(t.rate, 0), t.power)
    if f.sequence is not None:
        return {mu: _CellMoments(f.sequence, p, -sign * mu - 1.0) for mu, p in top.items()}
    return {mu: _SmoothMoments(f, p, -sign * mu - 1.0, settings) for mu, p in top.items()}


def _expand_moments(form: ExpPoly, w: float, sign: int, moments: dict) -> complex:
    """sum_terms c x^(sign mu) sum_j C(p,j) (sign w)^(p-j) (-sign)^j m_j(mu), w = log x.

    The kernel in additive form at u = sign (log x - log t), expanded by the
    binomial theorem: sign +1 is the forward window, sign -1 the dual one.  The
    moments m_j(mu) of rate mu are those of ``_moment_backends(..., sign)``.
    """
    val = 0.0 + 0.0j
    for t in form:
        xpmu = np.exp(sign * t.rate * w)
        m = moments[t.rate]
        for j in range(t.power + 1):
            val += (t.coef * xpmu * math.comb(t.power, j)
                    * (sign * w) ** (t.power - j) * (-sign) ** j * m[j])
    return val


class _MultForwardClosed:
    """Forward operator for a closed-form multiplicative kernel.

    Expands psi(x/t) into moment integrals of f, accumulated incrementally:
    U f(x) = sum_terms c x^mu sum_j C(p,j) (log x)^(p-j) (-1)^j M_{j,mu}(x),
    with M_{j,mu}(x) = int_1^x f(t) (log t)^j t^(-mu-1) dt.
    """

    def __init__(self, form: ExpPoly, f: TestFunction, settings: Settings):
        self.form = form
        self.backends = _moment_backends(form, f, 1, settings)

    def __call__(self, x: float) -> complex:
        moments = {mu: backend.value_to(x) for mu, backend in self.backends.items()}
        return complex(_expand_moments(self.form, math.log(x), 1, moments))


class _MultDualClosed:
    """Dual operator for a closed-form multiplicative kernel.

    Integrates over geometric segments [x 2^k, x 2^(k+1)] until either the
    kernel tail is negligible or the segments pass ``EDGE_CAP``; the
    unresolved remainder is completed by the exact remaining kernel mass
    times the function's recent weighted average (exact for functions that
    settle, negligible for functions whose local means die out).  A window
    that starts past ``EDGE_CAP`` raises ``QuadratureFailed``.

    Segment values come from cumulative moment integrals
    N_{j,mu}(e) = int_1^e f(t) (log t)^j t^(mu-1) dt evaluated at the segment
    edges.  Along the standard ladder the edges are powers of two, so the
    cumulative integrals advance monotonically and are shared across every
    ladder point instead of being recomputed per evaluation.
    """

    EDGE_CAP = 3.2e7          # furthest edge the shared cumulative integrals reach
    SEG_BUDGET = 64           # max geometric segments (log scale)

    def __init__(self, form: ExpPoly, f: TestFunction, settings: Settings):
        self.form = form
        self.f = f
        self.settings = settings
        self.backends = _moment_backends(form, f, -1, settings)
        self.memo: dict[tuple, np.ndarray] = {}
        self.max_edge: dict[complex, float] = {}

    # -- cumulative moment plumbing -----------------------------------------

    def _cum(self, rate, edge: float) -> np.ndarray:
        memo_key = (rate, edge)
        if memo_key in self.memo:
            return self.memo[memo_key]
        backend = self.backends[rate]
        if edge >= self.max_edge.get(rate, 1.0):
            val = backend.value_to(edge)
            self.max_edge[rate] = edge
        else:
            # missed intermediate edge: integrate from the nearest cached one
            base_e = max((e for (r, e) in self.memo if r == rate and e <= edge), default=1.0)
            val = self.memo.get((rate, base_e), 0.0) + backend.range_value(base_e, edge)
        self.memo[memo_key] = val
        return val

    def _segment_from_moments(self, x: float, a: float, b: float) -> complex:
        """int over t in [a, b] of f(t) psi(t/x) dt/t via cached moments."""
        moments = {mu: self._cum(mu, b) - self._cum(mu, a) for mu in self.backends}
        return _expand_moments(self.form, math.log(x), -1, moments)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: float) -> complex:
        if x > self.EDGE_CAP:
            raise QuadratureFailed(f"dual window at x={x:g} starts past the moment "
                                   f"integrals' reach {self.EDGE_CAP:g}",
                                   interval=(x, 2.0 * x))
        tol = self.settings.tol_quad * (1.0 + self.f.bound)
        total = 0.0 + 0.0j
        seg_sum: list[complex] = []
        seg_weight: list[complex] = []
        k = 0
        while k < self.SEG_BUDGET:
            v_lo, v_hi = k * LOG2, (k + 1) * LOG2
            if self.form.abs_tail_bound(v_lo) * self.f.bound < tol:
                break
            # exact power-of-two edges so the moment memo is shared across x
            a, b = x * (2.0 ** k), x * (2.0 ** (k + 1))
            if b > self.EDGE_CAP and k >= 2:
                break
            s = self._segment_from_moments(x, a, b)
            seg_sum.append(s)
            seg_weight.append(self.form.integral(v_lo, v_hi))
            total += s
            k += 1
        # complete the unresolved kernel tail with the recent weighted average
        rem = self.form.tail_integral(k * LOG2)
        if abs(rem) > 0 and seg_sum:
            s_recent = sum(seg_sum[-2:])
            w_recent = sum(seg_weight[-2:])
            if abs(w_recent) > 1e-12:
                total += rem * (s_recent / w_recent)
        return complex(total)


# ---------------------------------------------------------------------------
# additive paths

class _AddClosed:
    """Operator of a closed-form additive kernel, either variant, by quadrature.

    The forward window integrates f(x - s) phi(s) over [0, min(x, cut)], the
    dual window f(x + s) phi(s) over [0, cut], with cut the point past which
    the kernel's absolute tail is negligible.
    """

    def __init__(self, form: ExpPoly, f: TestFunction, variant: Variant,
                 settings: Settings):
        self.form = form
        self.f = f
        self.forward = variant is Variant.FORWARD
        self.settings = settings
        eps = settings.tol_quad / (10.0 * (1.0 + f.bound))
        self.cut = form.support_cutoff(eps)

    def __call__(self, x: float) -> complex:
        f, form = self.f, self.form
        if self.forward:
            g = lambda s: f(x - s) * form(s)
            upper = min(x, self.cut)
        else:
            g = lambda s: f(x + s) * form(s)
            upper = self.cut
        tol = self.settings.tol_quad * (1.0 + f.bound)
        return integrate_adaptive(g, 0.0, upper, tol, order=12,
                                  max_evals=self.settings.max_evals)


class _SampledOperator:
    """Trapezoid evaluation against a sampled additive kernel grid (either variant).

    The window f(w + sign s) phi(s) runs over s in [0, reach]: sign -1 and
    reach w for the forward variant, sign +1 and no reach limit for the dual.
    Past the last sample the kernel's geometric tail is integrated.
    """

    def __init__(self, kernel: Kernel, f: TestFunction, variant: Variant,
                 settings: Settings):
        self.kernel = kernel
        self.f = f
        self.forward = variant is Variant.FORWARD
        self.settings = settings

    def __call__(self, w: float) -> complex:
        f, body = self.f, self.kernel.body
        grid, vals = body.grid, body.values
        sign, reach = (-1.0, w) if self.forward else (1.0, math.inf)
        upper = min(reach, grid[-1])
        n = int(np.searchsorted(grid, upper, side="right"))
        g = grid[:n]
        fv = f(w + sign * g) * vals[:n]
        counter.add(g.size)
        total = complex(np.trapezoid(fv, g))
        if n < grid.size and upper > g[-1]:
            # partial last cell
            v_end = additive_values(self.kernel, np.array([upper]))[0]
            total += 0.5 * (upper - g[-1]) * (fv[-1] + f(np.array([w + sign * upper]))[0] * v_end)
        if reach > grid[-1] and body.tail_rate > 0:
            stretch = min(reach - grid[-1], 40.0 / body.tail_rate)
            tail = lambda s: (f(np.atleast_1d(w + sign * grid[-1] + sign * s))
                              * body.tail_value * np.exp(-body.tail_rate * s))
            total += integrate_adaptive(tail, 0.0, stretch,
                                        self.settings.tol_quad, order=12)
        return total


# ---------------------------------------------------------------------------
# public operator surface

def _check_domain(kernel: Kernel, f: TestFunction):
    if kernel.flavor is not f.support_flavor:
        raise FlavorMismatch(
            f"kernel flavor {kernel.flavor.value} does not match function domain "
            f"{f.support_flavor.value}")


def _make_evaluator(kernel: Kernel, f: TestFunction, variant: Variant,
                    settings: Settings):
    """The operator x -> value.

    The only place that picks a multiplicative operator's coordinate: t for
    closed forms on sequences and on functions that oscillate in t, otherwise
    the additive operator at log x.
    """
    _check_domain(kernel, f)
    form = kernel.additive_form()
    if kernel.flavor is Flavor.MULTIPLICATIVE:
        if form is not None and (f.sequence is not None or f.osc_scale != "log"):
            if variant is Variant.FORWARD:
                return _MultForwardClosed(form, f, settings)
            return _MultDualClosed(form, f, settings)
        additive = _make_evaluator(to_additive(kernel), transport_function(f),
                                   variant, settings)
        return lambda x: additive(math.log(x))
    if form is not None:
        return _AddClosed(form, f, variant, settings)
    return _SampledOperator(kernel, f, variant, settings)


def apply_forward(kernel: Kernel, f: TestFunction, x: float,
                  settings: Settings = DEFAULT) -> complex:
    """Windowed convolution value at x (the partial mean)."""
    if x <= kernel.support_origin():
        raise InvalidArgument(f"x={x} is not inside the kernel's support half-line")
    return _make_evaluator(kernel, f, Variant.FORWARD, settings)(float(x))


def apply_dual(kernel: Kernel, f: TestFunction, x: float,
               settings: Settings = DEFAULT) -> complex:
    """Dual (outward-window) value at x."""
    if x <= kernel.support_origin():
        raise InvalidArgument(f"x={x} is not inside the kernel's support half-line")
    return _make_evaluator(kernel, f, Variant.DUAL, settings)(float(x))


def chain_apply(kernels: Sequence[Kernel], f: TestFunction,
                xs: Sequence[float], settings: Settings = DEFAULT,
                grid_points: int = 2 ** 20) -> np.ndarray:
    """Successive windowed convolutions evaluated at additive probe points.

    One dense uniform grid and discrete trapezoid convolutions replace nested
    adaptive quadrature, so composing operators costs one FFT per kernel.
    Sampled kernels enter with their geometric tail past the last sample.
    """
    for k in kernels:
        if k.flavor is not Flavor.ADDITIVE:
            raise FlavorMismatch("chain_apply works in additive coordinates")
    _check_domain(kernels[0], f)
    x_max = float(max(xs))
    grid = np.linspace(0.0, x_max, grid_points + 1)
    h = grid[1] - grid[0]
    values = f(grid)
    counter.add(grid.size)
    for k in kernels:
        values = trapezoid_convolution(values, additive_values(k, grid), h)
    idx = np.clip(np.round(np.asarray(xs) / h).astype(int), 0, grid.size - 1)
    return values[idx]


def nested_apply(outer: Kernel, inner: Kernel, f: TestFunction,
                 xs: Sequence[float], settings: Settings = DEFAULT,
                 grid_points: int = 2 ** 20) -> np.ndarray:
    """U_outer(U_inner f) at the given additive probe points."""
    return chain_apply([inner, outer], f, xs, settings, grid_points)


def transport_function(f: TestFunction) -> TestFunction:
    """Multiplicative function viewed through u = log t as an additive one."""
    if f.support_flavor is not Flavor.MULTIPLICATIVE:
        raise FlavorMismatch("transport_function expects a multiplicative-domain function")

    def evaluator(u, _f=f):
        return _f.evaluator(np.exp(np.asarray(u, dtype=float)))

    return TestFunction(label=f.label + "@log", evaluator=evaluator, bound=f.bound,
                        support_flavor=Flavor.ADDITIVE,
                        classical_limit=f.classical_limit,
                        osc_scale="linear" if f.osc_scale == "log" else f.osc_scale)


def uniform_continuity_bound(kernel: Kernel, delta: float,
                             settings: Settings = DEFAULT) -> float:
    """Modulus-of-continuity bound for the forward operator on the unit ball.

    |U f(x) - U f(y)| <= ||f||_inf * (int |phi(t) - phi(t+d)| dt + int_0^d |phi|)
    for |x - y| <= d, with both integrals evaluated by quadrature.
    """
    form = kernel.additive_form()
    if form is None:
        raise InvalidArgument("continuity bound needs a closed-form kernel")
    cut = form.support_cutoff(0.01 * settings.tol_quad)
    shift = integrate_adaptive(lambda t: np.abs(form(t) - form(t + delta)),
                               0.0, cut, settings.tol_quad, order=12)
    head = integrate_adaptive(lambda t: np.abs(form(t)), 0.0, delta,
                              settings.tol_quad, order=12)
    return float(shift.real + head.real)


# ---------------------------------------------------------------------------
# named methods

def method_Mr(r: float, variant: Variant = Variant.FORWARD) -> MethodDescriptor:
    """Power-weighted mean family; r = 1 is the plain continuous mean."""
    if not (r > 0):
        raise InvalidArgument("the power-mean family needs r > 0 for an integrable kernel")
    star = "*" if variant is Variant.DUAL else ""
    return MethodDescriptor(power_law(r), variant, 1, label=f"M{star}_{r:g}")


def method_holder(k: int) -> MethodDescriptor:
    """k-fold iterate of the continuous mean."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidArgument("iterate count must be an integer >= 1")
    return MethodDescriptor(power_law(1.0), Variant.FORWARD, int(k), label=f"H_{k}")


def k_estimator(flavor: Flavor) -> MethodDescriptor:
    """Fixed nonvanishing-transform kernel standing in for the weak* translation method.

    The proxy shares the weak* method's domain, so it is interchangeable with
    it on everything this engine can test.
    """
    if flavor is Flavor.ADDITIVE:
        return MethodDescriptor(exponential(1.0), Variant.FORWARD, 1,
                                label="K~S_exp(1)")
    return MethodDescriptor(power_law(1.0), Variant.FORWARD, 1, label="P~M_1")


# ---------------------------------------------------------------------------
# limit estimation

def _spread(vals) -> float:
    arr = np.asarray(vals)
    return float(np.max(np.abs(arr[:, None] - arr[None, :]))) if arr.size > 1 else 0.0


def iterated_kernel(method: MethodDescriptor, settings: Settings = DEFAULT) -> Kernel:
    """The method's kernel to the power of its iterations, cached on the kernel."""
    if method.iterations == 1:
        return method.kernel
    powers = method.kernel.meta.setdefault("_powers", {})
    key = (method.iterations, settings)
    if key not in powers:
        powers[key] = power(method.kernel, method.iterations, settings)
    return powers[key]


def estimate_limit(method: MethodDescriptor, f: TestFunction,
                   settings: Settings = DEFAULT, tol: Optional[float] = None) -> SummationResult:
    """Plateau-detected limit of the (possibly iterated) operator along the ladder."""
    _check_domain(method.kernel, f)
    tol_limit = tol if tol is not None else settings.tol_limit(f.bound)
    kern_eff = iterated_kernel(method, settings)
    l1_eff = kern_eff.l1_norm()
    # the kernel's norm quadrature ran above: only the operator's work counts
    start_evals = counter.count
    evaluator = _make_evaluator(kern_eff, f, method.variant, settings)

    cap = 10.0 * f.bound * max(l1_eff, 1.0) + 1e-12
    window = settings.plateau_window
    trace: list[tuple[float, complex]] = []
    values: list[complex] = []
    status = Status.INCONCLUSIVE
    estimate = None
    amplitude = 0.0

    x = settings.ladder_x0
    for j in range(settings.ladder_max_steps + 1):
        if x <= kern_eff.support_origin():
            x *= settings.ladder_ratio
            continue
        try:
            v = evaluator(float(x))
        except QuadratureFailed:
            # the operator value could not be resolved at this scale; report
            # whatever the trace supports rather than guessing further out
            break
        trace.append((float(x), complex(v)))
        values.append(complex(v))
        if len(values) >= window:
            recent = values[-window:]
            if _spread(recent) < tol_limit:
                status = Status.CONVERGED
                estimate = complex(np.mean(recent))
                break
        if (len(values) >= 3
                and all(abs(values[i]) > cap for i in (-3, -2, -1))
                and abs(values[-1]) > abs(values[-2]) > abs(values[-3])):
            status = Status.DIVERGED
            break
        x *= settings.ladder_ratio

    if status is Status.INCONCLUSIVE and len(values) >= 2 * window:
        s1 = _spread(values[-window:])
        s2 = _spread(values[-2 * window:-window])
        bounded = max(abs(v) for v in values[-2 * window:]) <= cap
        if s1 > tol_limit and s2 > tol_limit and bounded and 0.3 <= s1 / max(s2, 1e-300) <= 3.0:
            status = Status.OSCILLATING
            amplitude = 0.5 * _spread(values[-2 * window:])

    return SummationResult(estimate=estimate, status=status, trace=trace,
                           oscillation_amplitude=amplitude,
                           tolerance_used=tol_limit,
                           evaluations=counter.count - start_evals)
