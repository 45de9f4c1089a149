"""Summability operators and the limit estimator.

The forward operator integrates the function against the kernel over the
window ending at x; the dual integrates over the window starting at x with
the reflected kernel argument.  Under the log substitution u = log t a
multiplicative operator applied to f is the additive operator of the
transported kernel applied to f o exp at log x, and ``_make_evaluator`` is
the one place that chooses the coordinate.

Every additive operator, and every multiplicative one that runs at log x
(sampled kernels, and closed forms on functions that oscillate in log t),
is one evaluator for both variants, ``_AddWindow``: one adaptive quadrature
of the window per point, with the kernel read through its body
(``Kernel.shape``), so closed forms and sampled kernels differ only in
their cut and in the panel edges a sampled grid adds.  A function that
declares its rounding noise gets a quadrature target floored at that noise,
so windows far out, where f(x - s) rounds its argument to ulp(x), stop
bisecting the rounding.

Closed forms on sequences and on functions that oscillate in t stay in t,
in one evaluator for both variants, ``_MultClosed``.  It cuts the window at
the dyadic points 2^m and expands the kernel on each piece by the binomial
theorem about the segment's origin 2^m, which turns the piece into moment
integrals of the function in tau = t / 2^m; the forward and dual expansions
are one sum, ``_expand_moments``, and differ only in a sign.  The moments of
a whole segment [2^m, 2^(m+1)] do not depend on x, so one table of them
serves every evaluation point, and a point integrates at most one partial
piece of its own, ending or starting at x.  One moment backend per distinct
kernel rate returns all the moments of that rate at once: for embedded
sequences exact cell sums, which stop at the last term of a finite sequence,
or, for a sequence with a declared period and a piece far enough out, a sum
by parts against the period's antiderivatives at O(period) cost; otherwise
panel quadrature that evaluates the function once per node.

Composition is convolution, U_psi(U_phi f) = U_(phi * psi) f.  A method
iterated k times is the method of the kernel's k-th convolution power
(``iterated_kernel``), and a chain of additive methods (``chain_apply``,
``nested_apply``) the method of its kernels' convolution: closed forms stay
``ExpPoly`` products, sampled kernels are convolved on a grid, and the
product then runs through the same evaluators as any other kernel.

Limit estimation is heuristic plateau detection on a geometric ladder of
evaluation points.  The four statuses are honest: ``converged`` and
``diverged`` carry evidence from the trace, ``oscillating`` requires a
stable spread across two doubling windows, and everything else is
``inconclusive``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Settings
from .errors import FlavorMismatch, InvalidArgument, QuadratureFailed
from .exppoly import ExpPoly, _real_if_exact
from .kernels import (Flavor, Kernel, convolve, exponential, power, power_law,
                      to_additive)
from .quadrature import counter, integrate_adaptive


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
    ``sequence`` is set for step embeddings and unlocks exact cell sums; a
    ``_PeriodicSequence`` there (``embed_sequence(..., period=P)``) also
    unlocks moments by parts at O(P) cost per piece.
    ``noise(t)``, when set, bounds the absolute error of the double-precision
    value at an argument near t, from the argument's rounding and from the
    evaluation itself, and does not decrease in |t|.  The additive window
    floors its quadrature target there (``_AddWindow``); a function without
    it has no floor, and at x >~ 2^28, where f(x - s) rounds its argument
    to ulp(x), its windows may spend up to the ``max_evals`` budget (6e7)
    per point bisecting that rounding.
    Calling it returns the evaluator's values as float64 when they are real
    and as complex128 when they are complex.
    """

    label: str
    evaluator: Callable
    bound: float
    support_flavor: Flavor
    classical_limit: Optional[complex] = None
    known_values: tuple = ()
    osc_scale: str = "linear"
    sequence: Optional[Callable] = None
    noise: Optional[Callable] = None

    def __call__(self, x):
        vals = np.asarray(self.evaluator(np.asarray(x, dtype=float)))
        return vals.astype(np.result_type(vals, float), copy=False)


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

    Exact cell sums stop at the last term, ``values[-1]``.
    """

    def __init__(self, values: np.ndarray):
        self.values = values

    def __call__(self, n):
        n = np.asarray(n, dtype=np.int64)
        out = np.zeros(n.shape, dtype=self.values.dtype)
        ok = (n >= 1) & (n <= self.values.size)
        out[ok] = self.values[n[ok] - 1]
        return out


class _PeriodicSequence:
    """a_n = values[(n - 1) mod P] for one declared period, as a vectorized callable.

    With a_n = mean + b_n, B_1, ..., B_K (K = ``ORDER``) are the periodic
    antiderivatives of the step function b(t) = b_[t], each of mean zero over
    a period so that the next one is periodic too.  On a cell [n, n+1) B_k
    is a polynomial of degree k in y = t - n, built once from the P values:
    ``poly[k - 1, r]`` holds its coefficients of y^0..y^K for the residue
    r = (n - 1) mod P, and ``poly_max`` bounds |B_K|.
    """

    ORDER = 8

    def __init__(self, values: np.ndarray):
        self.values = values
        self.mean = values.mean()
        inv = 1.0 / np.arange(1, self.ORDER + 2)        # int_0^1 y^i dy
        b = np.zeros((values.size, self.ORDER + 1), dtype=values.dtype)
        b[:, 0] = values - self.mean
        poly = []
        for _ in range(self.ORDER):
            nxt = np.zeros_like(b)
            nxt[:, 1:] = b[:, :-1] * inv[:-1]
            nxt[:, 0] = np.concatenate(([0.0], np.cumsum(b @ inv)[:-1]))
            nxt[:, 0] -= np.mean(nxt @ inv)
            poly.append(b := nxt)
        self.poly = np.array(poly)
        self.poly_max = float(np.abs(b).sum(axis=1).max())

    def __call__(self, n):
        return self.values[(np.asarray(n, dtype=np.int64) - 1) % self.values.size]

    def antiderivatives(self, t: np.ndarray) -> np.ndarray:
        """B_1, ..., B_K as rows, one column per point of ``t``."""
        n = np.floor(t)
        r = (n.astype(np.int64) - 1) % self.values.size
        return np.einsum("kti,ti->kt", self.poly[:, r],
                         (t - n)[:, None] ** np.arange(self.ORDER + 1))


def embed_sequence(a, label: str = "sequence", period: Optional[int] = None) -> TestFunction:
    """Step function f(x) = a_[x] on [1, inf) for a bounded sequence a_1, a_2, ...

    ``a`` is either a finite sequence (continued by zero) or a vectorized
    callable on integer arrays.  A callable may declare its ``period`` P:
    its first 4096 terms must then repeat its first P, and the operators
    take its moments far out at O(P) cost per piece (``_CellMoments``)
    instead of one term per cell.
    """
    if callable(a):
        seq = a
        probe = np.asarray(seq(np.arange(1, 4097)))
        bound = float(np.abs(probe).max())
        if period is not None:
            if not (isinstance(period, (int, np.integer)) and 1 <= period <= probe.size):
                raise InvalidArgument(f"a period must be an integer in 1..{probe.size}")
            values = probe[:period].astype(np.result_type(probe, float))
            if not np.array_equal(probe, np.resize(values, probe.size)):
                raise InvalidArgument(f"the sequence's first {probe.size} terms do not "
                                      f"repeat with period {period}")
            seq = _PeriodicSequence(values)
    else:
        if period is not None:
            raise InvalidArgument("only a callable sequence can declare a period")
        arr = np.asarray(list(a))
        arr = arr.astype(np.result_type(arr, float), copy=False)
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

class _CellMoments:
    """Moments  sum_n a_n int (log tau)^j tau^s dtau, j = 0..p, tau = t / 2^m, of a step function.

    One pass serves every moment of a kernel rate.  With H_j = tau^(s+1)
    (log tau)^j, by parts G_j = (H_j - j G_(j-1)) / (s+1) for the
    antiderivatives G_j, so exact cell sums sum a_n times the cell
    differences of H_j, each H_j made from the last by one multiply, and the
    recurrence runs on the p+1 sums.  Blocks of ``CHUNK`` cells keep a
    block's arrays (128 KiB each) in a core's 2 MiB L2: with 2^18 cells a
    segment of (-1)^n took 14-17 ns per cell at p = 0 and 22-28 ns at p = 2,
    against 5.4-6.6 and 10-12 ns (2-core Xeon).  A finite sequence stops the
    sums at its last term.

    A periodic sequence takes a piece that starts past ``reach`` and spans
    more than 2K cells by Euler-Maclaurin summation with periodic functions
    (T. M. Apostol, Amer. Math. Monthly 106, 1999), at a cost independent of
    its length: its mean runs the G_j recurrence on H_j at the piece's two
    ends, and with h_j(t) = 2^-m tau^s (log tau)^j the mean-zero rest b
    gives, by K integrations by parts against the antiderivatives B_k of
    ``_PeriodicSequence``,

        int b h_j = sum_(k <= K) (-1)^(k-1) [B_k h_j^(k-1)] + (-1)^K int B_K h_j^(K),

    with t h_j^(k+1) = (s - k) h_j^(k) + j h_(j-1)^(k).  The remainder is
    dropped: h_j^(K) = 2^-m t^-K tau^s sum_i C_ji (log tau)^i, so past
    ``reach`` max|B_K| (hi - lo) max|h_j^(K)| is below the rounding, eps
    max|a| (hi - lo) min|h_0|, of the piece's sum.  Such a piece charges the
    evaluation counter 2K, one per antiderivative value.
    """

    CHUNK = 1 << 14

    def __init__(self, seq, p: int, s: complex):
        self.seq = seq
        self.p = p
        self.s = s
        self.sigma = s + 1.0
        self.last = seq.values.size if isinstance(seq, _FiniteSequence) else math.inf
        self.reach = self._by_parts_reach() if isinstance(seq, _PeriodicSequence) else math.inf

    def segment(self, lo: float, hi: float, m: int) -> np.ndarray:
        """int_lo^hi f(t) (log tau)^j tau^(s+1) dt/t for j = 0..p, tau = t / 2^m."""
        if lo >= self.reach and hi - lo > 2 * self.seq.ORDER:
            t = np.array([lo, hi])
            tau = t * 2.0 ** -m
            powers = np.log(tau) ** np.arange(self.p + 1)[:, None]   # one column per end
            h = tau ** self.sigma * powers
            sums = self.seq.mean * (h[:, 1] - h[:, 0]).astype(complex)
            rest = self._by_parts(t, 2.0 ** -m * tau ** self.s * powers)
            counter.add(2 * self.seq.ORDER)
        else:
            sums, rest = self._cell_sums(lo, hi, m), 0.0
        g = 0.0
        for j in range(self.p + 1):
            sums[j] = g = (sums[j] - j * g) / self.sigma
        return sums + rest

    def _by_parts_reach(self) -> float:
        """The t past which a piece's by-parts remainder is below its sum's rounding."""
        seq, p, s = self.seq, self.p, self.s
        if seq.poly_max == 0:
            return 0.0                  # a constant sequence: its mean is all of it
        # h_j^(K) = 2^-m t^-K tau^s sum_i c[j, i] (log tau)^i, |log tau| <= log 2
        c = np.eye(p + 1, dtype=complex)
        for k in range(seq.ORDER):
            c, c_prev = (s - k) * c, c
            c[:, :-1] += c_prev[:, 1:] * np.arange(1, p + 1)
        c_max = np.max(np.abs(c) @ math.log(2.0) ** np.arange(p + 1))
        eps_sum = np.finfo(float).eps * np.abs(seq.values).max()
        return (seq.poly_max * 2.0 ** abs(s.real) * c_max / eps_sum) ** (1.0 / seq.ORDER)

    def _cell_sums(self, lo: float, hi: float, m: int) -> np.ndarray:
        sums = np.zeros(self.p + 1, dtype=complex)
        n, end = math.floor(lo), min(math.ceil(hi), self.last + 1)
        while n < end:
            k = min(n + self.CHUNK, end)
            a = np.asarray(self.seq(np.arange(n, k, dtype=np.int64)))
            tau = np.arange(n, k + 1, dtype=float)
            tau[0], tau[-1] = max(n, lo), min(k, hi)     # the piece may cut the end cells
            tau *= 2.0 ** -m
            h = tau ** self.sigma
            log_tau = np.log(tau) if self.p else None
            diff = np.empty(k - n, dtype=h.dtype)
            for j in range(self.p + 1):
                if j:
                    h *= log_tau
                np.subtract(h[1:], h[:-1], out=diff)
                sums[j] += diff @ a
            counter.add(k - n)
            n = k
        return sums

    def _by_parts(self, t: np.ndarray, d: np.ndarray) -> np.ndarray:
        """[sum_(k <= K) (-1)^(k-1) B_k h_j^(k-1)] from t[0] to t[1], j = 0..p, d = h_j(t)."""
        j = np.arange(self.p + 1)[:, None]
        out = np.zeros(d.shape, dtype=complex)
        for k, b_k in enumerate(self.seq.antiderivatives(t)):
            out += (-1) ** k * b_k * d
            d[1:] = ((self.s - k) * d[1:] + j[1:] * d[:-1]) / t
            d[0] *= (self.s - k) / t
        return out[:, 1] - out[:, 0]


class _SmoothMoments:
    """Moment integrals int_lo^hi f(t) (log tau)^j tau^(s+1) dt/t, j = 0..p, of a smooth f.

    One panel integral in t per piece evaluates f once per node for all p+1
    moments, on G10/K21 panels of length 12: the integrand is smooth, so
    each panel bisects only where f oscillates faster than its 21 nodes
    resolve.
    """

    def __init__(self, f: TestFunction, p: int, s: complex, max_evals: int):
        self.f = f
        self.p = p
        self.s = s
        self.max_evals = max_evals

    def segment(self, lo: float, hi: float, m: int) -> np.ndarray:
        f, p, s = self.f, self.p, self.s

        def g(t):
            col = f(t) * t ** s
            if not p:
                return col[None]
            return np.log(t * 2.0 ** -m) ** np.arange(p + 1)[:, None] * col

        # tau^s dtau = 2^(-m(s+1)) t^s dt: the quadrature runs on the weight
        # t^s, with the per-length tolerance of an integral from t = 1, and
        # the constant factor is applied to its result
        moments = integrate_adaptive(g, lo, hi, 1e-11 * (hi - lo), panel=12.0,
                                     max_evals=self.max_evals)
        return 2.0 ** (-m * (s + 1)) * moments


def _moment_backends(form: ExpPoly, f: TestFunction, sign: int, max_evals: int) -> dict:
    """One moment backend per distinct rate mu of ``form``, with s = -sign * mu - 1.

    The backend of rate mu returns the moments for j = 0..p of a piece of a
    dyadic segment at once, p the highest power carried at that rate: exact
    cell sums for embedded sequences, panel quadrature otherwise, each
    quadrature call held to ``max_evals``.
    """
    top: dict[complex, int] = {}
    for t in form:
        top[t.rate] = max(top.get(t.rate, 0), t.power)
    backend = (functools.partial(_CellMoments, f.sequence) if f.sequence is not None
               else functools.partial(_SmoothMoments, f, max_evals=max_evals))
    return {mu: backend(p, _real_if_exact(-sign * mu - 1.0)) for mu, p in top.items()}


def _expand_moments(form: ExpPoly, w: float, sign: int, moments: dict) -> complex:
    """sum_terms c e^(sign mu w) sum_j C(p,j) (sign w)^(p-j) (-sign)^j m_j(mu), w = log(x / 2^m).

    The kernel in additive form at u = sign log(x/t) = sign (w - log tau),
    tau = t / 2^m, expanded by the binomial theorem about the segment's
    origin 2^m: sign +1 is the forward window, sign -1 the dual one.  The
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


def _dyadic_pieces(a: float):
    """[a, 2^(m+1)], [2^(m+1), 2^(m+2)], ... as (lo, hi, m), with 2^m <= a < 2^(m+1)."""
    m = math.frexp(a)[1] - 1
    lo = a
    while True:
        hi = 2.0 ** (m + 1)
        yield lo, hi, m
        lo, m = hi, m + 1


class _MultClosed:
    """Operator of a closed-form multiplicative kernel in t, either variant.

    The window is cut at the dyadic points 2^m, and each piece is the
    moment expansion ``_expand_moments`` about its segment's origin, so the
    binomial factors stay bounded by the segment instead of growing with x.
    The moments of whole segments [2^m, 2^(m+1)] do not depend on x and are
    kept in a table shared by every evaluation point; only a partial piece
    ending (forward) or starting (dual) at x is integrated per point.

    The forward window sums the pieces of [1, x].  The dual one sums the
    pieces of [x, inf) until either the kernel tail is negligible or the
    pieces pass ``EDGE_CAP``; the unresolved remainder is completed by the
    exact remaining kernel mass times the function's recent weighted average
    (exact for functions that settle, negligible for functions whose local
    means die out).  A dual window that starts past ``EDGE_CAP`` raises
    ``QuadratureFailed``.
    """

    EDGE_CAP = 3.2e7          # furthest edge the dual's segment sums reach

    def __init__(self, form: ExpPoly, f: TestFunction, variant: Variant,
                 settings: Settings):
        self.form = form
        self.f = f
        self.settings = settings
        self.sign = 1 if variant is Variant.FORWARD else -1
        self.backends = _moment_backends(form, f, self.sign, settings.max_evals)
        self.table: dict[int, dict] = {}

    def _piece(self, x: float, lo: float, hi: float, m: int) -> complex:
        """int over t in [lo, hi], inside [2^m, 2^(m+1)], of f(t) psi((x/t)^sign) dt/t."""
        whole = lo == 2.0 ** m and hi == 2.0 * lo
        if whole and m in self.table:
            moments = self.table[m]
        else:
            moments = {mu: b.segment(lo, hi, m) for mu, b in self.backends.items()}
            if whole:
                self.table[m] = moments
        return _expand_moments(self.form, math.log(x / 2.0 ** m), self.sign, moments)

    def __call__(self, x: float) -> complex:
        if self.sign > 0:
            pieces = itertools.takewhile(lambda piece: piece[0] < x, _dyadic_pieces(1.0))
            return complex(sum((self._piece(x, lo, min(hi, x), m) for lo, hi, m in pieces),
                               0.0 + 0.0j))
        if x > self.EDGE_CAP:
            raise QuadratureFailed(f"dual window at x={x:g} starts past the segment "
                                   f"sums' reach {self.EDGE_CAP:g}",
                                   interval=(x, 2.0 * x))
        tol = self.settings.tol_quad * (1.0 + self.f.bound)
        total = 0.0 + 0.0j
        seg_sum: list[complex] = []
        seg_weight: list[complex] = []
        for k, (lo, hi, m) in enumerate(_dyadic_pieces(x)):
            v_lo, v_hi = math.log(lo / x), math.log(hi / x)
            if self.form.abs_tail_bound(v_lo) * self.f.bound < tol:
                break
            if hi > self.EDGE_CAP and k >= 2:
                break
            s = self._piece(x, lo, hi, m)
            seg_sum.append(s)
            seg_weight.append(self.form.integral(v_lo, v_hi))
            total += s
        # complete the unresolved kernel tail with the recent weighted average
        rem = self.form.tail_integral(v_lo)
        if abs(rem) > 0 and seg_sum:
            s_recent = sum(seg_sum[-2:])
            w_recent = sum(seg_weight[-2:])
            if abs(w_recent) > 1e-12:
                total += rem * (s_recent / w_recent)
        return complex(total)


# ---------------------------------------------------------------------------
# additive window

class _AddWindow:
    """Operator of an additive kernel, closed-form or sampled, by quadrature.

    The forward window integrates f(x - s) phi(s) over [0, min(x, cut)], the
    dual window f(x + s) phi(s) over [0, cut], with cut the point past which
    the kernel's absolute tail is negligible: the closed form's tail bound,
    or a sampled kernel's geometric tail model past its last sample.  phi is
    ``Kernel.shape``, so a sampled kernel is its linear interpolant, and its
    grid nodes (``Kernel.breaks``) are panel edges: each panel sees one
    linear piece.

    A function with ``noise`` floors the quadrature target at its noise n
    at the window's far end times ||phi||_1: past x ~ 2^26 f(x -+ s) rounds
    its argument to ulp(x), and no error estimate on that staircase falls
    much below n.  When the floor passes the target, a closed form's window
    is split where n times phi's absolute tail falls to half the target.
    The head runs on panels of at most 21 (tol / n)^2, (n / tol)^2 nodes per
    unit of s, so its K21 sums average the rounding down to about the
    target; the tail's rounding is below half the target outright.
    """

    def __init__(self, kernel: Kernel, f: TestFunction, variant: Variant,
                 settings: Settings):
        self.kernel = kernel
        self.f = f
        self.forward = variant is Variant.FORWARD
        self.settings = settings
        eps = settings.tol_quad / (10.0 * (1.0 + f.bound))
        self.shape, self.breaks = kernel.shape, kernel.breaks
        self.cut = self.shape.support_cutoff(eps)
        self.form = kernel.additive_form()

    def __call__(self, x: float) -> complex:
        f, kernel, shape = self.f, self.kernel, self.shape
        if self.forward:
            g = lambda s: f(x - s) * shape(s)
            upper = min(x, self.cut)
            far = x
        else:
            g = lambda s: f(x + s) * shape(s)
            upper = self.cut
            far = x + upper
        tol = self.settings.tol_quad * (1.0 + f.bound)
        noise = 0.0 if f.noise is None else float(f.noise(far))
        target = max(tol, noise * kernel.l1_norm()) if noise else tol
        if target == tol or self.form is None:
            return integrate_adaptive(g, 0.0, upper, target, breaks=self.breaks,
                                      max_evals=self.settings.max_evals)
        head = min(upper, self.form.support_cutoff(0.5 * tol / noise))
        share = target * head / upper
        value = integrate_adaptive(g, 0.0, head, share,
                                   panel=min(head / 4, 21.0 * (tol / noise) ** 2),
                                   max_evals=self.settings.max_evals)
        if head < upper:
            value += integrate_adaptive(g, head, upper, target - share,
                                        max_evals=self.settings.max_evals)
        return value


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
    if kernel.flavor is Flavor.ADDITIVE:
        return _AddWindow(kernel, f, variant, settings)
    form = kernel.additive_form()
    if form is not None and (f.sequence is not None or f.osc_scale != "log"):
        return _MultClosed(form, f, variant, settings)
    additive = _AddWindow(to_additive(kernel), transport_function(f), variant, settings)
    return lambda x: additive(math.log(x))


def apply_forward(kernel: Kernel, f: TestFunction, x: float,
                  settings: Settings = DEFAULT) -> complex:
    """Windowed convolution value at x (the partial mean)."""
    if not kernel.support_origin() < x < math.inf:
        raise InvalidArgument(f"x={x} is not a finite point inside the kernel's support")
    return _make_evaluator(kernel, f, Variant.FORWARD, settings)(float(x))


def apply_dual(kernel: Kernel, f: TestFunction, x: float,
               settings: Settings = DEFAULT) -> complex:
    """Dual (outward-window) value at x."""
    if not kernel.support_origin() < x < math.inf:
        raise InvalidArgument(f"x={x} is not a finite point inside the kernel's support")
    return _make_evaluator(kernel, f, Variant.DUAL, settings)(float(x))


def chain_apply(kernels: Sequence[Kernel], f: TestFunction,
                xs: Sequence[float], settings: Settings = DEFAULT,
                grid_points: int = 2 ** 20) -> np.ndarray:
    """Successive windowed convolutions U_kn(... U_k1 f) at additive probe points.

    Composition is convolution: U_psi(U_phi f) = U_(phi * psi) f, so the
    chain is the forward operator of its kernels' convolution (exact for
    closed forms, on ``settings``' grid for a sampled operand), evaluated at
    each probe by the one additive window.  ``grid_points`` is accepted and
    ignored; it stays only for callers that still pass it.
    Returns complex128 values, one per probe.
    """
    kernels = list(kernels)
    xs = np.asarray(xs, dtype=float)
    if not kernels:
        raise InvalidArgument("chain_apply needs at least one kernel")
    if xs.size == 0 or not np.all(np.isfinite(xs) & (xs > 0)):
        raise InvalidArgument("chain_apply needs probe points that are finite and positive")
    for k in kernels:
        if k.flavor is not Flavor.ADDITIVE:
            raise FlavorMismatch("chain_apply works in additive coordinates")
    kernel = functools.reduce(lambda a, b: convolve(a, b, settings), kernels)
    window = _make_evaluator(kernel, f, Variant.FORWARD, settings)
    return np.array([window(float(x)) for x in xs], dtype=complex)


def nested_apply(outer: Kernel, inner: Kernel, f: TestFunction,
                 xs: Sequence[float], settings: Settings = DEFAULT,
                 grid_points: int = 2 ** 20) -> np.ndarray:
    """U_outer(U_inner f) at additive probe points: ``chain_apply`` (``grid_points`` ignored)."""
    return chain_apply([inner, outer], f, xs, settings, grid_points)


def transport_function(f: TestFunction) -> TestFunction:
    """Multiplicative function viewed through u = log t as an additive one."""
    if f.support_flavor is not Flavor.MULTIPLICATIVE:
        raise FlavorMismatch("transport_function expects a multiplicative-domain function")

    def evaluator(u, _f=f):
        return _f.evaluator(np.exp(np.asarray(u, dtype=float)))

    return TestFunction(label=f.label + "@log", evaluator=evaluator, bound=f.bound,
                        support_flavor=Flavor.ADDITIVE,
                        classical_limit=f.classical_limit)


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
                               0.0, cut, settings.tol_quad, max_evals=settings.max_evals)
    head = integrate_adaptive(lambda t: np.abs(form(t)), 0.0, delta, settings.tol_quad,
                              max_evals=settings.max_evals)
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
