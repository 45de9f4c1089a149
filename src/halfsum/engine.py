"""Summability operators and the limit estimator.

The forward operator integrates the function against the kernel over the
window ending at x; the dual integrates over the window starting at x with
the reflected kernel argument.  Under the log substitution u = log t a
multiplicative operator applied to f is the additive operator of the
transported kernel applied to f o exp at log x, and ``_make_evaluator`` is
the one place that chooses the coordinate.

Every additive operator, and every multiplicative one that runs at log x
(sampled kernels, and closed forms on functions that oscillate in log t),
is one evaluator for both variants, ``_AddWindow``, with the kernel read
through its body (``Kernel.shape``).  A function that declares its
oscillation gives what it can of the window without panels: on a
trigonometric polynomial (sin, cos and the characters, the multiplicative
ones in u = log t) every window is exact, e^(i w x) times the body's
transform, or a closed form's exact integral below the kernel's cut; on the
chirp sin(t^2) a closed form's window goes by parts where the chirp is fast
(Iserles and Norsett, Proc. R. Soc. A 461, 2005).  Panels, one adaptive
quadrature per point, integrate what is left, all of an undeclared
function's window, with their target floored at the function's declared
rounding noise (``_AddWindow``).

Closed forms on sequences and on functions that oscillate in t stay in t,
in one evaluator for both variants, ``_MultClosed``.  It cuts the window at
the dyadic points 2^m and expands the kernel on each piece by the binomial
theorem about the segment's origin 2^m, which turns the piece into moment
integrals of the function in tau = t / 2^m; the forward and dual expansions
are one sum, ``_expand_moments``, and differ only in a sign.  The moments of
a whole segment [2^m, 2^(m+1)] do not depend on x, so one table of them
serves every evaluation point, and a point integrates at most one partial
piece of its own, ending or starting at x.  One moment backend per distinct
kernel rate returns all the moments of that rate at once: exact cell sums for
embedded sequences, which stop at the last term of a finite sequence, and
panel quadrature that evaluates the function once per node otherwise.  A
function that declares its oscillation (``TestFunction.oscillation``: its
mean and bounded antiderivatives, as a periodic sequence or a trigonometric
polynomial does) takes every piece far enough out by parts instead, at a
cost independent of the piece's length (``_ByParts``): multiplicative sin
and cos take about 1e3 evaluations per ladder where their panels took 2e7.
The dual's ``EDGE_CAP`` and its tail completion do not depend on the
backend; the completion takes a declared mean (``_MultClosed``).

Composition is convolution, U_psi(U_phi f) = U_(phi * psi) f.  A method
is one kernel: a method iterated k times is built as the method of the
kernel's k-th convolution power (``method_holder``, ``kernels.power``), and
a chain of additive methods (``chain_apply``, ``nested_apply``) is the
method of its kernels' convolution.  Closed forms stay ``ExpPoly``
products; products and powers with sampled factors, all on one step, are
exact ``Convolved`` bodies (``kernels.convolve``, ``kernels.power``), and
the product then runs through the same evaluators as any other kernel.

Limit estimation is heuristic plateau detection on a geometric ladder of
evaluation points.  The four statuses are honest: ``converged`` and
``diverged`` carry evidence from the trace, ``oscillating`` requires a
stable spread across two doubling windows, and everything else is
``inconclusive``.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Settings
from .errors import FlavorMismatch, InvalidArgument, QuadratureFailed
from .exppoly import ExpPoly, Term, _real_if_exact
from .kernels import (Flavor, Kernel, _is_count, convolve, exponential, power,
                      power_law, to_additive)
from .quadrature import PANEL_NODES, counter, integrate_adaptive


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
    ``oscillation``, when set, declares f = mean + b with b's antiderivatives
    B_1 .. B_K bounded, in the coordinate ``osc_scale`` names (t, or u = log t,
    where ``transport_function`` carries it): an object with ``mean``,
    ``ORDER`` (K), ``t_min``, ``antiderivatives(t)`` (rows B_1 .. B_K for
    t >= t_min, one column per point of t, each row the derivative of the
    next), ``bound`` (on |B_K| past t_min) and ``window(shape, forward, cut,
    target)``, which always returns a window x -> (value, lo, hi): the part
    of an additive window it gives without panels, and the s-range left to
    them (all of it, ``_all_panels``, where it gives nothing).  ``_ByParts``
    takes far moments by parts with it, ``_MultClosed`` completes a dual's
    tail with its mean, and ``_AddWindow`` runs panels only where it leaves
    them.  ``embed_sequence(..., period=P)`` declares the period's
    antiderivatives; ``TrigPolynomial`` declares those of sum c_k e^(i w_k t),
    as the corpus' sin, cos and characters do, and ``Chirp`` those of
    sin(t^2).  The declaration must match the evaluator, which nothing checks
    at run time.
    ``noise(t)``, when set, bounds the absolute error of the double-precision
    value at an argument near t, from the argument's rounding and from the
    evaluation itself, and does not decrease in |t|: the additive window's
    panels floor their target at it (``_AddWindow``).
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
    oscillation: Optional[object] = None

    def __call__(self, x):
        vals = np.asarray(self.evaluator(np.asarray(x, dtype=float)))
        return vals.astype(np.result_type(vals, float), copy=False)


@dataclass(frozen=True)
class MethodDescriptor:
    """A method: the kernel its operator runs (an iterate's convolution power), either variant."""

    kernel: Kernel
    variant: Variant = Variant.FORWARD
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise InvalidArgument(f"a method label must be a string, got {self.label!r}")
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

    def to_dict(self) -> dict:
        """The result's JSON record; the trace is left out."""
        est = self.estimate
        return {"estimate": None if est is None else [est.real, est.imag],
                "status": self.status.value, "amplitude": self.oscillation_amplitude,
                "evaluations": self.evaluations, "tolerance": self.tolerance_used}


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


def _all_panels(x: float):
    """The window a declaration gives nothing of: value 0, and all of s left to panels."""
    return 0.0, 0.0, math.inf


class _PeriodicSequence:
    """a_n = values[(n - 1) mod P] for one declared period, as a vectorized callable.

    With a_n = mean + b_n, B_1, ..., B_K (K = ``ORDER``) are the periodic
    antiderivatives of the step function b(t) = b_[t], each of mean zero over
    a period so that the next one is periodic too.  On a cell [n, n+1) B_k
    is a polynomial of degree k in y = t - n, built once from the P values:
    ``poly[k - 1, r]`` holds its coefficients of y^0..y^K for the residue
    r = (n - 1) mod P, and ``bound`` bounds |B_K|.  It is the sequence and
    its oscillation declaration at once.
    """

    ORDER = 8
    t_min = 0.0

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
        self.bound = float(np.abs(b).sum(axis=1).max())

    def __call__(self, n):
        return self.values[self._residue(n)]

    def antiderivatives(self, t: np.ndarray) -> np.ndarray:
        """B_1, ..., B_K as rows, one column per point of ``t``."""
        n = np.floor(t)
        return np.einsum("kti,ti->kt", self.poly[:, self._residue(n)],
                         (t - n)[:, None] ** np.arange(self.ORDER + 1))

    def _residue(self, n) -> np.ndarray:
        """(n - 1) mod P as indices for whole n of any size: only np.mod's exact result is cast."""
        period = self.values.size
        return (np.mod(n, period).astype(np.intp, copy=False) - 1) % period

    def window(self, shape, forward: bool, cut: float, target: float):
        """An additive window of a step function runs on panels."""
        return _all_panels


def embed_sequence(a, label: str = "sequence", period: Optional[int] = None) -> TestFunction:
    """Step function f(x) = a_[x] on [1, inf) for a bounded sequence a_1, a_2, ...

    ``a`` is either a finite sequence (continued by zero) or a vectorized
    callable on integer arrays, whose first 4096 terms are checked as a list
    is: one finite term per index.  A callable may declare its ``period`` P:
    its first 4096 terms must then repeat its first P, and the operators
    take its moments far out by parts at O(P) cost per piece (``_ByParts``)
    instead of one term per cell.
    """
    if callable(a):
        seq = a
        terms = np.asarray(seq(np.arange(1, 4097)))
        if terms.shape != (4096,):
            raise InvalidArgument(f"a sequence callable must give one term per index: "
                                  f"4096 indices gave shape {terms.shape}")
    else:
        if period is not None:
            raise InvalidArgument("only a callable sequence can declare a period")
        terms = np.asarray(list(a))
        terms = terms.astype(np.result_type(terms, float), copy=False)
        if terms.size == 0:
            raise InvalidArgument("cannot embed an empty sequence")
        seq = _FiniteSequence(terms)
    if not np.all(np.isfinite(terms)):
        raise InvalidArgument("sequence entries must be finite")
    bound = float(np.abs(terms).max())
    if period is not None:
        if not (_is_count(period) and period <= terms.size):
            raise InvalidArgument(f"a period must be an integer in 1..{terms.size}")
        values = terms[:period].astype(np.result_type(terms, float))
        if not np.array_equal(terms, np.resize(values, terms.size)):
            raise InvalidArgument(f"the sequence's first {terms.size} terms do not "
                                  f"repeat with period {period}")
        seq = _PeriodicSequence(values)

    def evaluator(x, _seq=seq):
        n = np.floor(np.asarray(x, dtype=float))
        if not np.all(np.abs(n) < 2.0 ** 63):
            raise QuadratureFailed("sequence index past the int64 range or not finite")
        return _seq(n.astype(np.int64))

    return TestFunction(label=label, evaluator=evaluator, bound=bound,
                        support_flavor=Flavor.MULTIPLICATIVE, osc_scale="linear",
                        sequence=seq, oscillation=seq if period is not None else None)


def _expi(a, b):
    """e^(i a b), with the phase a b formed exactly as p + e (Dekker's two-product).

    Rounded to one double, a phase errs by up to ulp(a b) / 2: 2.4e-7 radians
    at a = 3.7, b = 1.5 * 2^29.  Veltkamp's split halves each factor into 26
    bits (T. J. Dekker, Numer. Math. 18, 1971), so p + e is a b exactly, and
    e^(i a b) = e^(i p) e^(i e).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return np.exp(1j * p) * np.exp(1j * e)


def _split(v):
    """Veltkamp's split v = hi + lo, each part of at most 26 significant bits,
    taken of v 2^-28 and scaled back: (2^27 + 1) v would overflow past 2^996,
    and the scaling is exact for 2^-994 <= |v| < 2^1024 - 2^997."""
    v = v * 2.0 ** -28
    c = 134217729.0 * v          # 2^27 + 1
    hi = c - (c - v)
    return hi * 2.0 ** 28, (v - hi) * 2.0 ** 28


class TrigPolynomial:
    """The oscillation declaration of f(t) = sum_k c_k e^(i w_k t), every w_k nonzero.

    Its mean is 0, its antiderivatives are B_k = sum c_k (i w_k)^-k e^(i w_k t),
    and sum |c_k| |w_k|^-K bounds |B_K|, for every t.  When its terms come in
    conjugate pairs (c, w), (conj c, -w), f is real and so are the B_k it
    returns: sin t is ((-i/2, 1), (i/2, -1)) and cos t is ((1/2, 1), (1/2, -1)).
    Its additive windows are exact (``window``).
    """

    ORDER = 8
    mean = 0.0
    t_min = 0.0

    def __init__(self, coefs, freqs):
        coefs = np.asarray(coefs, dtype=complex)
        freqs = np.asarray(freqs, dtype=float)
        if coefs.ndim != 1 or coefs.shape != freqs.shape or coefs.size == 0:
            raise InvalidArgument("a trigonometric polynomial needs one coefficient per frequency")
        if not (np.all(np.isfinite(coefs)) and np.all(np.isfinite(freqs)) and np.all(freqs != 0)):
            raise InvalidArgument("a trigonometric polynomial needs finite coefficients and "
                                  "finite nonzero frequencies")
        terms = set(zip(freqs.tolist(), coefs.tolist()))
        self.real = all((-w, c.conjugate()) in terms for w, c in terms)
        self.amplitudes, self.freqs = coefs, freqs
        # row k - 1: c (i w)^-k, by products of -i / w, which are exact for w = +-1
        self.coefs = coefs * np.cumprod(np.tile(-1j / freqs, (self.ORDER, 1)), axis=0)
        # |e^(i w t)| as computed may pass 1 by a few ulps
        self.bound = float(np.abs(self.coefs[-1]).sum()) * (1.0 + 4 * np.finfo(float).eps)

    def antiderivatives(self, t: np.ndarray) -> np.ndarray:
        """B_1, ..., B_K as rows, one column per point of ``t``."""
        rows = self.coefs @ _expi(self.freqs[:, None], np.asarray(t)[None])
        return rows.real if self.real else rows

    def window(self, shape, forward: bool, cut: float, target: float):
        """x -> (value, lo, hi): the additive window of the kernel body ``shape``
        at x, but for s in [lo, hi], which is left to panels.

        On e^(i w t) the window is e^(i w x) times a constant of the body: the
        dual's is its transform at -w, int phi(s) e^(i w s) ds, and the forward
        window's, once x >= cut, its transform at w (which adds the tail past
        cut that the panels' window leaves out, within ``target``).  Below cut
        a closed form's forward window is exact too, int_0^x phi(s) e^(-i w s) ds
        being the integral of phi with every rate shifted by -i w; any other
        body leaves [0, x] to panels.  The phase w x is formed exactly
        (``_expi``), and no value costs an evaluation.
        """
        c, w = self.amplitudes, self.freqs
        at_cut = c * shape.transform(w if forward else -w)
        # a real f on a real body has a real window, as on panels
        cast = (lambda v: v.real) if self.real and shape(np.zeros(1)).dtype == float else complex
        whole = lambda x: (cast(at_cut @ _expi(w, x)), 0.0, 0.0)
        if not forward:
            return whole
        if isinstance(shape, ExpPoly):
            shifted = [ExpPoly([Term(t.coef, t.power, t.rate - 1j * wk) for t in shape])
                       for wk in w]
            near = lambda x: (cast((c * [g.integral(0.0, x) for g in shifted]) @ _expi(w, x)),
                              0.0, 0.0)
        else:
            near = _all_panels
        return lambda x: whole(x) if x >= cut else near(x)


class Chirp:
    """The oscillation declaration of sin(t^2), for t >= ``t_min``.

    B_k = Im(e^(i t^2) A_k(t)) with 2 i t A_k + A_k' = A_(k-1) and A_0 = 1, so
    that B_k' = B_(k-1) and B_0 = sin t^2; each B_k falls to zero like
    (2 t)^-k (DLMF 7.12 for k = 1).  A_k is its asymptotic series in 1/t,
    ``series[k - 1, n]`` the coefficient of t^-n, cut after ``TERMS`` powers;
    past t_min = 8 the terms cut off leave the recurrence a residual below
    1e-17.  The mean is 0 and ``bound`` bounds |B_K| for t >= t_min.  Its
    additive windows go by parts (``window``).
    """

    ORDER = 12
    TERMS = 40
    mean = 0.0
    t_min = 8.0

    def __init__(self):
        # with A_k = sum_n a[k, n] t^-n, 2 i a[k, n + 1] = a[k - 1, n] + (n - 1) a[k, n - 1]
        a = np.zeros((self.ORDER + 1, self.TERMS + 1), dtype=complex)
        a[0, 0] = 1.0
        for n in range(self.TERMS):
            a[1:, n + 1] = (a[:-1, n] + ((n - 1) * a[1:, n - 1] if n else 0.0)) / 2j
        self.series = a[1:]
        self.powers = -np.arange(self.TERMS + 1.0)
        self.bound = self.tail_bound(self.t_min)

    def tail_bound(self, t: float) -> float:
        """sup |B_K| on [t, inf) for t >= t_min: sum_n |a[K, n]| t^-n, which falls with t."""
        return float(np.abs(self.series[-1]) @ t ** self.powers)

    def antiderivatives(self, t: np.ndarray) -> np.ndarray:
        """B_1, ..., B_K as rows, one column per point of ``t`` (each >= t_min)."""
        t = np.asarray(t, dtype=float)
        return (_expi(t, t) * (self.series @ t ** self.powers[:, None])).imag

    def window(self, shape, forward: bool, cut: float, target: float):
        """x -> (value, lo, hi) as ``TrigPolynomial.window``, by parts for a closed form.

        With d/ds B_k(x -+ s) = -+B_(k-1)(x -+ s), K integrations by parts give
        the window over the s where x -+ s >= T as boundary terms:

            forward: -sum_k [B_k(x - s) phi^(k-1)(s)],
            dual:    sum_k (-1)^(k-1) [B_k(x + s) phi^(k-1)(s)],

        taken from s = 0 (forward) or T - x (dual, if x < T) to the end: s = x - T
        forward, and infinity dual.  What is dropped is at most
        sup_(t >= T) |B_K| ||phi^(K)||_1; T is the first point of t_min 1.25^n
        where that falls below ``target``.  The rest of the window, where the
        chirp is slow, goes to panels, and so does every window of any other
        body.  A window charges the evaluation counter K per end, one per
        antiderivative value.
        """
        if not isinstance(shape, ExpPoly):
            return _all_panels
        derivs = [shape]
        for _ in range(self.ORDER):
            derivs.append(derivs[-1].derivative())
        rest = derivs.pop().abs_tail_bound(0.0)
        start = self.t_min
        while self.tail_bound(start) * rest > target:
            start *= 1.25
        at = lambda s: np.array([d(s) for d in derivs])       # phi^(k-1)(s), k = 1..K
        signs = (-1.0) ** np.arange(1, self.ORDER + 1)         # (-1)^k

        def forward_window(x):
            if x <= start:
                return _all_panels(x)
            counter.add(2 * self.ORDER)
            b = self.antiderivatives(np.array([x, start])) * at(np.array([0.0, x - start]))
            return complex(np.sum(b[:, 0] - b[:, 1])), x - start, x

        def dual_window(x):
            counter.add(self.ORDER)
            s = max(0.0, start - x)
            b = self.antiderivatives(np.array([max(x, start)]))[:, 0] * at(s)
            return complex(signs @ b), 0.0, s

        return forward_window if forward else dual_window


def discrete_cesaro(a, n: int) -> complex:
    """Plain arithmetic mean of a_1..a_n (the discrete bridge oracle), n >= 1."""
    if not _is_count(n):
        raise InvalidArgument(f"a Cesaro mean needs an integer count n >= 1, got {n!r}")
    idx = np.arange(1, n + 1)
    vals = a(idx) if callable(a) else np.asarray(list(a)[:n], dtype=complex)
    return complex(np.sum(vals) / n)


# ---------------------------------------------------------------------------
# closed-form multiplicative machinery

def _log_power_integrals(sums: np.ndarray, sigma: complex) -> np.ndarray:
    """int (log tau)^j tau^s dtau for j = 0..p, in place, from the differences of H_j.

    With H_j = tau^sigma (log tau)^j, sigma = s + 1, the antiderivatives G_j
    of (log tau)^j tau^s follow by parts: G_j = (H_j - j G_(j-1)) / sigma.
    """
    g = 0.0
    for j in range(sums.size):
        sums[j] = g = (sums[j] - j * g) / sigma
    return sums


class _CellMoments:
    """Moments  sum_n a_n int (log tau)^j tau^s dtau, j = 0..p, tau = t / 2^m, of a step function.

    One pass serves every moment of a kernel rate: exact cell sums sum a_n
    times the cell differences of H_j = tau^(s+1) (log tau)^j, each H_j made
    from the last by one multiply, and ``_log_power_integrals`` runs on the
    p+1 sums.  Blocks of ``CHUNK`` cells keep a block's arrays (128 KiB
    each) in a core's 2 MiB L2: with 2^18 cells a segment of (-1)^n took
    14-17 ns per cell at p = 0 and 22-28 ns at p = 2, against 5.4-6.6 and
    10-12 ns (2-core Xeon).  A finite sequence stops the sums at its last
    term.
    """

    CHUNK = 1 << 14

    def __init__(self, seq, p: int, s: complex):
        self.seq = seq
        self.p = p
        self.s = s
        self.sigma = s + 1.0
        self.last = seq.values.size if isinstance(seq, _FiniteSequence) else math.inf

    def segment(self, lo: float, hi: float, m: int) -> np.ndarray:
        """int_lo^hi f(t) (log tau)^j tau^(s+1) dt/t for j = 0..p, tau = t / 2^m."""
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
        return _log_power_integrals(sums, self.sigma)


class _SmoothMoments:
    """Moment integrals int_lo^hi f(t) (log tau)^j tau^(s+1) dt/t, j = 0..p, of a smooth f.

    One panel integral in t per piece evaluates f once per node for all p+1
    moments, on G20/K41 panels of length 30: the integrand is smooth, so
    each panel bisects only where f oscillates faster than its 41 nodes
    resolve.  On cos(w s + c) over [-1, 1] K41 errs by less than 1e-13 for
    w up to 35 and its error estimate stays below 1e-10 for w up to 18; a
    30-long panel puts sin t at w = 15.  Longer panels accept what they
    resolve less well: 36-long ones err by up to 8e-10 in M*_1 on sin(3 t).
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
        moments = integrate_adaptive(g, lo, hi, 1e-11 * (hi - lo), panel=30.0,
                                     max_evals=self.max_evals)
        return 2.0 ** (-m * (s + 1)) * moments


class _ByParts:
    """The moments of ``near`` for a function that declares its oscillation, by parts far out.

    A piece that starts past ``reach`` and is longer than ``min_length`` is
    summed by parts against the declared antiderivatives (Euler-Maclaurin
    summation with periodic functions, T. M. Apostol, Amer. Math. Monthly
    106, 1999), at a cost independent of its length; any other piece goes
    to ``near``.  The mean runs ``_log_power_integrals`` on H_j at the
    piece's two ends, and with h_j(t) = 2^-m tau^s (log tau)^j the mean-zero
    rest b gives, by K integrations by parts against B_1 .. B_K,

        int b h_j = sum_(k <= K) (-1)^(k-1) [B_k h_j^(k-1)] + (-1)^K int B_K h_j^(K),

    with t h_j^(k+1) = (s - k) h_j^(k) + j h_(j-1)^(k).  The remainder is
    dropped: h_j^(K) = 2^-m t^-K tau^s sum_i C_ji (log tau)^i, so past
    ``reach`` max|B_K| (hi - lo) max|h_j^(K)| is below the rounding,
    eps ||f||_inf (hi - lo) min|h_0|, of the piece's integral.  Such a piece
    charges the evaluation counter 2K, one per antiderivative value.
    """

    def __init__(self, osc, amplitude: float, near, min_length: float):
        self.osc = osc
        self.near = near
        self.p, self.s, self.sigma = near.p, near.s, near.s + 1.0
        self.min_length = min_length
        self.reach = max(self._reach(amplitude), osc.t_min)

    def segment(self, lo: float, hi: float, m: int) -> np.ndarray:
        """int_lo^hi f(t) (log tau)^j tau^(s+1) dt/t for j = 0..p, tau = t / 2^m."""
        if lo < self.reach or hi - lo <= self.min_length:
            return self.near.segment(lo, hi, m)
        t = np.array([lo, hi])
        tau = t * 2.0 ** -m
        powers = np.log(tau) ** np.arange(self.p + 1)[:, None]   # one column per end
        h = tau ** self.sigma * powers
        sums = _log_power_integrals(self.osc.mean * (h[:, 1] - h[:, 0]).astype(complex),
                                    self.sigma)
        counter.add(2 * self.osc.ORDER)
        return sums + self._by_parts(t, 2.0 ** -m * tau ** self.s * powers)

    def _reach(self, amplitude: float) -> float:
        """The t past which a piece's by-parts remainder is below its integral's rounding."""
        osc, p, s = self.osc, self.p, self.s
        if osc.bound == 0:
            return 0.0                  # a constant: its mean is all of it
        # h_j^(K) = 2^-m t^-K tau^s sum_i c[j, i] (log tau)^i, |log tau| <= log 2
        c = np.eye(p + 1, dtype=complex)
        for k in range(osc.ORDER):
            c, c_prev = (s - k) * c, c
            c[:, :-1] += c_prev[:, 1:] * np.arange(1, p + 1)
        c_max = np.max(np.abs(c) @ math.log(2.0) ** np.arange(p + 1))
        eps_sum = np.finfo(float).eps * amplitude
        return (osc.bound * 2.0 ** abs(s.real) * c_max / eps_sum) ** (1.0 / osc.ORDER)

    def _by_parts(self, t: np.ndarray, d: np.ndarray) -> np.ndarray:
        """[sum_(k <= K) (-1)^(k-1) B_k h_j^(k-1)] from t[0] to t[1], j = 0..p, d = h_j(t)."""
        j = np.arange(self.p + 1)[:, None]
        out = np.zeros(d.shape, dtype=complex)
        for k, b_k in enumerate(self.osc.antiderivatives(t)):
            out += (-1) ** k * b_k * d
            d[1:] = ((self.s - k) * d[1:] + j[1:] * d[:-1]) / t
            d[0] *= (self.s - k) / t
        return out[:, 1] - out[:, 0]


def _moment_backend(f: TestFunction, p: int, s: complex, max_evals: int):
    """The moments j = 0..p at exponent s of f's pieces.

    Exact cell sums for sequences, panels held to ``max_evals`` otherwise, and
    by parts far out when f declares its oscillation; a sequence keeps cell
    sums on pieces of at most 2K cells, which cost no more.
    """
    near = (_CellMoments(f.sequence, p, s) if f.sequence is not None
            else _SmoothMoments(f, p, s, max_evals))
    osc = f.oscillation
    if osc is None:
        return near
    return _ByParts(osc, f.bound, near, 2 * osc.ORDER if f.sequence is not None else 0.0)


def _moment_backends(form: ExpPoly, f: TestFunction, sign: int, max_evals: int) -> dict:
    """One ``_moment_backend`` per distinct rate mu of ``form``, with s = -sign * mu - 1.

    The backend of rate mu returns the moments for j = 0..p of a piece of a
    dyadic segment at once, p the highest power carried at that rate.
    """
    top: dict[complex, int] = {}
    for t in form:
        top[t.rate] = max(top.get(t.rate, 0), t.power)
    return {mu: _moment_backend(f, p, _real_if_exact(-sign * mu - 1.0), max_evals)
            for mu, p in top.items()}


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


def _dyadic_pieces(a: float, b: float = math.inf):
    """[a, 2^(m+1)], [2^(m+1), 2^(m+2)], ..., [2^n, b] as (lo, hi, m), with 2^m <= a < 2^(m+1)."""
    m = math.frexp(a)[1] - 1
    lo = a
    while lo < b:
        hi = min(2.0 ** (m + 1), b) if m < 1023 else b      # 2^1024 overflows
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
    exact remaining kernel mass times the function's declared mean or, if it
    declares none, its weighted average over the last two pieces (exact for
    functions that settle, negligible for functions whose local means die
    out).  A dual window that starts past ``EDGE_CAP`` raises
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
            return complex(sum((self._piece(x, lo, hi, m) for lo, hi, m in _dyadic_pieces(1.0, x)),
                               0.0 + 0.0j))
        if x > self.EDGE_CAP:
            raise QuadratureFailed(f"dual window at x={x:g} starts past the segment "
                                   f"sums' reach {self.EDGE_CAP:g}",
                                   interval=(x, 2.0 * x))
        tol = self.settings.tol_quad * (1.0 + self.f.bound)
        total = 0.0 + 0.0j
        recent = []                     # the last two pieces' (sum, kernel weight)
        for k, (lo, hi, m) in enumerate(_dyadic_pieces(x)):
            v_lo, v_hi = math.log(lo / x), math.log(hi / x)
            if self.form.abs_tail_bound(v_lo) * self.f.bound < tol:
                break
            if hi > self.EDGE_CAP and k >= 2:
                break
            s = self._piece(x, lo, hi, m)
            recent = recent[-1:] + [(s, self.form.integral(v_lo, v_hi))]
            total += s
        # complete the kernel tail with the declared mean, or else the recent average
        rem = self.form.tail_integral(v_lo)
        if abs(rem) > 0 and self.f.oscillation is not None:
            total += rem * self.f.oscillation.mean
        elif abs(rem) > 0 and recent:
            s_recent, w_recent = map(sum, zip(*recent))
            if abs(w_recent) > 1e-12:
                total += rem * (s_recent / w_recent)
        return complex(total)


# ---------------------------------------------------------------------------
# additive window

class _AddWindow:
    """Operator of an additive kernel, closed-form or sampled, either variant.

    The forward window integrates f(x - s) phi(s) over [0, min(x, cut)], the
    dual window f(x + s) phi(s) over [0, cut], with cut the point past which
    the kernel's absolute tail is negligible: the closed form's tail bound,
    a sampled kernel's geometric tail model past its last sample, or a
    convolved body's bound from its factors.  phi is ``Kernel.shape``.

    The function's declaration (``TestFunction.oscillation``'s ``window``,
    built once per evaluator, or ``_all_panels``) gives what it can of the
    window without panels: a trigonometric polynomial all of it on a closed
    form, and on any body the dual and the forward window at x >= cut, from
    the body's transform; a chirp a closed form's window where it is fast,
    by parts.  Panels integrate the s-range it leaves.

    On panels a sampled kernel is its linear interpolant, and its grid nodes
    (``Kernel.breaks``) are panel edges: each panel sees one linear piece.  A
    convolved body's kinks lie on the sums of its sampled factors' nodes,
    and it is smooth between them, so they serve as edges the same way.

    The noise floor.  Past x ~ 2^26 f(x -+ s) rounds its argument to ulp(x),
    and no error estimate on that staircase falls much below the function's
    ``noise`` n at the far end of the panels' arguments, so their target is
    floored at n ||phi||_1.  When that passes the target on a body without
    kinks (a closed form), the range is split where n times phi's absolute
    tail falls to half the target: the head runs on panels at most
    41 (tol / n)^2 long, so its K41 sums average the rounding down to about
    the target, and the tail's rounding is below half the target outright.
    A sampled or convolved body keeps the plain floored target on its nodes,
    at an eighth to a tenth of the evaluations the split takes.  Declared
    windows leave panels only slow arguments, so the floor serves undeclared
    functions and the chirp on a body that is not a closed form, whose
    ladders under a 512-sample e^(-u) converge in 4e6 evaluations with it
    and end inconclusive after 6e7 without it.
    """

    def __init__(self, kernel: Kernel, f: TestFunction, variant: Variant,
                 settings: Settings):
        self.kernel = kernel
        self.f = f
        self.forward = variant is Variant.FORWARD
        self.settings = settings
        self.tol = settings.tol_quad * (1.0 + f.bound)
        self.shape, self.breaks = kernel.shape, kernel.breaks
        self.cut = self.shape.support_cutoff(settings.tol_quad / (10.0 * (1.0 + f.bound)))
        osc = f.oscillation
        self.declared = (_all_panels if osc is None
                         else osc.window(self.shape, self.forward, self.cut, 0.1 * self.tol))

    def __call__(self, x: float) -> complex:
        value, lo, hi = self.declared(x)
        hi = min(hi, x if self.forward else math.inf, self.cut)
        return value + self._panels(x, lo, hi) if lo < hi else value

    def _panels(self, x: float, lo: float, hi: float) -> complex:
        """The window's integral over s in [lo, hi], on panels."""
        f, shape, tol = self.f, self.shape, self.tol
        if self.forward:
            g = lambda s: f(x - s) * shape(s)
            far = x - lo
        else:
            g = lambda s: f(x + s) * shape(s)
            far = x + hi
        noise = 0.0 if f.noise is None else float(f.noise(far))
        target = max(tol, noise * self.kernel.l1_norm()) if noise else tol
        if target == tol or self.breaks is not None:
            return integrate_adaptive(g, lo, hi, target, breaks=self.breaks,
                                      max_evals=self.settings.max_evals)
        head = max(lo, min(hi, shape.support_cutoff(0.5 * tol / noise)))
        share = target * (head - lo) / (hi - lo)
        value = integrate_adaptive(g, lo, head, share,
                                   panel=min((head - lo) / 4, PANEL_NODES * (tol / noise) ** 2),
                                   max_evals=self.settings.max_evals)
        if head < hi:
            value += integrate_adaptive(g, head, hi, target - share,
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
    the additive operator at log x.  A value that is not finite, or an x
    that overflowed to inf, raises :class:`QuadratureFailed`.
    """
    _check_domain(kernel, f)
    form = kernel.additive_form()
    if kernel.flavor is Flavor.ADDITIVE:
        window = _AddWindow(kernel, f, variant, settings)
    elif form is not None and (f.sequence is not None or f.osc_scale != "log"):
        window = _MultClosed(form, f, variant, settings)
    else:
        additive = _AddWindow(to_additive(kernel), transport_function(f), variant, settings)
        window = lambda x: additive(math.log(x))

    def evaluate(x: float) -> complex:
        value = window(x) if x < math.inf else math.nan
        if not cmath.isfinite(value):
            raise QuadratureFailed(f"the window value at x={x:g} is not finite", interval=(x, x))
        return value

    return evaluate


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
    chain is the forward operator of its kernels' convolution, evaluated at
    each probe by the one additive window.  ``convolve`` makes that product
    exact for closed forms and sampled kernels on one step, and raises
    :class:`InvalidArgument` for sampled kernels on different steps.
    ``grid_points`` is accepted and ignored; it stays only for callers that
    still pass it.
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
    kernel = functools.reduce(convolve, kernels)
    window = _make_evaluator(kernel, f, Variant.FORWARD, settings)
    return np.array([window(float(x)) for x in xs], dtype=complex)


def nested_apply(outer: Kernel, inner: Kernel, f: TestFunction,
                 xs: Sequence[float], settings: Settings = DEFAULT) -> np.ndarray:
    """U_outer(U_inner f) at additive probe points: ``chain_apply``."""
    return chain_apply([inner, outer], f, xs, settings)


def transport_function(f: TestFunction) -> TestFunction:
    """Multiplicative function viewed through u = log t as an additive one."""
    if f.support_flavor is not Flavor.MULTIPLICATIVE:
        raise FlavorMismatch("transport_function expects a multiplicative-domain function")

    def evaluator(u, _f=f):
        return _f.evaluator(np.exp(np.asarray(u, dtype=float)))

    return TestFunction(label=f.label + "@log", evaluator=evaluator, bound=f.bound,
                        support_flavor=Flavor.ADDITIVE,
                        classical_limit=f.classical_limit,
                        oscillation=f.oscillation if f.osc_scale == "log" else None)


def uniform_continuity_bound(kernel: Kernel, delta: float,
                             settings: Settings = DEFAULT) -> float:
    """Modulus-of-continuity bound for the forward operator on the unit ball.

    |U f(x) - U f(y)| <= ||f||_inf * (int |phi(t) - phi(t+d)| dt + int_0^d |phi|)
    for |x - y| <= d, d = ``delta`` finite and >= 0, with both integrals
    evaluated by quadrature.
    """
    if not 0.0 <= delta < math.inf:
        raise InvalidArgument(f"a continuity bound needs a finite delta >= 0, got {delta!r}")
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
    return MethodDescriptor(power_law(r), variant, label=f"M{star}_{r:g}")


def method_holder(k: int) -> MethodDescriptor:
    """k-fold iterate of the continuous mean: the method of (t^-1)'s k-th power."""
    return MethodDescriptor(power(power_law(1.0), k), Variant.FORWARD, label=f"H_{k}")


def k_estimator(flavor: Flavor) -> MethodDescriptor:
    """Fixed nonvanishing-transform kernel standing in for the weak* translation method.

    The proxy shares the weak* method's domain, so it is interchangeable with
    it on everything this engine can test.
    """
    if flavor is Flavor.ADDITIVE:
        return MethodDescriptor(exponential(1.0), Variant.FORWARD, label="K~S_exp(1)")
    return MethodDescriptor(power_law(1.0), Variant.FORWARD, label="P~M_1")


# ---------------------------------------------------------------------------
# limit estimation

def _spread(vals) -> float:
    arr = np.asarray(vals)
    return float(np.max(np.abs(arr[:, None] - arr[None, :]))) if arr.size > 1 else 0.0


LADDER_X0 = 4.0      # the ladder's first abscissa
PLATEAU_WINDOW = 5   # "converged" needs this many consecutive values within the tolerance


def estimate_limit(method: MethodDescriptor, f: TestFunction,
                   settings: Settings = DEFAULT) -> SummationResult:
    """Plateau-detected limit of the method's operator along the ladder."""
    kernel = method.kernel
    _check_domain(kernel, f)
    tol_limit = settings.tol_limit(f.bound)
    l1 = kernel.l1_norm()
    # the kernel's norm quadrature ran above: only the operator's work counts
    start_evals = counter.count
    evaluator = _make_evaluator(kernel, f, method.variant, settings)

    cap = 10.0 * f.bound * max(l1, 1.0) + 1e-12
    window = PLATEAU_WINDOW
    trace: list[tuple[float, complex]] = []
    values: list[complex] = []
    status = Status.INCONCLUSIVE
    estimate = None
    amplitude = 0.0

    x = LADDER_X0
    for _ in range(settings.ladder_max_steps + 1):
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
