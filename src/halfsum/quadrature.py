"""Vectorized panel quadrature for real or complex integrands.

Three tools:

* :func:`integrate_adaptive` — the one adaptive loop: Gauss-Kronrod
  G10/K21 panels, whose nested 10-point estimate certifies 21-node accuracy
  on long smooth panels, each bisected until its error estimate meets its
  share of the tolerance or the evaluation budget runs out.  Rejected
  panels are bisected in blocks of at most ``_CHUNK_PANELS`` panel-columns
  (panels times the integrand's columns), so memory stays flat however far
  a refinement goes and however many columns share the nodes.
  :class:`RunningIntegral` wraps the loop as a cumulative integral along
  increasing endpoints; it has no caller in the library and stays only
  because the benchmark's tracer (``perfbench/tracing.py``) wraps its
  ``value_to``.
* :func:`fourier_piecewise_linear` — exact Fourier integral of a piecewise
  linear interpolant on a uniform grid (Filon-type), used for transforms of
  sampled kernels.  It takes a whole frequency array at once: equally spaced
  frequencies go through blocked chirp-z transforms, any other frequencies
  through a blocked direct product.
* :func:`trapezoid_convolution` — trapezoid rule for the half-line
  convolution of two functions sampled on one uniform grid (the product of
  a sampled kernel with another), at every node from one zero-padded FFT
  product: a real FFT when both operands are real, a complex one otherwise.

Integrands and operands keep their own dtype: real data is integrated and
convolved in real arithmetic, complex data in complex arithmetic.  The FFTs
are numpy's pocketfft, the same one scipy.fft wraps: importing scipy.fft
took 0.3-0.4 s, most of the package's import time.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

from .config import DEFAULT
from .errors import QuadratureFailed

# Gauss-Kronrod G10/K21 (QUADPACK qk21, Piessens et al. 1983): the Kronrod
# nodes from the right end to the centre with their weights, and the weights
# of the Gauss nodes among them (every other one, from the second)
_K21_NODES = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
              0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
              0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
              0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
              0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
              0.0)
_K21_WEIGHTS = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821)
_G10_WEIGHTS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                0.295524224714752870173892994651338)


def _gauss_kronrod_21():
    """The 21 nodes on [-1, 1], their K21 weights, and the G10 weights (zero off its nodes)."""
    x, wk, wg = (np.array(c) for c in (_K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS))
    g10 = np.zeros(21)
    g10[1::2] = np.concatenate([wg, wg[::-1]])
    return np.concatenate([-x[:-1], x[::-1]]), np.concatenate([wk[:-1], wk[::-1]]), g10


_GK21_NODES, _K21, _G10 = _gauss_kronrod_21()


class EvalCounter:
    """Process-wide tally of integrand evaluations (diagnostics only)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n

    def reset(self):
        self.count = 0


counter = EvalCounter()


def _panel_values(f, lo, hi):
    """G10/K21 estimate, its error estimate and the absolute integral per panel.

    The error estimate is the difference between the K21 and the embedded
    G10 weights applied to the same node values.  ``f`` returns one value
    per node, or one row per column with one value per node (a leading
    column axis); the three results then carry the same leading axis, with
    the panels on the last one.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _GK21_NODES[None, :]
    vals = np.asarray(f(pts.ravel()))
    counter.add(pts.size)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    est = half * (vals @ _K21)
    est_low = half * (vals @ _G10)
    est_abs = half * (np.abs(vals) @ _K21)
    return est, np.abs(est - est_low), est_abs


# panels per block of refinement; 4096 x 21 nodes (672 KiB a column) stay in
# L2, where 50 000 panels took 49-50 ns per node on sin(t) t^-2 against
# 38-43 ns (2-core Xeon)
_CHUNK_PANELS = 4096


def _edge_blocks(a, b, panel, breaks):
    """Initial panel edges over [a, b], one block of at most ``_CHUNK_PANELS`` panels at a time.

    Panels are ``panel`` long (the last block's shortened to fit), each
    block built when it is reached, or else min(256, max(4, (b - a) / 2))
    equal panels with the points of ``breaks`` inside (a, b) as more edges.
    """
    if panel is None:
        edges = np.linspace(a, b, int(min(256, max(4, (b - a) / 2))) + 1)
        if breaks is not None:
            edges = np.union1d(edges, breaks[(breaks > a) & (breaks < b)])
        for i in range(0, edges.size - 1, _CHUNK_PANELS):
            yield edges[i:i + _CHUNK_PANELS + 1]
        return
    while a < b:
        top = min(a + panel * _CHUNK_PANELS, b)
        yield np.linspace(a, top, max(1, math.ceil((top - a) / panel)) + 1)
        a = top


def max_columns(a: float, b: float, breaks: np.ndarray | None = None) -> int:
    """Columns one :func:`integrate_adaptive` call over [a, b] (no ``panel``) may carry.

    As many as keep its first block, sample breaks included, within
    ``_CHUNK_PANELS`` panel-columns; at least one.
    """
    return max(1, _CHUNK_PANELS // (next(_edge_blocks(a, b, None, breaks)).size - 1))


def _panel_where(lo, hi, score) -> tuple[float, float]:
    i = int(np.argmax(score.reshape(-1, lo.size).max(axis=0)))   # largest in any column
    return float(lo[i]), float(hi[i])


def integrate_adaptive(f, a: float, b: float, tol: float, *,
                       breaks: np.ndarray | None = None, panel: float | None = None,
                       max_evals: int = DEFAULT.max_evals):
    """Integrate real- or complex-valued ``f`` (vectorized) over [a, b] to absolute ``tol``.

    Panels start as :func:`_edge_blocks` lays them out (``breaks`` are
    points where the integrand may have a kink).  A panel is accepted when
    its G10/K21 error estimate meets its share of ``tol``, which depends on
    the panel alone, and is bisected otherwise.  ``f`` may return one row
    of values per column: every column is then integrated from the same
    nodes, a panel is bisected when any column misses, and the result is an
    array.  Rejected panels wait in blocks of at most ``_CHUNK_PANELS / 2``
    panel-columns and are refined depth first, so no bisection sees more
    than ``_CHUNK_PANELS`` panel-columns (:func:`max_columns` bounds the
    columns that keep the first block within it too).  ``max_evals``
    counts nodes, each once however many columns it serves; no block is
    evaluated that would take them past it, and there the panels left are
    accepted if the error estimates of all columns together fit in
    ``tol``.  Raises :class:`QuadratureFailed` naming a panel when a
    rejected panel's values are not finite, and naming the block it stopped
    at when the budget leaves more error, or a stretch of [a, b] not yet
    evaluated.
    """
    if b <= a:
        return 0.0 + 0.0j
    length = b - a
    total, err_done, used = 0.0 + 0.0j, 0.0, 0
    fresh = _edge_blocks(a, b, panel, breaks)
    edges = next(fresh, None)
    # rejected panels awaiting bisection: (lo, hi, estimate, error estimate)
    pending: list[tuple] = []
    while pending or edges is not None:
        if pending:
            lo, hi = pending[-1][:2]
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        else:
            lo, hi = edges[:-1], edges[1:]
        if used + lo.size * _GK21_NODES.size > max_evals:
            # what is left is accepted only when all of [a, b] was evaluated
            # and the error estimates left fit in tol
            err_left = math.inf if edges is not None else sum(p[3].sum() for p in pending)
            if err_done + err_left > tol:
                raise QuadratureFailed(
                    f"quadrature budget exhausted (err ~ {err_left:.3e} > tol {tol:.3e})",
                    interval=(float(lo[0]), float(hi[-1])))
            return total + sum(p[2].sum(axis=-1) for p in pending)
        if pending:
            pending.pop()
        else:
            edges = next(fresh, None)
        est, err, est_abs = _panel_values(f, lo, hi)
        used += lo.size * _GK21_NODES.size
        # the relative term accepts a panel whose mismatch is rounding
        # noise of its absolute integral, which for a large-magnitude
        # integrand never falls to the absolute target; that slack is
        # ~1e-11 of the absolute moment, which the evaluation prefactor
        # suppresses far below tol_quad.  A NaN error is never accepted.
        ok = err <= np.maximum(tol * (hi - lo) / length, 1e-18) + 1e-11 * est_abs
        if ok.ndim > 1:
            ok = ok.reshape(-1, lo.size).all(axis=0)
        # compress keeps rows C-ordered, so each row sums pairwise
        total += est.compress(ok, axis=-1).sum(axis=-1)
        err_done += err.compress(ok, axis=-1).sum()
        if ok.all():
            continue
        miss = ~ok
        lo, hi = lo[miss], hi[miss]
        est, err = est.compress(miss, axis=-1), err.compress(miss, axis=-1)
        if not np.isfinite(err).all():
            raise QuadratureFailed("integrand is not finite on a panel",
                                   interval=_panel_where(lo, hi, ~np.isfinite(err)))
        # every column holds its own values at each node: blocks shrink with
        # the column count, so an evaluation sees at most _CHUNK_PANELS panel-columns
        step = max(1, _CHUNK_PANELS // (2 * (est.size // lo.size)))
        pending += [(lo[i:i + step], hi[i:i + step], est[..., i:i + step], err[..., i:i + step])
                    for i in range(0, lo.size, step)]
    return total


class RunningIntegral:
    """Cumulative integral of a vectorized integrand from a fixed origin.

    ``value_to(x)`` integrates only the stretch past the furthest point
    reached so far, on panels of length ``panel``, to ``tol_density`` per
    unit length.
    """

    def __init__(self, f, origin: float, tol_density: float = 1e-12, *,
                 panel: float = 12.0):
        self.f = f
        self.x = float(origin)
        self.total = 0.0 + 0.0j
        self.panel = panel
        self.tol_density = tol_density

    def value_to(self, x: float) -> complex:
        x = float(x)
        if x < self.x - 1e-12:
            raise QuadratureFailed("RunningIntegral endpoints must be nondecreasing")
        if self.x < x - 1e-14:
            self.total += integrate_adaptive(self.f, self.x, x, self.tol_density * (x - self.x),
                                             panel=self.panel)
            self.x = x
        return self.total


# Filon weights use their Taylor series for |xi h| below _SERIES_W, where the
# closed forms cancel; the first omitted term is below 1e-19 at |xi h| = 0.5
_SERIES_W = 0.5
_SERIES_TERMS = 16
_E0_SERIES = np.array([1.0 / math.factorial(n + 1) for n in range(_SERIES_TERMS)])
_E1_SERIES = np.array([1.0 / (math.factorial(n) * (n + 2)) for n in range(_SERIES_TERMS)])
# chirp-z blocks hold max(_CZT_BLOCK, N) frequencies: chirp phase rounding grows
# with the square of the longest chirp, max(block, N), and each block costs one
# FFT of length N + block.  With N = 32767 samples: 2e-13 for one block of
# 200 001 frequencies, 3e-15 in blocks of N.
_CZT_BLOCK = 4096
# complex exponentials per block of the direct product, so memory stays flat in N
_DIRECT_ENTRIES = 2 ** 18


def _fast_len(n: int) -> int:
    """The least 5-smooth length ``2^a 3^b 5^c >= n`` (``n >= 1``): pocketfft runs it fast."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # odd = 3^b 5^c times the least power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _filon_weights(xi: np.ndarray, h: float):
    """``e0 = int_0^h e^{-i xi s} ds`` and ``e1 = int_0^h s e^{-i xi s} ds`` per frequency."""
    w = xi * h
    e0 = np.empty(xi.shape, dtype=complex)
    e1 = np.empty(xi.shape, dtype=complex)
    small = np.abs(w) < _SERIES_W
    # e0/h = sum (-iw)^n/(n+1)!,  e1/h^2 = sum (-iw)^n/(n! (n+2)),  by Horner
    z = -1j * w[small]
    s0 = np.zeros(z.shape, dtype=complex)
    s1 = np.zeros(z.shape, dtype=complex)
    for c0, c1 in zip(_E0_SERIES[::-1], _E1_SERIES[::-1]):
        s0 = s0 * z + c0
        s1 = s1 * z + c1
    e0[small] = h * s0
    e1[small] = h * h * s1
    x = xi[~small]
    ph = np.exp(-1j * w[~small])
    e0[~small] = (1 - ph) / (1j * x)
    e1[~small] = ph * (1j * h / x + 1 / x ** 2) - 1 / x ** 2
    return e0, e1


def _is_uniform(xi: np.ndarray) -> bool:
    """Whether ``xi`` has at least two points and equal steps.

    Steps count as equal to a relative 1e-9, or to the rounding of the
    points themselves (4 ulps of the largest |xi|), as on a narrow
    ``linspace`` far from zero.
    """
    if xi.size < 2:
        return False
    step = (xi[-1] - xi[0]) / (xi.size - 1)
    slack = max(1e-9 * abs(step), 4 * np.spacing(np.max(np.abs(xi))))
    return step != 0 and bool(np.all(np.abs(np.diff(xi) - step) <= slack))


def _chirp_z_sums(coeffs: np.ndarray, t0: float, h: float, xi: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[:, k] e^{-i xi (t0 + k h)}`` for equally spaced ``xi``.

    Bluestein's chirp-z transform: with ``theta = h * step``, ``m k = (m^2 +
    k^2 - (m - k)^2) / 2`` turns each block's sum into one FFT convolution
    with the chirp ``e^{-i theta k^2 / 2}``.  The chirp phases are computed
    from ``theta`` itself; raising a rounded ratio ``e^{-i theta}`` to the
    power ``k^2 / 2`` instead (as ``scipy.signal.czt`` does) errs by ~1e-11.
    """
    n, m = coeffs.shape[1], xi.size
    block = min(m, max(_CZT_BLOCK, n))
    theta = h * (xi[-1] - xi[0]) / (m - 1)
    size = _fast_len(n + block - 1)
    k = np.arange(max(n, block), dtype=float)
    chirp = np.exp(-0.5j * theta * k ** 2)
    # conjugate chirp at lags 0 .. block-1 and, wrapped around, -(n-1) .. -1
    filt = np.zeros(size, dtype=complex)
    filt[:block] = chirp[:block].conj()
    filt[size - n + 1:] = chirp[1:n][::-1].conj()
    filt = fft(filt)
    chirped = coeffs * chirp[:n]
    out = np.empty((coeffs.shape[0], m), dtype=complex)
    for j in range(0, m, block):
        # each block starts at its own frequency xi[j]
        y = fft(chirped * np.exp(-1j * xi[j] * h * k[:n]), size)
        part = ifft(y * filt)[:, :block] * chirp[:block]
        out[:, j:j + block] = part[:, :m - j]
    return out * np.exp(-1j * xi * t0)


def _direct_sums(coeffs: np.ndarray, t: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[:, k] e^{-i xi t_k}`` for arbitrary ``xi``, in bounded blocks."""
    rows = max(1, _DIRECT_ENTRIES // t.size)
    out = np.empty((coeffs.shape[0], xi.size), dtype=complex)
    for j in range(0, xi.size, rows):
        out[:, j:j + rows] = coeffs @ np.exp(-1j * np.outer(t, xi[j:j + rows]))
    return out


def fourier_piecewise_linear(grid: np.ndarray, values: np.ndarray,
                             xi: np.ndarray) -> np.ndarray:
    """Exact ``int f_lin(t) e^{-i xi t} dt`` for the linear interpolant on a uniform grid.

    On cell ``k`` the interpolant is ``a_k + b_k s`` with ``s = t - t_k``, so the
    transform is ``e0(xi) sum_k a_k e^{-i xi t_k} + e1(xi) sum_k b_k e^{-i xi t_k}``
    with the Filon weights ``e0``, ``e1`` of one cell, for every frequency of
    the 1-D array ``xi`` at once.  When ``xi`` has at least two points and
    equal steps (``_is_uniform``) the two phase sums are chirp-z transforms
    over blocks of ``max(_CZT_BLOCK, N)`` frequencies, O((N + M) log(N + M))
    in all; any other ``xi`` takes a direct product, blocked so that its
    memory does not grow with N.
    """
    xi = np.asarray(xi, dtype=float)
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    coeffs = np.stack([values[:-1], np.diff(values) / h]).astype(complex)
    if _is_uniform(xi):
        sums = _chirp_z_sums(coeffs, grid[0], h, xi)
    else:
        sums = _direct_sums(coeffs, grid[:-1], xi)
    e0, e1 = _filon_weights(xi, h)
    return e0 * sums[0] + e1 * sums[1]


def trapezoid_convolution(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid values of ``int_0^t a(t - s) b(s) ds`` at every node ``t`` of a grid.

    ``a`` and ``b`` are samples at ``0, h, 2h, ...`` on the same grid; the
    rule at node i is ``h sum_{j<=i} a[i-j] b[j] - h (a[0] b[i] + b[0] a[i]) / 2``,
    taken at every node from one zero-padded FFT product: ``rfft`` when both
    operands are real, ``fft`` otherwise.  The result is real when both
    operands are.
    """
    dtype = np.result_type(a, b, float)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    size = _fast_len(a.size + b.size - 1)
    if dtype == complex:
        out = ifft(fft(a, size) * fft(b, size))[:a.size] * h
    else:
        out = irfft(rfft(a, size) * rfft(b, size), size)[:a.size] * h
    out -= 0.5 * h * (a[0] * b + b[0] * a)
    return out
