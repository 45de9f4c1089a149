"""Vectorized panel quadrature for real or complex integrands.

Three tools:

* :func:`integrate_adaptive` — the one adaptive loop: Gauss-Kronrod
  G20/K41 panels, whose nested 20-point estimate certifies 41-node accuracy
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
  linear interpolant on a uniform grid (Filon-type, its two cell weights
  from ``exppoly._cell_moments``), used for transforms of sampled kernels.
  It takes a whole frequency array at once: equally spaced frequencies go
  through blocked chirp-z transforms, any other frequencies through a
  blocked direct product.
* :func:`trapezoid_convolution` — trapezoid rule for the half-line
  convolution of two functions sampled on one uniform grid, at every node
  from one zero-padded FFT product (``_fft_convolve``, which also multiplies
  the piecewise polynomials of ``kernels``): a real FFT when both operands
  are real, a complex one otherwise.  The library convolves kernels
  exactly; the trapezoid rule stays as a reference for tests.

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
from .exppoly import _cell_moments

# Gauss-Kronrod G20/K41 (QUADPACK qk41, Piessens et al. 1983): the Kronrod
# nodes from the right end to the centre with their weights, and the weights
# of the Gauss nodes among them (every other one, from the second);
# tools/oracle_recheck.py recomputes them at 50 digits
_K41_NODES = (0.998859031588277663838315576545863, 0.993128599185094924786122388471320,
              0.981507877450250259193342994720217, 0.963971927277913791267666131197277,
              0.940822633831754753519982722212443, 0.912234428251325905867752441203298,
              0.878276811252281976077442995113078, 0.839116971822218823394529061701521,
              0.795041428837551198350638833272788, 0.746331906460150792614305070355642,
              0.693237656334751384805490711845932, 0.636053680726515025452836696226286,
              0.575140446819710315342946036586425, 0.510867001950827098004364050955251,
              0.443593175238725103199992213492640, 0.373706088715419560672548177024927,
              0.301627868114913004320555356858592, 0.227785851141645078080496195368575,
              0.152605465240922675505220241022678, 0.076526521133497333754640409398838,
              0.0)
_K41_WEIGHTS = (0.003073583718520531501218293246031, 0.008600269855642942198661787950102,
                0.014626169256971252983787960308868, 0.020388373461266523598010231432755,
                0.025882133604951158834505067096153, 0.031287306777032798958543119323801,
                0.036600169758200798030557240707211, 0.041668873327973686263788305936895,
                0.046434821867497674720231880926108, 0.050944573923728691932707670050345,
                0.055195105348285994744832372419777, 0.059111400880639572374967220648594,
                0.062653237554781168025870122174255, 0.065834597133618422111563556969398,
                0.068648672928521619345623411885368, 0.071054423553444068305790361723210,
                0.073030690332786667495189417658913, 0.074582875400499188986581418362488,
                0.075704497684556674659542775376617, 0.076377867672080736705502835038061,
                0.076600711917999656445049901530102)
_G20_WEIGHTS = (0.017614007139152118311861962351853, 0.040601429800386941331039952274932,
                0.062672048334109063569506535187042, 0.083276741576704748724758143222046,
                0.101930119817240435036750135480350, 0.118194531961518417312377377711382,
                0.131688638449176626898494499748163, 0.142096109318382051329298325067165,
                0.149172986472603746787828737001969, 0.152753387130725850698084331955098)


def _gauss_kronrod():
    """The 41 nodes on [-1, 1], their K41 weights, and the G20 weights (zero off its nodes)."""
    x, wk, wg = (np.array(c) for c in (_K41_NODES, _K41_WEIGHTS, _G20_WEIGHTS))
    gauss = np.zeros(2 * x.size - 1)
    gauss[1::2] = np.concatenate([wg, wg[::-1]])
    return np.concatenate([-x[:-1], x[::-1]]), np.concatenate([wk[:-1], wk[::-1]]), gauss


_GK_NODES, _K41, _G20 = _gauss_kronrod()
# integrand evaluations per panel
PANEL_NODES = _GK_NODES.size


class EvalCounter:
    """Process-wide tally of integrand evaluations (diagnostics only)."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


counter = EvalCounter()


def _panel_values(f, lo, hi):
    """G20/K41 estimate, its error estimate and the absolute integral per panel.

    The error estimate is the difference between the K41 and the embedded
    G20 weights applied to the same node values.  ``f`` gets one flat array
    of nodes, panel after panel, ``PANEL_NODES`` to a panel: mid + half x
    for the unit nodes x in increasing order, so node ``PANEL_NODES // 2``
    (x = 0) is the panel's midpoint exactly (:func:`panel_layout` reads it
    back).  ``f`` returns one value per node, or one row per column with one
    value per node (a leading column axis); the three results then carry the
    same leading axis, with the panels on the last one.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(pts.ravel()))
    counter.add(pts.size)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    est = half * (vals @ _K41)
    est_low = half * (vals @ _G20)
    est_abs = half * (np.abs(vals) @ _K41)
    return est, np.abs(est - est_low), est_abs


def panel_layout(u: np.ndarray):
    """``(mid, half, x)`` for the nodes ``u`` that :func:`_panel_values` passes an integrand.

    Row by row, ``u`` is mid + half x: ``mid`` is each panel's exact
    midpoint, ``half`` its half-length read from the end nodes (to the
    rounding of u), ``x`` the ``PANEL_NODES`` unit nodes on [-1, 1].
    """
    pts = u.reshape(-1, PANEL_NODES)
    return pts[:, PANEL_NODES // 2], (pts[:, -1] - pts[:, 0]) / (2 * _GK_NODES[-1]), _GK_NODES


# panels per block of refinement; 2048 x 41 nodes (656 KiB a column) stay in
# L2, where 50 000 G10/K21 panels took 49-50 ns per node on sin(t) t^-2
# against 38-43 ns in blocks of 4096 x 21 nodes (2-core Xeon)
_CHUNK_PANELS = 2048


def _edge_blocks(a, b, panel, breaks):
    """Initial panel edges over [a, b], one block of at most ``_CHUNK_PANELS`` panels at a time.

    Panels are ``panel`` long (the last block's shortened to fit), each
    block built when it is reached, or else min(256, max(4, (b - a) / 2))
    equal panels with the points of ``breaks`` inside (a, b) as more edges.
    """
    if panel is None:
        edges = np.linspace(a, b, int(min(256, max(4, (b - a) / 2))) + 1)
        if breaks is not None:
            # np.union1d's sort and de-duplication, without its import of numpy.ma
            edges = np.sort(np.concatenate([edges, breaks[(breaks > a) & (breaks < b)]]))
            edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
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
    its G20/K41 error estimate meets its share of ``tol``, which depends on
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
        if used + lo.size * PANEL_NODES > max_evals:
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
        used += lo.size * PANEL_NODES
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
                 panel: float = 30.0):
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
    with the Filon weights ``e0 = h M[0, 0]``, ``e1 = h^2 M[0, 1]`` of one cell,
    M the ``exppoly._cell_moments`` at ``-i xi h`` (h and h^2 scale the sums'
    coefficients), for every frequency of the 1-D array ``xi`` at once.  When ``xi`` has at least two points and
    equal steps (``_is_uniform``) the two phase sums are chirp-z transforms
    over blocks of ``max(_CZT_BLOCK, N)`` frequencies, O((N + M) log(N + M))
    in all; any other ``xi`` takes a direct product, blocked so that its
    memory does not grow with N.
    """
    xi = np.asarray(xi, dtype=float)
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    coeffs = (h * np.stack([values[:-1], np.diff(values)])).astype(complex)
    if _is_uniform(xi):
        sums = _chirp_z_sums(coeffs, grid[0], h, xi)
    else:
        sums = _direct_sums(coeffs, grid[:-1], xi)
    m = _cell_moments((-1j * h) * xi, 0, 1)[0]
    return m[0] * sums[0] + m[1] * sums[1]


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linear convolutions of ``a`` and ``b`` along their last axis, leading axes broadcast.

    One zero-padded FFT product: ``rfft`` when both operands are real, and
    then a real result, ``fft`` otherwise.
    """
    n = a.shape[-1] + b.shape[-1] - 1
    size = _fast_len(n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return ifft(fft(a, size) * fft(b, size))[..., :n]
    return irfft(rfft(a, size) * rfft(b, size), size)[..., :n]


def trapezoid_convolution(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid values of ``int_0^t a(t - s) b(s) ds`` at every node ``t`` of a grid.

    ``a`` and ``b`` are samples at ``0, h, 2h, ...`` on the same grid; the
    rule at node i is ``h sum_{j<=i} a[i-j] b[j] - h (a[0] b[i] + b[0] a[i]) / 2``,
    taken at every node from one FFT product (``_fft_convolve``).  The
    result is real when both operands are.
    """
    out = _fft_convolve(a, b)[:a.size] * h
    out -= 0.5 * h * (a[0] * b + b[0] * a)
    return out
