"""Kernel transforms, zero detection, and the nonvanishing classifier.

The transform of an additive kernel is the Fourier transform of its zero
extension; for a multiplicative kernel it is the character transform
``int_1^inf psi(t) t^{-ix} dt/t``, which equals the Fourier transform of the
log-transported kernel.  A kernel whose transform never vanishes on the real
line defines a method equivalent to the weakest (translation) method, so the
classifier's job is to either certify that the transform has no zero or to
locate one.

Every closed form of either flavor has a rational transform, and the roots of
its numerator settle the question on the whole real line.  A sampled kernel
gets a window certificate from a Lipschitz bound (its first absolute moment),
or ``inconclusive`` when the grid cannot be made fine enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .config import DEFAULT, Settings
from .errors import FlavorMismatch, InvalidArgument, TransformFailed, QuadratureFailed
from .exppoly import ExpPoly
from .kernels import Flavor, Kernel, Sampled, additive_values, to_additive
from .quadrature import fourier_piecewise_linear, integrate_adaptive


@dataclass(frozen=True)
class Verdict:
    kind: str  # "nonvanishing_on_window" | "zero_found" | "inconclusive"
    margin: Optional[float] = None
    zero_at: Optional[float] = None
    zero_modulus: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.margin is not None:
            out["margin"] = self.margin
        if self.zero_at is not None:
            out["zero_at"] = self.zero_at
            out["zero_modulus"] = self.zero_modulus
        return out


@dataclass
class SpectrumProfile:
    frequencies: np.ndarray
    values: np.ndarray
    min_modulus: float
    verdict: Verdict


# ---------------------------------------------------------------------------
# transforms

def _additive(kernel: Kernel) -> Kernel:
    return kernel if kernel.flavor is Flavor.ADDITIVE else to_additive(kernel)


def transform_grid(kernel: Kernel, xi: np.ndarray) -> np.ndarray:
    """Transform values on a frequency array.

    Closed forms use their analytic transform.  Sampled kernels take one pass
    of :func:`fourier_piecewise_linear` over the whole array (chirp-z blocks
    when ``xi`` is equally spaced, a direct product otherwise) plus the
    closed-form transform of the geometric tail.
    """
    k = _additive(kernel)
    form = k.additive_form()
    if form is not None:
        return form.transform(xi)
    return _sampled_transform(k.body, xi)


def _sampled_transform(body: Sampled, xi) -> np.ndarray:
    """Transform of a sampled kernel (interpolant plus tail) on an array of frequencies."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    val = fourier_piecewise_linear(body.grid, body.values, xi)
    if body.tail_rate > 0:
        u0 = body.grid[-1]
        val += body.tail_value * np.exp(-1j * xi * u0) / (body.tail_rate + 1j * xi)
    return val


def fourier_transform(kernel: Kernel, xi: float) -> complex:
    """Transform of the zero-extended additive kernel at frequency xi."""
    if kernel.flavor is not Flavor.ADDITIVE:
        raise FlavorMismatch("fourier_transform expects an additive kernel")
    return complex(transform_grid(kernel, np.array([float(xi)]))[0])


def mellin_transform(kernel: Kernel, x: float) -> complex:
    """Multiplicative character transform int_1^inf psi(t) t^{-ix} dt/t."""
    if kernel.flavor is not Flavor.MULTIPLICATIVE:
        raise FlavorMismatch("mellin_transform expects a multiplicative kernel")
    return fourier_transform(to_additive(kernel), x)


def transform_numeric(kernel: Kernel, xi, settings: Settings = DEFAULT,
                      tol: Optional[float] = None) -> np.ndarray:
    """Transform by direct quadrature, bypassing closed forms.

    The independent route used to cross-check the analytic formulas.
    """
    k = _additive(kernel)
    form = k.additive_form()
    tol = tol if tol is not None else settings.tol_quad
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if form is not None:
        cut = form.support_cutoff(0.1 * tol)
        out = np.empty(xi.shape, dtype=complex)
        for i, x in enumerate(xi):
            try:
                out[i] = integrate_adaptive(
                    lambda u, x=x: form(u) * np.exp(-1j * x * u), 0.0, cut, tol,
                    max_evals=settings.max_evals)
            except QuadratureFailed as exc:
                raise TransformFailed(f"transform quadrature failed at xi={x}: {exc}") from exc
        return out
    return _sampled_transform(k.body, xi)


# ---------------------------------------------------------------------------
# classification

def _require_normalized(kernel: Kernel, settings: Settings):
    if abs(kernel.mass() - 1.0) > 100 * settings.tol_quad:
        raise InvalidArgument("classify_wiener expects a normalized kernel")


def _rational_verdict(form: ExpPoly, settings: Settings) -> Verdict:
    """Whole-line verdict from the roots of N, where the transform is N(z)/Q(z) in z = i*xi.

    Q = prod (z - mu)^m has no root on the axis Re z = 0, so F vanishes on the
    real line exactly at the roots of N there.  Smith's inclusion disks (J. ACM
    17, 1970) widened by rounding hold the roots; each group of overlapping
    disks holds as many roots as disks.  When every group misses the axis,
    |a_n| prod(gap) / prod (W + |mu|)^m bounds |F| from below on |xi| <= W.
    """
    rounding = 64 * np.finfo(float).eps   # relative error allowed per coefficient of N
    pole = {mu: 1 + max(t.power for t in form if t.rate == mu) for mu in {t.rate for t in form}}
    deg = sum(pole.values())
    # N in w = z - c, c the pole of highest order: near-equal rates convolve to
    # one such pole, and N's roots close to it are ill-conditioned in powers of z
    c = max(pole, key=pole.get)
    num, size = np.zeros(deg, dtype=complex), np.zeros(deg)   # size bounds |num|
    for t in form:
        rest = [mu - c for mu, m in pole.items() for _ in range(m - (t.power + 1) * (mu == t.rate))]
        coef = t.coef * math.factorial(t.power)
        num[:deg - t.power] += coef * P.polyfromroots(rest)
        size[:deg - t.power] += abs(coef) * P.polyfromroots(-np.abs(rest))
    # leading coefficients that cancel down to rounding are zero; N(c) = Q(c) != 0
    num = num[:max(np.flatnonzero(np.abs(num) > rounding * size), default=0) + 1]
    w = np.asarray(P.polyroots(num), dtype=complex)
    apart, z = w[:, None] - w, w + c
    radius = w.size * (np.abs(P.polyval(w, num)) + rounding * P.polyval(np.abs(w), size)) \
        / np.abs(num[-1] * np.prod(apart + np.eye(w.size), axis=1))
    touch, group = np.abs(apart) <= radius[:, None] + radius, np.arange(z.size)
    for _ in range(z.size):
        group = np.where(touch, group, z.size).min(axis=1)
    reach = np.array([np.min(np.abs(z.real) - radius, where=group == g, initial=np.inf)
                      for g in group])   # per root: its group's distance from the axis
    if np.all(reach > 0):   # |Q(i xi)| <= qmax on the window
        qmax = math.prod((settings.freq_window + abs(mu)) ** m for mu, m in pole.items())
        return Verdict("nonvanishing_on_window", margin=float(abs(num[-1]) * np.prod(reach) / qmax))
    # a group that meets the axis is a zero at its mean, if |F| is small there
    at = np.array([z[group == g].mean().imag for g in np.unique(group[reach <= 0])])
    modulus = np.abs(form.transform(at))
    k = int(np.argmin(modulus))
    if modulus[k] < settings.zero_epsilon:
        return Verdict("zero_found", zero_at=float(at[k]), zero_modulus=float(modulus[k]))
    return Verdict("inconclusive")


# frequencies per refinement round: each round narrows the bracket 64-fold,
# as much as about 10 ternary-search steps
_REFINE_POINTS = 129


def _refine_minimum(kernel: Kernel, lo: float, hi: float, iters: int):
    """Grid refinement of a bracketed minimum of |transform|.

    Each round takes |transform| on ``_REFINE_POINTS`` equally spaced
    frequencies of the bracket in one ``transform_grid`` call (chirp-z for
    sampled kernels) and keeps the argmin's neighbours as the new bracket.
    Rounds stop once the bracket is at least as narrow as ``iters``
    ternary-search steps would leave it, (2/3)^iters of its starting width.
    Returns the last argmin and its modulus.
    """
    shrink = (_REFINE_POINTS - 1) / 2.0
    rounds = max(1, math.ceil(iters * math.log(1.5) / math.log(shrink)))
    for _ in range(rounds):
        xi = np.linspace(lo, hi, _REFINE_POINTS)
        mods = np.abs(transform_grid(kernel, xi))
        k = int(np.argmin(mods))
        lo, hi = xi[max(k - 1, 0)], xi[min(k + 1, xi.size - 1)]
    return xi[k], mods[k]


def _window_verdict(kernel: Kernel, xi: np.ndarray, values: np.ndarray, settings: Settings):
    """Verdict for a sampled kernel on the window, and the grid it ends on."""
    width = settings.freq_window
    i0 = int(np.argmin(np.abs(values)))
    at, modulus = _refine_minimum(kernel, xi[max(0, i0 - 1)], xi[min(xi.size - 1, i0 + 1)],
                                  settings.refine_max_iter)
    if modulus < settings.zero_epsilon:
        return xi, values, Verdict("zero_found", zero_at=float(at), zero_modulus=float(modulus))
    lip = kernel.first_moment()
    if lip is None or lip <= 0:
        # no Lipschitz certificate possible; never claim nonvanishing
        return xi, values, Verdict("inconclusive")
    for passes in range(settings.grid_pass_limit + 1):
        min_mod = float(np.abs(values).min())
        margin = min_mod - lip * (xi[1] - xi[0]) / 2.0
        if margin > 0:
            return xi, values, Verdict("nonvanishing_on_window", margin=float(margin))
        n_new = int(min(200_001, np.ceil(2 * width / max(min_mod / (2.0 * lip), 1e-9)) + 1))
        if passes == settings.grid_pass_limit or n_new <= xi.size:
            return xi, values, Verdict("inconclusive")
        xi = np.linspace(-width, width, n_new)
        values = transform_grid(kernel, xi)


def classify_wiener(kernel: Kernel, settings: Settings = DEFAULT,
                    n_points: int = 1001) -> SpectrumProfile:
    """Zero-set verdict for the kernel transform, and its values on [-freq_window, freq_window].

    Closed forms of either flavor get a verdict on the whole real line.
    """
    if n_points < 2:
        raise InvalidArgument(f"classify_wiener needs at least 2 frequencies, got {n_points}")
    _require_normalized(kernel, settings)
    xi = np.linspace(-settings.freq_window, settings.freq_window, n_points)
    values = transform_grid(kernel, xi)
    form = kernel.additive_form()
    if form is not None:
        verdict = _rational_verdict(form, settings)
    else:
        xi, values, verdict = _window_verdict(kernel, xi, values, settings)
    return SpectrumProfile(xi, values, float(np.abs(values).min()), verdict)


# ---------------------------------------------------------------------------
# dual reflection identity

@dataclass
class ReflectionReport:
    frequencies: np.ndarray
    reflected: np.ndarray   # transform of the reflected kernel, by quadrature
    expected: np.ndarray    # kernel transform at -xi
    max_deviation: float


def dual_transform_identity_check(kernel: Kernel, settings: Settings = DEFAULT,
                                  n_points: int = 81) -> ReflectionReport:
    """Check that reflecting the kernel flips the sign of the frequency.

    The reflected kernel lives on the negative half-line; its transform at
    xi, int_0^inf phi(t) e^(i xi t) dt, is taken by adaptive quadrature and
    compared against the original transform ``transform_grid`` at -xi.  A
    closed form's quadrature is ``transform_numeric``'s, against the analytic
    formula.  A sampled kernel's integrates ``additive_values`` (its linear
    interpolant and tail model) for all frequencies at once, with the sample
    grid as panel breaks and the tail cut where its absolute integral falls
    below tol_quad / 10, against the piecewise-linear formula.
    """
    if kernel.flavor is not Flavor.ADDITIVE:
        raise FlavorMismatch("dual_transform_identity_check expects an additive kernel")
    xi = np.linspace(-settings.freq_window, settings.freq_window, n_points)
    if kernel.additive_form() is not None:
        lhs = transform_numeric(kernel, -xi, settings)
    else:
        body = kernel.body
        lhs = integrate_adaptive(
            lambda u: additive_values(kernel, u) * np.exp(1j * xi[:, None] * u),
            0.0, body.support_cutoff(0.1 * settings.tol_quad), settings.tol_quad,
            breaks=body.grid, max_evals=settings.max_evals)
    rhs = transform_grid(kernel, -xi)
    dev = float(np.max(np.abs(lhs - rhs)))
    return ReflectionReport(xi, lhs, rhs, dev)
