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
from .kernels import Flavor, Kernel, to_additive
from .quadrature import integrate_adaptive, max_columns
# unused here (Sampled.transform calls it), but perfbench's tracer test reads it
from .quadrature import fourier_piecewise_linear


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

def transform_grid(kernel: Kernel, xi: np.ndarray) -> np.ndarray:
    """Transform values on a frequency array, by the kernel body's own formula.

    Closed forms use their analytic transform.  A sampled kernel takes one pass
    of :func:`fourier_piecewise_linear` over the whole array (chirp-z blocks
    when ``xi`` is equally spaced, a direct product otherwise) plus the
    closed-form transform of the geometric tail, and a convolved body the
    product of its operands' transforms.
    """
    return kernel.shape.transform(xi)


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


def transform_numeric(kernel: Kernel, xi, settings: Settings = DEFAULT) -> np.ndarray:
    """Transform by adaptive quadrature of phi(u) e^(-i xi u), for every kernel.

    The route independent of ``transform_grid``'s formulas, used to cross-check
    them, over [0, cut], cut where the kernel's absolute tail falls below
    tol / 10, tol = ``settings.tol_quad``.  A sampled kernel's grid nodes
    are panel edges, so each panel sees one linear piece of it.  Frequencies
    sorted by |xi| are integrated in groups, one column ``integrate_adaptive``
    per group: every frequency of a group shares the nodes, and phi is
    evaluated once per node.  A group stays within a factor-of-two band of
    |xi|, with every |xi| cut <= 2 pi in the first band, since its top
    frequency sets the panels.  Each column meets tol by itself (a panel is
    bisected when any column misses), and ``settings.max_evals`` counts each
    node once per group.  A group holds ``max_columns`` frequencies, so one
    evaluation sees no more panel-columns than a one-column call.  The
    result has the shape of ``xi`` (a scalar gives one value); a NaN or
    infinite frequency raises ``InvalidArgument``.
    """
    shape, breaks = kernel.shape, kernel.breaks
    tol = settings.tol_quad
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    flat = xi.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise InvalidArgument(
            f"transform_numeric needs finite frequencies, got {flat[~finite][0]}")
    cut = shape.support_cutoff(0.1 * tol)
    size = max_columns(0.0, cut, breaks)
    order = np.argsort(np.abs(flat), kind="stable")
    band = np.ceil(np.log2(np.maximum(np.abs(flat[order]) * cut / (2 * np.pi), 1.0)))
    groups = [part[i:i + size] for part in np.split(order, np.flatnonzero(np.diff(band)) + 1)
              for i in range(0, part.size, size)]
    out = np.empty(flat.shape, dtype=complex)

    def integrand(u):
        # one row per frequency, built in place: a fresh array for each step
        # took about 1.4x as long per value
        vals = np.multiply.outer(-1j * w, u)
        np.exp(vals, out=vals)
        vals *= shape(u)
        return vals

    for group in groups:
        w = flat[group]
        try:
            out[group] = integrate_adaptive(integrand, 0.0, cut, tol, breaks=breaks,
                                            max_evals=settings.max_evals)
        except QuadratureFailed as exc:
            raise TransformFailed(f"transform quadrature failed for {w.size} frequencies in "
                                  f"[{w.min():g}, {w.max():g}]: {exc}") from exc
    return out.reshape(xi.shape)


# ---------------------------------------------------------------------------
# classification

FREQ_WINDOW = 50.0    # the classifier's frequency window is [-FREQ_WINDOW, FREQ_WINDOW]
ZERO_EPSILON = 1e-9   # a minimum of |transform| below this is a zero
GRID_PASSES = 3       # Lipschitz-driven refinements of a sampled kernel's window grid


def _require_normalized(kernel: Kernel, settings: Settings):
    if abs(kernel.mass() - 1.0) > 100 * settings.tol_quad:
        raise InvalidArgument("classify_wiener expects a normalized kernel")


def _rational_verdict(form: ExpPoly) -> Verdict:
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
        qmax = math.prod((FREQ_WINDOW + abs(mu)) ** m for mu, m in pole.items())
        return Verdict("nonvanishing_on_window", margin=float(abs(num[-1]) * np.prod(reach) / qmax))
    # a group that meets the axis is a zero at its mean, if |F| is small there
    at = np.array([z[group == g].mean().imag for g in np.unique(group[reach <= 0])])
    modulus = np.abs(form.transform(at))
    k = int(np.argmin(modulus))
    if modulus[k] < ZERO_EPSILON:
        return Verdict("zero_found", zero_at=float(at[k]), zero_modulus=float(modulus[k]))
    return Verdict("inconclusive")


# frequencies per refinement round: each round narrows the bracket 64-fold,
# so six narrow it at least as far as 60 ternary-search steps, (2/3)^60-fold
_REFINE_POINTS = 129
REFINE_ROUNDS = 6


def _refine_minimum(kernel: Kernel, lo: float, hi: float):
    """Grid refinement of a bracketed minimum of |transform|.

    Each of ``REFINE_ROUNDS`` rounds takes |transform| on ``_REFINE_POINTS``
    equally spaced frequencies of the bracket in one ``transform_grid`` call
    (chirp-z for sampled kernels) and keeps the argmin's neighbours as the
    new bracket.  Returns the last argmin and its modulus.
    """
    for _ in range(REFINE_ROUNDS):
        xi = np.linspace(lo, hi, _REFINE_POINTS)
        mods = np.abs(transform_grid(kernel, xi))
        k = int(np.argmin(mods))
        lo, hi = xi[max(k - 1, 0)], xi[min(k + 1, xi.size - 1)]
    return xi[k], mods[k]


def _window_verdict(kernel: Kernel, xi: np.ndarray, values: np.ndarray):
    """Verdict for a sampled kernel on the window, and the grid it ends on."""
    i0 = int(np.argmin(np.abs(values)))
    at, modulus = _refine_minimum(kernel, xi[max(0, i0 - 1)], xi[min(xi.size - 1, i0 + 1)])
    if modulus < ZERO_EPSILON:
        return xi, values, Verdict("zero_found", zero_at=float(at), zero_modulus=float(modulus))
    lip = kernel.first_moment()
    if lip is None or lip <= 0:
        # no Lipschitz certificate possible; never claim nonvanishing
        return xi, values, Verdict("inconclusive")
    for passes in range(GRID_PASSES + 1):
        min_mod = float(np.abs(values).min())
        margin = min_mod - lip * (xi[1] - xi[0]) / 2.0
        if margin > 0:
            return xi, values, Verdict("nonvanishing_on_window", margin=float(margin))
        n_new = int(min(200_001, np.ceil(2 * FREQ_WINDOW / max(min_mod / (2.0 * lip), 1e-9)) + 1))
        if passes == GRID_PASSES or n_new <= xi.size:
            return xi, values, Verdict("inconclusive")
        xi = np.linspace(-FREQ_WINDOW, FREQ_WINDOW, n_new)
        values = transform_grid(kernel, xi)


def classify_wiener(kernel: Kernel, settings: Settings = DEFAULT,
                    n_points: int = 1001) -> SpectrumProfile:
    """Zero-set verdict for the kernel transform, and its values on [-FREQ_WINDOW, FREQ_WINDOW].

    Closed forms of either flavor get a verdict on the whole real line.
    """
    if n_points < 2:
        raise InvalidArgument(f"classify_wiener needs at least 2 frequencies, got {n_points}")
    _require_normalized(kernel, settings)
    xi = np.linspace(-FREQ_WINDOW, FREQ_WINDOW, n_points)
    values = transform_grid(kernel, xi)
    form = kernel.additive_form()
    if form is not None:
        verdict = _rational_verdict(form)
    else:
        xi, values, verdict = _window_verdict(kernel, xi, values)
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
    """Check that reflecting the kernel flips the sign of the frequency, on
    ``n_points`` frequencies of [-FREQ_WINDOW, FREQ_WINDOW].

    The reflected kernel lives on the negative half-line; its transform at
    xi, int_0^inf phi(t) e^(i xi t) dt, is ``transform_numeric`` at -xi
    (quadrature of the body, for closed forms and sampled kernels alike),
    compared against the kernel's own formula ``transform_grid`` at -xi.
    """
    if kernel.flavor is not Flavor.ADDITIVE:
        raise FlavorMismatch("dual_transform_identity_check expects an additive kernel")
    if n_points < 1:
        raise InvalidArgument(
            f"dual_transform_identity_check needs at least 1 frequency, got {n_points}")
    xi = np.linspace(-FREQ_WINDOW, FREQ_WINDOW, n_points)
    lhs = transform_numeric(kernel, -xi, settings)
    rhs = transform_grid(kernel, -xi)
    dev = float(np.max(np.abs(lhs - rhs)))
    return ReflectionReport(xi, lhs, rhs, dev)
