"""Kernels of both group flavors and their algebra.

An additive kernel is an integrable weight on [0, inf) under Lebesgue
measure; a multiplicative kernel lives on [1, inf) under dt/t.  The log
substitution u = log t identifies the multiplicative algebra with the
additive one, so internally every closed-form kernel is stored as an
:class:`~halfsum.exppoly.ExpPoly` in additive coordinates and the flavor
only controls how abscissae are interpreted.  ``ExpPoly`` is closed under
half-line convolution, so convolutions and powers of closed forms stay
closed forms.  A sampled operand gives an exact ``Convolved`` body when the
other is a closed form or a sampled kernel on the same step; any other pair
is convolved by the trapezoid rule on a grid.

Closed-form catalog:

* ``exponential(rate)`` — additive, rate * exp(-rate * x)
* ``power_law(r)`` — multiplicative, r * t**(-r)
* ``counterexample_additive(alpha)`` — additive, unit mass with a transform
  zero placed exactly at frequency alpha
* ``counterexample_multiplicative(alpha)`` — multiplicative analogue
* ``finite_mixture`` — complex linear combination of catalog entries
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT, Settings
from .errors import (ConfigError, DegenerateKernel, FlavorMismatch,
                     InvalidArgument, InvalidKernel, QuadratureFailed)
from .exppoly import ExpPoly, Term, _real_if_exact
from .quadrature import (_is_uniform, fourier_piecewise_linear, integrate_adaptive,
                         trapezoid_convolution)


class Flavor(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class ClosedForm:
    catalog_id: str
    params: dict
    form: ExpPoly  # additive coordinates (u = log t for multiplicative kernels)

    def scaled(self, c: complex) -> "ClosedForm":
        params = dict(self.params)
        if "components" in params:   # a mixture's record scales with its form
            comps = params["components"]
            coefs = [complex(*comp["coef"]) * c for comp in comps]
            params["components"] = [dict(comp, coef=[w.real, w.imag])
                                    for comp, w in zip(comps, coefs)]
        return ClosedForm(self.catalog_id, params, self.form.scaled(c))


@dataclass(frozen=True)
class Sampled:
    """Grid samples in additive coordinates plus a geometric tail model.

    ``grid`` is uniform in additive coordinates; the kernel beyond the grid is
    modeled as ``tail_value * exp(-tail_rate * (u - grid[-1]))``.  Real
    samples are float64 and a real tail value a float, so a real kernel's
    values, convolutions and windows stay in real arithmetic.  Like
    ``ExpPoly`` it evaluates, integrates, transforms, cuts and scales itself.
    """

    grid: np.ndarray
    values: np.ndarray
    tail_value: complex
    tail_rate: float

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Values at an array of ``u``: zero before the first sample, the
        linear interpolant of the grid, and the geometric tail past the last."""
        out = np.interp(u, self.grid, self.values, left=0.0, right=0.0)
        beyond = u > self.grid[-1]
        if beyond.any() and self.tail_rate > 0:
            out[beyond] = self.tail_value * np.exp(-self.tail_rate * (u[beyond] - self.grid[-1]))
        return out

    def mass(self) -> complex:
        m = complex(np.trapezoid(self.values, self.grid))
        if self.tail_rate > 0:
            m += self.tail_value / self.tail_rate
        return m

    def transform(self, xi) -> np.ndarray:
        """Fourier transform of the interpolant plus tail on an array of frequencies."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        val = fourier_piecewise_linear(self.grid, self.values, xi)
        if self.tail_rate > 0:
            u0 = self.grid[-1]
            val += self.tail_value * np.exp(-1j * xi * u0) / (self.tail_rate + 1j * xi)
        return val

    def scaled(self, c: complex) -> "Sampled":
        return Sampled(self.grid, self.values * c, self.tail_value * c, self.tail_rate)

    def support_cutoff(self, eps: float) -> float:
        """Point past which the tail model's absolute integral is at most eps.

        Past grid[-1] + c that integral is |tail_value| e^(-tail_rate c) / tail_rate.
        """
        if self.tail_rate <= 0:
            return float(self.grid[-1])
        excess = abs(self.tail_value) / (self.tail_rate * eps)
        return float(self.grid[-1]) + math.log(max(excess, 1.0)) / self.tail_rate

    def abs_moment(self, k: int) -> float:
        """int u^k |phi(u)| du for k = 0, 1: trapezoid sums of the samples
        (for k = 0 a bound on the interpolant's) plus the tail's exact share."""
        val = float(np.trapezoid(self.grid ** k * np.abs(self.values), self.grid))
        if self.tail_rate > 0:
            g, u0 = self.tail_rate, self.grid[-1]
            val += abs(self.tail_value) * (1.0 / g if k == 0 else u0 / g + 1.0 / g ** 2)
        return val


def _node_sums(weights: np.ndarray, z: complex, h: float, top: int) -> np.ndarray:
    """s[K, r] = sum_{k <= K} w_k ((K - k) h)^r z^(K - k), r = 0..top, at every node K.

    One inclusive scan in log2(N) rounds: round m adds A_m s[K - m] to s[K],
    m = 1, 2, 4, ..., where (A_m)_rq = C(r, q) (m h)^(r - q) z^m carries a
    node's sums m nodes on.  With |z| < 1 every added term is a weight times
    nonnegative lengths, so no round cancels.
    """
    s = np.zeros((weights.size, top + 1), dtype=np.result_type(weights, z))
    s[:, 0] = weights
    r = np.arange(top + 1)
    binom = np.array([[math.comb(i, j) for j in r] for i in r], dtype=float)
    m = 1
    while m < weights.size:
        carry = binom * (m * h) ** np.maximum(r[:, None] - r, 0) * z ** m
        s[m:] = s[m:] + s[:-m] @ carry.T
        m *= 2
    return s


class _LinearConvolution:
    """L * form, L the interpolant of a sampled body (zero off [g_0, g_n]).

    Integrating by parts twice, with T1(y) = int_y^inf form and
    T2(y) = int_y^inf T1 (both ``ExpPoly``), M0 and M1 the form's mass and
    first moment and b_k the jump of L' at node g_k,

        (L * form)(x) = M0 L(x) - M1 L'(x) - v_0 T1(x - g_0) + v_n T1(x - g_n)
                        + sum_{g_k <= x} b_k T2(x - g_k).

    Each term c y^j e^(mu y) of T2 is expanded about the last node g_K <= x,
    d = x - g_K, as e^(mu d) sum_r C(j, r) d^(j - r) s[K, r], with the node
    sums s of ``_node_sums`` built for every node once, so a value costs
    O(1) and is exact up to rounding.
    """

    def __init__(self, body: "Sampled", form: ExpPoly):
        grid, values, h = body.grid, body.values, _step(body)
        self.grid = grid
        slope = np.diff(values) / h
        jumps = np.diff(slope, prepend=0.0, append=0.0)
        self.slope = np.append(slope, 0.0)           # L' and L just right of each node
        self.right = np.append(values[:-1], 0.0)
        t1 = form.tail_form()
        t2 = t1.tail_form()
        self.m0, self.m1 = _real_if_exact(form.mass()), _real_if_exact(t1.mass())
        self.ends = ((grid[0], t1.scaled(-values[0])), (grid[-1], t1.scaled(values[-1])))
        self.sums = []
        for mu in {t.rate for t in t2}:
            coef = {t.power: t.coef for t in t2 if t.rate == mu}
            top = max(coef)
            table = np.array([[coef.get(r + e, 0.0) * math.comb(r + e, r) for e in range(top + 1)]
                              for r in range(top + 1)])
            table = table.real if not table.imag.any() else table
            mu = _real_if_exact(mu)
            self.sums.append((mu, table, _node_sums(jumps, np.exp(mu * h), h, top)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.grid, x, side="right") - 1
        inside = k >= 0
        k = np.maximum(k, 0)
        d = np.where(inside, x - self.grid[k], 0.0)
        val = self.m0 * (self.right[k] + self.slope[k] * d) - self.m1 * self.slope[k]
        for shift, t1 in self.ends:
            val = val + t1(x - shift)
        for mu, table, s in self.sums:
            powers = d[:, None] ** np.arange(table.shape[1])
            val = val + np.exp(mu * d) * np.einsum("nr,re,ne->n", s[k], table, powers)
        return np.where(inside, val, 0.0)


class _CubicConvolution:
    """L_a * L_b for the interpolants of two sampled bodies on one step h.

    On cell k of the sum grid a_0 + b_0 + k h, with y in [0, 1) across it, the
    product is a cubic in y.  A cell i of a, v_i + dv_i s, meets cells k - i
    and k - 1 - i of b, so the cubic's coefficients are discrete convolutions
    of the cells' values v and increments dv: C_vv = v_a * v_b and so on, at
    k and at k - 1.
    """

    def __init__(self, a: "Sampled", b: "Sampled"):
        h = _step(a)
        (vv, vd), (dv, dd) = [[np.convolve(x, y) for y in (b.values[:-1], np.diff(b.values))]
                              for x in (a.values[:-1], np.diff(a.values))]
        mixed = vd + dv
        at = lambda c: np.append(c, 0.0)                 # the convolution at k
        before = lambda c: np.insert(c, 0, 0.0)          # and at k - 1
        self.coefs = h * np.stack([before(vv + mixed / 2 + dd / 6),
                                   at(vv) + before(dd / 2 - vv),
                                   (at(mixed) - before(mixed + dd)) / 2,
                                   (at(dd) - before(dd)) / 6])
        self.origin, self.h = a.grid[0] + b.grid[0], h

    def __call__(self, x: np.ndarray) -> np.ndarray:
        cells = self.coefs.shape[1]
        pos = np.clip((x - self.origin) / self.h, -1.0, cells)
        k = np.clip(np.floor(pos).astype(np.int64), 0, cells - 1)
        y = pos - k
        c0, c1, c2, c3 = self.coefs[:, k]
        return np.where((pos >= 0) & (pos < cells), ((c3 * y + c2) * y + c1) * y + c0, 0.0)


def _pieces(body) -> list:
    """``body`` as (shift, piece) pairs: an ``ExpPoly`` at 0, or a sampled
    body's interpolant at 0 and its geometric tail, a one-term ``ExpPoly``,
    at its last node."""
    if isinstance(body, ExpPoly) or body.tail_rate <= 0:
        return [(0.0, body)]
    tail = ExpPoly([Term(complex(body.tail_value), 0, complex(-body.tail_rate))])
    return [(0.0, body), (float(body.grid[-1]), tail)]


def _l1_bound(body) -> float:
    """An upper bound on int |body|, for an ``ExpPoly`` or a ``Sampled`` body."""
    return body.abs_tail_bound(0.0) if isinstance(body, ExpPoly) else body.abs_moment(0)


def _step(body: "Sampled") -> float:
    return (body.grid[-1] - body.grid[0]) / (body.grid.size - 1)


def _piece_product(p, q):
    """The exact product of two pieces of ``_pieces``."""
    if isinstance(p, ExpPoly) and isinstance(q, ExpPoly):
        return p.convolve(q)
    if isinstance(p, ExpPoly):
        p, q = q, p
    return _LinearConvolution(p, q) if isinstance(q, ExpPoly) else _CubicConvolution(p, q)


class Convolved:
    """The exact convolution of a ``Sampled`` body ``a`` with ``b``: an
    ``ExpPoly``, or a ``Sampled`` body on the same step.

    Each sampled operand is its interpolant plus its geometric tail, a
    one-term ``ExpPoly`` shifted to its last node, so the product is a sum of
    shifted pairs: interpolant * form (``_LinearConvolution``), interpolant *
    interpolant (``_CubicConvolution``) and form * form (``ExpPoly.convolve``),
    each built in one O(N) pass and exact at any u.  ``grid`` holds the
    body's kinks, the nodes of ``a`` or, for two sampled operands, their
    sums, and ``values`` the exact body there.  Mass and transform are the
    products of the operands'.  Like ``Sampled`` it evaluates, integrates,
    transforms, cuts and scales itself.
    """

    def __init__(self, a: "Sampled", b):
        self.a, self.b = a, b
        if isinstance(b, ExpPoly):
            self.grid = a.grid
        else:
            self.grid = a.grid[0] + b.grid[0] + _step(a) * np.arange(a.grid.size + b.grid.size - 1)
        self.parts = [(s + t, _piece_product(p, q)) for s, p in _pieces(a) for t, q in _pieces(b)]
        self.values = self(self.grid)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        return sum(part(flat - shift) for shift, part in self.parts).reshape(u.shape)

    def mass(self) -> complex:
        return self.a.mass() * self.b.mass()

    def transform(self, xi) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return self.a.transform(xi) * self.b.transform(xi)

    def scaled(self, c: complex) -> "Convolved":
        return Convolved(self.a.scaled(c), self.b)

    def support_cutoff(self, eps: float) -> float:
        """Point past which the absolute tail is at most eps: the a-part beyond
        A and the b-part beyond B each carry at most eps / 2 past A + B."""
        return (self.a.support_cutoff(eps / (2.0 * _l1_bound(self.b)))
                + self.b.support_cutoff(eps / (2.0 * _l1_bound(self.a))))


def _exact_convolution(a, b):
    """The exact body of a * b for bodies a and b; None where only the trapezoid rule serves.

    Closed forms multiply as ``ExpPoly``; a sampled body with a closed form or
    with a sampled body on its step gives a ``Convolved`` body; a
    ``Convolved`` body of a closed form takes a further closed form into its
    form, by associativity.
    """
    if isinstance(a, ExpPoly):
        a, b = b, a
    if isinstance(b, ExpPoly):
        if isinstance(a, ExpPoly):
            return a.convolve(b)
        if isinstance(a, Sampled):
            return Convolved(a, b)
        return Convolved(a.a, a.b.convolve(b)) if isinstance(a.b, ExpPoly) else None
    if isinstance(a, Sampled) and isinstance(b, Sampled) \
            and math.isclose(_step(a), _step(b), rel_tol=1e-12):
        return Convolved(a, b)
    return None


@dataclass(frozen=True)
class Kernel:
    flavor: Flavor
    body: object  # ClosedForm | Sampled | Convolved
    meta: dict = field(default_factory=dict, compare=False)

    # ---- the body as a function of additive coordinates ------------------

    @property
    def shape(self):
        """phi(u) in additive coordinates: the closed form's ``ExpPoly``, the
        ``Sampled`` body or an exact ``Convolved`` body, each with
        ``__call__``, ``mass``, ``transform``, ``support_cutoff`` and ``scaled``."""
        return self.body.form if isinstance(self.body, ClosedForm) else self.body

    @property
    def breaks(self) -> Optional[np.ndarray]:
        """Points where phi may have kinks: a sampled kernel's grid, or a
        convolved body's (its sampled operand's nodes or their sums); None
        for a closed form."""
        return None if isinstance(self.body, ClosedForm) else self.body.grid

    # ---- cached scalars --------------------------------------------------

    def mass(self) -> complex:
        return self.shape.mass()

    def l1_norm(self) -> float:
        key = "_l1"
        if key not in self.meta:
            self.meta[key] = self._abs_moment(0)
        return self.meta[key]

    def first_moment(self) -> Optional[float]:
        """int u |phi(u)| du in additive coordinates; None when unavailable."""
        key = "_m1"
        if key not in self.meta:
            try:
                self.meta[key] = self._abs_moment(1)
            except QuadratureFailed:
                self.meta[key] = None
        return self.meta[key]

    def _abs_moment(self, k: int) -> float:
        """A sampled body sums its samples; any other body is integrated over its breaks."""
        shape = self.shape
        if isinstance(shape, Sampled):
            return shape.abs_moment(k)
        cut = shape.support_cutoff(1e-14)
        val = integrate_adaptive(lambda u: (u ** k) * np.abs(shape(u)), 0.0, cut, 1e-12,
                                 breaks=self.breaks)
        return float(val.real)

    # ---- coordinate helpers ---------------------------------------------

    def additive_form(self) -> Optional[ExpPoly]:
        """Closed-form additive-coordinates representation, if one exists."""
        if isinstance(self.body, ClosedForm):
            return self.body.form
        return None

    def support_origin(self) -> float:
        return 0.0 if self.flavor is Flavor.ADDITIVE else 1.0


# ---------------------------------------------------------------------------
# evaluation

def evaluate(kernel: Kernel, t):
    """Pointwise kernel value; zero outside the support half-line."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if not np.all(np.isfinite(t)):
        raise InvalidKernel("evaluation point must be finite")
    out = np.zeros(t.shape, dtype=complex)
    if kernel.flavor is Flavor.ADDITIVE:
        inside = t >= 0
        u = t[inside]
    else:
        inside = t >= 1
        u = np.log(t[inside])
    out[inside] = kernel.shape(u)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# catalog constructors

def _check_param(name, value):
    v = float(value) if not isinstance(value, complex) else value
    if not np.isfinite(v):
        raise InvalidKernel(f"parameter {name} must be finite, got {value!r}")
    return v


def exponential(rate: float) -> Kernel:
    rate = _check_param("rate", rate)
    if rate <= 0:
        raise InvalidKernel("exponential rate must be positive")
    form = ExpPoly([Term(rate, 0, -rate)])
    return Kernel(Flavor.ADDITIVE, ClosedForm("exponential", {"rate": rate}, form))


def power_law(r: float) -> Kernel:
    r = _check_param("r", r)
    if r <= 0:
        raise InvalidKernel("power_law exponent must be positive")
    # r * t**-r on [1, inf) under dt/t; in u = log t this is r * exp(-r u)
    form = ExpPoly([Term(r, 0, -r)])
    return Kernel(Flavor.MULTIPLICATIVE, ClosedForm("power_law", {"r": r}, form))


def _counterexample_form(alpha: float) -> ExpPoly:
    # prefactor (1 + alpha^2)/alpha^2 makes the mass exactly 1, and the
    # transform  C * [1/(1+i xi) - (1/(1+i alpha)) / (1 + i(xi - alpha))]
    # vanishes exactly at xi = alpha.
    alpha = _check_param("alpha", alpha)
    if alpha == 0:
        raise InvalidKernel("counterexample kernels need a nonzero frequency")
    c = (1.0 + alpha * alpha) / (alpha * alpha)
    return ExpPoly([
        Term(c, 0, -1.0 + 0j),
        Term(-c / (1.0 + 1j * alpha), 0, -1.0 + 1j * alpha),
    ])


def counterexample_additive(alpha: float) -> Kernel:
    form = _counterexample_form(alpha)
    return Kernel(Flavor.ADDITIVE,
                  ClosedForm("counterexample_additive", {"alpha": float(alpha)}, form))


def counterexample_multiplicative(alpha: float) -> Kernel:
    form = _counterexample_form(alpha)
    return Kernel(Flavor.MULTIPLICATIVE,
                  ClosedForm("counterexample_multiplicative", {"alpha": float(alpha)}, form))


def finite_mixture(components, flavor: Flavor) -> Kernel:
    """Complex linear combination [(coef, kernel), ...] of same-flavor entries."""
    if not components:
        raise InvalidArgument("finite_mixture needs at least one component")
    form = ExpPoly([])
    specs = []
    for coef, kern in components:
        coef = complex(coef)
        if not np.isfinite(coef):
            raise InvalidKernel("mixture coefficient must be finite")
        if kern.flavor is not flavor:
            raise FlavorMismatch("mixture components must share the mixture flavor")
        inner = kern.additive_form()
        if inner is None:
            raise InvalidKernel("finite_mixture components must be closed-form")
        form = form + inner.scaled(coef)
        specs.append({"coef": [coef.real, coef.imag], "catalog": kern.body.catalog_id,
                      "params": dict(kern.body.params)})
    # the record must rebuild the kernel, which only catalog components can
    params = {"components": specs} if all(_is_catalog(k) for _, k in components) else {}
    return Kernel(flavor, ClosedForm("finite_mixture", params, form))


def sampled_kernel(abscissae, values, flavor: Flavor) -> Kernel:
    """Build a kernel from grid samples in native coordinates.

    Samples equally spaced in additive coordinates are kept as they are;
    others are resampled onto max(512, 4n) equally spaced points.  Real
    samples stay real (float64), complex ones complex128.
    """
    t = np.asarray(abscissae, dtype=float)
    v = np.asarray(values)
    v = v.astype(np.result_type(v, float))    # a copy: uniform samples are kept
    if t.size < 4 or t.size != v.size:
        raise InvalidKernel("sampled kernel needs at least 4 matching samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise InvalidKernel("sampled kernel has non-finite entries")
    if np.any(np.diff(t) <= 0):
        raise InvalidKernel("sampled kernel abscissae must be strictly increasing")
    if flavor is Flavor.MULTIPLICATIVE:
        if t[0] < 1.0:
            raise InvalidKernel("multiplicative samples must start at t >= 1")
        u = np.log(t)
    else:
        if t[0] < 0.0:
            raise InvalidKernel("additive samples must start at t >= 0")
        u = t
    # the kernel is zero left of grid[0], so no lead is padded before it
    if _is_uniform(u):
        grid, vals = np.linspace(u[0], u[-1], u.size), v
    else:
        grid = np.linspace(u[0], u[-1], max(512, 4 * u.size))
        vals = np.interp(grid, u, v)
    tail_value, tail_rate = _fit_tail(grid, vals)
    return Kernel(flavor, Sampled(grid, vals, tail_value, tail_rate))


def _fit_tail(grid: np.ndarray, values: np.ndarray):
    """Least-squares geometric decay through the last tenth of the samples (at least two)."""
    n = max(2, grid.size // 10)
    u = grid[-n:]
    mag = np.abs(values[-n:])
    good = mag > 1e-300
    if good.sum() < 2:
        return 0.0, 0.0
    slope, icept = np.polyfit(u[good], np.log(mag[good]), 1)
    if slope >= -1e-12:
        raise InvalidKernel("sampled kernel tail does not decay; cannot certify integrability")
    rate = -slope
    return _real_if_exact(values[-1]), float(rate)


# ---------------------------------------------------------------------------
# algebra

def normalize(kernel: Kernel, settings: Settings = DEFAULT) -> Kernel:
    m = kernel.mass()
    if abs(m) < settings.mass_epsilon:
        raise DegenerateKernel(f"kernel mass {m!r} below mass_epsilon")
    if abs(m - 1.0) <= settings.tol_quad:
        return kernel
    scale = _real_if_exact(1.0 / m)
    # keys that start with "_" cache values of the unscaled kernel
    meta = {k: v for k, v in kernel.meta.items() if not k.startswith("_")}
    meta["normalization_scale"] = scale
    return Kernel(kernel.flavor, kernel.body.scaled(scale), meta)


def convolve(k1: Kernel, k2: Kernel, settings: Settings = DEFAULT) -> Kernel:
    """Half-line convolution of two kernels of the same flavor.

    Two closed forms give their exact product as a closed form.  A sampled
    kernel with a closed form, or with a sampled kernel on the same step,
    gives an exact ``Convolved`` body built in one O(N) pass; a closed form
    convolved further folds into that body's form, so a chain of one
    sampled kernel and any closed forms stays exact.  Any other pair (grids
    of different steps, or a third sampled factor) gets a sampled kernel on
    [0, x_max_quad]: trapezoid sums on 2^14 cells, halved at most three times
    until the change at the coarser nodes is below tol_quad, with that last
    change in the result's ``meta["convolution_change"]``.
    """
    if k1.flavor is not k2.flavor:
        raise FlavorMismatch(f"cannot convolve {k1.flavor.value} with {k2.flavor.value}")
    body = _exact_convolution(k1.shape, k2.shape)
    if isinstance(body, ExpPoly):
        return Kernel(k1.flavor, ClosedForm("convolution", {}, body))
    if body is not None:
        return Kernel(k1.flavor, body)
    n = 2 ** 14
    prev = None
    for _ in range(4):
        grid = np.linspace(0.0, settings.x_max_quad, n + 1)
        conv = trapezoid_convolution(k1.shape(grid), k2.shape(grid), grid[1] - grid[0])
        if prev is not None:
            change = float(np.max(np.abs(conv[::2] - prev)))
            if change < settings.tol_quad:
                break
        prev = conv
        n *= 2
    try:
        tail_value, tail_rate = _fit_tail(grid, conv)
    except InvalidKernel:
        tail_value, tail_rate = 0.0, 0.0
    return Kernel(k1.flavor, Sampled(grid, conv, tail_value, tail_rate),
                  {"convolution_change": change})


def power(kernel: Kernel, k: int, settings: Settings = DEFAULT) -> Kernel:
    """k-fold convolution power; k = 1 is the identity.

    A closed form's power is exact.  A sampled kernel's square is an exact
    ``Convolved`` body; each further factor is convolved by the trapezoid
    rule (``convolve``)."""
    if not _is_count(k):
        raise InvalidArgument("convolution power needs an integer k >= 1 (L1 has no unit)")
    if k == 1:
        return kernel
    form = kernel.additive_form()
    if form is not None:
        return Kernel(kernel.flavor, ClosedForm("power", {"k": int(k)}, form.power(k)))
    out = kernel
    for _ in range(k - 1):
        out = convolve(out, kernel, settings)
    return out


def _is_count(k) -> bool:
    """Whether ``k`` is an integer >= 1; a bool is not a count."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1


def to_additive(kernel: Kernel) -> Kernel:
    """Carry a multiplicative kernel onto [0, inf) via u = log t; only the flavor changes."""
    if kernel.flavor is not Flavor.MULTIPLICATIVE:
        raise FlavorMismatch("to_additive expects a multiplicative kernel")
    return Kernel(Flavor.ADDITIVE, kernel.body)


# ---------------------------------------------------------------------------
# kernel spec files and CLI grammar

_CATALOG = {
    "exponential": (exponential, ("rate",)),
    "power_law": (power_law, ("r",)),
    "counterexample_additive": (counterexample_additive, ("alpha",)),
    "counterexample_multiplicative": (counterexample_multiplicative, ("alpha",)),
}


def _is_catalog(kern: Kernel) -> bool:
    """Whether ``kern`` is the kernel its catalog name and parameters build."""
    body = kern.body
    return (body.catalog_id in _CATALOG
            and from_catalog(body.catalog_id, body.params).flavor is kern.flavor)


def from_catalog(name: str, args) -> Kernel:
    """A catalog kernel from its parameters, in order or as a dict by name."""
    if not isinstance(name, str) or name not in _CATALOG:
        raise ConfigError(f"unknown catalog kernel {name!r}; "
                          f"known: {sorted(_CATALOG)}")
    ctor, names = _CATALOG[name]
    if isinstance(args, dict) and set(args) == set(names):
        args = [args[p] for p in names]
    if isinstance(args, dict) or len(args) != len(names):
        raise ConfigError(f"catalog kernel {name} takes parameters {names}, got {args!r}")
    try:
        args = [float(a) for a in args]
    except (TypeError, ValueError):
        raise ConfigError(f"catalog kernel {name} needs numeric parameters, got {args!r}") from None
    return ctor(*args)


def load_kernel_spec(path: str) -> Kernel:
    """Read the textual kernel spec format.

    ``{"flavor": "additive"|"multiplicative",
       "body": {"catalog": name, "params": {...}} | {"samples": [[t, re, im], ...]}}``
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read kernel spec {path!r}: {exc}") from exc
    return kernel_from_dict(raw)


def kernel_from_dict(raw: dict) -> Kernel:
    if not isinstance(raw, dict) or "flavor" not in raw or "body" not in raw:
        raise ConfigError("kernel spec needs 'flavor' and 'body' fields")
    try:
        flavor = Flavor(raw["flavor"])
    except ValueError:
        raise ConfigError(f"unknown flavor {raw['flavor']!r}") from None
    body = raw["body"]
    if not isinstance(body, dict):
        raise ConfigError("kernel body must be an object")
    if body.get("catalog") == "finite_mixture":
        comps = _params(body).get("components", [])
        if not isinstance(comps, list):
            raise ConfigError("finite_mixture components must be a list")
        return finite_mixture([_mixture_component(c) for c in comps], flavor)
    if "catalog" in body:
        kern = _catalog_entry(body)
        if kern.flavor is not flavor:
            raise ConfigError(f"catalog kernel {body['catalog']} has flavor {kern.flavor.value}, "
                              f"spec says {flavor.value}")
        return kern
    if "samples" in body:
        try:
            samples = np.asarray(body["samples"], dtype=float)
        except (TypeError, ValueError):
            samples = np.empty(0)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ConfigError("samples must be rows of [t, re, im]")
        values = samples[:, 1] + 1j * samples[:, 2] if samples[:, 2].any() else samples[:, 1]
        return sampled_kernel(samples[:, 0], values, flavor)
    raise ConfigError("kernel body needs either 'catalog' or 'samples'")


def _params(entry: dict) -> dict:
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"catalog parameters must be an object, got {params!r}")
    return params


def _catalog_entry(entry) -> Kernel:
    """The kernel of ``{"catalog": name, "params": {name: value, ...}}``."""
    if not isinstance(entry, dict) or "catalog" not in entry:
        raise ConfigError(f"catalog entry needs a 'catalog' name, got {entry!r}")
    return from_catalog(entry["catalog"], _params(entry))


def _mixture_component(entry):
    kern = _catalog_entry(entry)
    coef = entry.get("coef", [1.0, 0.0])
    try:
        re, im = coef if isinstance(coef, list) else None
        return complex(float(re), float(im)), kern
    except (TypeError, ValueError):
        raise ConfigError(f"mixture coefficient must be [re, im], got {coef!r}") from None


def parse_kernel_arg(text: str) -> Kernel:
    """CLI grammar: ``catalog:<name>(<comma-separated reals>)`` or ``file:<path>``."""
    text = text.strip()
    if text.startswith("file:"):
        return load_kernel_spec(text[5:])
    if text.startswith("catalog:"):
        spec = text[len("catalog:"):]
        name, args = _parse_call(spec)
        return from_catalog(name, args)
    raise ConfigError(f"kernel spec {text!r} must start with 'catalog:' or 'file:'")


def _parse_call(spec: str):
    spec = spec.strip()
    if "(" in spec:
        if not spec.endswith(")"):
            raise ConfigError(f"malformed spec {spec!r}")
        name, _, rest = spec.partition("(")
        inner = rest[:-1].strip()
        args = []
        if inner:
            for piece in inner.split(","):
                try:
                    args.append(float(piece))
                except ValueError:
                    raise ConfigError(f"non-numeric parameter {piece!r} in {spec!r}") from None
        return name.strip(), args
    return spec, []
