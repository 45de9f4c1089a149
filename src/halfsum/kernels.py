"""Kernels of both group flavors and their algebra.

An additive kernel is an integrable weight on [0, inf) under Lebesgue
measure; a multiplicative kernel lives on [1, inf) under dt/t.  The log
substitution u = log t identifies the multiplicative algebra with the
additive one, so internally every closed-form kernel is stored as an
:class:`~halfsum.exppoly.ExpPoly` in additive coordinates and the flavor
only controls how abscissae are interpreted.  ``ExpPoly`` is closed under
half-line convolution, so convolutions and powers of closed forms stay
closed forms.  A product with sampled factors, all on one step, is an exact
``Convolved`` body: every factor is a sum of shifted parts, each a piecewise
polynomial, an ``ExpPoly`` or the two convolved, and so is the product,
part by part.  Sampled factors on different steps are refused.

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
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT, Settings
from .errors import (ConfigError, DegenerateKernel, FlavorMismatch,
                     InvalidArgument, InvalidKernel, QuadratureFailed)
from .exppoly import ExpPoly, Term, _cell_moments, _real_if_exact
from .quadrature import (_fft_convolve, _is_uniform, fourier_piecewise_linear,
                         integrate_adaptive)


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

    def moment(self, j: int) -> complex:
        """int u^j phi(u) du for j = 0, 1, exact for the interpolant and its tail:
        a cell [a, b] gives (b - a) (v_a + v_b) / 2, or (b - a) ((2a + b) v_a + (a + 2b) v_b) / 6."""
        if j == 0:
            return self.mass()
        a, b, va, vb = self.grid[:-1], self.grid[1:], self.values[:-1], self.values[1:]
        m = complex(np.sum((b - a) * ((2 * a + b) * va + (a + 2 * b) * vb)) / 6)
        if self.tail_rate > 0:
            g, u0 = self.tail_rate, self.grid[-1]
            m += self.tail_value * (u0 / g + 1.0 / g ** 2)
        return m

    def abs_moment(self, k: int) -> float:
        """An upper bound on int u^k |phi(u)| du for k = 0, 1: the exact moment of
        |samples| interpolated and |tail|, which bound |phi| (u >= 0), equal to it
        when no cell changes sign."""
        magnitude = Sampled(self.grid, np.abs(self.values), abs(self.tail_value), self.tail_rate)
        return float(magnitude.moment(k).real)


def _node_sums(weights: np.ndarray, z: complex, h: float, top: int) -> np.ndarray:
    """s[K, ..., r] = sum_{k <= K} w_k ((K - k) h)^r z^(K - k), r = 0..top, at every node K.

    ``weights`` holds one value per node, or one row of columns per node,
    each column summed on its own.  One inclusive scan in log2(N) rounds:
    round m adds A_m s[K - m] to s[K], m = 1, 2, 4, ..., where
    (A_m)_rq = C(r, q) (m h)^(r - q) z^m carries a node's sums m nodes on.
    With |z| < 1 every added term is a weight times nonnegative lengths, so
    no round cancels.
    """
    s = np.zeros(weights.shape + (top + 1,), dtype=np.result_type(weights, z))
    s[..., 0] = weights
    r = np.arange(top + 1)
    binom = np.array([[math.comb(i, j) for j in r] for i in r], dtype=float)
    m = 1
    while m < weights.shape[0]:
        carry = binom * (m * h) ** np.maximum(r[:, None] - r, 0) * z ** m
        s[m:] = s[m:] + s[:-m] @ carry.T
        m *= 2
    return s


class _Cells:
    """A piecewise polynomial in pp-form (de Boor 1978) on uniform cells.

    On cell k, [origin + k h, origin + (k + 1) h), it is sum_j coefs[j, k] y^j
    with y = (x - origin) / h - k in [0, 1); it is zero off the cells.  A
    sampled body's interpolant is the degree-1 case, coefs = (v_k, v_(k+1) - v_k).
    """

    def __init__(self, origin: float, h: float, coefs: np.ndarray):
        self.origin, self.h, self.coefs = origin, h, coefs

    def locate(self, x: np.ndarray, last: int):
        """The cell index of each x, clipped to [0, last], and x's offset from that cell's start."""
        k = np.clip(np.floor((x - self.origin) / self.h), 0, last).astype(np.int64)
        return k, x - (self.origin + k * self.h)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        cells = self.coefs.shape[1]
        k, d = self.locate(x, cells - 1)
        val = self.coefs[-1, k]
        for c in self.coefs[-2::-1]:       # Horner's rule in y = d / h
            val = val * (d / self.h) + c[k]
        return np.where((x >= self.origin) & (x - self.origin < cells * self.h), val, 0.0)

    def convolve(self, other: "_Cells") -> "_Cells":
        """The exact product of two piecewise polynomials on one step h.

        With x = a_0 + b_0 + (k + y) h, cell i of a meets cell k - i of b
        where s < y and cell k - 1 - i where s > y, s the offset in cell i,
        so the product on cell k is h sum_(j, l) [(a_j * b_l)[k] F_jl(y) +
        (a_j * b_l)[k - 1] G_jl(y)], a polynomial of degree d_a + d_b + 1 with
        F_jl(y) = int_0^y s^j (y - s)^l ds and G_jl(y) = int_y^1 s^j (1 + y - s)^l ds.
        The discrete convolutions a_j * b_l of the coefficient rows come from
        one batched FFT product, so the whole product costs O(N log N).
        """
        at, before = _cell_product_weights(self.coefs.shape[0] - 1, other.coefs.shape[0] - 1)
        conv = _fft_convolve(self.coefs[:, None, :], other.coefs[None, :, :])
        coefs = (np.pad(np.tensordot(at, conv, 2), ((0, 0), (0, 1)))
                 + np.pad(np.tensordot(before, conv, 2), ((0, 0), (1, 0))))
        return _Cells(self.origin + other.origin, self.h, self.h * coefs)


def _cell_product_weights(da: int, db: int):
    """F[m, j, l] and G[m, j, l], the coefficients of y^m in F_jl and G_jl of ``_Cells.convolve``.

    F_jl(y) = B(j, l) y^(j + l + 1), B(j, l) = j! l! / (j + l + 1)!, and
    with (1 + y - s)^l = sum_a C(l, a) (1 - s)^a y^(l - a),
    G_jl(y) = sum_a C(l, a) y^(l - a) [B(j, a) - sum_b C(a, b) (-1)^b y^(j + b + 1) / (j + b + 1)].
    """
    beta = lambda j, l: math.factorial(j) * math.factorial(l) / math.factorial(j + l + 1)
    at, before = (np.zeros((da + db + 2, da + 1, db + 1)) for _ in range(2))
    for j in range(da + 1):
        for l in range(db + 1):
            at[j + l + 1, j, l] = beta(j, l)
            for a in range(l + 1):
                before[l - a, j, l] += math.comb(l, a) * beta(j, a)
                for b in range(a + 1):
                    before[l - a + j + b + 1, j, l] -= (math.comb(l, a) * math.comb(a, b)
                                                        * (-1) ** b / (j + b + 1))
    return at, before


class _CellsTimesForm:
    """P * form for a piecewise polynomial P (``_Cells``) and an ``ExpPoly``, exact at any x.

    Each cell is integrated exactly against the form's terms c s^p e^(mu s),
    one rate at a time, with M the ``exppoly._cell_moments``.  Cell k, ending at
    g_(k+1) = x - D, gives h e^(mu D) sum_q C(p, q) D^(p - q) h^q
    sum_j c_j[k] M[j, q](mu h): weights at node k + 1 that ``_node_sums``
    carries to every node at once.  With g_K the last node <= x and
    d = x - g_K, the cell from g_K to x gives
    sum_(j, p) c_j[K] (d / h)^j d^(p + 1) M[j, p](mu d).  No two pieces
    cancel, unlike d + 1 integrations by parts (which lose (h |mu|)^-d),
    and a value costs O(1).
    """

    def __init__(self, cells: _Cells, form: ExpPoly):
        self.cells = cells
        c, h = cells.coefs, cells.h
        deg, n = c.shape[0] - 1, c.shape[1]
        self.rates = []
        for mu in {t.rate for t in form}:
            coef = {t.power: t.coef for t in form if t.rate == mu}
            top = max(coef)
            r = range(top + 1)
            cp = np.array([coef.get(p, 0.0) for p in r])
            cp = cp.real if not cp.imag.any() else cp
            mu = _real_if_exact(mu)
            moments = _cell_moments(np.array([mu * h]), deg, top)[..., 0]
            weights = np.zeros((n + 1, top + 1), dtype=np.result_type(c, moments))
            weights[1:] = h ** np.arange(1, top + 2) * (c.T @ moments)
            # table[q, t, e]: the coefficient of s[K, q, t] d^e in (h tau + (K - k) h + d)^p
            f = math.factorial
            table = np.array([[[cp[q + t + e] * f(q + t + e) / (f(q) * f(t) * f(e))
                                if q + t + e <= top else 0.0 for e in r] for t in r] for q in r])
            sums = np.einsum("kqt,qte->ke", _node_sums(weights, np.exp(mu * h), h, top), table)
            self.rates.append((mu, cp, sums))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        cells = self.cells
        c, h = cells.coefs, cells.h
        k, d = cells.locate(x, c.shape[1])
        part = (k < c.shape[1]) & (x >= cells.origin) & (d > 0)
        kp, dp = k[part], d[part]
        near = c[:, kp] * (dp / h) ** np.arange(c.shape[0])[:, None]
        val = 0.0
        for mu, cp, sums in self.rates:
            val = val + np.exp(mu * d) * np.einsum("ne,ne->n", sums[k],
                                                    d[:, None] ** np.arange(cp.size))
            within = cp[:, None] * dp ** np.arange(1, cp.size + 1)[:, None]
            val[part] += np.einsum("jn,jpn,pn->n", near, _cell_moments(mu * dp, c.shape[0] - 1,
                                                                       cp.size - 1), within)
        return np.where(x >= cells.origin, val, 0.0)


def _parts(body) -> dict:
    """``body`` as parts (shift, P, psi), the function shift + P * psi, by key.

    A closed form is one part (0, no P, the form); a sampled body is its
    interpolant (0, L, no psi) plus its geometric tail, a one-term
    ``ExpPoly`` at its last node (g_n, no P, tail).  The key, the sorted
    ``id``s of the sampled bodies whose interpolants P multiplies, names P,
    and with it which factors gave their tails.
    """
    if isinstance(body, ExpPoly):
        return {(): (0.0, None, body)}
    cells = _Cells(float(body.grid[0]), _step(body),
                   np.stack([body.values[:-1], np.diff(body.values)]))
    parts = {(id(body),): (0.0, cells, None)}
    if body.tail_rate > 0:
        tail = ExpPoly([Term(complex(body.tail_value), 0, complex(-body.tail_rate))])
        parts[()] = (float(body.grid[-1]), None, tail)
    return parts


def _times(a: dict, b: dict, products: dict) -> dict:
    """The parts of the product of two sums of parts, pair by pair.

    Shifts add, P * P is ``_Cells.convolve`` (each key's product computed
    once, in ``products``) and psi * psi is ``ExpPoly.convolve``; pairs of one
    key are one part whose forms add, so a power (L + T)^k has k + 1 parts.
    """
    out = {}
    for key_p, (s, p, f) in a.items():
        for key_q, (t, q, g) in b.items():
            key = tuple(sorted(key_p + key_q))
            if key not in products:
                products[key] = q if p is None else p if q is None else p.convolve(q)
            fg = g if f is None else f if g is None else f.convolve(g)
            if key in out:
                fg = out[key][2] + fg
            out[key] = (s + t, products[key], fg)
    return out


def _l1_bound(body) -> float:
    """An upper bound on int |body|, for an ``ExpPoly`` or a ``Sampled`` body."""
    return body.abs_tail_bound(0.0) if isinstance(body, ExpPoly) else body.abs_moment(0)


def _nonnegative(body) -> bool:
    """Whether ``body`` is evidently >= 0: a closed form of real rates and
    nonnegative real coefficients, or real nonnegative samples and tail."""
    if isinstance(body, ExpPoly):
        return all(t.coef.imag == 0 <= t.coef.real and t.rate.imag == 0 for t in body)
    return (not np.iscomplexobj(body.values) and bool(np.all(body.values >= 0))
            and complex(body.tail_value).imag == 0 <= complex(body.tail_value).real)


def _step(body: "Sampled") -> float:
    return float(body.grid[-1] - body.grid[0]) / (body.grid.size - 1)


class Convolved:
    """The exact convolution of ``factors``: ``ExpPoly`` forms and at least
    one ``Sampled`` body, all sampled ones on one step h.

    The product is a sum of parts shift + P * psi (``_parts``, ``_times``),
    exact at any u: P alone is ``_Cells``, psi alone the ``ExpPoly`` and both
    ``_CellsTimesForm``.  ``grid`` holds the body's kinks, the lattice of
    summed first nodes plus multiples of h, and ``values`` the exact body
    there.  Mass and transform are the products of the factors'.  Like
    ``Sampled`` it evaluates, integrates, transforms, cuts and scales itself.
    """

    def __init__(self, factors: list):
        self.factors = factors
        sampled = [f for f in factors if isinstance(f, Sampled)]
        h = _step(sampled[0])
        products = {}
        parts = functools.reduce(lambda a, b: _times(a, b, products), map(_parts, factors))
        self.parts = [(shift, psi if p is None else p if psi is None else _CellsTimesForm(p, psi))
                      for shift, p, psi in parts.values()]
        cells = sum(f.grid.size - 1 for f in sampled)
        self.grid = sum(float(f.grid[0]) for f in sampled) + h * np.arange(cells + 1)
        self.values = self(self.grid)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        return sum(part(flat - shift) for shift, part in self.parts).reshape(u.shape)

    def mass(self) -> complex:
        return math.prod(f.mass() for f in self.factors)

    def transform(self, xi) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return math.prod(f.transform(xi) for f in self.factors)

    def abs_moment(self, k: int) -> Optional[float]:
        """int u^k |phi(u)| du for k = 0, 1 when every factor is nonnegative, and so
        the product: its mass, or sum_i m1_i prod_(j != i) M_j, from the factors'
        exact moments m1 and masses M.  None when a factor may change sign."""
        if not all(map(_nonnegative, self.factors)):
            return None
        masses = [f.moment(0).real for f in self.factors]
        if k == 0:
            return math.prod(masses)
        return sum(f.moment(1).real * math.prod(masses[:i] + masses[i + 1:])
                   for i, f in enumerate(self.factors))

    def scaled(self, c: complex) -> "Convolved":
        return Convolved([self.factors[0].scaled(c)] + self.factors[1:])

    def support_cutoff(self, eps: float) -> float:
        """Point past which the absolute tail is at most eps: past the sum of
        points c_i, some factor is past its c_i, so each factor i beyond c_i
        may carry eps / m times the other factors' L1 bounds."""
        bounds = [_l1_bound(f) for f in self.factors]
        share = eps / len(bounds)
        return sum(f.support_cutoff(share / math.prod(bounds[:i] + bounds[i + 1:]))
                   for i, f in enumerate(self.factors))


def _product(flavor: "Flavor", bodies: list) -> "Kernel":
    """The kernel of the convolution of ``bodies``: a closed form when every
    factor is one, else an exact ``Convolved`` body.

    Raises :class:`InvalidArgument` for sampled factors on different steps.
    """
    factors = [f for b in bodies for f in (b.factors if isinstance(b, Convolved) else [b])]
    steps = [_step(f) for f in factors if isinstance(f, Sampled)]
    if not steps:
        return Kernel(flavor, ClosedForm("convolution", {}, functools.reduce(ExpPoly.convolve,
                                                                            factors)))
    for h in steps[1:]:
        if not math.isclose(h, steps[0], rel_tol=1e-12):
            raise InvalidArgument(f"cannot convolve sampled kernels on different steps "
                                  f"{steps[0]!r} and {h!r}: resample one onto the other's step")
    return Kernel(flavor, Convolved(factors))


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
        convolved body's (sums of its sampled factors' nodes); None for a
        closed form."""
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
        """A sampled body bounds it by its samples' magnitudes, a nonnegative
        convolved one takes its factors' exact moments; any other body is
        integrated over its breaks."""
        shape = self.shape
        known = shape.abs_moment(k) if isinstance(shape, (Sampled, Convolved)) else None
        if known is not None:
            return known
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

MASS_EPSILON = 1e-10   # below this |mass| a kernel cannot be normalized


def normalize(kernel: Kernel, settings: Settings = DEFAULT) -> Kernel:
    m = kernel.mass()
    if abs(m) < MASS_EPSILON:
        raise DegenerateKernel(f"kernel mass {m!r} below {MASS_EPSILON:g}")
    if abs(m - 1.0) <= settings.tol_quad:
        return kernel
    scale = _real_if_exact(1.0 / m)
    # keys that start with "_" cache values of the unscaled kernel
    meta = {k: v for k, v in kernel.meta.items() if not k.startswith("_")}
    meta["normalization_scale"] = scale
    return Kernel(kernel.flavor, kernel.body.scaled(scale), meta)


def convolve(k1: Kernel, k2: Kernel, settings: Settings = DEFAULT) -> Kernel:
    """Half-line convolution of two kernels of the same flavor, exact.

    Two closed forms give their product as a closed form; any pair with a
    sampled factor gives a ``Convolved`` body of both kernels' factors,
    exact at any u, so chains of closed forms and sampled kernels on one
    step stay exact.  Sampled factors on different steps raise
    :class:`InvalidArgument`.  ``settings`` is accepted and ignored; it
    stays only for callers that still pass it.
    """
    if k1.flavor is not k2.flavor:
        raise FlavorMismatch(f"cannot convolve {k1.flavor.value} with {k2.flavor.value}")
    return _product(k1.flavor, [k1.shape, k2.shape])


def power(kernel: Kernel, k: int, settings: Settings = DEFAULT) -> Kernel:
    """k-fold convolution power; k = 1 is the identity.

    A closed form's power is exact; any other body's is a ``Convolved``
    body of k copies of its factors, a sampled kernel's being the k + 1
    parts of (L + T)^k by the binomial theorem.  ``settings`` is accepted
    and ignored; it stays only for callers that still pass it.
    """
    if not _is_count(k):
        raise InvalidArgument("convolution power needs an integer k >= 1 (L1 has no unit)")
    if k == 1:
        return kernel
    return _product(kernel.flavor, [kernel.shape] * k)


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
