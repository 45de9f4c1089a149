"""Kernels of both group flavors and their algebra.

An additive kernel is an integrable weight on [0, inf) under Lebesgue
measure; a multiplicative kernel lives on [1, inf) under dt/t.  The log
substitution u = log t identifies the multiplicative algebra with the
additive one, so internally every closed-form kernel is stored as an
:class:`~halfsum.exppoly.ExpPoly` in additive coordinates and the flavor
only controls how abscissae are interpreted.  ``ExpPoly`` is closed under
half-line convolution, so convolutions and powers of closed forms stay
closed forms; only a sampled operand makes the result a sampled grid.

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


@dataclass(frozen=True)
class Kernel:
    flavor: Flavor
    body: object  # ClosedForm | Sampled
    meta: dict = field(default_factory=dict, compare=False)

    # ---- the body as a function of additive coordinates ------------------

    @property
    def shape(self):
        """phi(u) in additive coordinates: the closed form's ``ExpPoly`` or the
        ``Sampled`` body, both with ``__call__``, ``mass``, ``transform``,
        ``support_cutoff`` and ``scaled``."""
        return self.body.form if isinstance(self.body, ClosedForm) else self.body

    @property
    def breaks(self) -> Optional[np.ndarray]:
        """Points where phi has kinks: a sampled kernel's grid; None for a closed form."""
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
        if isinstance(self.body, ClosedForm):
            form = self.body.form
            cut = form.support_cutoff(1e-14)
            val = integrate_adaptive(lambda u: (u ** k) * np.abs(form(u)), 0.0, cut, 1e-12)
            return float(val.real)
        b = self.body
        val = float(np.trapezoid(b.grid ** k * np.abs(b.values), b.grid))
        if b.tail_rate > 0:
            g = b.tail_rate
            u0 = b.grid[-1]
            if k == 0:
                val += abs(b.tail_value) / g
            else:
                val += abs(b.tail_value) * (u0 / g + 1.0 / g ** 2)
        return val

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


def sampled_kernel(abscissae, values, flavor: Flavor,
                   settings: Settings = DEFAULT) -> Kernel:
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

    Two closed forms give their exact product as a closed form; a sampled
    operand gives a sampled kernel on [0, x_max_quad]: trapezoid sums on 2^14
    cells, halved at most three times until the change at the coarser nodes
    is below tol_quad.  It falls only about 4x per halving: a 512-sample
    exp(-u), with exponential(1) or squared, meets tol_quad in the last round
    (131 073 nodes); a miss there returns the last grid with no signal.
    """
    if k1.flavor is not k2.flavor:
        raise FlavorMismatch(f"cannot convolve {k1.flavor.value} with {k2.flavor.value}")
    f1, f2 = k1.additive_form(), k2.additive_form()
    if f1 is not None and f2 is not None:
        return Kernel(k1.flavor, ClosedForm("convolution", {}, f1.convolve(f2)))
    n = 2 ** 14
    prev = None
    for _ in range(4):
        grid = np.linspace(0.0, settings.x_max_quad, n + 1)
        conv = trapezoid_convolution(k1.shape(grid), k2.shape(grid), grid[1] - grid[0])
        if prev is not None:
            diff = np.max(np.abs(conv[::2] - prev))
            if diff < settings.tol_quad:
                break
        prev = conv
        n *= 2
    try:
        tail_value, tail_rate = _fit_tail(grid, conv)
    except InvalidKernel:
        tail_value, tail_rate = 0.0, 0.0
    return Kernel(k1.flavor, Sampled(grid, conv, tail_value, tail_rate))


def power(kernel: Kernel, k: int, settings: Settings = DEFAULT) -> Kernel:
    """k-fold convolution power; k = 1 is the identity."""
    if not isinstance(k, (int, np.integer)) or k < 1:
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


def load_kernel_spec(path: str, settings: Settings = DEFAULT) -> Kernel:
    """Read the textual kernel spec format.

    ``{"flavor": "additive"|"multiplicative",
       "body": {"catalog": name, "params": {...}} | {"samples": [[t, re, im], ...]}}``
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read kernel spec {path!r}: {exc}") from exc
    return kernel_from_dict(raw, settings)


def kernel_from_dict(raw: dict, settings: Settings = DEFAULT) -> Kernel:
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
        return sampled_kernel(samples[:, 0], values, flavor, settings)
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


def parse_kernel_arg(text: str, settings: Settings = DEFAULT) -> Kernel:
    """CLI grammar: ``catalog:<name>(<comma-separated reals>)`` or ``file:<path>``."""
    text = text.strip()
    if text.startswith("file:"):
        return load_kernel_spec(text[5:], settings)
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
