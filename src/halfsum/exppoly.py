"""Exponential-polynomial functions on the half-line.

An :class:`ExpPoly` is a finite sum of terms ``c * x**p * exp(mu * x)`` on
``[0, inf)`` with ``Re(mu) < 0``.  The whole closed-form kernel catalog lives
in this family, and the family is closed under half-line convolution, so
convolution, powers, masses and Fourier transforms of catalog kernels are all
exact here.  Convolution is done in the transform domain: each term is a
rational function ``C / (z - mu)**a`` of ``z = i*xi``, products of such terms
are split by partial fractions, or for near-equal rates expanded in a series
about one pole, and mapped back.  Every exact integral of a polynomial times
an exponential is ``_tail`` (a term on a half-line) or ``_cell_moments`` (a cell).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernel

_MERGE_TOL = 1e-13
_SERIES_GAP = 0.25   # pole pairs closer than this fraction of their decay convolve by a series


def _real_if_exact(s: complex):
    """``s`` as a float when its imaginary part is exactly zero.

    Catalog coefficients and rates are real but stored as complex; as
    floats they keep ``exp(mu * x)`` and ``t ** s`` on numpy's real
    functions, several times cheaper than the complex ones.  Complex values
    pass through unchanged.
    """
    s = complex(s)
    return s.real if s.imag == 0 else s


@dataclass(frozen=True)
class Term:
    coef: complex
    power: int        # p >= 0
    rate: complex     # mu, Re(mu) < 0

    def __post_init__(self):
        if self.power < 0:
            raise InvalidKernel("term power must be nonnegative")
        if not (np.isfinite(self.coef) and np.isfinite(self.rate)):
            raise InvalidKernel("non-finite term coefficient or rate")
        if self.rate.real >= 0:
            raise InvalidKernel("term rate must have negative real part")


class ExpPoly:
    """Finite sum of ``c * x**p * exp(mu*x)`` terms on the half-line."""

    def __init__(self, terms):
        merged: dict[tuple, complex] = {}
        for t in terms:
            key = (t.power, t.rate)
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(t.coef)
        # a term is dropped when its L1 norm |c| p! / (-Re mu)^(p+1), not its
        # coefficient, is negligible beside the largest one
        norm = {key: abs(c) * math.factorial(key[0]) / (-key[1].real) ** (key[0] + 1)
                for key, c in merged.items()}
        scale = max(norm.values(), default=0.0)
        self.terms = tuple(
            Term(c, p, mu)
            for (p, mu), c in sorted(merged.items(), key=lambda kv: (kv[0][1].real, kv[0][1].imag, kv[0][0]))
            if norm[(p, mu)] > _MERGE_TOL * scale
        )

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __call__(self, x):
        """Evaluate pointwise; zero for x < 0 (half-line extension).

        The values are float64 when every coefficient and rate is real and
        complex128 otherwise; a scalar ``x`` gives a scalar.
        """
        x = np.asarray(x, dtype=float)
        pos = x >= 0
        xp = x[pos]
        vals = sum((_real_if_exact(t.coef) * xp ** t.power * np.exp(_real_if_exact(t.rate) * xp)
                    for t in self.terms), np.zeros(xp.shape))
        out = np.zeros(x.shape, dtype=vals.dtype)
        out[pos] = vals
        return out if out.ndim else out[()]

    def derivative(self) -> "ExpPoly":
        """f' on (0, inf): (c x^p e^(mu x))' = c p x^(p-1) e^(mu x) + c mu x^p e^(mu x)."""
        return ExpPoly([Term(t.coef * t.rate, t.power, t.rate) for t in self.terms]
                       + [Term(t.coef * t.power, t.power - 1, t.rate)
                          for t in self.terms if t.power])

    def scaled(self, factor: complex) -> "ExpPoly":
        return ExpPoly([Term(t.coef * factor, t.power, t.rate) for t in self.terms])

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(list(self.terms) + list(other.terms))

    # ---- exact integrals -------------------------------------------------

    def mass(self) -> complex:
        """Integral over [0, inf)."""
        return self.moment(0)

    def moment(self, j: int) -> complex:
        """int_0^inf x^j f(x) dx = sum c (p + j)! / (-mu)^(p + j + 1)."""
        return complex(sum(t.coef * _tail(t.power + j, t.rate, 0.0) for t in self.terms))

    def integral(self, a: float, b: float) -> complex:
        return self.tail_integral(a) - self.tail_integral(b)

    def tail_integral(self, a: float) -> complex:
        """Integral over [a, inf)."""
        return complex(sum(t.coef * _tail(t.power, t.rate, a) for t in self.terms))

    def abs_tail_bound(self, a: float) -> float:
        """Upper bound on the integral of |f| over [a, inf)."""
        return float(sum(abs(t.coef) * _tail(t.power, t.rate.real, a) for t in self.terms))

    def support_cutoff(self, eps: float) -> float:
        """Smallest point of the grid 1.25^n beyond which the absolute tail is below eps."""
        a = 1.0
        for _ in range(200):
            if self.abs_tail_bound(a) < eps:
                return a
            a *= 1.25
        return a

    # ---- transform domain ------------------------------------------------

    def transform(self, xi):
        """Fourier transform of the zero-extended function: sum c p!/(i xi - mu)^(p+1)."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape, dtype=complex)
        z = 1j * xi
        for t in self.terms:
            out += t.coef * math.factorial(t.power) / (z - t.rate) ** (t.power + 1)
        return out if out.ndim else complex(out)

    def convolve(self, other: "ExpPoly") -> "ExpPoly":
        """Half-line convolution, exact via partial fractions."""
        out: list[Term] = []
        for t1 in self.terms:
            a = t1.power + 1
            c1 = t1.coef * math.factorial(t1.power)
            for t2 in other.terms:
                b = t2.power + 1
                c2 = t2.coef * math.factorial(t2.power)
                out.extend(_pole_product(c1 * c2, t1.rate, a, t2.rate, b))
        return ExpPoly(out)

    def __repr__(self):
        body = " + ".join(f"({t.coef:.6g})*x^{t.power}*exp({t.rate:.6g}x)" for t in self.terms)
        return f"ExpPoly[{body or '0'}]"


def _tail(p: int, mu: complex, a: float) -> complex:
    """int_a^inf t^p e^(mu t) dt = e^(mu a) sum_k p!/k! a^k / (-mu)^(p - k + 1), Re mu < 0, a >= 0.

    By Horner's rule in a; ``math.exp`` and a float for a real rate, ``cmath.exp`` otherwise.
    """
    mu = mu.real if mu.imag == 0 else mu
    scale = (cmath.exp if mu.imag else math.exp)(mu * a)
    r = -1.0 / mu
    acc, s = 0.0, r
    for k in range(p, -1, -1):
        acc = acc * a + s      # s = p!/k! r^(p - k + 1)
        s *= k * r
    return scale * acc


def _cell_moments(z: np.ndarray, jmax: int, pmax: int) -> np.ndarray:
    """M[j, p, i] = int_0^1 (1 - s)^j s^p e^(z_i s) ds for a 1-D array z, Re z <= 0.

    Below |z| = r = max(1/2, (jmax + pmax) / 2), where closed forms cancel,
    the Taylor series sum_m z^m / m! j! (p + m)! / (j + p + m + 1)! up to its
    first term below 1e-20.  From r on, M[0, p] = I_p = int_0^1 s^p e^(z s) ds
    from I_0 = (e^z - 1) / z by the upward recurrence I_p = (e^z - p I_(p-1)) / z,
    which loses at most p! / r^p <= 2, and M[j, p] = M[j-1, p] - M[j-1, p+1].
    Closed forms run in place on every point; the series overwrites its own.
    """
    width = jmax + pmax + 1
    out = np.empty((jmax + 1, width, z.size), dtype=np.result_type(z, float))
    r = max(0.5, (jmax + pmax) / 2)
    small = np.flatnonzero(np.abs(z) < r)
    if small.size < z.size:
        # z = 0, a series point, is NaN here until the series overwrites it
        with np.errstate(divide="ignore", invalid="ignore"):
            e, inv, rising = np.exp(z), 1.0 / z, out[0]
            np.subtract(e, 1.0, out=rising[0])
            rising[0] *= inv
            for p in range(1, width):
                np.multiply(rising[p - 1], -p, out=rising[p])
                rising[p] += e
                rising[p] *= inv
            for j in range(1, jmax + 1):
                np.subtract(out[j - 1, :width - j], out[j - 1, 1:width - j + 1],
                            out=out[j, :width - j])
    out = out[:, :pmax + 1]
    if small.size:
        top = np.abs(z[small]).max()
        terms = next(n for n in itertools.count(1) if top ** n / math.factorial(n) < 1e-20)
        # term m over term m - 1 is z (p + m) / (m (j + p + m + 1))
        j, p, m = np.arange(jmax + 1)[:, None], np.arange(pmax + 1), np.arange(terms)[:, None, None]
        series = (p + m) / (np.maximum(m, 1) * (j + p + m + 1))
        series[0] = [[math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
                      for b in range(pmax + 1)] for a in range(jmax + 1)]
        zs, acc = z[small], 0.0
        for c in np.cumprod(series, axis=0)[::-1]:
            acc = acc * zs + c[..., None]
        out[..., small] = acc
    return out


def _pole_product(coef: complex, u: complex, a: int, v: complex, b: int):
    """coef / ((z-u)^a (z-v)^b) as time terms, C/(z-mu)^j being (C/(j-1)!) x^(j-1) e^(mu x).

    Partial fractions cancel like |d|^-(a+b-1), d = u - v (rates 0.2 and
    0.2 (1 + 1e-9) lose every digit of the transform), so rates closer than
    ``_SERIES_GAP`` rho, rho = min(-Re u, -Re v), expand (z-v)^-b about u as
    sum_k C(b+k-1, k) (-d)^k (z-u)^(-b-k).  Term k's L1 norm is at most
    w_k |coef| / rho^(a+b), w_k = C(b+k-1, k) (|d| / rho)^k, and q = w_(k+1) / w_k
    falls with k, so the series stops once w_k / (1 - q) < 1e-16.
    """
    d = u - v
    rho = min(-u.real, -v.real)
    if abs(d) > _SERIES_GAP * rho:
        return [Term(coef * (-1) ** k * math.comb(n - 1 + k, k) * gap ** -(n + k)
                     / math.factorial(m - k - 1), m - k - 1, mu)
                for mu, m, n, gap in ((u, a, b, d), (v, b, a, -d)) for k in range(m)]
    ratio, terms, w, k = abs(d) / rho, [], 1.0, 0
    while True:
        p = a + b + k - 1
        terms.append(Term(coef * math.comb(b + k - 1, k) * (-d) ** k / math.factorial(p), p, u))
        w *= ratio * (b + k) / (k + 1)
        k += 1
        q = ratio * (b + k) / (k + 1)
        if q < 1 and w / (1 - q) < 1e-16:
            return terms
