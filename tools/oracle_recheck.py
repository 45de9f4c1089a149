#!/usr/bin/env python3
"""High-precision recheck of the closed-form values frozen into the tests.

Every derived constant the test suite relies on is recomputed here with
mpmath at 50 significant digits, independently of the library code, and
every rounding-noise bound the corpus declares is checked against 50-digit
values of its function.  Run it
once after any change to the kernel algebra:

    python3 tools/oracle_recheck.py

Exit code 0 means every frozen value reproduced; nonzero lists the mismatches.
"""

import ast
import os
import sys

import mpmath as mp

mp.mp.dps = 50

FAILURES = []
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")


def check(name, got, want, tol):
    err = abs(mp.mpc(got) - mp.mpc(want))
    ok = err < tol
    print(f"[{'ok' if ok else 'FAIL'}] {name}: |delta| = {mp.nstr(err, 3)}")
    if not ok:
        FAILURES.append(name)


def frozen(test_file, name):
    """The literal value assigned to ``name`` at module level in a test file."""
    with open(os.path.join(TESTS, test_file)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(f"{name} not found in {test_file}")


# --- rational transforms in z = i*xi, written out by hand ------------------
# A transform is a pair (factors of N, Q) of coefficient lists, lowest degree
# first, standing for N(z)/Q(z).  N is kept as a product of factors so that a
# power's repeated root is found as a simple root of each factor:
# mp.polyroots converges only linearly to a multiple root.

def _mul(a, b):
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    while len(out) > 1 and out[-1] == 0:    # exact cancellation lowers the degree
        out.pop()
    return out


def _expand(factors):
    out = [mp.mpc(1)]
    for f in factors:
        out = _mul(out, f)
    return out


def _exponential(r):
    # r e^{-r u}  ->  r / (r + z)
    r = mp.mpf(r)
    return [[r]], [r, 1]


def _counterexample(alpha):
    # C [1/(1+z) - (1/(1+i alpha)) / (1+z-i alpha)],  C = (1+alpha^2)/alpha^2
    a = mp.mpf(alpha)
    c, b = (1 + a**2) / a**2, 1 / (1 + 1j * a)
    num = _add(_mul([c], [1 - 1j * a, 1]), _mul([-c * b], [1, 1]))
    return [num], _mul([1, 1], [1 - 1j * a, 1])


def _product(f, g):
    return f[0] + g[0], _mul(f[1], g[1])


def _power(f, k):
    out = f
    for _ in range(k - 1):
        out = _product(out, f)
    return out


def _mixture(*fs):
    # the equal-weight average over a common denominator
    num, den = [mp.mpc(0)], [mp.mpc(1)]
    for factors, q in fs:
        num, den = _add(_mul(num, q), _mul(_expand(factors), den)), _mul(den, q)
    return [[x / len(fs) for x in num]], den


RATIONAL = {"exponential": _exponential, "power_law": _exponential,
            "counterexample_additive": _counterexample,
            "counterexample_multiplicative": _counterexample,
            "power": _power, "convolve": _product, "mixture": _mixture}


def check_wiener_verdicts():
    """Kind and zero of every whole-line verdict frozen in tests/test_spectrum.py."""
    for expr, (kind, zero_at, _) in frozen("test_spectrum.py", "WIENER_VERDICTS").items():
        factors, den = eval(expr, dict(RATIONAL))
        check(f"{expr} transform at 0", _expand(factors)[0] / den[0], 1, mp.mpf("1e-40"))
        roots = [r for f in factors for r in mp.polyroots(f[::-1])]
        on_axis = [r for r in roots if abs(mp.re(r)) < mp.mpf("1e-40")]
        found = "zero_found" if on_axis else "nonvanishing_on_window"
        print(f"[{'ok' if found == kind else 'FAIL'}] {expr}: {found}, "
              f"{len(roots)} roots, {len(on_axis)} on the axis")
        if found != kind:
            FAILURES.append(f"{expr} kind")
        for r in on_axis:
            check(f"{expr} zero", mp.im(r), zero_at, mp.mpf("1e-40"))


# --- every closed-form catalog method in additive coordinates, by hand ------
# terms (c, p, lam) of phi(s) = sum c s^p e^{-lam s}; the multiplicative
# methods (M, H, P) act in u = log x
_C1 = 2    # (1 + alpha^2) / alpha^2 of the planted-zero kernel at alpha = 1
METHOD_KERNELS = {
    "M": [(1, 0, 1)], "M_1/2": [(0.5, 0, 0.5)], "M_2": [(2, 0, 2)],
    "H_1": [(1, 0, 1)], "H_2": [(1, 1, 1)], "H_3": [(0.5, 2, 1)],
    "M*_1/2": [(0.5, 0, 0.5)], "M*_1": [(1, 0, 1)], "M*_2": [(2, 0, 2)], "P": [(1, 0, 1)],
    "S_exp1": [(1, 0, 1)], "S_exp2": [(2, 0, 2)], "S*_exp1": [(1, 0, 1)], "K": [(1, 0, 1)],
    "S_ce1": [(_C1, 0, 1), (-_C1 / mp.mpc(1, 1), 0, mp.mpc(1, -1))],
}


def check_character_references():
    """The exact character windows of tests/test_engine.py at 50 digits.

    Forward: e^{i w u} int_0^u phi(s) e^{-i w s} ds, whose terms are lower
    incomplete gamma functions; dual: e^{i w u} int_0^inf phi(s) e^{i w s} ds.
    Both grids: every catalog method on CHARACTER_OMEGAS x CHARACTER_XS, and
    OFFGRID_METHODS on OFFGRID_OMEGAS x OFFGRID_XS.
    """
    import numpy as np
    import test_engine as te
    from halfsum.corpus import method_catalog
    from halfsum.engine import Variant
    from halfsum.kernels import Flavor
    catalog = method_catalog()
    grids = ([(name, te.CHARACTER_OMEGAS, te.CHARACTER_XS) for name in sorted(catalog)]
             + [(name, te.OFFGRID_OMEGAS, te.OFFGRID_XS) for name in te.OFFGRID_METHODS])
    for name, omegas, xs in grids:
        method = catalog[name]
        kernel = method.kernel
        dual = method.variant is Variant.DUAL
        for omega in omegas:
            z = mp.mpc(0, -omega if dual else omega)
            for x in xs:
                u = x if kernel.flavor is Flavor.ADDITIVE else float(np.log(x))
                got = te.character_reference(kernel.additive_form(), omega, u, method.variant)
                um = mp.mpf(u)
                inner = sum(c * (mp.gamma(p + 1) if dual else mp.gammainc(p + 1, 0, (lam + z) * um))
                            / (lam + z) ** (p + 1) for c, p, lam in METHOD_KERNELS[name])
                want = mp.expj(omega * um) * inner
                check(f"{name} on char_{omega:g} at {x:g}", got, want, mp.mpf("1e-13"))


# --- the rounding-noise bounds of the corpus --------------------------------
# the exact function of every corpus entry that declares noise(t), by label
NOISE_REFERENCES = {"sin": mp.sin, "cos": mp.cos, "sin_sq": lambda t: mp.sin(t ** 2),
                    "char_0.5": lambda t: mp.expj(0.5 * t), "char_1": mp.expj,
                    "char_2": lambda t: mp.expj(2 * t)}


def check_noise_bounds():
    """Every corpus ``noise(t)`` bounds the double-precision error of f at t.

    The window evaluates f at t = fl(x -+ s); the reference is f at the
    exact x -+ s of the two doubles, at 50 digits.  The points are evaluated
    as one array, the way the window evaluates its nodes.
    """
    import numpy as np
    from halfsum.corpus import builtin_corpus
    xs = np.array([4.0, 37.5, 1024.0, 2.0 ** 20 + 0.3, 2.0 ** 24 + 0.3, 2.0 ** 27,
                   2.0 ** 28, 1.5 * 2.0 ** 29, 2.0 ** 30])
    ss = np.concatenate([[0.0, 0.1, 1 / 3, 2.5, 3.9, 7.77, 12.345, 25.0],
                         np.random.default_rng(7).uniform(0.0, 25.0, 24)])
    pairs = [(x, sign * s) for x in xs for s in ss for sign in (-1, 1)]
    ts = np.array([x + d for x, d in pairs])
    for f in builtin_corpus():
        if f.noise is None:
            continue
        name = f"noise bound of {f.label} ({f.support_flavor.value})"
        ref = NOISE_REFERENCES.get(f.label)
        if ref is None:
            print(f"[FAIL] {name}: no 50-digit reference")
            FAILURES.append(name)
            continue
        got, bound = f(ts), f.noise(ts)
        ratio = max(abs(mp.mpc(complex(v)) - ref(mp.mpf(x) + mp.mpf(d))) / b
                    for v, b, (x, d) in zip(got, bound, pairs))
        ok = ratio <= 1
        print(f"[{'ok' if ok else 'FAIL'}] {name}: worst error / bound = {mp.nstr(ratio, 3)}")
        if not ok:
            FAILURES.append(name)


# --- composition: U_(k1 * k2) f from hand-written kernel products ----------
# e1 * e2 = e2 * p1 = 2 (e^-s - e^-2s) and e1 * p1 = s e^-s, where p1, the
# additive transport of power_law(1), is e^-s
COMPOSED = {("e1", "e2"): lambda s: 2 * (mp.e**(-s) - mp.e**(-2 * s)),
            ("e1", "p1"): lambda s: s * mp.e**(-s),
            ("e2", "p1"): lambda s: 2 * (mp.e**(-s) - mp.e**(-2 * s))}
COMPOSED_FUNCTIONS = {"one": lambda t: mp.mpf(1), "sin": mp.sin,
                      "settle": lambda t: mp.mpf("0.3") + mp.e**(-t)}


def check_composition():
    """U_(k1 * k2) f = int_0^x f(x - s) (k1 * k2)(s) ds, frozen in tests/test_engine.py."""
    xs = frozen("test_engine.py", "COMPOSITION_XS")
    for (a, b, label), row in frozen("test_engine.py", "COMPOSITION").items():
        kernel, f = COMPOSED[(a, b)], COMPOSED_FUNCTIONS[label]
        for x, want in zip(xs, row):
            xm = mp.mpf(x)
            got = mp.quad(lambda s: f(xm - s) * kernel(s), mp.linspace(0, xm, int(x) + 2))
            check(f"U_({a}*{b}) {label} at {x:g}", got, want, 2e-16 * abs(got))


# --- the panel rule: Gauss-Kronrod G20/K41 ----------------------------------

def _frozen_digits(source_file, name):
    """The numeric literals of the tuple assigned to ``name``, as written (all digits)."""
    with open(source_file) as fh:
        text = fh.read()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [mp.mpf(ast.get_source_segment(text, elt)) for elt in node.value.elts]
    raise KeyError(f"{name} not found in {source_file}")


def _legendre(k, x):
    """P_k(x) and P_(k-1)(x) by the three-term recurrence."""
    p0, p1 = mp.mpf(1), x
    for i in range(1, k):
        p0, p1 = p1, ((2 * i + 1) * x * p1 - i * p0) / (i + 1)
    return (p1, p0) if k else (p0, 0)


def check_gauss_kronrod():
    """The frozen G20/K41 nodes and weights of halfsum.quadrature, each to 1e-30.

    The Gauss nodes are the roots of P_n.  The other n + 1 Kronrod nodes
    are the roots of the Stieltjes polynomial E_(n+1), monic with
    int P_n E_(n+1) x^k dx = 0 for k <= n, from the exact moments
    int P_n x^k dx = 2^(n+1) k! ((k+n)/2)! / (((k-n)/2)! (k+n+1)!) for
    k >= n, k - n even, and 0 otherwise.  The Kronrod weights make the rule
    exact on P_0 .. P_(2n); the Gauss weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    source = os.path.join(ROOT, "src", "halfsum", "quadrature.py")
    n, f = 20, mp.factorial
    with mp.workdps(70):
        moment = [0 if k < n or (k - n) % 2 else
                  2 ** (n + 1) * f(k) * f((k + n) // 2) / (f((k - n) // 2) * f(k + n + 1))
                  for k in range(2 * n + 2)]
        # E_(n+1) has the parity of n + 1, so its coefficients c_j below the
        # leading one have j = n - 1, n - 3, ..., and the rows k with
        # k + j = n mod 2, the odd k, hold every condition
        js = range((n + 1) % 2, n + 1, 2)
        ks = range(1, n + 1, 2)
        c = mp.lu_solve(mp.matrix([[moment[k + j] for j in js] for k in ks]),
                        mp.matrix([-moment[k + n + 1] for k in ks]))
        stieltjes = [mp.mpf(0)] * (n + 2)
        stieltjes[n + 1] = mp.mpf(1)
        for j, cj in zip(js, c):
            stieltjes[j] = cj
        # P_n = 2^-n sum_m (-1)^m C(n, m) C(2n - 2m, n) x^(n - 2m)
        legendre = [mp.mpf(0)] * (n + 1)
        for m in range(n // 2 + 1):
            legendre[n - 2 * m] = ((-1) ** m * mp.binomial(n, m)
                                   * mp.binomial(2 * n - 2 * m, n) / 2 ** n)
        gauss, extra = ([mp.re(r) for r in mp.polyroots(p[::-1], maxsteps=200, extraprec=300)]
                        for p in (legendre, stieltjes))
        nodes = sorted(gauss + extra, reverse=True)
        kronrod = mp.lu_solve(mp.matrix([[_legendre(i, x)[0] for x in nodes]
                                         for i in range(len(nodes))]),
                              mp.matrix([2] + [0] * (len(nodes) - 1)))
        # P_n'(x) = n (x P_n(x) - P_(n-1)(x)) / (x^2 - 1), and P_n(x) = 0
        gauss_weights = [2 * (1 - x ** 2) / (n * _legendre(n, x)[1]) ** 2
                         for x in sorted(gauss, reverse=True)]
        for name, want in (("_K41_NODES", nodes[:n + 1]), ("_K41_WEIGHTS", kronrod[:n + 1]),
                           ("_G20_WEIGHTS", gauss_weights[:n // 2])):
            got = _frozen_digits(source, name)
            if len(got) != len(want):
                print(f"[FAIL] {name}: {len(got)} values, want {len(want)}")
                FAILURES.append(name)
                continue
            for i, (g, w) in enumerate(zip(got, want)):
                check(f"{name}[{i}]", g, w, mp.mpf("1e-30"))


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), TESTS]
    check_gauss_kronrod()
    check_wiener_verdicts()
    check_character_references()
    check_noise_bounds()
    check_composition()

    # --- power-mean kernel transform: int_0^inf r e^{-ru} e^{-i x u} du ---
    for r in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2), mp.mpf(5)):
        for x in (mp.mpf("-7.3"), mp.mpf(0), mp.mpf("0.25"), mp.mpf(42)):
            integrand = lambda u: r * mp.e**(-r * u) * mp.e**(-1j * x * u)
            if abs(x) > 1:
                # oscillatory tail: integrate period by period
                got = mp.quadosc(integrand, [0, mp.inf],
                                 period=2 * mp.pi / abs(x))
            else:
                got = mp.quad(integrand, [0, mp.inf])
            check(f"transform r={r} x={x}", got, r / (r + 1j * x), mp.mpf("1e-30"))

    # --- exponential convolution identities -------------------------------
    for x in (mp.mpf("0.5"), mp.mpf(3), mp.mpf(12)):
        got = mp.quad(lambda t: mp.e**(-t) * 2 * mp.e**(-2 * (x - t)), [0, x])
        want = 2 * (mp.e**(-x) - mp.e**(-2 * x))
        check(f"Exp(1)*Exp(2) at {x}", got, want, mp.mpf("1e-30"))
        got = mp.quad(lambda t: mp.e**(-t) * mp.e**(-(x - t)), [0, x])
        check(f"Exp(1)*Exp(1) at {x}", got, x * mp.e**(-x), mp.mpf("1e-30"))

    # --- planted-zero kernel: unit mass and exact transform zero ----------
    for alpha in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(2)):
        c = (1 + alpha**2) / alpha**2
        phi = lambda u: c * (mp.e**(-u) - mp.e**((-1 + 1j * alpha) * u)
                             / (1 + 1j * alpha))
        mass = mp.quad(phi, [0, mp.inf])
        check(f"planted-zero mass alpha={alpha}", mass, 1, mp.mpf("1e-25"))
        at_zero = mp.quad(lambda u: phi(u) * mp.e**(-1j * alpha * u), [0, mp.inf])
        check(f"planted-zero transform alpha={alpha}", at_zero, 0, mp.mpf("1e-25"))

    # --- smoothed sine: closed form of the additive Exp(1) average --------
    for x in (mp.mpf(3), mp.mpf(20)):
        got = mp.quad(lambda t: mp.sin(t) * mp.e**(-(x - t)), [0, x])
        want = (mp.sin(x) - mp.cos(x) + mp.e**(-x)) / 2
        check(f"smoothed sin at {x}", got, want, mp.mpf("1e-30"))

    # --- log-scale mean of a constant: M_1(1)(x) = 1 - 1/x ----------------
    for x in (mp.mpf(2), mp.mpf(100)):
        got = mp.quad(lambda t: (t / x) / t, [1, x])
        check(f"M_1 constant at {x}", got, 1 - 1 / x, mp.mpf("1e-30"))

    # --- dual mean of a constant: int_x^inf x t^{-2} dt = 1 ---------------
    got = mp.quad(lambda t: 7 / t**2, [7, mp.inf])
    check("dual mean of constant", got, 1, mp.mpf("1e-28"))

    # --- dual smoothing of e^{-t}: int_x^inf e^{-t} e^{-(t-x)} dt ---------
    for x in (mp.mpf(1), mp.mpf(5)):
        got = mp.quad(lambda t: mp.e**(-t) * mp.e**(-(t - x)), [x, mp.inf])
        check(f"dual smoothing at {x}", got, mp.e**(-x) / 2, mp.mpf("1e-30"))

    # --- continuity bound for Exp(1): 2 (1 - e^{-delta}) ------------------
    for d in (mp.mpf("0.1"), mp.mpf("0.01"), mp.mpf("0.001")):
        moved = mp.quad(lambda t: abs(mp.e**(-t) - mp.e**(-(t + d))), [0, mp.inf])
        head = mp.quad(lambda t: mp.e**(-t), [0, d])
        check(f"continuity bound delta={d}", moved + head,
              2 * (1 - mp.e**(-d)), mp.mpf("1e-28"))

    # --- triple iterate of Exp(1): u^2/2 e^{-u}, unit mass ----------------
    mass3 = mp.quad(lambda u: u**2 / 2 * mp.e**(-u), [0, mp.inf])
    check("third iterate mass", mass3, 1, mp.mpf("1e-30"))

    # --- triangle 1 - |t - 1| on [0, 2]: transform e^{-i x} sinc^2(x/2) ------
    # the values frozen in tests/test_quadrature.py, as doubles
    for x, want in frozen("test_quadrature.py", "TRIANGLE_TRANSFORM").items():
        xm = mp.mpf(x)
        got = mp.quad(lambda t: (1 - abs(t - 1)) * mp.e**(-1j * xm * t), [0, 1, 2])
        check(f"triangle transform at {x}", got, want, mp.mpf("2e-16"))
        closed = mp.e**(-1j * xm) * (mp.sin(xm / 2) / (xm / 2))**2
        check(f"triangle closed form at {x}", got, closed, mp.mpf("1e-40"))

    # --- exact cell sums of a_n = 1: int_1^N (log t)^j t^s dt -------------
    # the values frozen in tests/test_engine.py, as doubles
    n_top = mp.mpf(frozen("test_engine.py", "CELL_MOMENTS_N"))
    for s, row in frozen("test_engine.py", "CELL_MOMENTS").items():
        sm = mp.mpc(s)
        for j, want in enumerate(row):
            # in v = log t the integrand is v^j e^{(s+1) v}
            got = mp.quad(lambda v: v**j * mp.e**((sm + 1) * v),
                          mp.linspace(0, mp.log(n_top), 20))
            check(f"cell moment j={j} s={s}", got, want, 2e-16 * abs(got))
            a = -(sm + 1)
            closed = mp.gammainc(j + 1, 0, a * mp.log(n_top)) / a**(j + 1)
            check(f"cell moment closed form j={j} s={s}", got, closed, mp.mpf("1e-40"))

    # --- dual M*_2 on a_n = (-1)^n: sum_{n>=x} (-1)^n x^2 (n^-2 - (n+1)^-2) ---
    # the values frozen in tests/test_engine.py, as doubles
    for x, want in frozen("test_engine.py", "DUAL_M2_ALT").items():
        xm = mp.mpf(x)
        got = mp.nsum(lambda n: (-1)**n * xm**2 * (n**-2 - (n + 1)**-2), [xm, mp.inf])
        check(f"dual M*_2 on alt at {x}", got, want, 2e-16 * abs(got))
        # x even: sum_{n>=x} (-1)^n n^-2 = (zeta(2, x/2) - zeta(2, (x+1)/2)) / 4
        closed = xm**2 * (mp.zeta(2, xm / 2) - mp.zeta(2, (xm + 1) / 2)) / 2 - 1
        check(f"dual M*_2 on alt closed form at {x}", got, closed, mp.mpf("1e-40"))

    # --- forward M_1/2 on blocks: x^(-1/2) sum_(n<x) a_n (sqrt(n+1) - sqrt(n)) ---
    # a_n = 1 for n = 1, 2 mod 4: the two cells of each block telescope to
    # sqrt(4k+3) - sqrt(4k+1); the values frozen in tests/test_engine.py
    for x, want in frozen("test_engine.py", "BLOCKS_M_HALF").items():
        xm = mp.mpf(x)
        got = mp.fsum(mp.sqrt(n + 1) - mp.sqrt(n) for n in range(1, x) if (n - 1) % 4 < 2)
        check(f"M_1/2 on blocks at {x}", got / mp.sqrt(xm), want, 2e-16)
        pairs = mp.fsum(mp.sqrt(4 * k + 3) - mp.sqrt(4 * k + 1) for k in range(x // 4))
        check(f"M_1/2 on blocks by blocks at {x}", pairs, got, mp.mpf("1e-40"))

    # --- dual M*_1 on sin: int_x^inf sin(t) x t^-2 dt = sin x - x Ci(x) ----
    # the values frozen in tests/test_engine.py, as doubles
    for x, want in frozen("test_engine.py", "DUAL_M1_SIN").items():
        xm = mp.mpf(x)
        closed = mp.sin(xm) - xm * mp.ci(xm)
        check(f"dual M*_1 on sin at {x}", closed, want, 2e-16 * abs(closed))

    # --- dual M*_1 on cos: int_x^inf cos(t) x t^-2 dt = cos x + x Si(x) - pi x / 2
    for x, want in frozen("test_engine.py", "DUAL_M1_COS").items():
        xm = mp.mpf(x)
        closed = mp.cos(xm) + xm * mp.si(xm) - mp.pi * xm / 2
        check(f"dual M*_1 on cos at {x}", closed, want, 2e-16 * abs(closed))
    xm = mp.mpf(4)
    got = mp.quadosc(lambda t: xm * mp.cos(t) / t ** 2, [xm, mp.inf], omega=1)
    check("dual M*_1 on cos by quadrature at 4", got,
          mp.cos(xm) + xm * mp.si(xm) - mp.pi * xm / 2, mp.mpf("1e-40"))

    # --- dual M*_1 on sin(10 t): sin(10 x) - 10 x Ci(10 x) -----------------
    # by t = s / 10 the integral is the one above at 10 x
    for x, want in frozen("test_engine.py", "DUAL_M1_SIN10").items():
        y = 10 * mp.mpf(x)
        closed = mp.sin(y) - y * mp.ci(y)
        check(f"dual M*_1 on sin(10t) at {x}", closed, want, 2e-16 * abs(closed))

    # --- dual M*_1 on sin(3 t): sin(3 x) - 3 x Ci(3 x) ------------------------
    for x, want in frozen("test_engine.py", "DUAL_M1_SIN3").items():
        y = 3 * mp.mpf(x)
        closed = mp.sin(y) - y * mp.ci(y)
        check(f"dual M*_1 on sin(3t) at {x}", closed, want, 2e-16 * abs(closed))

    # --- S_exp1 on sin(t^2): e^-x int_0^x e^t sin(t^2) dt ----------------------
    # i t^2 + t = i (t - i/2)^2 + i/4, and int e^(i w^2) dw = e^(i pi/4)
    # sqrt(pi)/2 erf(e^(-i pi/4) w); checked against direct quadrature at a
    # small x, then against the values frozen in tests/test_engine.py
    rot = mp.expjpi(mp.mpf(1) / 4)
    fresnel = lambda w: rot * mp.sqrt(mp.pi) / 2 * mp.erf(w / rot)
    sin_sq_mean = lambda x: mp.im(mp.exp(-x + 0.25j) * (fresnel(x - 0.5j) - fresnel(-0.5j)))
    xm = mp.mpf(20)
    got = mp.quad(lambda t: mp.sin(t ** 2) * mp.e ** (t - xm), mp.linspace(0, xm, 161))
    check("S_exp1 on sin(t^2) by quadrature at 20", got, sin_sq_mean(xm), mp.mpf("1e-40"))
    for x, want in frozen("test_engine.py", "SIN_SQ_S_EXP1").items():
        closed = sin_sq_mean(mp.mpf(x))
        check(f"S_exp1 on sin(t^2) at {x}", closed, want, 2e-16 * abs(closed))

    # --- S*_exp1 on sin(t^2): int_x^inf e^(x - t) sin(t^2) dt -------------------
    # i t^2 - t = i (t + i/2)^2 + i/4, and int_w^inf e^(i v^2) dv = e^(i pi/4)
    # sqrt(pi)/2 erfc(e^(-i pi/4) w); checked against oscillatory quadrature
    # between the zeros sqrt(pi n) of sin(t^2) at a small x, then against the
    # values frozen in tests/test_engine.py
    tail = lambda w: rot * mp.sqrt(mp.pi) / 2 * mp.erfc(w / rot)
    sin_sq_dual = lambda x: mp.im(mp.exp(x + 0.25j) * tail(x + 0.5j))
    got = mp.quadosc(lambda t: mp.sin(t ** 2) * mp.e ** (xm - t), [xm, mp.inf],
                     zeros=lambda n: mp.sqrt(mp.pi * (n + 127)))
    check("S*_exp1 on sin(t^2) by quadrature at 20", got, sin_sq_dual(xm), mp.mpf("1e-40"))
    for x, want in frozen("test_engine.py", "SIN_SQ_S_STAR_EXP1").items():
        closed = sin_sq_dual(mp.mpf(x))
        check(f"S*_exp1 on sin(t^2) at {x}", closed, want, 2e-16 * abs(closed))

    if FAILURES:
        print(f"\n{len(FAILURES)} mismatches: {', '.join(FAILURES)}")
        return 1
    print("\nall frozen values reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
