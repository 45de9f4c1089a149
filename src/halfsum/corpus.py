"""Test-function catalog and the cross-method verification matrix.

Every corpus entry is a closed-form evaluator with pre-derived expected
values; nothing is loaded from data files.  The verification matrix encodes
the equivalence statements the engine is supposed to witness — agreement of
the power-mean family, iterate and dual equivalence, regularity on convergent
inputs, the discrete embedding bridge, and the spectral separation produced
by a kernel whose transform vanishes at the test character's frequency.
``run_matrix`` runs its cases one after another in the calling process, and
its report counts the evaluations of the operators it ran.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .config import DEFAULT, Settings
from .engine import (Chirp, MethodDescriptor, Status, TestFunction, TrigPolynomial,
                     Variant, _check_domain, embed_sequence, estimate_limit,
                     k_estimator, method_Mr, method_holder)
from .errors import ConfigError
from .kernels import Flavor, counterexample_additive, exponential


# ---------------------------------------------------------------------------
# function catalog

# noise(t) bounds: the argument's rounding (half an ulp of t) times |f'|, plus
# the evaluation's own rounding, which for a value of modulus <= 1 stays under
# one ulp of 1 (tools/oracle_recheck.py checks them against 50-digit values)
_ULP_1 = np.spacing(1.0)


def _ulp(t):
    return np.spacing(np.abs(t)) + _ULP_1


# oscillation declarations hold no state that changes, so each is built once
_SIN = TrigPolynomial((-0.5j, 0.5j), (1.0, -1.0))
_COS = TrigPolynomial((0.5, 0.5), (1.0, -1.0))
_SIN_SQ = Chirp()


@functools.cache
def _character(alpha: float) -> TrigPolynomial:
    return TrigPolynomial((1.0,), (alpha,))


def _const(c: complex, flavor: Flavor, label: str) -> TestFunction:
    return TestFunction(label=label,
                        evaluator=lambda x, _c=c: np.full(np.shape(x), _c),
                        bound=abs(c), support_flavor=flavor, classical_limit=c,
                        osc_scale="log" if flavor is Flavor.MULTIPLICATIVE else "linear",
                        known_values=(("*", c, "constant"),))


def _char_additive(alpha: float) -> TestFunction:
    return TestFunction(label=f"char_{alpha:g}",
                        evaluator=lambda x, a=alpha: np.exp(1j * a * x),
                        bound=1.0, support_flavor=Flavor.ADDITIVE,
                        osc_scale="linear",
                        noise=lambda t, a=alpha: 2 * a * np.spacing(np.abs(t)) + _ULP_1,
                        known_values=(("K", None, "no generalized limit; pure character"),),
                        oscillation=_character(alpha))


def _char_multiplicative(alpha: float) -> TestFunction:
    # t^(i alpha) is e^(i alpha u) in u = log t, the coordinate osc_scale names
    return TestFunction(label=f"char_{alpha:g}",
                        evaluator=lambda x, a=alpha: np.exp(1j * a * np.log(x)),
                        bound=1.0, support_flavor=Flavor.MULTIPLICATIVE,
                        osc_scale="log",
                        known_values=(("M", None, "mean modulus 1/sqrt(1+alpha^2)"),),
                        oscillation=_character(alpha))


def builtin_corpus() -> list[TestFunction]:
    """The fixed catalog of bounded test functions, both domain flavors."""
    add, mul = Flavor.ADDITIVE, Flavor.MULTIPLICATIVE
    out = [
        _const(1.0, add, "one"), _const(1.0, mul, "one"),
        _const(0.5, add, "half"), _const(0.5, mul, "half"),
        TestFunction("settle", lambda x: 0.3 + np.exp(-x), 1.3, add,
                     classical_limit=0.3,
                     known_values=(("*", 0.3, "classical limit"),)),
        TestFunction("settle", lambda x: 0.3 + np.exp(-x), 1.3, mul,
                     classical_limit=0.3, osc_scale="log",
                     known_values=(("*", 0.3, "classical limit"),)),
        # every oscillating function declares its oscillation: the additive
        # windows of sin, cos and the characters are exact and sin(t^2)'s go by
        # parts (engine._AddWindow), and the multiplicative sin and cos take
        # far moments by parts (engine._ByParts); noise serves their undeclared
        # copies' panels
        TestFunction("sin", lambda x: np.sin(x), 1.0, add, osc_scale="linear",
                     known_values=(("S_exp1", None, "oscillating: (sin x - cos x)/2 + e^-x/2"),),
                     noise=_ulp, oscillation=_SIN),
        TestFunction("sin", lambda x: np.sin(x), 1.0, mul, osc_scale="linear",
                     known_values=(("M", 0.0, "(cos 1 - cos x)/x -> 0"),
                                   ("M_2", 0.0, "(2/x^2)(sin t - t cos t) -> 0"),
                                   ("H_2", 0.0, "second mean of an O(1/x) mean"),
                                   ("M*_1", 0.0, "x * int_x^inf sin(t)/t^2 dt -> 0"),),
                     oscillation=_SIN),
        TestFunction("cos", lambda x: np.cos(x), 1.0, add, osc_scale="linear", noise=_ulp,
                     oscillation=_COS),
        TestFunction("cos", lambda x: np.cos(x), 1.0, mul, osc_scale="linear",
                     known_values=(("M", 0.0, "(sin x - sin 1)/x -> 0"),),
                     oscillation=_COS),
        TestFunction("sin_sq", lambda x: np.sin(x ** 2), 1.0, add, osc_scale="linear",
                     known_values=(("S_exp1", 0.0, "Fresnel-tail decay"),),
                     noise=lambda t: 3 * np.abs(t) * np.spacing(np.abs(t)),
                     oscillation=_SIN_SQ),
    ]
    for alpha in (0.5, 1.0, 2.0):
        out.append(_char_additive(alpha))
        out.append(_char_multiplicative(alpha))
    alt = embed_sequence(lambda n: np.where((n & 1) == 1, -1.0, 1.0), "alt", period=2)
    out.append(alt)
    out.append(replace(embed_sequence(lambda n: ((n - 1) & 3) < 2, "blocks", period=4),
                       known_values=(("M", 0.5, "period-4 blocks 1,1,0,0"),)))
    out.append(replace(embed_sequence([1.0] * 5, "finite_ones"), classical_limit=0.0,
                       known_values=(("M", 0.0, "finitely supported"),)))
    return out


def corpus_map() -> dict:
    """Index the catalog by (label, flavor)."""
    return {(f.label, f.support_flavor): f for f in builtin_corpus()}


# ---------------------------------------------------------------------------
# method catalog

def method_catalog() -> dict[str, MethodDescriptor]:
    """Named methods addressable from cases and the CLI."""
    return {
        # multiplicative flavor
        "M": replace(method_Mr(1.0), label="M"),
        "M_1/2": replace(method_Mr(0.5), label="M_1/2"),
        "M_2": replace(method_Mr(2.0), label="M_2"),
        "H_1": method_holder(1),
        "H_2": method_holder(2),
        "H_3": method_holder(3),
        "M*_1/2": replace(method_Mr(0.5, Variant.DUAL), label="M*_1/2"),
        "M*_1": replace(method_Mr(1.0, Variant.DUAL), label="M*_1"),
        "M*_2": replace(method_Mr(2.0, Variant.DUAL), label="M*_2"),
        "P": replace(k_estimator(Flavor.MULTIPLICATIVE), label="P"),
        # additive flavor
        "S_exp1": MethodDescriptor(exponential(1.0), Variant.FORWARD, "S_exp1"),
        "S_exp2": MethodDescriptor(exponential(2.0), Variant.FORWARD, "S_exp2"),
        "S*_exp1": MethodDescriptor(exponential(1.0), Variant.DUAL, "S*_exp1"),
        "K": replace(k_estimator(Flavor.ADDITIVE), label="K"),
        "S_ce1": MethodDescriptor(counterexample_additive(1.0), Variant.FORWARD, "S_ce1"),
    }


# ---------------------------------------------------------------------------
# verification matrix

@dataclass(frozen=True)
class VerificationCase:
    case_id: str
    function: str                 # corpus label
    flavor: Flavor
    methods: tuple                # method labels
    expected: str                 # "all_agree" | "separation"
    value: Optional[complex] = None
    statuses: tuple = ()          # expected statuses for separation cases
    tolerance: Optional[float] = None
    principle: str = ""

    def __post_init__(self):
        if self.expected not in ("all_agree", "separation"):
            raise ConfigError(f"unknown expectation kind {self.expected!r}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"case {self.case_id!r} needs one or more distinct methods")
        if not set(self.statuses) <= {s.value for s in Status}:
            raise ConfigError(f"case {self.case_id!r}: unknown status in {list(self.statuses)}")
        if self.expected == "separation" and len(self.methods) != 2:
            raise ConfigError("separation cases reference exactly two methods")
        if self.expected == "separation" and len(self.statuses) != 2:
            raise ConfigError("separation cases expect exactly two statuses")
        if self.expected == "all_agree" and self.value is None:
            raise ConfigError("all_agree cases need a value")
        if self.expected == "all_agree" and self.statuses:
            raise ConfigError("all_agree cases expect every method to converge: no statuses")

    def to_dict(self) -> dict:
        d = {"case_id": self.case_id, "function": self.function,
             "flavor": self.flavor.value, "methods": list(self.methods),
             "expected": self.expected, "principle": self.principle}
        if self.value is not None:
            d["value"] = [complex(self.value).real, complex(self.value).imag]
        if self.statuses:
            d["statuses"] = list(self.statuses)
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "VerificationCase":
        if not isinstance(raw, dict):
            raise ConfigError(f"a verification case must be a JSON object, not {raw!r}")
        if not (isinstance(raw.get("case_id"), str) and isinstance(raw.get("function"), str)
                and _strings(raw.get("methods")) and _strings(raw.get("statuses", []))):
            raise ConfigError("a verification case needs 'case_id' and 'function' strings "
                              "and 'methods' and 'statuses' lists of strings")
        value, tolerance = raw.get("value"), raw.get("tolerance")
        if isinstance(value, list) and len(value) == 2 and all(map(_finite_number, value)):
            value = complex(*value)
        elif value is not None and not _finite_number(value):
            raise ConfigError(f"case value must be a number or an [re, im] pair, not {value!r}")
        if tolerance is not None and not (_finite_number(tolerance) and tolerance > 0):
            raise ConfigError(f"case tolerance must be a finite positive number, not {tolerance!r}")
        try:
            return cls(case_id=raw["case_id"], function=raw["function"],
                       flavor=Flavor(raw["flavor"]), methods=tuple(raw["methods"]),
                       expected=raw["expected"], value=value,
                       statuses=tuple(raw.get("statuses", ())),
                       tolerance=tolerance,
                       principle=raw.get("principle", ""))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed verification case: {exc}") from exc


@dataclass
class CaseOutcome:
    case_id: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)  # method -> SummationResult.to_dict()

    def to_dict(self) -> dict:
        return {"case_id": self.case_id, "passed": self.passed,
                "detail": self.detail, "measured": self.measured}


@dataclass
class VerificationReport:
    """Outcomes of cases run in one process; ``evaluations`` is their operators'
    work, the sum of the ``evaluations`` of every ``measured`` record."""
    outcomes: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def evaluations(self) -> int:
        return sum(r["evaluations"] for o in self.outcomes for r in o.measured.values())

    def to_dict(self) -> dict:
        return {"passed": self.passed, "wall_time": self.wall_time,
                "evaluations": self.evaluations,
                "outcomes": [o.to_dict() for o in sorted(self.outcomes,
                                                         key=lambda o: o.case_id)]}


def _finite_number(v) -> bool:
    """A JSON number that converts to a finite float (NaN fails the comparison)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def builtin_cases() -> list[VerificationCase]:
    mul, add = Flavor.MULTIPLICATIVE, Flavor.ADDITIVE
    return [
        VerificationCase("power_mean_sin", "sin", mul, ("M_1/2", "M", "M_2"),
                         "all_agree", 0.0,
                         principle="power-mean family equivalence on an oscillation with decaying mean"),
        VerificationCase("regular_const_mul", "one", mul,
                         ("M_1/2", "M", "M_2", "H_2", "H_3", "M*_1", "P"),
                         "all_agree", 1.0, principle="regularity on constants"),
        VerificationCase("regular_const_add", "one", add,
                         ("S_exp1", "S_exp2", "S*_exp1", "K", "S_ce1"),
                         "all_agree", 1.0, principle="regularity on constants"),
        VerificationCase("regular_settle_add", "settle", add,
                         ("S_exp1", "S_exp2", "K"),
                         "all_agree", 0.3, principle="regularity on a convergent function"),
        VerificationCase("regular_settle_mul", "settle", mul,
                         ("M", "M_2", "H_2", "M*_1", "P"),
                         "all_agree", 0.3, principle="regularity on a convergent function"),
        VerificationCase("iterate_sin", "sin", mul, ("H_1", "H_2", "H_3"),
                         "all_agree", 0.0, principle="iterated means agree with the plain mean"),
        VerificationCase("dual_sin", "sin", mul, ("M", "M*_1"),
                         "all_agree", 0.0, principle="forward and dual variants are equivalent"),
        VerificationCase("separation_char", "char_1", add, ("S_ce1", "K"),
                         "separation", 0.0,
                         statuses=("converged", "oscillating"),
                         principle="a transform zero at the character frequency separates the methods"),
        VerificationCase("bridge_alt", "alt", mul, ("M",), "all_agree", 0.0,
                         principle="embedded alternating sequence averages to zero"),
        VerificationCase("bridge_blocks", "blocks", mul, ("M",), "all_agree", 0.5,
                         principle="embedded periodic blocks average to their density"),
        VerificationCase("bridge_finite", "finite_ones", mul, ("M", "M_2"),
                         "all_agree", 0.0, principle="finitely supported sequences vanish in the mean"),
    ]


def load_cases(path: str) -> list[VerificationCase]:
    """Read a JSON case file (a list of VerificationCase dicts)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read case file {path!r}: {exc}") from exc
    if not isinstance(raw, list):
        raise ConfigError("case file must hold a JSON list")
    return [VerificationCase.from_dict(item) for item in raw]


def _run_case(case: VerificationCase, f: TestFunction, methods: list,
              settings: Settings) -> CaseOutcome:
    tol = case.tolerance if case.tolerance is not None \
        else 5.0 * settings.tol_limit(f.bound)
    results = {label: estimate_limit(m, f, settings) for label, m in zip(case.methods, methods)}
    return _judge(case, results, tol)


def run_matrix(cases: list[VerificationCase], settings: Settings = DEFAULT,
               jobs: int = 1) -> VerificationReport:
    """Evaluate every case in this process and collect a pass/fail report.

    Each case's function and methods are resolved before any case runs, so an
    unknown label or a method of the wrong flavor aborts before any
    evaluation, and so does an empty list of cases.  ``jobs`` is accepted and
    ignored; it stays only for callers that still pass it.
    """
    if not cases:
        raise ConfigError("no verification cases to run")
    functions = corpus_map()
    catalog = method_catalog()
    runs = []
    for case in cases:
        f = functions.get((case.function, case.flavor))
        if f is None:
            raise ConfigError(f"case {case.case_id!r}: unknown function "
                              f"{case.function!r} ({case.flavor.value})")
        for m in case.methods:
            if m not in catalog:
                raise ConfigError(f"case {case.case_id!r}: unknown method {m!r}")
            _check_domain(catalog[m].kernel, f)
        runs.append((case, f, [catalog[m] for m in case.methods]))

    t_start = time.time()
    outcomes = [_run_case(case, f, methods, settings) for case, f, methods in runs]
    return VerificationReport(outcomes, time.time() - t_start)


def _judge(case: VerificationCase, results: dict, tol: float) -> CaseOutcome:
    measured = {label: r.to_dict() for label, r in results.items()}
    if case.expected == "all_agree":
        bad = [lab for lab, r in results.items() if r.status is not Status.CONVERGED]
        if bad:
            return CaseOutcome(case.case_id, False,
                               f"methods did not converge: {bad}", measured)
        target = case.value
        devs = {lab: abs(r.estimate - target) for lab, r in results.items()}
        worst = max(devs.values())
        if worst > tol:
            return CaseOutcome(case.case_id, False,
                               f"max deviation {worst:.3e} exceeds tolerance {tol:.3e}",
                               measured)
        return CaseOutcome(case.case_id, True,
                           f"all converged to {target} (max dev {worst:.3e})", measured)

    lab_a, lab_b = case.methods
    ra, rb = results[lab_a], results[lab_b]
    want_a, want_b = case.statuses
    if ra.status.value != want_a or rb.status.value != want_b:
        return CaseOutcome(case.case_id, False,
                           f"statuses ({ra.status.value}, {rb.status.value}) != "
                           f"expected ({want_a}, {want_b})", measured)
    for lab, r, want in ((lab_a, ra, want_a), (lab_b, rb, want_b)):
        if want == "converged" and case.value is not None and abs(r.estimate - case.value) > tol:
            return CaseOutcome(case.case_id, False,
                               f"{lab} converged to {r.estimate}, not {case.value}", measured)
    osc = rb if want_b == "oscillating" else ra
    if osc.oscillation_amplitude <= 10.0 * tol:
        return CaseOutcome(case.case_id, False,
                           f"oscillation amplitude {osc.oscillation_amplitude:.3e} "
                           f"too small to certify separation", measured)
    return CaseOutcome(case.case_id, True, "separation confirmed", measured)
