"""Runtime settings with package-wide defaults.

The numerical values that callers vary live here, so the CLI and tests can
override them in one place; fixed numerical policies are constants beside
their one reader in ``spectrum``, ``kernels`` and ``engine``.  Tolerances are
absolute unless noted otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Settings:
    # quadrature
    tol_quad: float = 1e-8          # absolute, per evaluation point
    max_evals: int = 60_000_000     # integrand-evaluation budget per quadrature call

    # limit estimation
    ladder_ratio: float = 2.0
    ladder_max_steps: int = 28
    tol_limit_scale: float = 1e-4   # tol_limit = scale * (1 + ||f||_inf)

    def __post_init__(self):
        for key, (lower, integral) in _BOUNDS.items():
            v = getattr(self, key)
            kind = numbers.Integral if integral else numbers.Real
            if isinstance(v, bool) or not isinstance(v, kind) or not lower < v < math.inf:
                what = f"an integer >= {lower + 1}" if integral else f"a finite number > {lower}"
                raise ConfigError(f"setting {key!r} must be {what}")

    def tol_limit(self, bound: float) -> float:
        return self.tol_limit_scale * (1.0 + bound)

    def replace(self, **kwargs) -> "Settings":
        return dataclasses.replace(self, **kwargs)


# key: (the value must exceed this bound, the value must be an integer).  A
# ladder that does not grow would report "converged" at once, and a budget
# or step count below its bound would fail mid-run.  No value may be
# infinite or NaN: an infinite tolerance "converges" anything.
_BOUNDS = {"tol_quad": (0, False), "tol_limit_scale": (0, False),
           "max_evals": (0, True), "ladder_ratio": (1, False),
           "ladder_max_steps": (0, True)}

DEFAULT = Settings()


def load_settings(path: str, base: Settings = DEFAULT) -> Settings:
    """Read a JSON config file and ``overlay`` it on ``base``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return overlay(raw, base)


def overlay(raw: dict, base: Settings = DEFAULT) -> Settings:
    """``base`` with the settings named in ``raw`` replaced.

    Unknown keys are rejected so typos do not silently keep defaults; the
    values pass the same bounds check as every ``Settings``.
    """
    known = {f.name for f in dataclasses.fields(Settings)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return base.replace(**raw)
