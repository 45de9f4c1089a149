"""Runtime settings with package-wide defaults.

All numerical knobs live here so the CLI and tests can override them in one
place.  Tolerances are absolute unless noted otherwise.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Settings:
    # quadrature
    tol_quad: float = 1e-8          # absolute, per evaluation point
    mass_epsilon: float = 1e-10     # below this |mass| a kernel cannot be normalized
    x_max_quad: float = 60.0        # additive support window for sampled grids
    max_evals: int = 60_000_000     # integrand-evaluation budget per quadrature call

    # spectrum
    zero_epsilon: float = 1e-9
    freq_window: float = 50.0
    refine_max_iter: int = 60
    grid_pass_limit: int = 3        # Lipschitz-driven step refinements

    # limit estimation
    ladder_x0: float = 4.0
    ladder_ratio: float = 2.0
    ladder_max_steps: int = 28
    plateau_window: int = 5
    tol_limit_scale: float = 1e-4   # tol_limit = scale * (1 + ||f||_inf)

    def tol_limit(self, bound: float) -> float:
        return self.tol_limit_scale * (1.0 + bound)

    def replace(self, **kwargs) -> "Settings":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Settings()


# key: (the value must exceed this bound, the value must be an integer).  A
# ladder that does not grow, or a one-point plateau window, would report
# "converged" at once; a frequency window of no width would certify nothing,
# and a budget, grid or pass count below its bound would fail mid-run.
_BOUNDS = {"tol_quad": (0, False), "zero_epsilon": (0, False),
           "tol_limit_scale": (0, False), "mass_epsilon": (0, False),
           "x_max_quad": (0, False), "max_evals": (0, True),
           "freq_window": (0, False), "refine_max_iter": (0, True),
           "grid_pass_limit": (-1, True),
           "ladder_x0": (0, False), "ladder_ratio": (1, False),
           "ladder_max_steps": (0, True), "plateau_window": (1, True)}


def load_settings(path: str, base: Settings = DEFAULT) -> Settings:
    """Read a JSON config file and overlay it on ``base``.

    Unknown keys are rejected so typos do not silently keep defaults, and so
    are ladder and tolerance values that cannot give an honest status.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(Settings)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (lower, integral) in _BOUNDS.items():
        v, kind = raw.get(key), int if integral else (int, float)
        if key in raw and (isinstance(v, bool) or not isinstance(v, kind) or not v > lower):
            what = f"an integer >= {lower + 1}" if integral else f"a number > {lower}"
            raise ConfigError(f"config key {key!r} must be {what}")
    return base.replace(**raw)
