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
    iterate_cache_points: int = 4096

    def tol_limit(self, bound: float) -> float:
        return self.tol_limit_scale * (1.0 + bound)

    def replace(self, **kwargs) -> "Settings":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Settings()


def load_settings(path: str, base: Settings = DEFAULT) -> Settings:
    """Read a JSON config file and overlay it on ``base``.

    Unknown keys are rejected so typos do not silently keep defaults.
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
    for key in ("tol_quad", "zero_epsilon", "tol_limit_scale", "mass_epsilon"):
        if key in raw and not (isinstance(raw[key], (int, float)) and raw[key] > 0):
            raise ConfigError(f"config key {key!r} must be a positive number")
    return base.replace(**raw)
