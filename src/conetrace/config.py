"""Run configuration: JSON loading, schema checks, object construction.

Configs are plain JSON.  A surface is a named builtin with keyword
parameters: the perturbed spindle or the teardrop, the two surfaces
with closed geodesics through their tips, which are all that
`find-geodesics` and `predict-trace` can succeed on.  Links are circles
given by their circumference.  Every object a run reads accepts only
the keys it reads (`check_keys`): a misspelt key is a config error, not
a silent default.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import surfaces
from .errors import ConfigError, PolicyMismatchError
from .links import DEFAULT_ABEL_R, LinkSpectrum, SummationPolicy

__all__ = [
    "load_config",
    "surface_from_config",
    "link_from_config",
    "policy_from_config",
    "grid_from_config",
    "number_from_config",
    "integer_from_config",
    "check_keys",
]

_BUILTINS = {
    "perturbed_spindle": surfaces.perturbed_spindle,
    "teardrop": surfaces.teardrop,
}
_POLICY_KEYS = {"closed_form": ("kind",), "abel": ("kind", "r")}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def check_keys(spec: dict, allowed, where: str) -> None:
    """ConfigError naming the first key of `spec` not in `allowed`."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; "
                          f"choose from {list(allowed)}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def number_from_config(value, what: str, *, positive: bool = False) -> float:
    """A finite JSON number as a float.  Booleans are refused although
    Python counts them as integers, so `true` never runs as 1."""
    kind = "a positive number" if positive else "a number"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and not value > 0)):
        raise ConfigError(f"{what} must be {kind}, not {value!r}")
    return float(value)


def integer_from_config(value, what: str, *, minimum: int) -> int:
    """A JSON integer of at least `minimum`.  Booleans and floats are
    refused, so neither `true` nor `2.0` runs as an integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, not {value!r}")
    return value


def surface_from_config(spec) -> surfaces.Surface:
    if not isinstance(spec, dict):
        raise ConfigError("surface spec must be an object")
    check_keys(spec, ("builtin", "params"), "surface")
    name = _require(spec, "builtin", "surface")
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError(f"unknown builtin surface {name!r}; "
                          f"choose from {sorted(_BUILTINS)}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("surface params must be an object")
    # every builtin parameter is a cone angle, except the perturbation
    # eps, which may take either sign
    params = {key: number_from_config(value, f"surface param {key!r}",
                                      positive=key != "eps")
              for key, value in params.items()}
    try:
        return _BUILTINS[name](**params)
    # an unknown keyword, or a value the surface refuses (|eps| >= 1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for surface {name!r}: {exc}") from exc


def link_from_config(spec) -> LinkSpectrum:
    if not isinstance(spec, dict) or "circumference" not in spec:
        raise ConfigError("link spec needs a 'circumference' entry")
    check_keys(spec, ("circumference",), "link")
    rho = number_from_config(spec["circumference"], "link circumference",
                             positive=True)
    return LinkSpectrum.circle(rho)


def policy_from_config(spec) -> SummationPolicy:
    if spec is None:
        return SummationPolicy.closed_form()
    if not isinstance(spec, dict):
        raise ConfigError("policy spec must be an object")
    kind = spec.get("kind", "closed_form")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ConfigError(f"unknown policy kind {kind!r}; "
                          f"choose from {list(_POLICY_KEYS)}")
    check_keys(spec, _POLICY_KEYS[kind], f"{kind} policy")
    if kind == "closed_form":
        return SummationPolicy.closed_form()
    r = number_from_config(spec.get("r", DEFAULT_ABEL_R), "abel policy r")
    try:
        return SummationPolicy.abel(r)
    except PolicyMismatchError as exc:
        raise ConfigError(f"bad policy spec: {exc}") from exc


def grid_from_config(spec, where: str = "grid"):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} spec must be an object")
    check_keys(spec, ("min", "max", "count"), where)
    lo = number_from_config(_require(spec, "min", where), f"{where} min")
    hi = number_from_config(_require(spec, "max", where), f"{where} max")
    count = integer_from_config(_require(spec, "count", where),
                                f"{where} count", minimum=2)
    if not hi > lo:
        raise ConfigError(f"{where} needs max > min")
    return np.linspace(lo, hi, count)
