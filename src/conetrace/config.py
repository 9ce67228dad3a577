"""Run configuration: JSON loading, schema checks, object construction.

Configs are plain JSON.  A surface is either a named builtin with
keyword parameters or a single-tip cone chart given by a sympy
expression for sqrt(h) in the metric dx^2 + x^2 h(x, y) dy^2 and an
optional chart radius r_max.  Links
are circles given by their circumference.  Every object a run reads
accepts only the keys it reads (`check_keys`): a misspelt key is a
config error, not a silent default.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import surfaces
from .errors import ConfigError
from .links import LinkSpectrum, SummationPolicy

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
    "plane": surfaces.plane,
    "flat_cone": surfaces.flat_cone,
    "sphere_band": surfaces.sphere_band,
    "perturbed_spindle": surfaces.perturbed_spindle,
    "symmetric_spindle": surfaces.symmetric_spindle,
    "teardrop": surfaces.teardrop,
}
_CONE_CHART_KEYS = ("sqrt_h", "r_max")  # the link follows from sqrt_h
_POLICY_KEYS = {"closed_form": ("kind",), "abel": ("kind", "r", "mode_cutoff"),
                "gaussian": ("kind", "sigma", "mode_cutoff")}


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
    if "builtin" in spec:
        check_keys(spec, ("builtin", "params"), "surface")
        name = spec["builtin"]
        if name not in _BUILTINS:
            raise ConfigError(
                f"unknown builtin surface {name!r}; "
                f"choose from {sorted(_BUILTINS)}"
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("surface params must be an object")
        # every builtin parameter is a size or a cone angle, except the
        # perturbation eps, which may take either sign
        params = {key: number_from_config(value, f"surface param {key!r}",
                                          positive=key != "eps")
                  for key, value in params.items()}
        try:
            return _BUILTINS[name](**params)
        # an unknown keyword, or a value the surface refuses (|eps| >= 1)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad params for surface {name!r}: {exc}") from exc
    if "cone_chart" in spec:
        check_keys(spec, ("cone_chart",), "surface")
        sub = spec["cone_chart"]
        if not isinstance(sub, dict):
            raise ConfigError("cone_chart spec must be an object")
        check_keys(sub, _CONE_CHART_KEYS, "cone_chart")
        expr = _require(sub, "sqrt_h", "cone_chart surface")
        r_max = number_from_config(sub.get("r_max", 10.0), "cone_chart r_max",
                                   positive=True)
        try:
            return surfaces.cone_chart_surface(expr, r_max=r_max)
        except Exception as exc:
            raise ConfigError(f"bad cone_chart surface: {exc}") from exc
    raise ConfigError("surface spec needs 'builtin' or 'cone_chart'")


def link_from_config(spec) -> LinkSpectrum:
    if not isinstance(spec, dict) or "circumference" not in spec:
        raise ConfigError("link spec needs a 'circumference' entry")
    check_keys(spec, ("circumference",), "link")
    rho = number_from_config(spec["circumference"], "link circumference",
                             positive=True)
    return LinkSpectrum.circle(rho)


def _mode_cutoff(spec: dict) -> int:
    return integer_from_config(spec.get("mode_cutoff", 100_000),
                               "policy mode_cutoff", minimum=1)


def policy_from_config(spec) -> SummationPolicy:
    if spec is None:
        return SummationPolicy.closed_form()
    if not isinstance(spec, dict):
        raise ConfigError("policy spec must be an object")
    kind = spec.get("kind", "closed_form")
    if not isinstance(kind, str) or kind not in _POLICY_KEYS:
        raise ConfigError(f"unknown policy kind {kind!r}")
    check_keys(spec, _POLICY_KEYS[kind], f"{kind} policy")
    try:
        if kind == "abel":
            return SummationPolicy.abel(
                r=number_from_config(spec.get("r", 1.0 - 1e-4), "abel policy r"),
                mode_cutoff=_mode_cutoff(spec))
        if kind == "gaussian":
            return SummationPolicy.gaussian(
                sigma=number_from_config(_require(spec, "sigma", "gaussian policy"),
                                         "gaussian policy sigma", positive=True),
                mode_cutoff=_mode_cutoff(spec))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad policy spec: {exc}") from exc
    return SummationPolicy.closed_form()


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
