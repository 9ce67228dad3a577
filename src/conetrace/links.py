"""Spectral model of a cone link and its functional-calculus kernels.

A cone point of a conic surface is described by its link: a circle of some
circumference rho.  Everything the wave trace needs from the link is a
kernel of a function of nu = sqrt(Delta_link + ((2-n)/2)^2):

* the diffraction coefficient, the kernel of exp(-i pi nu),
* the half-Klein-Gordon propagator exp(-i t nu) at general time t,
* the kernels of cos(pi nu) and sin(pi nu), and
* the front coefficients of the single-diffraction sine kernel built
  from them.

Mode sums are distributional and need a summation policy: a closed form
(n = 2 only), Abel damping r^nu with r < 1, or Gaussian damping
exp(-nu^2 / (2 sigma^2)).  The closed form is validated against the Abel
series in the test suite before anything else relies on it.

Kernels are singular exactly where the two link points are joined by a
link geodesic (wrapping allowed) of length |t|; evaluation inside a guard
band around that set raises GeometricSetError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GeometricSetError,
    NonPositiveRadiusError,
    PolicyMismatchError,
)

__all__ = [
    "LinkSpectrum",
    "SummationPolicy",
    "DiffractionValue",
    "diffraction_kernel",
    "half_kg_kernel",
    "cos_sin_pi_nu_kernels",
    "sine_front_coefficients",
    "abel_extrapolate",
    "singular_set_distance",
]

#: guard band (in link arc length) around the singular set of each kernel
GEOMETRIC_TOL = 1e-6
#: proximity band inside which values are flagged as unreliable
REGULARITY_BAND = 1e-3
#: damping parameters r at which `abel_extrapolate` samples an Abel sum
ABEL_RS = (1 - 1e-3, 1 - 1e-4, 1 - 1e-5)


@dataclass(frozen=True)
class LinkSpectrum:
    """Eigendata of a circle link, fully described by its circumference.

    Eigenvalues are (2 pi k / circumference)^2 with eigenfunctions
    exp(2 pi i k y / circumference) / sqrt(circumference), y being arc
    length along the link.
    """

    circumference: float

    @staticmethod
    def circle(circumference: float) -> "LinkSpectrum":
        if not 0 < circumference < np.inf:
            raise NonPositiveRadiusError("circumference must be finite and positive")
        return LinkSpectrum(circumference=float(circumference))


@dataclass(frozen=True)
class SummationPolicy:
    """How to sum a distributional mode series.

    kind "closed_form" (n = 2 only), "abel" with damping
    r^nu, or "gaussian" with damping exp(-nu^2/(2 sigma^2)); mode_cutoff
    bounds the number of angular modes actually summed (the Abel series
    of exp(-i t nu) on a circle link in n = 2 is geometric and is summed
    in closed form).
    """

    kind: str
    r: float = 1.0 - 1e-4
    sigma: float = 30.0
    mode_cutoff: int = 100_000

    def __post_init__(self) -> None:
        if self.kind not in ("closed_form", "abel", "gaussian"):
            raise PolicyMismatchError(f"unknown policy kind {self.kind!r}")
        if self.kind == "abel" and not (0.0 < self.r < 1.0):
            raise PolicyMismatchError("abel damping r must lie in (0, 1)")
        if self.kind == "gaussian" and not 0 < self.sigma < np.inf:
            raise PolicyMismatchError("gaussian sigma must be finite and positive")
        if not (isinstance(self.mode_cutoff, (int, np.integer))
                and self.mode_cutoff is not True and self.mode_cutoff >= 1):
            raise PolicyMismatchError("mode_cutoff must be an integer >= 1")

    @staticmethod
    def closed_form() -> "SummationPolicy":
        return SummationPolicy(kind="closed_form")

    @staticmethod
    def abel(r: float = 1.0 - 1e-4, mode_cutoff: int = 100_000) -> "SummationPolicy":
        return SummationPolicy(kind="abel", r=r, mode_cutoff=mode_cutoff)

    @staticmethod
    def gaussian(sigma: float, mode_cutoff: int = 100_000) -> "SummationPolicy":
        return SummationPolicy(kind="gaussian", sigma=sigma, mode_cutoff=mode_cutoff)


@dataclass(frozen=True)
class DiffractionValue:
    """Value of the diffraction coefficient at a pair of link points.

    regular is False when the pair sits close to the singular set of the
    kernel; the value is then unreliable and must not be consumed.
    """

    value: complex
    regular: bool


def _nu_shift(n: int) -> float:
    return abs(2 - n) / 2.0


def _wrap(u: float, rho: float) -> float:
    """Reduce to the fundamental interval (-rho/2, rho/2]."""
    w = np.remainder(u, rho)
    if w > rho / 2:
        w -= rho
    return float(w)


def singular_set_distance(link: LinkSpectrum, t: float, y: float, y_prime: float) -> float:
    """Arc distance from (y, y') to the singular set of exp(-i t nu).

    The kernel is singular where some link geodesic (wrapping allowed)
    from y' to y has length |t|, i.e. where y - y' = +-t modulo the
    circumference.
    """
    rho = link.circumference
    u = y - y_prime
    return min(abs(_wrap(u - t, rho)), abs(_wrap(u + t, rho)))


def _closed_form_half_kg(rho: float, t: float, u: float) -> complex:
    """Closed form of the exp(-i t nu) kernel on a circle link (n = 2).

    Abel summation of the mode series gives a pair of cotangents; the
    derivation is validated against the raw Abel series in the tests.
    """
    a = np.pi * (u - t) / rho
    b = np.pi * (u + t) / rho
    return 0.5j / rho * (1.0 / np.tan(a) - 1.0 / np.tan(b))


def _mode_weights(nus: np.ndarray, policy: SummationPolicy) -> np.ndarray:
    if policy.kind == "abel":
        return policy.r**nus
    if policy.kind == "gaussian":
        return np.exp(-(nus**2) / (2 * policy.sigma**2))
    raise PolicyMismatchError("closed_form policy has no mode weights")


def _mode_sum(link: LinkSpectrum, n: int, t: float, u: float,
              policy: SummationPolicy) -> complex:
    """Damped mode series of exp(-i t nu) on a circle link at offset u:
    (w(nu_0) + 2 sum_k w(nu_k) exp(-i t nu_k) cos(2 pi k u / rho)) / rho,
    modes damped below 1e-18 dropped."""
    rho = link.circumference
    s2 = _nu_shift(n) ** 2
    ks = np.arange(1, policy.mode_cutoff + 1)
    nus = np.sqrt((2 * np.pi * ks / rho) ** 2 + s2)
    damp = _mode_weights(nus, policy)
    keep = damp > 1e-18
    ks, nus, damp = ks[keep], nus[keep], damp[keep]
    nu0 = np.array([np.sqrt(s2)])
    total = np.exp(-1j * t * nu0)[0] * _mode_weights(nu0, policy)[0] / rho
    total += np.sum(np.exp(-1j * t * nus) * damp * 2.0 * np.cos(2 * np.pi * ks * u / rho)) / rho
    return complex(total)


def _abel_half_kg_circle(rho: float, t: float, u: float, r: float) -> complex:
    """Abel-damped exp(-i t nu) mode series on a circle link (n = 2).

    The damped series is a pair of geometric series in the mode index,
    sum_{k >= 1} z^k = z / (1 - z) with |z| = r^(2 pi / rho) < 1, so each
    is summed exactly.  The closed form in `_closed_form_half_kg` is the
    r -> 1 limit of this value; comparing it with `abel_extrapolate` of
    this value checks the cotangent derivation behind the closed form.
    """
    c = 2 * np.pi / rho
    z_plus = r**c * np.exp(1j * c * (u - t))
    z_minus = r**c * np.exp(1j * c * (-u - t))
    total = 1.0 + z_plus / (1.0 - z_plus) + z_minus / (1.0 - z_minus)
    return complex(total / rho)


def half_kg_kernel(
    link: LinkSpectrum,
    n: int,
    t: float,
    y: float,
    y_prime: float,
    policy: SummationPolicy,
) -> complex:
    """Kernel of exp(-i t nu) at a pair of link points.

    The singular-set guard raises only for the closed form, whose value
    is an actual pole there; damped policies return the finite smoothed
    value and leave flagging to the caller.
    """
    if policy.kind == "closed_form":
        d = singular_set_distance(link, t, y, y_prime)
        if d < GEOMETRIC_TOL:
            raise GeometricSetError(f"link pair is within {d:.2e} of the "
                                    f"singular set of exp(-i*{t:.6g}*nu)")
        if n != 2:
            raise PolicyMismatchError("closed form requires ambient dimension 2")
        return _closed_form_half_kg(link.circumference, t, y - y_prime)
    if policy.kind == "abel" and _nu_shift(n) == 0.0:
        return _abel_half_kg_circle(link.circumference, t, y - y_prime, policy.r)
    return _mode_sum(link, n, t, y - y_prime, policy)


def diffraction_kernel(
    link: LinkSpectrum,
    n: int,
    y: float,
    y_prime: float,
    policy: SummationPolicy,
) -> DiffractionValue:
    """Diffraction coefficient: the kernel of exp(-i pi nu)."""
    value = half_kg_kernel(link, n, np.pi, y, y_prime, policy)
    regular = singular_set_distance(link, np.pi, y, y_prime) > REGULARITY_BAND
    return DiffractionValue(value=value, regular=regular)


def cos_sin_pi_nu_kernels(
    link: LinkSpectrum,
    n: int,
    y: float,
    y_prime: float,
    policy: SummationPolicy,
) -> tuple[complex, complex]:
    """Kernels of cos(pi nu) and sin(pi nu) under the given policy."""
    k_minus = half_kg_kernel(link, n, np.pi, y, y_prime, policy)
    k_plus = half_kg_kernel(link, n, -np.pi, y, y_prime, policy)
    return (k_minus + k_plus) / 2.0, (k_plus - k_minus) / 2.0j


def sine_front_coefficients(
    link: LinkSpectrum,
    n: int,
    x: float,
    x_prime: float,
    y: float,
    y_prime: float,
    policy: SummationPolicy,
) -> tuple[complex, complex]:
    """Leading front coefficients of the single-diffraction sine kernel.

    Near the diffracted front t = x + x' the kernel behaves, in
    u = (x + x') - t, as c_H * H(-u) + c_log * log|u| plus smooth terms,
    in the product metric half-density frame.
    """
    if x <= 0 or x_prime <= 0:
        raise NonPositiveRadiusError("radial coordinates must be positive")
    k_cos, k_sin = cos_sin_pi_nu_kernels(link, n, y, y_prime, policy)
    radial = (x * x_prime) ** (-(n - 1) / 2.0)
    c_h = -0.5 * radial * k_sin
    c_log = -radial * k_cos / (2 * np.pi)
    return c_h, c_log


def abel_extrapolate(eval_at_r: Callable[[float], complex]) -> complex:
    """Extrapolate an Abel-damped sum to r -> 1 (Neville in 1 - r) from
    its values at ABEL_RS."""
    eps = [1.0 - r for r in ABEL_RS]
    table = [complex(eval_at_r(r)) for r in ABEL_RS]
    m = len(table)
    for level in range(1, m):
        table = [
            (eps[i] * table[i + 1] - eps[i + level] * table[i])
            / (eps[i] - eps[i + level])
            for i in range(m - level)
        ]
    return table[0]
