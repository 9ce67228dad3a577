"""Spectral model of a cone link and its functional-calculus kernels.

A cone point of a conic surface is described by its link: a circle of some
circumference rho.  The link of an n-dimensional cone carries
nu = sqrt(Delta_link + ((2-n)/2)^2) (Cheeger and Taylor); a circle is
the link of a 2-dimensional cone, where nu = sqrt(Delta_link), so every
kernel here takes n = 2 only.  Everything the wave trace needs from the
link is a kernel of a function of nu:

* the diffraction coefficient, the kernel of exp(-i pi nu),
* the half-Klein-Gordon propagator exp(-i t nu) at general time t,
* the kernels of cos(pi nu) and sin(pi nu), and
* the front coefficients of the single-diffraction sine kernel built
  from them.

Mode sums are distributional and need a summation policy: the closed
form (a pair of cotangents), or the Abel-damped series with damping
r^nu, r < 1, summed exactly.  The closed form is validated against the
extrapolated Abel series in the test suite before anything else relies
on it.

Kernels are singular exactly where the two link points are joined by a
link geodesic (wrapping allowed) of length |t|; closed-form evaluation
inside a guard band around that set raises GeometricSetError.

Every kernel, `singular_set_distance` and `abel_extrapolate` take link
points as floats or as arrays that broadcast together, so a grid of
points on one circle is one call.  Floats give a Python complex, float
or bool; arrays give arrays of the broadcast shape, each entry bit for
bit its point's scalar value.  On arrays the closed-form guard raises
if any point lies inside the band, and its message names the nearest
one; a caller that wants the other points' values leaves those points
out first.
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
#: damping r of an Abel policy that does not name one
DEFAULT_ABEL_R = 1.0 - 1e-4


@dataclass(frozen=True)
class LinkSpectrum:
    """Eigendata of a circle link, fully described by its circumference.

    Eigenvalues are (2 pi k / circumference)^2 with eigenfunctions
    exp(2 pi i k y / circumference) / sqrt(circumference), y being arc
    length along the link.
    """

    circumference: float

    def __post_init__(self) -> None:
        if not 0 < self.circumference < np.inf:
            raise NonPositiveRadiusError("circumference must be finite and positive")

    @staticmethod
    def circle(circumference: float) -> "LinkSpectrum":
        return LinkSpectrum(circumference=float(circumference))


@dataclass(frozen=True)
class SummationPolicy:
    """How to sum a distributional mode series on a circle link.

    kind "closed_form", the cotangent pair, or "abel", the series damped
    by r^nu, 0 < r < 1, summed exactly (it is geometric in the mode
    index).  Both need ambient dimension n = 2.
    """

    kind: str
    r: float = DEFAULT_ABEL_R

    def __post_init__(self) -> None:
        if self.kind not in ("closed_form", "abel"):
            raise PolicyMismatchError(f"unknown policy kind {self.kind!r}")
        if self.kind == "abel" and not (0.0 < self.r < 1.0):
            raise PolicyMismatchError("abel damping r must lie in (0, 1)")

    @staticmethod
    def closed_form() -> "SummationPolicy":
        return SummationPolicy(kind="closed_form")

    @staticmethod
    def abel(r: float = DEFAULT_ABEL_R) -> "SummationPolicy":
        return SummationPolicy(kind="abel", r=r)


@dataclass(frozen=True)
class DiffractionValue:
    """Value of the diffraction coefficient at a pair of link points, or
    arrays of values and flags at arrays of pairs.

    regular is False when the pair sits close to the singular set of the
    kernel; the value is then unreliable and must not be consumed.
    """

    value: complex
    regular: bool


def _wrap(u, rho):
    """Reduce to the fundamental interval (-rho/2, rho/2]."""
    w = np.remainder(u, rho)
    return w - rho * (w > rho / 2)


def _distance(rho, t, u):
    """Arc distance from separation u to the points +-t mod rho."""
    return np.minimum(np.abs(_wrap(u - t, rho)), np.abs(_wrap(u + t, rho)))


def _scalar_or_array(value, cast):
    """A 0-d result as a Python scalar of type cast; an array as it is."""
    return cast(value) if np.ndim(value) == 0 else value


def singular_set_distance(link: LinkSpectrum, t, y, y_prime):
    """Arc distance from (y, y') to the singular set of exp(-i t nu).

    The kernel is singular where some link geodesic (wrapping allowed)
    from y' to y has length |t|, i.e. where y - y' = +-t modulo the
    circumference.  t, y and y' broadcast together; floats give a float.
    """
    d = _distance(link.circumference, t, np.subtract(y, y_prime))
    return _scalar_or_array(d, float)


def _closed_form_half_kg(rho: float, t, u):
    """Closed form of the exp(-i t nu) kernel on a circle link (n = 2).

    Abel summation of the mode series gives a pair of cotangents; the
    derivation is validated against the raw Abel series in the tests.
    """
    a = np.pi * (u - t) / rho
    b = np.pi * (u + t) / rho
    return 0.5j / rho * (1.0 / np.tan(a) - 1.0 / np.tan(b))


def _abel_half_kg_circle(rho: float, t, u, r: float):
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
    return total / rho


def half_kg_kernel(
    link: LinkSpectrum,
    n: int,
    t,
    y,
    y_prime,
    policy: SummationPolicy,
):
    """Kernel of exp(-i t nu) at pairs of link points.

    t, y and y' broadcast together: floats give a complex, arrays an
    array of their broadcast shape.  A circle is the link of a
    2-dimensional cone only, so every policy raises PolicyMismatchError
    for n != 2.  The singular-set guard raises only for the closed form,
    whose value is an actual pole there, and it raises if any pair lies
    inside the band, naming the nearest; the Abel policy returns the
    finite damped values and leaves flagging to the caller.
    """
    if n != 2:
        raise PolicyMismatchError(
            f"a circle link is the link of a 2-dimensional cone, not n = {n!r}")
    rho = link.circumference
    u = np.subtract(y, y_prime)
    if policy.kind == "abel":
        return _scalar_or_array(_abel_half_kg_circle(rho, t, u, policy.r), complex)
    d = _distance(rho, t, u)
    close = d < GEOMETRIC_TOL
    if close.any():
        k = np.argmin(np.where(close, d, np.inf))
        yk, ypk, tk = (np.broadcast_to(v, d.shape).flat[k] for v in (y, y_prime, t))
        raise GeometricSetError(
            f"link pair ({yk:.6g}, {ypk:.6g}) is within {d.flat[k]:.2e} of the "
            f"singular set of exp(-i*{tk:.6g}*nu)")
    return _scalar_or_array(_closed_form_half_kg(rho, t, u), complex)


def diffraction_kernel(
    link: LinkSpectrum,
    n: int,
    y,
    y_prime,
    policy: SummationPolicy,
) -> DiffractionValue:
    """Diffraction coefficient: the kernel of exp(-i pi nu), with the
    regularity flag, at one pair of link points or at arrays of them."""
    value = half_kg_kernel(link, n, np.pi, y, y_prime, policy)
    regular = singular_set_distance(link, np.pi, y, y_prime) > REGULARITY_BAND
    return DiffractionValue(value=value, regular=regular)


def cos_sin_pi_nu_kernels(
    link: LinkSpectrum,
    n: int,
    y,
    y_prime,
    policy: SummationPolicy,
):
    """Kernels of cos(pi nu) and sin(pi nu) under the given policy, at
    one pair of link points or at arrays of them."""
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


def _real_quotient(z, d: float):
    """z / d for a real d, part by part."""
    return z.real / d + 1j * (z.imag / d)


def abel_extrapolate(eval_at_r: Callable[[float], complex]):
    """Extrapolate an Abel-damped sum to r -> 1 (Neville in 1 - r) from
    its values at ABEL_RS: complex values give a complex, arrays an array.

    Each Neville step divides its real and imaginary parts by the real
    denominator, as Python's complex division by a real does, so an
    array gives its points' scalar values bit for bit (numpy's complex
    division multiplies by the reciprocal instead)."""
    eps = [1.0 - r for r in ABEL_RS]
    table = [np.asarray(eval_at_r(r), dtype=complex) for r in ABEL_RS]
    m = len(table)
    for level in range(1, m):
        table = [
            _real_quotient(eps[i] * table[i + 1] - eps[i + level] * table[i],
                           eps[i] - eps[i + level])
            for i in range(m - level)
        ]
    return _scalar_or_array(table[0], complex)

