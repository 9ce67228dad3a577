"""Flat-cone sine-propagator oracle by direct eigenfunction summation.

On the cone of circumference rho truncated at radius R with a Dirichlet
wall, the eigenfunctions separate into angular modes nu_k = 2 pi |k|/rho
with radial parts J_{nu_k}(lambda x), lambda R a Bessel zero.  Summing
sin(t lambda)/lambda over the spectrum with a Gaussian frequency damp
exp(-lambda^2 / (2 Lambda^2)) gives a smoothed sample of the half-wave
kernel that knows nothing about diffraction coefficients: it is the
ground truth the link-spectrum front coefficients are tested against.

The damp is a convolution in time with a Gaussian of width 1/Lambda, so
the front-fitting basis functions are smoothed with the exact same
window before the least squares.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erf

from .besselj import _zeros_and_slopes, bessel_j, bessel_j_zeros
from .errors import WallInfluenceError
from .fitting import guarded_lstsq

__all__ = [
    "flat_cone_sine_kernel_series",
    "extract_front_coefficients",
    "smoothed_heaviside",
    "smoothed_log",
    "conormal_basis",
]

DEFAULT_DAMPING = 40.0
WALL_MARGIN = 0.1


@functools.lru_cache(maxsize=8)
def _mode_data(rho, wall_r, x, xp, damping):
    lam_max = 5.0 * damping
    z_arg = lam_max * max(x, xp)
    nu_max = z_arg + 8.0 * max(z_arg, 1.0) ** (1.0 / 3.0) + 10.0
    k_max = int(np.ceil(nu_max * rho / (2 * np.pi)))
    j_max = lam_max * wall_r  # the largest Bessel zero kept
    modes = []
    for k in range(0, k_max + 1):
        nu = 2 * np.pi * k / rho
        zeros = bessel_j_zeros(nu, j_max)
        if len(zeros) == 0:
            break
        # J' at the zeros from the polish step that found them (cached)
        slopes = _zeros_and_slopes(nu, j_max)[1]
        lams = zeros / wall_r
        norm = 2.0 / (wall_r**2 * slopes**2)
        jx = bessel_j(nu, lams * x)
        radial = norm * jx * (jx if xp == x else bessel_j(nu, lams * xp))
        damp = np.exp(-(lams**2) / (2.0 * damping**2))
        modes.append((k, lams, radial * damp))
    return modes


def flat_cone_sine_kernel_series(
    rho: float,
    wall_r: float,
    t: float,
    x: float,
    y: float,
    xp: float,
    yp: float,
    *,
    damping: float = DEFAULT_DAMPING,
) -> complex:
    """Damped eigen-sum of sin(t sqrt(Delta))/sqrt(Delta) on the
    truncated cone, as a Schwartz kernel against the area measure; the
    sum stops at lambda = 5 damping, where the damp is exp(-12.5)."""
    if x + xp + abs(t) > 2 * wall_r - WALL_MARGIN:
        raise WallInfluenceError(
            "wall too close: finite propagation speed no longer shields it"
        )
    modes = _mode_data(rho, wall_r, x, xp, damping)
    alpha = 2 * np.pi / rho
    total = 0.0
    for k, lams, weights in modes:
        angular = 1.0 if k == 0 else 2.0 * math.cos(k * alpha * (y - yp))
        total += angular * float(np.sum(weights * np.sin(t * lams) / lams))
    return complex(total / rho)


def smoothed_heaviside(tau, damping: float):
    """H(tau) convolved with the Gaussian time window of width 1/damping."""
    return 0.5 * (1.0 + erf(np.asarray(tau, dtype=float) * damping / np.sqrt(2.0)))


def _safe_log(z):
    return math.log(max(abs(z), 1e-300))


def smoothed_log(tau, damping: float):
    """log|tau| convolved with the same Gaussian window."""
    out = _smoothed(_safe_log, np.atleast_1d(np.asarray(tau, dtype=float)),
                    damping)
    return out if np.asarray(tau).ndim else float(out[0])


def _smoothed(fn, tau, damping: float):
    """fn convolved with the Gaussian window, by quadrature at each tau."""
    sig = 1.0 / damping

    def density(s):
        return np.exp(-(s**2) / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))

    out = np.empty_like(tau)
    for i, tv in enumerate(tau):
        # keep the singular point clear of the quadrature endpoints
        lim = max(8 * sig, abs(tv) + 2 * sig)
        pts = [tv] if abs(tv) < lim else []
        out[i] = quad(
            lambda s: fn(tv - s) * density(s),
            -lim,
            lim,
            points=pts,
            limit=200,
        )[0]
    return out


def conormal_basis(tau, damping: float) -> np.ndarray:
    """Smoothed front basis: {1, tau, H, log} plus the subleading
    conormal family {|tau|, tau log, tau^2, tau^2 log, tau|tau|}.

    The subleading columns matter: the front expansion runs in the
    scaled offset t0 (t - t0) / (x x'), which is not small over a
    practical fit window, and without them the step coefficient
    absorbs a large bias.
    """
    cols = [
        np.ones_like(tau),
        tau,
        smoothed_heaviside(tau, damping),
        smoothed_log(tau, damping),
        _smoothed(abs, tau, damping),
        _smoothed(lambda z: z * _safe_log(z), tau, damping),
        tau**2,
        _smoothed(lambda z: z * z * _safe_log(z), tau, damping),
        _smoothed(lambda z: z * abs(z), tau, damping),
    ]
    return np.column_stack(cols)


def extract_front_coefficients(
    t_samples,
    values,
    t0: float,
    damping: float = DEFAULT_DAMPING,
):
    """Fit samples near the front t0 to the smoothed singular basis.

    The smoothing applied to every basis function is the same Gaussian
    window carried by the damped mode sum, so the comparison with exact
    front coefficients is direct rather than asymptotic.  Samples within
    2.5 / damping (2.5 window widths) of the front are left out.
    Returns (c_H, c_log, rms residual).  Fewer samples outside that zone
    than the basis's 9 columns, or a condition number above 1e8, raises
    IllConditionedError.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    values = np.asarray(values)
    keep = np.abs(t_samples - t0) >= 2.5 / damping
    tau = t_samples[keep] - t0
    vals = values[keep]
    coef, rms = guarded_lstsq(conormal_basis(tau, damping), vals, "front fit")
    return coef[2], coef[3], rms
