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
window before the least squares.  Every basis column is smoothed in
closed form: |tau| and tau|tau| through erf and the Gaussian, and the
log family log|tau|, tau log|tau| and tau^2 log|tau| through the
noncentral chi-square law of tau^2, a Poisson mixture of digamma values
at half-integers (`conormal_basis`).  No quadrature is left in the fit,
and no library special function: erf is `math.erf` elementwise, and
psi comes from its recurrence and asymptotic series (`_digamma`).

A damping that is not finite and positive is refused with ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .besselj import _zero_batch, bessel_j, bessel_j_zeros
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


def _check_damping(damping) -> None:
    if not (math.isfinite(damping) and damping > 0):
        raise ValueError(f"damping must be finite and positive: {damping}")


@functools.lru_cache(maxsize=8)
def _mode_data(rho, wall_r, x, xp, damping):
    """The damped modes as three flat read-only arrays (k, lambda, w),
    one entry per angular mode k and radial zero, ascending in k and
    then in lambda; w is the damped radial factor over lambda, so the
    kernel is the sum of angular(k) w sin(t lambda) / rho."""
    lam_max = 5.0 * damping
    z_arg = lam_max * max(x, xp)
    nu_max = z_arg + 8.0 * max(z_arg, 1.0) ** (1.0 / 3.0) + 10.0
    k_max = int(np.ceil(nu_max * rho / (2 * np.pi)))
    j_max = lam_max * wall_r  # the largest Bessel zero kept
    nus = [2 * np.pi * k / rho for k in range(k_max + 1)]
    # the zeros of every order in one batch, and J' at them from the
    # Halley steps that placed them
    batch = _zero_batch(nus, j_max)
    ks, lams, weights = [], [], []
    for k, nu in enumerate(nus):
        zeros = bessel_j_zeros(nu, j_max)
        if len(zeros) == 0:
            break
        slopes = batch[k][1]
        lam = zeros / wall_r
        norm = 2.0 / (wall_r**2 * slopes**2)
        jx = bessel_j(nu, lam * x)
        radial = norm * jx * (jx if xp == x else bessel_j(nu, lam * xp))
        damp = np.exp(-(lam**2) / (2.0 * damping**2))
        ks.append(np.full(len(lam), k))
        lams.append(lam)
        weights.append(radial * damp / lam)
    # no modes at all below lambda = 5 damping leaves the lists empty
    out = tuple(np.concatenate(a) if a else np.empty(0)
                for a in (ks, lams, weights))
    for a in out:
        a.flags.writeable = False
    return out


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
    _check_damping(damping)
    if not all(math.isfinite(v) for v in (t, x, y, xp, yp)):
        raise ValueError("t, x, y, xp and yp must be finite")
    if x + xp + abs(t) > 2 * wall_r - WALL_MARGIN:
        raise WallInfluenceError(
            "wall too close: finite propagation speed no longer shields it"
        )
    k, lam, weight = _mode_data(rho, wall_r, x, xp, damping)
    angular = np.where(k == 0, 1.0, 2.0 * np.cos(k * (2 * np.pi / rho)
                                                 * (y - yp)))
    return complex((angular * weight) @ np.sin(t * lam) / rho)


def _erf(z):
    """erf of a float or an array of any shape, by math.erf."""
    z = np.asarray(z, dtype=float)
    return np.array([math.erf(v) for v in z.ravel().tolist()]).reshape(z.shape)


# psi runs on its asymptotic series from this argument on, and below it
# takes this many steps of its recurrence
_PSI_SHIFT = 10
# B_2k / (2 k), k = 1..8: the coefficients of y^(-2 k) in that series;
# the first term left out is below 4e-18 at y = 10
_PSI_SERIES = (1.0 / 12, -1.0 / 120, 1.0 / 252, -1.0 / 240, 1.0 / 132,
               -691.0 / 32760, 1.0 / 12, -3617.0 / 8160)


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for an array x >= 1/2: psi(y) ~ log y - 1 / (2 y) - sum_k
    B_2k / (2 k y^2k) for y >= _PSI_SHIFT, and below it the recurrence
    psi(x) = psi(x + _PSI_SHIFT) - sum_{i < _PSI_SHIFT} 1 / (x + i)."""
    small = x < _PSI_SHIFT
    y = np.where(small, x + _PSI_SHIFT, x)
    inv_sq = 1.0 / (y * y)
    tail = 0.0
    for c in reversed(_PSI_SERIES):
        tail = (tail + c) * inv_sq
    out = np.log(y) - 0.5 / y - tail
    xs = x[small]
    out[small] -= sum(1.0 / (xs + i) for i in range(_PSI_SHIFT))
    return out


def smoothed_heaviside(tau, damping: float):
    """H(tau) convolved with the Gaussian time window of width 1/damping."""
    _check_damping(damping)
    return 0.5 * (1.0 + _erf(np.asarray(tau, dtype=float) * damping / np.sqrt(2.0)))


_POISSON_GRID = 1 << 18


def _log_moments(tau, damping: float):
    """(E log|X|, E[X log|X|], E[X^2 log|X|]) for X ~ N(tau, sig^2),
    sig = 1 / damping, in closed form.

    X^2 / sig^2 is noncentral chi-square with one degree of freedom, a
    Poisson(lam) mixture of chi-square with 2 j + 1 degrees, lam =
    tau^2 / (2 sig^2).  So E log|X| = log sig + (log 2 + E psi(J + 1/2))
    / 2 with J ~ Poisson(lam), E[X log|X|] = tau (E log|X| + E[1 / (2 J
    + 1)]), and Stein's identity E[X g(X)] = tau E g + sig^2 E g' with
    g = x log|x| gives the third.

    The Poisson weights are built in log space, as a running sum of
    log(lam / i) (the ratio of successive weights) across the window
    lam -+ (10 sqrt(lam) + 20), outside which they fall below e^-50,
    and normalised over it; log-gamma at large arguments would carry a
    rounding error of about 1e-7 at lam = 5e7.  Rows are summed in
    blocks of at most _POISSON_GRID terms, so memory stays bounded
    however far tau lies from the front.
    """
    tau = np.asarray(tau, dtype=float)
    sig = 1.0 / damping
    lam = (tau.ravel() * damping) ** 2 / 2.0
    reach = np.ceil(10.0 * np.sqrt(lam) + 20.0)
    lo = np.maximum(np.floor(lam) - reach, 0.0)
    width = int(2 * reach.max(initial=0.0)) + 1
    e_psi = np.empty_like(lam)
    e_inv = np.empty_like(lam)
    rows = max(1, _POISSON_GRID // width)
    for start in range(0, lam.size, rows):
        part = slice(start, start + rows)
        j = lo[part, None] + np.arange(width)
        lp = lam[part, None]
        # log(lam / i) for the step from i - 1 to i; -inf at lam = 0
        with np.errstate(divide="ignore"):
            step = np.log1p((lp - j[:, 1:]) / j[:, 1:])
        logw = np.concatenate([np.zeros_like(lp), np.cumsum(step, axis=1)],
                              axis=1)
        wts = np.exp(logw - logw.max(axis=1, keepdims=True))
        wts /= wts.sum(axis=1, keepdims=True)
        e_psi[part] = np.sum(wts * _digamma(j + 0.5), axis=1)
        e_inv[part] = np.sum(wts / (j + 0.5), axis=1)
    e_log = (math.log(2.0) - 2.0 * math.log(damping)
             + e_psi.reshape(tau.shape)) / 2.0
    e_xlog = tau * (e_log + e_inv.reshape(tau.shape) / 2.0)
    e_x2log = tau * e_xlog + sig**2 * (e_log + 1.0)
    return e_log, e_xlog, e_x2log


def smoothed_log(tau, damping: float):
    """log|tau| convolved with the same Gaussian window, in closed form
    (see `conormal_basis`)."""
    _check_damping(damping)
    out = _log_moments(tau, damping)[0]
    return out if np.asarray(tau).ndim else float(out)


def conormal_basis(tau, damping: float) -> np.ndarray:
    """Smoothed front basis: {1, tau, H, log} plus the subleading
    conormal family {|tau|, tau log, tau^2, tau^2 log, tau|tau|}, one row
    per sample: shape (1, 9) for a float tau, (n, 9) for a 1-D tau of n
    samples; a tau of more dimensions raises ValueError.

    The subleading columns matter: the front expansion runs in the
    scaled offset t0 (t - t0) / (x x'), which is not small over a
    practical fit window, and without them the step coefficient
    absorbs a large bias.

    Every column is smoothed in closed form.  For X ~ N(tau, sig^2),
    sig = 1 / damping: E|X| = g + tau erf and E[X|X|] = (tau^2 + sig^2)
    erf + tau g, with g = sig sqrt(2/pi) exp(-tau^2 / (2 sig^2)) and erf
    at tau / (sig sqrt 2); the log family E log|X|, E[X log|X|] and
    E[X^2 log|X|] are Poisson mixtures of digamma values and of 1 / (j
    + 1/2), with lam = tau^2 / (2 sig^2), summed over O(sqrt(lam)) terms
    around lam (see `_log_moments`).
    """
    _check_damping(damping)
    if np.ndim(tau) > 1:
        raise ValueError(f"tau must be a float or 1-D, got shape {np.shape(tau)}")
    sig = 1.0 / damping
    g = sig * np.sqrt(2.0 / np.pi) * np.exp(-(tau**2) / (2 * sig**2))
    e = _erf(tau / (sig * np.sqrt(2.0)))
    e_log, e_xlog, e_x2log = _log_moments(tau, damping)
    cols = [
        np.ones_like(tau),
        tau,
        smoothed_heaviside(tau, damping),
        e_log,
        g + tau * e,
        e_xlog,
        tau**2,
        e_x2log,
        (tau**2 + sig**2) * e + tau * g,
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
    IllConditionedError; a damping that is not finite and positive, a
    sample time that is not finite, or a value outside the zone that is
    not finite raises ValueError.
    """
    _check_damping(damping)
    t_samples = np.asarray(t_samples, dtype=float)
    if not np.all(np.isfinite(t_samples)):
        raise ValueError("front fit sample times must be finite")
    values = np.asarray(values)
    keep = np.abs(t_samples - t0) >= 2.5 / damping
    tau = t_samples[keep] - t0
    vals = values[keep]
    coef, rms = guarded_lstsq(conormal_basis(tau, damping), vals, "front fit")
    return coef[2], coef[3], rms
