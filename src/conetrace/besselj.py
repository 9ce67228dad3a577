"""Bessel functions J_nu of real nonnegative order, with zeros.

Cone mode sums need J_nu for arbitrary real order nu = 2 pi |k| / rho,
so the function is implemented in-repo rather than taken from a library
that is also used as ground truth.  Two regimes:

* ascending power series for small argument (or argument well below the
  order), summed with log-gamma terms to dodge overflow,
* Schlaefli's integral representation elsewhere,
      J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt
              - sin(nu pi)/pi int_0^inf exp(-nu t - x sinh t) dt,
  with Gauss-Legendre on the oscillatory part and scaled Gauss-Laguerre
  on the monotone tail.  The Legendre node count tracks the total phase
  variation nu pi + 2 x, rounded up to the next rung of a ladder of
  multiples of 128 nodes, so that the many (nu, x) of a mode build share
  a handful of rules from the package's cached rule source
  (`quadrature.gauss_legendre`).  A phase variation that would need more
  than the ladder's top (3072 nodes, nu pi + 2 x above about 3360) raises
  BesselFailureError rather than integrating with too few nodes.

Zeros are located by a pi/4-spaced scan starting just below the first
zero bound x = nu, then polished by Newton with the analytic derivative.
Everything is deterministic and vectorized over the argument.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.special import gammaln

from .errors import BesselFailureError
from .quadrature import gauss_legendre

__all__ = ["bessel_j", "bessel_j_prime", "bessel_j_pair", "bessel_j_zeros"]

_SERIES_X_MAX = 10.0
_LAG = laggauss(80)
_GL_RUNG = 128  # Legendre node counts are multiples of this
_GL_TOP = 3072  # largest rule the Schlaefli integral will use


def _series(nu: float, x: np.ndarray, deriv: bool) -> np.ndarray:
    out = np.zeros_like(x)
    lx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0) / 2.0), 0.0)
    for m in range(0, 60):
        lg = gammaln(m + 1.0) + gammaln(nu + m + 1.0)
        expo = (2 * m + nu) * lx - lg
        term = (-1.0) ** m * np.exp(expo)
        if deriv:
            term = term * (2 * m + nu) / np.where(x > 0, x, 1.0)
        out += np.where(x > 0, term, 0.0)
        if np.all(np.abs(term) < 1e-18 * (1.0 + np.abs(out))) and m > nu / 2 + 3:
            break
    if not deriv:
        out = np.where(x == 0.0, 1.0 if nu == 0.0 else 0.0, out)
    else:
        if nu == 1.0:
            out = np.where(x == 0.0, 0.5, out)
        else:
            out = np.where(x == 0.0, 0.0, out)
    return out


def _schlaefli(nu: float, x: np.ndarray, deriv) -> np.ndarray:
    """deriv in {False, True, "both"}; "both" shares the phase matrix."""
    span = nu * np.pi + 2.0 * float(np.max(x, initial=0.0))
    n = _GL_RUNG * math.ceil((0.9 * span + 48) / _GL_RUNG)
    if n > _GL_TOP:
        raise BesselFailureError(
            f"phase variation {span:.6g} needs more than {_GL_TOP} "
            f"Gauss-Legendre nodes")
    t, w = gauss_legendre(n)
    theta = 0.5 * np.pi * (t + 1.0)
    wt = 0.5 * np.pi * w
    sin_theta = np.sin(theta)
    phase = nu * theta[None, :] - x[:, None] * sin_theta[None, :]
    both = deriv == "both"
    want_d = both or deriv is True
    want_j = both or deriv is False
    main_j = np.cos(phase) @ wt / np.pi if want_j else None
    main_d = ((np.sin(phase) * sin_theta[None, :]) @ wt / np.pi
              if want_d else None)
    s = math.sin(nu * math.pi)
    if abs(s) > 1e-15:
        u, lw = _LAG
        scale = nu + x[:, None] + 1.0
        tt = u[None, :] / scale
        # integrand times e^{+u}, matching the e^{-u} in the Laguerre
        # weights; the exponent stays bounded by the scale choice
        f = np.exp(-x[:, None] * (np.sinh(tt) - tt)
                   - (nu + x[:, None]) * tt + u[None, :])
        if want_j:
            main_j = main_j - (s / np.pi) * (f @ lw / scale[:, 0])
        if want_d:
            main_d = main_d + (s / np.pi) * ((f * np.sinh(tt)) @ lw
                                             / scale[:, 0])
    if both:
        return main_j, main_d
    return main_j if deriv is False else main_d


def _eval(nu: float, x, deriv):
    if nu < 0:
        raise BesselFailureError("order must be nonnegative")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise BesselFailureError("argument must be nonnegative")
    both = deriv == "both"
    out = np.empty_like(arr)
    out_d = np.empty_like(arr) if both else None
    small = (arr <= _SERIES_X_MAX) | (arr <= 0.5 * nu)
    if np.any(small):
        if both:
            out[small] = _series(nu, arr[small], False)
            out_d[small] = _series(nu, arr[small], True)
        else:
            out[small] = _series(nu, arr[small], deriv)
    if np.any(~small):
        if both:
            out[~small], out_d[~small] = _schlaefli(nu, arr[~small], "both")
        else:
            out[~small] = _schlaefli(nu, arr[~small], deriv)
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    if both:
        if scalar:
            return float(out[0]), float(out_d[0])
        return out, out_d
    return float(out[0]) if scalar else out


def bessel_j_pair(nu: float, x):
    """(J_nu(x), J_nu'(x)) with shared quadrature work."""
    return _eval(nu, x, "both")


def bessel_j(nu: float, x):
    """J_nu(x) for real nu >= 0 and x >= 0 (scalar or array)."""
    return _eval(nu, x, deriv=False)


def bessel_j_prime(nu: float, x):
    """d/dx J_nu(x)."""
    return _eval(nu, x, deriv=True)


def bessel_j_zeros(nu: float, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu up to x_max, each to ~1e-10."""
    if x_max <= nu:
        return np.array([])  # first zero exceeds the order
    lo = max(nu, 1e-3)
    # consecutive zeros are more than pi/2 apart, so this scan is exhaustive
    grid = np.arange(lo, x_max + np.pi / 2, np.pi / 2)
    vals = bessel_j(nu, grid)
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        return np.array([])
    a = grid[idx].copy()
    b = grid[idx + 1].copy()
    sa = sign[idx]
    r = 0.5 * (a + b)
    done = np.zeros(len(r), dtype=bool)
    for _ in range(100):
        f, fp = bessel_j_pair(nu, r)
        f = np.atleast_1d(f)
        fp = np.atleast_1d(fp)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / fp
        newton = r - step
        off = ~np.isfinite(newton) | (newton <= a) | (newton >= b)
        same = np.sign(f) == sa
        a2 = np.where(same, r, a)
        b2 = np.where(same, b, r)
        nxt = np.where(off, 0.5 * (a2 + b2), newton)
        done |= np.isfinite(step) & (np.abs(step) < 5e-12 * np.maximum(1.0, r))
        done |= (b - a) < 1e-12 * np.maximum(1.0, r)
        a = np.where(done, a, a2)
        b = np.where(done, b, b2)
        r = np.where(done, r, nxt)
        if done.all():
            break
    else:
        raise BesselFailureError("zero refinement stalled")
    for _ in range(2):
        f, fp = bessel_j_pair(nu, r)
        r = r - np.atleast_1d(f) / np.atleast_1d(fp)
    return r[r <= x_max]
