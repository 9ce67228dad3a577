"""Bessel functions J_nu of real nonnegative order, with zeros.

Cone mode sums need J_nu for arbitrary real order nu = 2 pi |k| / rho,
so the function is implemented in-repo rather than taken from a library
that is also used as ground truth.  Two regimes:

* ascending power series for small argument (x <= 4) or argument at
  most half the order (x <= nu / 2), its first 60 terms summed in one
  shot, each as exp of its logarithm to dodge overflow (math.lgamma for
  log Gamma(nu + m + 1), a module constant for log m!).  The
  alternating terms cancel, so the accuracy is absolute, not relative
  to J_nu, and it worsens with x: against mpmath the error on orders up
  to 8 is at most about 4e-15 at x = 4 (4e-12 at x = 10), where the
  integral below errs by at most about 3.4e-15, so the switch sits at
  x = 4.  Where x <= nu / 2 with nu >= 20 the error is below 1e-18;
  there J_nu itself is so small that the relative error can be large
  (1e-5 at nu = 160, x = 79.9, and the wrong sign at nu = 400, x = 199),
* Schlaefli's integral representation elsewhere,
      J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt
              - sin(nu pi)/pi int_0^inf exp(-nu t - x sinh t) dt,
  with Gauss-Legendre on the oscillatory part and scaled Gauss-Laguerre
  on the monotone tail.  The Legendre rule is sized by the integrand's
  top frequency: the phase nu t - x sin t has slope nu - x cos t, at
  most nu + x, and the rule takes 0.8 (nu + x) + 40 nodes rounded up to
  a multiple of 64 (x the largest argument of the batch).  The total
  phase variation nu pi + 2 x, which overstates the work, would ask for
  three to four times as many.  On a scan of 13 orders from 0 to 800,
  each at 7 arguments spread over the domain, 0.8 (nu + x) + 40 is at
  least 1.21 times the smallest node count that puts both J and J'
  within 2e-13 of scipy's jv; the tightest points lie at x = nu / 2.
  Rounding up to a multiple of 64 lets the many (nu, x) of a mode build
  share a handful of rules from the package's cached rule source
  (`quadrature.gauss_legendre`).  The rule is checked on the
  domain nu pi + 2 x <= 3360, where it never takes more than 1408
  nodes; a phase variation beyond it raises BesselFailureError rather
  than integrating where nothing was checked.
  The node count is even and the nodes mirror about pi / 2, where
  sin t is even, so the phase at the mirror pi - t of a node t is
  nu pi - nu t - x sin t.  Expanding both cosines around x sin t folds
  the Legendre sum onto the half of the nodes below pi / 2, whose part
  of J and J' (the Laguerre tail aside) is
      J  = (C a + S b) / pi,    J' = (C (b sin t) - S (a sin t)) / pi,
  with C and S the matrices cos(x sin t) and sin(x sin t) over points
  and half-nodes, and per-node weights
      a = w (cos(nu t) (1 + cos(nu pi)) + sin(nu pi) sin(nu t)),
      b = w (sin(nu t) (1 - cos(nu pi)) + sin(nu pi) cos(nu t)).
  So J and J' together take one cos and one sin per point and
  half-node, half the trig work of evaluating the two phase matrices
  on every node.  cos(nu pi) and sin(nu pi) come from nu reduced mod 2,
  which keeps them accurate at large orders.

Zeros come from linear algebra, not from a search on J.  The three-term
recurrence makes 1/j_{nu,m} the positive eigenvalues of the infinite
symmetric tridiagonal matrix with zero diagonal and off-diagonal
1/(2 sqrt((nu+k)(nu+k+1))), k = 1, 2, ... (Ikebe 1975, Math. Comp. 29;
Ball 2000, Math. Comp. 69).  Truncated to 1.1 (x_max - nu)
+ 4 x_max^(1/3) + 10 rows it gives every zero up to x_max as the matrix
of 3 (x_max - nu) + 300 rows does, to the eigensolve's rounding: on a
scan of nu in [0, 370] and x_max <= 900 with nu pi + 2 x_max <= 3360,
within 5.1e-14 relative.  The cube-root term is the width of the
turning-point zone x ~ nu, where the eigenvectors of the zeros near
x_max reach deepest into the matrix; without it, 1.1 (x_max - nu) + 20
rows miss by 7e-6 at nu = 320, x_max = 343.  The zero diagonal pairs
the eigenvalues as +-1/j, so the square of the matrix splits into two
tridiagonal blocks (odd and even rows) that each carry 1/j^2, and the
eigensolve uses one block of half the size.  One Newton step with the
in-repo J then polishes each zero; a step larger than 1e-8 raises
BesselFailureError.  The eigenvalues know nothing of the quadrature, so
the two check each other, and nothing here calls a library Bessel
function: tests use those as ground truth.

Everything is deterministic and vectorized over the argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import eigvalsh_tridiagonal

from .errors import BesselFailureError
from .quadrature import gauss_legendre

__all__ = ["bessel_j", "bessel_j_prime", "bessel_j_pair", "bessel_j_zeros"]

_SERIES_X_MAX = 4.0
_SERIES_TERMS = 60
# log m! of each term m of the series, one row per term
_LOG_FACTORIAL = np.array([math.lgamma(m + 1.0)
                           for m in range(_SERIES_TERMS)])[:, None]
_LAG = laggauss(80)
_GL_RUNG = 64  # Legendre node counts are multiples of this
_SPAN_TOP = 3360.0  # largest phase variation nu pi + 2 x supported
_POLISH_TOL = 1e-8  # largest Newton step an eigenvalue zero may need


def _nodes(nu: float, x_max: float) -> int:
    """Legendre node count for the Schlaefli integral up to x_max: the
    rung at or above 0.8 (nu + x_max) + 40, nu + x_max being the top
    frequency of its integrand."""
    return _GL_RUNG * math.ceil((0.8 * (nu + x_max) + 40) / _GL_RUNG)


def _check_span(nu: float, x_max: float, what: str) -> None:
    span = nu * math.pi + 2.0 * x_max
    if span > _SPAN_TOP:
        raise BesselFailureError(
            f"{what}: phase variation {span:.6g} exceeds {_SPAN_TOP:g}, "
            f"the domain the Gauss-Legendre rule is checked on")


def _series(nu: float, x: np.ndarray, deriv):
    """The first _SERIES_TERMS terms of the ascending series, one column
    of terms per point, summed in one shot; deriv as for _schlaefli.
    The sum runs down the columns, so it adds the terms in order."""
    m = np.arange(_SERIES_TERMS, dtype=float)[:, None]
    power = 2.0 * m + nu
    pos = x > 0  # x = 0 takes the limits below
    xs = np.where(pos, x, 1.0)
    log_gamma = np.array([math.lgamma(nu + k + 1.0)
                          for k in range(_SERIES_TERMS)])[:, None]
    terms = np.where(m % 2 == 0, 1.0, -1.0) * np.exp(
        power * np.log(xs / 2.0) - (_LOG_FACTORIAL + log_gamma))
    j = d = None
    if deriv is not True:
        j = np.where(pos, terms.sum(axis=0), 1.0 if nu == 0.0 else 0.0)
    if deriv is not False:
        d = np.where(pos, (terms * power / xs).sum(axis=0),
                     0.5 if nu == 1.0 else 0.0)
    if deriv == "both":
        return j, d
    return j if deriv is False else d


def _schlaefli(nu: float, x: np.ndarray, deriv) -> np.ndarray:
    """deriv in {False, True, "both"}; "both" shares the trig matrices.
    The Legendre integral is folded onto the nodes below pi / 2 (see
    the module docstring)."""
    x_max = float(np.max(x, initial=0.0))
    _check_span(nu, x_max, f"J_{nu:g} at {x_max:g}")
    half = _nodes(nu, x_max) // 2
    t, w = gauss_legendre(2 * half)
    theta = 0.5 * np.pi * (t[:half] + 1.0)
    wt = 0.5 * np.pi * w[:half]
    sin_theta = np.sin(theta)
    # fmod is exact, so cos and sin of nu pi stay accurate at large nu
    r = math.fmod(nu, 2.0)
    c, s = math.cos(math.pi * r), math.sin(math.pi * r)
    cos_nt, sin_nt = np.cos(nu * theta), np.sin(nu * theta)
    # the cos and sin weights of the node and its mirror pi - theta
    a = wt * (cos_nt * (1.0 + c) + s * sin_nt)
    b = wt * (sin_nt * (1.0 - c) + s * cos_nt)
    arg = x[:, None] * sin_theta[None, :]
    cos_arg, sin_arg = np.cos(arg), np.sin(arg)
    both = deriv == "both"
    want_d = both or deriv is True
    want_j = both or deriv is False
    main_j = (cos_arg @ a + sin_arg @ b) / np.pi if want_j else None
    main_d = ((cos_arg @ (b * sin_theta) - sin_arg @ (a * sin_theta)) / np.pi
              if want_d else None)
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
    for part, fn in ((small, _series), (~small, _schlaefli)):
        if np.any(part):
            if both:
                out[part], out_d[part] = fn(nu, arr[part], "both")
            else:
                out[part] = fn(nu, arr[part], deriv)
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


def _ikebe_zeros(nu: float, cut: float) -> np.ndarray:
    """Zeros of J_nu below cut, ascending, from the truncated Ikebe matrix
    (accurate up to cut; see the module docstring)."""
    m = math.ceil((1.1 * (cut - nu) + 4.0 * cut ** (1.0 / 3.0) + 10) / 2)  # half the rows
    k = np.arange(1, 2 * m)
    a = 0.5 / np.sqrt((nu + k) * (nu + k + 1.0))  # a[i] = a_{i+1}
    # the odd rows of the square are B B^T, B lower bidiagonal with
    # diagonal a_1, a_3, ... and subdiagonal a_2, a_4, ...
    d, s = a[0::2], a[1::2]
    diag = d * d
    diag[1:] += s * s
    inv_sq = eigvalsh_tridiagonal(diag, d[:-1] * s)  # 1/j^2, ascending
    return 1.0 / np.sqrt(inv_sq[inv_sq > cut ** -2][::-1])


def _polish(nu: float, guesses: np.ndarray):
    """One Newton step on J_nu from each guess: (zeros, J_nu' at the
    guesses).  The slope is off by about a relative |step| / x."""
    j, jp = bessel_j_pair(nu, guesses)
    step = j / jp
    if not np.all(np.abs(step) <= _POLISH_TOL):
        worst = float(np.max(np.abs(step)))
        raise BesselFailureError(
            f"eigenvalue zero of J_{nu:g} needs a Newton step of "
            f"{worst:.3g} > {_POLISH_TOL:g}")
    return guesses - step, jp


@functools.lru_cache(maxsize=1)
def _zeros_and_slopes(nu: float, x_max: float):
    """(zeros of J_nu up to x_max, J_nu' at them), both read-only.  The
    cone mode build asks for the slopes right after the zeros of the
    same order, so one entry is enough."""
    if not (math.isfinite(nu) and nu >= 0):
        raise BesselFailureError(f"order must be finite and nonnegative: {nu}")
    if not math.isfinite(x_max):
        raise BesselFailureError(f"x_max must be finite: {x_max}")
    if x_max <= nu:
        zeros = slopes = np.array([])  # the first zero exceeds the order
    else:
        _check_span(nu, x_max, f"zeros of J_{nu:g} up to {x_max:g}")
        # the margin keeps a zero that the eigenvalue error (about 1e-12)
        # puts just above x_max; the polished values decide
        zeros, slopes = _polish(nu, _ikebe_zeros(nu, x_max + 1e-6))
        keep = zeros <= x_max
        zeros, slopes = zeros[keep], slopes[keep]
    zeros.flags.writeable = slopes.flags.writeable = False
    return zeros, slopes


def bessel_j_zeros(nu: float, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu up to x_max, each to ~1e-10."""
    return _zeros_and_slopes(nu, x_max)[0].copy()
