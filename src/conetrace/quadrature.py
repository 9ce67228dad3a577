"""Gauss-Legendre and Gauss-Laguerre rules, built once per node count.

Every Legendre quadrature in the package takes its nodes and weights
from `gauss_legendre`, and every Laguerre one from `gauss_laguerre`
(numpy's `laggauss`, built on first use).  The Legendre nodes are the
zeros of P_n, found by Newton's method in the angle theta (x = cos
theta) on the three-term recurrence, from asymptotic starts, as in Hale
and Townsend (SIAM J. Sci. Comput. 35, 2013):

* Tricomi's start x ~ (1 - (n - 1) / (8 n^3) - (39 - 28 / sin^2 t) /
  (384 n^4)) cos t, t = pi (4 k - 1) / (4 n + 2), errs most at the
  nodes nearest x = 1 (3.5e-5 in theta at n = 52).  The six nearest
  start instead from Olver's Bessel form theta ~ phi + (phi cot phi -
  1) / (8 phi rho^2), phi = j_{0,k} / rho, rho = n + 1/2, within 1e-9
  from n = 52 on.  So from n = 52 on the first Newton correction is
  already below _NEWTON_STOP.
* Newton stops once its largest correction is below _NEWTON_STOP; the
  next error is about cot(theta) / 2 times that correction squared,
  which leaves x within rounding.  One more run of the recurrence, the
  weight pass, gives w = 2 / ((1 - x^2) P_n'(x)^2) at the final nodes.
* The recurrence runs on q_k = 4^k k!^2 / (2 k)! P_k, the monic
  Legendre polynomials times 2^k: q_{k+1} = 2 x q_k - 4 k^2 / (4 k^2 -
  1) q_{k-1}, three array operations a step.  q_k grows only like
  sqrt(pi k), and the Newton step is a ratio, so the common factor
  between q_n and P_n is never formed: the weights are scaled to sum
  to 2, the integral of 1.
* Only the nodes in (0, 1) are solved for; the rule mirrors them, so it
  is exactly antisymmetric, x[::-1] == -x and w[::-1] == w bit for bit,
  which the folded sums of `besselj` and `composition` need.  An odd
  rule's middle node is 0.

Against mpmath the nodes are within 1.5e-16 and the interior weights
within 5e-15 relative.  The angle of an end node is fixed only to the
rounding of x over sin theta, so an end weight is accurate in absolute
terms, within 2e-16: 1e-11 relative at n = 704, whose end weight is
1.5e-5, where scipy's `roots_legendre` (Golub-Welsch with one Newton
polish) errs by 7e-9.  Rules are cached per node count in a small LRU
and handed out read-only, so a caller cannot alter a rule another
caller shares.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.laguerre import laggauss

__all__ = ["gauss_legendre", "gauss_laguerre"]

_NEWTON_STOP = 1e-8
# the first zeros of J_0 (Abramowitz and Stegun, table 9.5)
_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311,
                      8.653727912911013, 11.79153443901428,
                      14.93091770848779, 18.07106396791092])


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)), both times the same factor 4^(n-1)
    (n - 1)!^2 / (2 n - 2)!."""
    k = np.arange(1.0, n)
    steps = (-4.0 * k * k / (4.0 * k * k - 1.0)).tolist()
    x2 = 2.0 * x
    q0, q1 = np.ones_like(x), x2.copy()
    for c in steps:
        q0 *= c
        q0 += x2 * q1
        q0, q1 = q1, q0
    return q1 * ((2 * n - 1) / (2 * n)), q0


def _start(n: int) -> np.ndarray:
    """Starting angles of the n // 2 nodes in (0, 1), ascending in theta."""
    half = n // 2
    t = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)
                       - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n**4))
                      * np.cos(t))
    rho = n + 0.5
    phi = _J0_ZEROS[:half] / rho
    theta[:phi.size] = phi + (phi / np.tan(phi) - 1.0) / (8.0 * phi * rho**2)
    return theta


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1],
    nodes ascending.  ValueError unless n is a positive integer."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer.")
    n = int(n)
    half = n // 2
    theta = _start(n)
    while True:
        x = np.cos(theta)
        p, q = _legendre_pair(n, x)
        # d/dtheta P_n(cos theta) = -n (P_{n-1} - x P_n) / sin theta
        step = p * np.sin(theta) / (n * (q - x * p))
        theta += step
        if np.max(np.abs(step), initial=0.0) < _NEWTON_STOP:
            break
    if n % 2:
        theta = np.append(theta, 0.5 * np.pi)
    x = np.cos(theta)
    x[half:] = 0.0  # the middle node of an odd rule
    p, q = _legendre_pair(n, x)
    w = (np.sin(theta) / (q - x * p)) ** 2
    w *= 2.0 / (2.0 * math.fsum(w[:half]) + math.fsum(w[half:]))
    nodes = np.concatenate([-x[:half], x[half:], x[:half][::-1]])
    weights = np.concatenate([w, w[:half][::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.cache
def gauss_laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of numpy's n-point Gauss-Laguerre rule for the
    weight e^{-x} on [0, inf), read-only.  Each rule is built on first
    use, not at import: only a Bessel function of non-integer order and
    an undamped model kernel integrate a tail, and most commands
    evaluate neither."""
    nodes, weights = laggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
