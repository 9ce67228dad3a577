"""Gauss-Legendre rules on [-1, 1], built once per node count.

Every Legendre quadrature in the package takes its nodes and weights
from `gauss_legendre`.  The rule comes from the Golub-Welsch eigenvalue
problem on the symmetric tridiagonal Jacobi matrix
(`scipy.special.roots_legendre`), which is as accurate as numpy's
`leggauss` and several times faster.  Rules are cached per node count
in a small LRU and handed out read-only, so a caller cannot alter a
rule another caller shares.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_legendre

__all__ = ["gauss_legendre"]


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
