"""The shared Gauss-Legendre rule source and the Bessel node rule.

numpy's `leggauss` is the reference rule; the work-count check guards
the Bessel oracle against building one rule per (order, argument).
"""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from conetrace.conekernel import _mode_data
from conetrace.quadrature import gauss_legendre


@pytest.mark.parametrize("n", [64, 128, 1024])
def test_matches_leggauss(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(w - w_ref)) <= 1e-12


def test_rules_are_exactly_symmetric():
    # composition folds its eta sum on mirrored nodes, which needs
    # x[::-1] == -x and w[::-1] == w bit for bit, not to rounding
    for n in range(1, 301):
        x, w = gauss_legendre(n)
        assert np.array_equal(x[::-1], -x), n
        assert np.array_equal(w[::-1], w), n


def test_rules_are_read_only():
    x, w = gauss_legendre(64)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cached rule is what every caller gets, unchanged
    assert gauss_legendre(64)[0] is x


def test_criterion_3_mode_build_shares_few_rules():
    # criterion 3's cone (rho = 1.5 pi, Lambda = 40) evaluates J_nu at
    # thousands of distinct (nu, x); the node rule's rungs keep the rules
    # few
    gauss_legendre.cache_clear()
    k, _, _ = _mode_data.__wrapped__(1.5 * np.pi, 2.0, 0.5, 0.5, 40.0)
    assert len(np.unique(k)) > 50
    info = gauss_legendre.cache_info()
    assert 0 < info.currsize <= 24
    assert info.hits > 10 * info.misses
