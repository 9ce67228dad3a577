"""The shared Gauss-Legendre and Gauss-Laguerre rule sources and the
Bessel node rule.

numpy's `leggauss`, scipy's `roots_legendre` and Newton on mpmath's
P_n are the reference rules; the work-count check guards the Bessel
oracle against building one rule per (order, argument).
"""

import mpmath
import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_legendre

from conetrace import amplitudes, besselj, quadrature
from conetrace.conekernel import _mode_data
from conetrace.quadrature import gauss_laguerre, gauss_legendre

# every node count the package builds: the Schlaefli rungs, the cut
# route's and the model-kernel panels' rules, and the sizes composition
# builds in `verify --suite all`
BUILT = sorted({*range(besselj._GL_RUNG, 1408 + 1, besselj._GL_RUNG),
                amplitudes.CUT_NODES, amplitudes._PANEL_NODES,
                52, 69, 74, 98, 131, 167, 223})


@pytest.mark.parametrize("n", [64, 128, 1024])
def test_matches_leggauss(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(w - w_ref)) <= 1e-12


@pytest.mark.parametrize("n", BUILT)
def test_matches_roots_legendre(n):
    # weights are compared absolutely: scipy's Golub-Welsch rule errs by
    # up to 7e-9 relative at the 1e-5 end weights of its larger rules
    x, w = gauss_legendre(n)
    x_ref, w_ref = roots_legendre(n)
    assert np.max(np.abs(x - x_ref)) <= 5e-16
    assert np.max(np.abs(w - w_ref)) <= 2e-13


def _mp_rule_point(n, x0):
    """The node of P_n nearest x0 and its weight, by Newton in mpmath."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x0))
        for _ in range(2):
            p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            x -= p * (1 - x * x) / (n * (q - x * p))
        p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
        dp = n * (q - x * p) / (1 - x * x)
        return float(x), float(2 / ((1 - x * x) * dp**2))


@pytest.mark.parametrize("n", [16, 131, 1408])
def test_against_multiprecision(n):
    # an end node, a near-end node and a middle node; the end weights
    # are accurate in absolute terms (the angle of an end node is fixed
    # only to rounding of x over sin theta)
    x, w = gauss_legendre(n)
    for i in (0, 2, n // 2):
        x_ref, w_ref = _mp_rule_point(n, x[i])
        assert abs(x[i] - x_ref) <= 2.3e-16, i
        assert abs(w[i] - w_ref) <= 1e-14 * w_ref + 2e-16, i


def test_rules_are_exactly_symmetric():
    # composition folds its eta sum on mirrored nodes, which needs
    # x[::-1] == -x and w[::-1] == w bit for bit, not to rounding
    for n in [*range(1, 301), *BUILT]:
        x, w = gauss_legendre(n)
        assert np.array_equal(x[::-1], -x), n
        assert np.array_equal(w[::-1], w), n
        assert abs(float(np.sum(w)) - 2.0) <= 1e-15, n
        assert np.all(np.diff(x) > 0), n


def test_node_count_must_be_a_positive_integer():
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError):
            gauss_legendre(n)


def test_one_newton_pass_from_the_starts():
    # from n = 52 on, the asymptotic starts put the first Newton
    # correction below the stop, so a rule costs two runs of the
    # recurrence (one Newton pass and the weight pass)
    for n in [n for n in BUILT if n >= 52]:
        theta = quadrature._start(n)
        x = np.cos(theta)
        p, q = quadrature._legendre_pair(n, x)
        step = p * np.sin(theta) / (n * (q - x * p))
        assert np.max(np.abs(step)) < quadrature._NEWTON_STOP, n


def test_rules_are_read_only():
    x, w = gauss_legendre(64)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cached rule is what every caller gets, unchanged
    assert gauss_legendre(64)[0] is x


@pytest.mark.parametrize("n", [besselj._TAIL_NODES, amplitudes._TAIL_NODES])
def test_laguerre_rule_is_laggauss_shared_read_only(n):
    # the Schlaefli tail and the undamped model kernel's tail read the
    # same cached rule, bit for bit numpy's
    x, w = gauss_laguerre(n)
    x_ref, w_ref = laggauss(n)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert gauss_laguerre(n)[1] is w


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
