"""Bessel J of real order: values, derivatives, zeros.

Reference values come from mpmath's multiprecision series at test time,
and zeros are cross-checked against scipy (`jn_zeros`, and `jv` with
bisection and Newton); all are independent of the quadrature, the
asymptotic starts and the Sturm counts under test.  The Ikebe matrix's
row rule and its counts are checked against scipy's eigensolve of a
larger truncation of the same matrix, unsquared."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from scipy.linalg import eigvalsh_tridiagonal

from conetrace import besselj, conekernel
from conetrace.besselj import (
    bessel_j,
    bessel_j_pair,
    bessel_j_zeros,
)
from conetrace.errors import BesselFailureError

mpmath.mp.dps = 30


def reference_zeros(nu, x_max):
    """Zeros of J_nu up to x_max from scipy's jv: sign changes on a unit
    grid (consecutive zeros are more than 3 apart, and J_nu > 0 on
    (0, nu]), five bisections, then Newton until the step is negligible."""
    grid = np.arange(nu, x_max + 2.0, 1.0)
    vals = sp.jv(nu, grid)
    i = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    a, b, fa = grid[i], grid[i + 1], vals[i]
    for _ in range(5):
        m = 0.5 * (a + b)
        fm = sp.jv(nu, m)
        left = np.sign(fm) == np.sign(fa)
        a, fa, b = np.where(left, m, a), np.where(left, fm, fa), np.where(left, b, m)
    z = 0.5 * (a + b)
    for _ in range(4):
        step = sp.jv(nu, z) / sp.jvp(nu, z)
        z = z - step
    assert np.all(np.abs(step) <= 1e-11) and np.all((a <= z) & (z <= b))
    return z[z <= x_max]


def larger_matrix_zeros(nu, cut):
    """The zeros of J_nu up to cut from scipy's eigensolve of the
    unsquared Ikebe matrix of 3 (cut - nu) + 300 rows."""
    n = math.ceil(3.0 * (cut - nu) + 300.0)
    k = np.arange(1, n)
    inv = eigvalsh_tridiagonal(
        np.zeros(n), 0.5 / np.sqrt((nu + k) * (nu + k + 1.0)),
        select="v", select_range=(1.0 / cut, np.inf))
    return np.sort(1.0 / inv)


# (nu, cut) near the turning point cut ~ nu and far past it
ROW_RULE_PAIRS = [(nu, cut) for nu in (0.0, 2.5, 55.5, 160.0, 277.0, 320.0, 370.0)
                  for cut in (nu + 3.0, nu + 23.0, 1.5 * nu + 50.0)
                  if nu * np.pi + 2.0 * cut <= 3360.0] + [(0.0, 900.0),
                                                          (100.0, 600.0)]


def assert_zeros_match(got, ref):
    assert len(got) == len(ref)
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-10


# 20 (order, argument) pairs spanning series and integral regimes,
# including order >> argument and argument >> order
REFERENCE_POINTS = [
    (0.0, 0.5), (0.0, 12.0), (0.5, 1.0), (0.5, 30.0),
    (1.0, 3.0), (4.0 / 3.0, 0.7), (4.0 / 3.0, 25.0), (2.5, 2.5),
    (3.0, 80.0), (5.0, 0.1), (7.5, 7.5), (10.0, 4.0),
    (10.0, 40.0), (20.5, 22.0), (33.0, 100.0), (50.0, 45.0),
    (66.7, 70.0), (80.0, 200.0), (120.0, 130.0), (146.0, 390.0),
]


class TestValues:
    @pytest.mark.parametrize("nu,x", REFERENCE_POINTS)
    def test_against_multiprecision(self, nu, x):
        ref = float(mpmath.besselj(nu, x))
        got = bessel_j(nu, x)
        assert got == pytest.approx(ref, abs=1e-10, rel=1e-9)

    @pytest.mark.parametrize("nu,x", REFERENCE_POINTS[::3])
    def test_derivative_against_multiprecision(self, nu, x):
        ref = float(mpmath.besselj(nu, x, derivative=1))
        assert bessel_j_pair(nu, x)[1] == pytest.approx(ref, abs=1e-10, rel=1e-9)

    def test_pair_matches_separate_calls(self):
        # bessel_j is the pair's first component, bit for bit, for an
        # array and for each float, which stays a Python float
        for nu, xs in [
            (2.5, [0.0, 0.3, 4.0]),  # series, x <= 4
            (40.0, [4.5, 12.0, 20.0]),  # series, x <= nu / 2
            (3.0, [4.5, 37.0, 211.3]),  # Schlaefli, no Laguerre tail
            (4.0 / 3.0, [4.5, 37.0, 211.3]),  # Schlaefli with the tail
        ]:
            xs = np.array(xs)
            assert np.array_equal(bessel_j(nu, xs), bessel_j_pair(nu, xs)[0])
            for x in xs:
                j = bessel_j(nu, float(x))
                assert type(j) is float and j == bessel_j_pair(nu, float(x))[0]

    def test_special_values_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(2.0, 0.0) == 0.0
        assert bessel_j_pair(1.0, 0.0)[1] == 0.5

    def test_vectorized_matches_scalar(self):
        # each point takes its own node count, so a batch gives each
        # point its scalar value bit for bit
        xs = np.array([0.3, 5.0, 17.0, 120.0])
        vec = bessel_j(2.5, xs)
        assert np.array_equal(vec, [bessel_j(2.5, float(x)) for x in xs])

    def test_domain_guards(self):
        with pytest.raises(BesselFailureError):
            bessel_j(-0.5, 1.0)
        with pytest.raises(BesselFailureError):
            bessel_j(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("array", [False, True], ids=["float", "array"])
    def test_non_finite_input_is_refused(self, bad, array):
        # a non-finite order or argument, on either side of the series
        # switch, is refused before any arithmetic
        wrap = (lambda v: np.array([0.5, v])) if array else (lambda v: v)
        for fn in (bessel_j, bessel_j_pair):
            for x in (1.0, 10.0):
                with pytest.raises(BesselFailureError, match="order"):
                    fn(bad, wrap(x))
            with pytest.raises(BesselFailureError, match="argument"):
                fn(1.0, wrap(bad))


def _mixed_rung_tops():
    """(nu, x, rung) for six orders, each point just below a switch of
    its own Legendre rung (see `_rung_tops`): a low, a middle and the top
    rung of each order's Schlaefli regime."""
    cases = []
    for nu in (0.0, 2.0, 0.5, 4.0 / 3.0, 40.5, 118.0):
        tops = _rung_tops((nu,))
        cases += [tops[0], tops[len(tops) // 2], tops[-1]]
    return cases


class TestArrayOrders:
    """An array of orders broadcasts with the arguments: one call
    evaluates a batch of mixed orders, each point on its own rung."""

    def test_mixed_call_against_multiprecision(self):
        # the points of six orders in one call, shuffled, each just below
        # a switch of its own rung, where its rule has the fewest nodes
        cases = _mixed_rung_tops()
        perm = np.random.default_rng(3).permutation(len(cases))
        nus = np.array([cases[i][0] for i in perm])
        xs = np.array([cases[i][1] for i in perm])
        assert np.array_equal(besselj._nodes(nus, xs),
                              [cases[i][2] for i in perm])
        j, jp = bessel_j_pair(nus, xs)
        for nu, x, got, got_d in zip(nus, xs, j, jp):
            assert abs(got - float(mpmath.besselj(nu, x))) <= 1e-12, (nu, x)
            assert abs(got_d - float(mpmath.besselj(nu, x, derivative=1))) \
                <= 1e-12, (nu, x)

    def test_a_point_does_not_depend_on_the_call(self):
        # 1500 points of 40 orders over both regimes, integer and not,
        # so each rung takes several chunks: every point's J and J' are
        # its scalar call's, bit for bit
        rng = np.random.default_rng(5)
        orders = np.concatenate([np.arange(20.0), rng.uniform(0.0, 80.0, 20)])
        nus = rng.choice(orders, 1500)
        xs = rng.uniform(0.0, 300.0, 1500)
        xs[:100] = rng.uniform(0.0, 4.0, 100)  # the series
        j, jp = bessel_j_pair(nus, xs)
        assert np.array_equal(j, bessel_j(nus, xs))
        single = np.array([bessel_j_pair(nu, x) for nu, x in zip(nus, xs)])
        assert np.array_equal(j, single[:, 0])
        assert np.array_equal(jp, single[:, 1])

    def test_orders_broadcast_with_arguments(self):
        nus = np.array([[0.0], [4.0 / 3.0], [40.5]])
        xs = np.array([0.0, 3.0, 25.0, 90.0])
        j, jp = bessel_j_pair(nus, xs)
        assert j.shape == jp.shape == (3, 4)
        for r, nu in enumerate(nus[:, 0]):
            assert np.array_equal(j[r], bessel_j(float(nu), xs))
        assert bessel_j(nus[:, 0], 5.0).shape == (3,)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf],
                             ids=["negative", "nan", "inf", "minus-inf"])
    def test_a_bad_order_entry_raises(self, bad):
        nus = np.array([0.0, 2.5, bad, 7.0])
        for fn in (bessel_j, bessel_j_pair):
            with pytest.raises(BesselFailureError, match="order"):
                fn(nus, np.array([1.0, 10.0, 20.0, 30.0]))
            with pytest.raises(BesselFailureError, match="order"):
                fn(nus, 12.0)

    @pytest.mark.parametrize("nus,xs", [
        (np.ones(3), np.ones(4)), (np.ones((2, 3)), np.ones(2)),
        ([0.0, 1.0], [1.0, 2.0, 3.0])], ids=["3-4", "2x3-2", "lists"])
    def test_shapes_that_cannot_broadcast_raise(self, nus, xs):
        for fn in (bessel_j, bessel_j_pair):
            with pytest.raises(ValueError):
                fn(nus, xs)


class TestZeros:
    def test_integer_order_against_scipy(self):
        for nu in (0, 1, 5):
            got = bessel_j_zeros(float(nu), 80.0)
            ref = sp.jn_zeros(nu, len(got))
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_real_order_residuals_and_interlacing(self):
        for nu in (4.0 / 3.0, 8.0 / 3.0, 20.7):
            zs = bessel_j_zeros(nu, 120.0)
            assert len(zs) > 10
            assert np.max(np.abs(bessel_j(nu, zs))) < 1e-9
            gaps = np.diff(zs)
            # spacing approaches pi from above, never dips below pi/2
            assert np.all(gaps > np.pi / 2)
            assert abs(gaps[-1] - np.pi) < 0.1

    def test_first_zero_exceeds_order(self):
        zs = bessel_j_zeros(7.5, 60.0)
        assert zs[0] > 7.5

    def test_empty_below_order(self):
        assert len(bessel_j_zeros(50.0, 40.0)) == 0

    def test_against_multiprecision_zero(self):
        ref = float(mpmath.besseljzero(3, 5))
        zs = bessel_j_zeros(3.0, 30.0)
        assert zs[4] == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("nu,x_max", [
        (3.0, 30.0), (0.0, 1.0), (2.5, 2.5), (2.5, 1.0), (50.0, 40.0)],
        ids=["zeros", "none-above-order", "x_max-is-order",
             "x_max-below-order", "order-50-x_max-40"])
    def test_returns_1d_float_array(self, nu, x_max):
        zs = bessel_j_zeros(nu, x_max)
        assert isinstance(zs, np.ndarray)
        assert zs.ndim == 1 and zs.dtype == np.float64
        # the caller owns the array: writing to it leaves the next call alone
        if len(zs):
            zs[0] = -1.0
            assert bessel_j_zeros(nu, x_max)[0] > 0

    @pytest.mark.parametrize("rho", [1.5 * np.pi, 2 * np.pi],
                             ids=["cone", "control"])
    def test_every_mode_build_order_against_reference(self, rho,
                                                      monkeypatch):
        # the (nu, x_min, x_max) of criterion 3 (Lambda = 40) and of the
        # benchmark's front workload (Lambda = 30), as the mode build asks
        # for them; its radial factors are stubbed out, since only the
        # zeros and the slopes J' at them, which the build reads from the
        # same batch, are checked here
        seen = {}

        def recording(nu, x_max, x_min):
            zs = bessel_j_zeros(nu, x_max, x_min)
            slopes = besselj._zero_batch((nu,), x_max, (x_min,))[0][1]
            seen.setdefault(nu, []).append((x_min, x_max, zs, slopes))
            return zs

        monkeypatch.setattr(conekernel, "bessel_j_zeros", recording)
        monkeypatch.setattr(conekernel, "bessel_j",
                            lambda nu, x: np.ones_like(x))
        for damping in (40.0, 30.0):
            conekernel._mode_data.__wrapped__(rho, 2.0, 0.5, 0.5, damping)
        assert len(seen) > 80
        worst = 0.0
        for nu, runs in seen.items():
            ref = reference_zeros(nu, max(run[1] for run in runs))
            for x_min, x_max, zs, slopes in runs:
                assert_zeros_match(zs, ref[(ref > x_min) & (ref <= x_max)])
                ref_slopes = sp.jvp(nu, zs)
                worst = max(worst, np.max(np.abs(slopes / ref_slopes - 1),
                                          initial=0.0))
        assert worst <= 1e-12

    @pytest.mark.parametrize("nu,x_max,x_min", [
        (0.0, 300.0, 0.5), (0.0, 300.0, 150.0), (4.0 / 3.0, 100.0, 2.0),
        (40.0, 300.0, 41.0), (200.0, 300.0, 250.0), (100.0, 400.0, 396.0)],
        ids=["below-first-zero", "order-0", "order-4/3", "order-40",
             "order-200", "last-zeros"])
    def test_window_is_the_full_list_above_x_min(self, nu, x_max, x_min):
        # the window's zeros are placed from their global indices, so they
        # are the full list's, bit for bit
        full = bessel_j_zeros(nu, x_max)
        got = bessel_j_zeros(nu, x_max, x_min)
        assert len(got) > 0
        assert np.array_equal(got, full[full > x_min])

    @pytest.mark.parametrize("nu,k", [
        (0.0, 1), (4.0 / 3.0, 20), (40.0, 5), (200.0, 17)])
    @pytest.mark.parametrize("shift", [
        -0.5 * besselj._COUNT_MARGIN, -1e-14, 1e-14,
        0.5 * besselj._COUNT_MARGIN],
        ids=["half-margin-below", "ulps-below", "ulps-above",
             "half-margin-above"])
    def test_x_min_a_step_from_a_zero(self, nu, k, shift):
        # an x_min within the count's margin of the k-th zero, on each
        # side, and within the matrix's rounding of it (1e-14 relative):
        # the count runs past x_min and the placed zero decides
        full = bessel_j_zeros(nu, 300.0)
        z = full[k - 1]
        x_min = z + shift if abs(shift) > 1e-12 else z * (1.0 + shift)
        got = bessel_j_zeros(nu, 300.0, x_min)
        assert np.array_equal(got, full[full > x_min])
        assert (z in got) == (shift < 0)

    @pytest.mark.parametrize("x_min", [30.0, 31.0, 1e9],
                             ids=["at-x_max", "above", "far-above"])
    def test_empty_window(self, x_min):
        zs = bessel_j_zeros(3.0, 30.0, x_min)
        assert isinstance(zs, np.ndarray)
        assert zs.shape == (0,) and zs.dtype == np.float64

    @pytest.mark.parametrize("nu,x_max", [
        (0.0, 300.0), (200.0, 300.0), (0.0, 2.0), (0.5, 1679.0)],
        ids=["order-0", "order-200", "order-0-no-zero", "ladder-top"])
    def test_matrix_size_edges_against_reference(self, nu, x_max):
        assert_zeros_match(bessel_j_zeros(nu, x_max),
                           reference_zeros(nu, x_max))

    def test_row_rule_against_a_larger_matrix(self):
        # the block of 1.1 (cut - nu) + 4 cut^(1/3) + 10 rows counts the
        # zeros up to cut, and below and above each of them, as the
        # unsquared matrix of 3 (cut - nu) + 300 rows places them, near
        # the turning point cut ~ nu (where 1.1 (cut - nu) + 20 rows miss
        # by 7e-6 at nu = 320, cut = 343) and far past it; the zeros that
        # J places match that matrix's
        found = 0
        for nu, cut in ROW_RULE_PAIRS:
            ref = larger_matrix_zeros(nu, cut)
            blocks = besselj._ikebe_blocks(np.array([nu]), cut)
            cols = np.zeros(len(ref), dtype=int)
            delta = besselj._CERT_DELTA
            assert besselj._count_above(blocks, [0], cut ** -2.0)[0] == len(ref)
            index = np.arange(1, len(ref) + 1)
            assert np.array_equal(besselj._count_above(
                blocks, cols, (ref * (1 - delta)) ** -2.0), index - 1)
            assert np.array_equal(besselj._count_above(
                blocks, cols, (ref * (1 + delta)) ** -2.0), index)
            got = bessel_j_zeros(nu, cut)
            assert len(got) == len(ref)
            assert np.max(np.abs(got - ref) / ref, initial=0.0) <= 1e-13, (nu, cut)
            found += len(got)
        assert found > 600

    def test_truncated_counts_match_the_full_block(self):
        # the certificate counts each zero z on its order's block cut
        # down by the row rule for z (1 + delta); on the pairs above, the
        # first zero of each order and the turning point (320, 343)
        # included, those counts at z (1 -+ delta) are the full block's
        assert (320.0, 343.0) in ROW_RULE_PAIRS
        delta = besselj._CERT_DELTA
        shortest = 1.0
        for nu, cut in ROW_RULE_PAIRS:
            ref = larger_matrix_zeros(nu, cut)
            blocks = besselj._ikebe_blocks(np.array([nu]), cut)
            cols = np.zeros(len(ref), dtype=int)
            rows = besselj._rows(np.full(len(ref), nu), ref * (1 + delta))
            assert np.all(rows <= len(blocks[0]))
            shortest = min(shortest, rows.min(initial=1) / len(blocks[0]))
            index = np.arange(1, len(ref) + 1)
            for side, want in ((1 - delta, index - 1), (1 + delta, index)):
                sigma = (ref * side) ** -2.0
                full = besselj._count_above(blocks, cols, sigma)
                assert np.array_equal(full, want)
                cut_down = besselj._count_above(blocks, cols, sigma, rows)
                assert np.array_equal(cut_down, full), (nu, cut, side)
        # the first zeros of the tall ladders take a fraction of the block
        assert shortest < 0.1

    def test_airy_zeros_against_multiprecision(self):
        m = np.arange(1.0, 30.0)
        ref = [float(mpmath.airyaizero(int(k))) for k in m]
        assert np.max(np.abs(besselj._airy_zeros(m) - ref)) <= 2e-10

    @pytest.mark.parametrize("nu,tol", [
        (0.0, 3e-3), (0.75, 1e-4), (4.0 / 3.0, 2e-4), (5.0, 1e-5),
        (10.0, 1e-6), (40.0, 1e-6), (150.5, 1e-8), (370.0, 1e-8)])
    def test_starts_near_the_zeros(self, nu, tol):
        # McMahon's and Olver's starts, worst at the first zero of a low
        # order; from nu = 10 on, one Halley pass settles every zero
        zs = reference_zeros(nu, 400.0)
        m = np.arange(1.0, len(zs) + 1)
        starts = besselj._starts(np.full(len(zs), nu), m)
        assert np.max(np.abs(starts - zs)) <= tol

    @pytest.mark.parametrize("nu,k", [
        (0.0, 1), (4.0 / 3.0, 20), (40.0, 5), (200.0, 17)])
    def test_count_switches_at_each_zero(self, nu, k):
        j_k = reference_zeros(nu, 300.0)[k - 1]
        assert len(bessel_j_zeros(nu, j_k * (1 - 1e-9))) == k - 1
        assert len(bessel_j_zeros(nu, j_k * (1 + 1e-9))) == k


class TestZeroGuards:
    """Bad orders and ranges raise before the Ikebe matrix is built, and
    the Ikebe count refuses a placed zero that is off or out of place."""

    @pytest.fixture
    def no_matrix(self, monkeypatch):
        def built(nus, cut):
            raise AssertionError(f"matrix built for nus={nus}, cut={cut}")
        monkeypatch.setattr(besselj, "_ikebe_blocks", built)

    @pytest.mark.parametrize("nu,x_max", [
        (-1e-12, 10.0), (float("nan"), 10.0), (float("inf"), 10.0),
        (0.5, float("nan")), (0.5, float("inf")), (0.5, -float("inf")),
        (0.5, 1680.0), (0.5, 1e9)],
        ids=["order-negative", "order-nan", "order-inf", "x_max-nan",
             "x_max-inf", "x_max-minus-inf", "above-ladder-top",
             "far-above-ladder-top"])
    def test_raises_before_the_matrix(self, no_matrix, nu, x_max):
        with pytest.raises(BesselFailureError):
            bessel_j_zeros(nu, x_max)

    @pytest.mark.parametrize("x_min", [
        -1e-12, float("nan"), float("inf"), -float("inf")],
        ids=["negative", "nan", "inf", "minus-inf"])
    def test_bad_x_min_raises_before_the_matrix(self, no_matrix, x_min):
        with pytest.raises(BesselFailureError, match="x_min"):
            bessel_j_zeros(3.0, 30.0, x_min)

    def test_order_zero_passes(self):
        zs = bessel_j_zeros(0.0, 10.0)
        assert len(zs) == 3
        assert zs[0] == pytest.approx(float(mpmath.besseljzero(0, 1)),
                                      abs=1e-12)

    @staticmethod
    def _certify(zeros, nu=4.0 / 3.0):
        besselj._certify(np.array([nu]), np.zeros(len(zeros), int),
                         np.arange(1, len(zeros) + 1), zeros)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["up", "down"])
    def test_certificate_passes_a_zero_moved_by_half_delta(self, side):
        zeros = reference_zeros(4.0 / 3.0, 100.0)
        zeros[7] *= 1 + side * 0.5 * besselj._CERT_DELTA
        self._certify(zeros)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["up", "down"])
    def test_certificate_refuses_a_zero_moved_by_two_delta(self, side):
        zeros = reference_zeros(4.0 / 3.0, 100.0)
        zeros[7] *= 1 + side * 2.0 * besselj._CERT_DELTA
        with pytest.raises(BesselFailureError, match="zero 8 of"):
            self._certify(zeros)

    def test_a_start_driven_onto_the_next_zero_is_refused(self, monkeypatch):
        # the fifth start sits by the sixth zero, so Halley places that
        # zero twice and no zero at the fifth place: each placed value is
        # a zero of J, and only the index check of the count sees it
        nu, x_max = 4.0 / 3.0, 100.0
        ref = reference_zeros(nu, x_max)
        starts = besselj._starts

        def misplaced(orders, index):
            out = starts(orders, index)
            out[4] = ref[5] + 1e-3
            return out

        monkeypatch.setattr(besselj, "_starts", misplaced)
        monkeypatch.setattr(besselj, "_held", {})
        with pytest.raises(BesselFailureError, match="zero 5 of .* 5 zeros below it and 6 up to it"):
            bessel_j_zeros(nu, x_max)

    def test_a_start_driven_onto_the_next_zero_in_a_window_is_refused(
            self, monkeypatch):
        # a window from between the third and fourth zeros: its second
        # start, of the fifth zero, sits by the sixth, and the certificate
        # names the zero by its global index, so the index offset is right
        nu, x_max = 4.0 / 3.0, 100.0
        ref = reference_zeros(nu, x_max)
        starts = besselj._starts

        def misplaced(orders, index):
            out = starts(orders, index)
            out[index == 5] = ref[5] + 1e-3
            return out

        monkeypatch.setattr(besselj, "_starts", misplaced)
        monkeypatch.setattr(besselj, "_held", {})
        with pytest.raises(BesselFailureError, match="zero 5 of .* 5 zeros below it and 6 up to it"):
            bessel_j_zeros(nu, x_max, 0.5 * (ref[2] + ref[3]))

    def test_halley_that_never_settles_raises(self, monkeypatch):
        monkeypatch.setattr(besselj, "_HALLEY_STOP", -1.0)
        monkeypatch.setattr(besselj, "_held", {})
        with pytest.raises(BesselFailureError, match="unsettled"):
            bessel_j_zeros(4.0 / 3.0, 30.0)

    @pytest.mark.parametrize("nu,k", [
        (0.0, 1), (4.0 / 3.0, 20), (40.0, 5), (200.0, 17)])
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_count_at_x_max_a_step_from_a_zero(self, nu, k, side):
        # an x_max 1e-14 relative (tens of ulps) from the k-th zero lies
        # inside the count's own resolution (5.1e-14 relative); the count
        # runs past x_max and the placed zeros decide
        z = bessel_j_zeros(nu, 300.0)[k - 1]
        zs = bessel_j_zeros(nu, z * (1 + side * 1e-14))
        assert len(zs) == (k if side > 0 else k - 1)
        if side > 0:
            assert zs[-1] == pytest.approx(z, rel=1e-15, abs=0)


class TestRegimeEdges:
    """Both sides of each switch: series vs Schlaefli integral, and the
    edge of the domain the Gauss-Legendre rule is checked on."""

    X_MAX = besselj._SERIES_X_MAX

    @pytest.mark.parametrize("nu,x", [
        (2.5, X_MAX * (1 - 1e-9)), (2.5, X_MAX * (1 + 1e-9)),
        (0.0, X_MAX * (1 - 1e-9)), (0.0, X_MAX * (1 + 1e-9)),
        (40.0, 20.0), (40.0, 20.0 * (1 + 1e-9)),
        (64.0 / 3.0, 32.0 / 3.0), (64.0 / 3.0, 32.0 / 3.0 + 1e-6),
    ], ids=["series-max-below", "series-max-above",
            "series-max-below-nu0", "series-max-above-nu0",
            "half-order-below", "half-order-above",
            "half-order-below-frac", "half-order-above-frac"])
    def test_switch_against_multiprecision(self, nu, x):
        j, jp = bessel_j_pair(nu, x)
        assert j == pytest.approx(float(mpmath.besselj(nu, x)),
                                  abs=1e-10, rel=1e-9)
        assert jp == pytest.approx(
            float(mpmath.besselj(nu, x, derivative=1)), abs=1e-10, rel=1e-9)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 0.5, 2.5, 4.0 / 3.0,
                                    8.0 / 3.0, 4.0])
    @pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9],
                             ids=["series", "integral"])
    def test_series_switch_at_rounding_level(self, nu, side):
        # the switch sits where the series error (growing with x) meets
        # the integral's, both a few 1e-15
        x = self.X_MAX * side
        j, jp = bessel_j_pair(nu, x)
        assert abs(j - float(mpmath.besselj(nu, x))) <= 1e-13
        assert abs(jp - float(mpmath.besselj(nu, x, derivative=1))) <= 1e-13

    def test_below_ladder_top(self):
        # nu pi + 2 x = 3359.6, just inside the domain the rule is
        # checked on
        x = 1679.0
        assert 0.5 * np.pi + 2 * x < 3360.0
        ref = float(mpmath.besselj(0.5, x))
        assert bessel_j(0.5, x) == pytest.approx(ref, abs=1e-10, rel=1e-9)

    def test_above_ladder_top_raises(self):
        # nu pi + 2 x = 3361.6 lies outside that domain
        with pytest.raises(BesselFailureError, match="Gauss-Legendre"):
            bessel_j(0.5, 1680.0)
        with pytest.raises(BesselFailureError):
            bessel_j_zeros(0.5, 1700.0)


def _rung_tops(orders=(0.0, 4.0 / 3.0, 40.0, 118.0, 600.0)):
    """(nu, x, rung) just below each switch of the Legendre node rule,
    where it has the fewest nodes per unit of nu + x: the rule takes
    0.8 (nu + x) + 40 nodes rounded up to 64 m, and reaches 64 m at
    nu + x = 80 m - 50.  Only points in the Schlaefli regime count."""
    cases = []
    for nu in orders:
        for m in range(1, 30):
            x = (80.0 * m - 50.0 - nu) * (1 - 1e-9)
            if (x > max(besselj._SERIES_X_MAX, nu / 2)
                    and nu * np.pi + 2 * x <= 3360.0):
                cases.append((nu, x, 64 * m))
    return cases


class TestNodeRule:
    """J and J' from the smallest rule the Schlaefli integral takes."""

    @pytest.mark.parametrize("nu,x,rung", _rung_tops(),
                             ids=lambda v: f"{v:.6g}")
    def test_just_below_each_rung_switch(self, nu, x, rung):
        assert besselj._nodes(nu, x) == rung
        j, jp = bessel_j_pair(nu, x)
        assert abs(j - float(mpmath.besselj(nu, x))) <= 1e-12
        assert abs(jp - float(mpmath.besselj(nu, x, derivative=1))) <= 1e-12

    @pytest.mark.parametrize("nu,x", [
        (0.0, besselj._SERIES_X_MAX * (1 + 1e-9)),
        (4.0 / 3.0, besselj._SERIES_X_MAX * (1 + 1e-9)),
        (40.0, 20.0 * (1 + 1e-9)), (118.0, 59.0 * (1 + 1e-9)),
        (600.0, 300.0 * (1 + 1e-9))],
        ids=["series-max-nu0", "series-max-nu4_3", "half-order-40",
             "half-order-118", "half-order-600"])
    def test_schlaefli_side_of_regime_switch(self, nu, x):
        j, jp = bessel_j_pair(nu, x)
        assert abs(j - float(mpmath.besselj(nu, x))) <= 1e-12
        assert abs(jp - float(mpmath.besselj(nu, x, derivative=1))) <= 1e-12


def _regime(fn, nu, xs):
    """(J, J') of one Bessel regime, called directly at every point of xs
    with the order nu; the J it writes without J' is the same, bit for
    bit."""
    nus = np.full(len(xs), float(nu))
    points = np.arange(len(xs))
    j, jp, alone = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
    fn(nus, xs, points, j, jp)
    fn(nus, xs, points, alone)
    assert np.array_equal(alone, j)
    return j, jp


class TestFoldedIntegral:
    """The Schlaefli integral folded onto the Legendre nodes below pi / 2,
    called directly, against mpmath.  Even and odd integer orders zero
    one of the weights 1 +- cos(nu pi) and sin(nu pi) itself."""

    @pytest.mark.parametrize("nu,xs", [
        (0.0, [4.5, 37.0, 211.3]), (2.0, [5.0, 37.0, 211.3]),
        (40.0, [20.5, 60.0, 211.3]),
        (1.0, [4.5, 37.0, 211.3]), (3.0, [5.0, 37.0, 211.3]),
        (41.0, [20.5, 60.0, 211.3]),
        (0.5, [4.5, 37.0, 211.3]), (40.5, [20.5, 60.0, 211.3]),
        # the top argument sits just below the switch from 128 to 192 nodes
        (4.0 / 3.0, [4.5, 37.0, (160.0 - 50.0 - 4.0 / 3.0) * (1 - 1e-9)]),
    ], ids=["even-0", "even-2", "even-40", "odd-1", "odd-3", "odd-41",
            "half-0.5", "half-40.5", "4_3-rung"])
    def test_against_multiprecision(self, nu, xs):
        xs = np.array(xs)
        j, jp = _regime(besselj._schlaefli, nu, xs)
        ref = [float(mpmath.besselj(nu, x)) for x in xs]
        ref_d = [float(mpmath.besselj(nu, x, derivative=1)) for x in xs]
        assert np.max(np.abs(j - ref)) <= 1e-13
        assert np.max(np.abs(jp - ref_d)) <= 1e-13


def _loop_series(nu, x, deriv):
    """The ascending series as a loop over its terms, with an early stop.
    Its log-gamma is `_series`' own, math.lgamma: the alternating terms
    cancel, and at x = 10 a last-bit difference in a log term shows as
    2.5e-12, which would hide the summation this checks."""
    out = np.zeros_like(x)
    lx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0) / 2.0), 0.0)
    for m in range(0, 60):
        lg = math.lgamma(m + 1.0) + math.lgamma(nu + m + 1.0)
        expo = (2 * m + nu) * lx - lg
        term = (-1.0) ** m * np.exp(expo)
        if deriv:
            term = term * (2 * m + nu) / np.where(x > 0, x, 1.0)
        out += np.where(x > 0, term, 0.0)
        if (np.all(np.abs(term) < 1e-18 * (1.0 + np.abs(out)))
                and m > nu / 2 + 3):
            break
    if not deriv:
        return np.where(x == 0.0, 1.0 if nu == 0.0 else 0.0, out)
    return np.where(x == 0.0, 0.5 if nu == 1.0 else 0.0, out)


class TestSeries:
    """The ascending series, summed in one shot over 60 terms."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 4.0 / 3.0, 2.5, 10.0,
                                    20.0, 40.0, 118.0, 400.0])
    def test_matches_term_loop(self, nu):
        xs = np.concatenate([[0.0], np.linspace(0.05, max(10.0, nu / 2),
                                                200)])
        j, jp = _regime(besselj._series, nu, xs)
        assert np.max(np.abs(j - _loop_series(nu, xs, False))) <= 1e-15
        assert np.max(np.abs(jp - _loop_series(nu, xs, True))) <= 1e-15

    @pytest.mark.parametrize("nu,x", [
        (0.0, 4.0), (1.0, 4.0), (4.0 / 3.0, 4.0), (8.0, 4.0), (40.0, 4.0),
        (370.0, 4.0), (20.0, 10.0), (100.0, 50.0), (250.0, 125.0),
        (370.0, 185.0)])
    def test_at_the_switches_against_multiprecision(self, nu, x):
        # at x = 4 within the rounding-level bound of the switch, and at
        # x = nu / 2, up to the largest order of a mode build, within the
        # absolute bound below half the order
        j, jp = _regime(besselj._series, nu, np.array([x]))
        tol = 1e-13 if x <= besselj._SERIES_X_MAX else 1e-12
        assert abs(j[0] - float(mpmath.besselj(nu, x))) <= tol
        assert abs(jp[0] - float(mpmath.besselj(nu, x, derivative=1))) <= tol

    @pytest.mark.parametrize("nu,x", [(118.0, 58.9), (160.0, 79.9),
                                      (400.0, 199.0)])
    def test_absolute_accuracy_below_half_order(self, nu, x):
        # the alternating terms cancel here, so the value is accurate in
        # absolute terms only: at (400, 199) even its sign is wrong
        j, jp = bessel_j_pair(nu, x)
        assert abs(j - float(mpmath.besselj(nu, x))) <= 1e-12
        assert abs(jp - float(mpmath.besselj(nu, x, derivative=1))) <= 1e-12
