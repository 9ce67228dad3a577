"""Flat-cone mode-sum oracle: causality, wall independence, front fits.

The expensive cross-validation against the link-spectrum front
coefficients lives in the acceptance suite; here the kernel machinery
and the extractor are exercised at a light damping where a mode build
takes seconds.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from conetrace import besselj, conekernel
from conetrace.conekernel import (
    _digamma,
    _mode_data,
    _sample_weights,
    conormal_basis,
    extract_front_coefficients,
    flat_cone_sine_kernel_series,
    smoothed_heaviside,
    smoothed_log,
)
from conetrace.errors import IllConditionedError, WallInfluenceError

RHO = 3 * np.pi / 2
LIGHT = dict(damping=20.0, wall_r=1.1)
BAD_DAMPINGS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), -5.0]
TINY = math.ulp(0.0)  # the smallest positive float


def _smoothed(fn, tau, damping: float):
    """fn convolved with the Gaussian window, by quadrature at each tau:
    the reference for the closed-form |tau| and tau|tau| columns."""
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


def _mp_log_moment(tau, sig, power):
    """E[X^power log|X|] for X ~ N(tau, sig^2) by mpmath quadrature over
    +-40 standard deviations, split at the singular point."""
    with mpmath.workdps(30):
        tau, sig = mpmath.mpf(tau), mpmath.mpf(sig)
        z0 = -tau / sig
        pts = sorted({-40, 0, 40} | ({z0} if -40 < z0 < 40 else set()))

        def f(z):
            x = tau + sig * z
            return x**power * mpmath.log(abs(x)) * mpmath.npdf(z)

        return float(mpmath.quad(f, [mpmath.mpf(p) for p in pts]))


def geometric_distance(x, xp, dy):
    return np.sqrt(x**2 + xp**2 - 2 * x * xp * np.cos(dy))


class TestKernelSeries:
    def test_causality_random_configs(self):
        rng = np.random.default_rng(11)
        for x, xp in [(0.35, 0.35), (0.28, 0.42)]:
            scale = max(
                abs(flat_cone_sine_kernel_series(RHO, LIGHT["wall_r"], t, x,
                                                 0.0, xp, 0.4,
                                                 damping=LIGHT["damping"]))
                for t in (geometric_distance(x, xp, 0.4) + 0.15, x + xp + 0.1)
            )
            for _ in range(10):
                dy = rng.uniform(2.0, np.pi)
                d_geo = geometric_distance(x, xp, dy)
                # stop five smearing widths short of the first arrival
                t = rng.uniform(0.05, d_geo - 5.0 / LIGHT["damping"])
                val = flat_cone_sine_kernel_series(
                    RHO, LIGHT["wall_r"], t, x, 0.0, xp, dy,
                    damping=LIGHT["damping"])
                assert abs(val) <= 1e-4 * scale

    def test_wall_independence(self):
        args = (0.9, 0.35, 0.0, 0.35, 1.0)
        near = flat_cone_sine_kernel_series(RHO, 1.1, *args,
                                            damping=LIGHT["damping"])
        far = flat_cone_sine_kernel_series(RHO, 2.2, *args,
                                           damping=LIGHT["damping"])
        assert abs(near - far) <= 1e-6 * abs(far)

    def test_determinism(self):
        args = (RHO, 1.1, 0.8, 0.3, 0.2, 0.4, 1.1)
        a = flat_cone_sine_kernel_series(*args, damping=LIGHT["damping"])
        b = flat_cone_sine_kernel_series(*args, damping=LIGHT["damping"])
        assert a == b

    def test_wall_guard(self):
        with pytest.raises(WallInfluenceError):
            flat_cone_sine_kernel_series(RHO, 1.1, 1.6, 0.35, 0.0, 0.35, 1.0,
                                         damping=LIGHT["damping"])

    def test_mode_cache_bounded(self):
        # one more distinct config than the cache holds evicts the
        # oldest; rebuilding it gives the same value
        args = (RHO, 1.1, 0.8, 0.3, 0.2, 0.4, 1.1)
        _mode_data.cache_clear()
        _sample_weights.cache_clear()
        first = flat_cone_sine_kernel_series(*args, damping=8.0)
        size = _mode_data.cache_info().maxsize
        for i in range(size):
            flat_cone_sine_kernel_series(RHO, 1.1, 0.8, 0.3, 0.2,
                                         0.4 + 0.01 * (i + 1), 1.1,
                                         damping=8.0)
        info = _mode_data.cache_info()
        assert info.currsize == size and info.misses == size + 1
        assert flat_cone_sine_kernel_series(*args, damping=8.0) == first
        assert _mode_data.cache_info().misses == size + 2

    def test_mode_build_evaluates_j_few_times_per_zero(self, monkeypatch):
        # criterion 3's cone build, at x' = x and at another x': Halley
        # passes over the whole ladder, one for most zeros and a second
        # for the few started near the turning point, and one radial
        # evaluation, at x and x' together; every point the evaluators
        # see comes through those calls, and a search for the zeros would
        # evaluate J about a dozen times per zero; the radial factors need
        # J alone, so only Halley's points are evaluated with J'
        calls = {}

        def counting(name, fn):
            def counted(nu, x):
                calls[name].append(np.size(x))
                return fn(nu, x)
            return counted

        def evaluating(fn):
            def counted(nu, x, points, j, d=None):
                calls["evaluated"].append(len(points))
                calls["with_derivative"].append(0 if d is None else len(points))
                return fn(nu, x, points, j, d)
            return counted

        monkeypatch.setattr(besselj, "bessel_j_pair",
                            counting("halley", besselj.bessel_j_pair))
        monkeypatch.setattr(conekernel, "bessel_j",
                            counting("radial", conekernel.bessel_j))
        for name in ("_series", "_schlaefli"):
            monkeypatch.setattr(besselj, name, evaluating(getattr(besselj, name)))
        for xp in (0.5, 0.42):
            calls.update(halley=[], radial=[], evaluated=[], with_derivative=[])
            monkeypatch.setattr(besselj, "_held", {})
            _, lams, _ = _mode_data.__wrapped__(1.5 * np.pi, 2.0, 0.5, xp,
                                                40.0)
            zeros = len(lams)
            assert zeros > 5000
            assert calls["radial"] == [zeros * (1 if xp == 0.5 else 2)]
            assert 1 <= len(calls["halley"]) <= 3
            # the first pass takes every zero counted, the later ones a few
            assert calls["halley"][0] >= zeros
            assert sum(calls["halley"][1:]) <= 0.01 * zeros
            assert sum(calls["evaluated"]) == (sum(calls["halley"])
                                               + sum(calls["radial"]))
            assert sum(calls["with_derivative"]) == sum(calls["halley"])

    def test_warm_weights_are_cached_and_read_only(self):
        # a warm sample is one sin and one dot product with the cached
        # angular x radial weights, bit for bit the sum over the modes
        rho, x, y, xp, yp = RHO, 0.3, 0.2, 0.42, 1.3
        k, lam, weight = _mode_data(rho, LIGHT["wall_r"], x, xp,
                                    LIGHT["damping"])
        angular = np.where(k == 0, 1.0, 2.0 * np.cos(k * (2 * np.pi / rho)
                                                     * (y - yp)))
        for t in (0.35, 0.8):
            got = flat_cone_sine_kernel_series(rho, LIGHT["wall_r"], t, x, y,
                                               xp, yp, damping=LIGHT["damping"])
            assert got == complex((angular * weight) @ np.sin(t * lam) / rho)
        before = _sample_weights.cache_info().hits
        flat_cone_sine_kernel_series(rho, LIGHT["wall_r"], 0.5, x, y, xp, yp,
                                     damping=LIGHT["damping"])
        assert _sample_weights.cache_info().hits == before + 1
        lam_w, weighted = _sample_weights(rho, LIGHT["wall_r"], x, xp,
                                          LIGHT["damping"], y - yp)
        assert lam_w is lam
        with pytest.raises(ValueError):
            weighted[0] = 0.0

    @pytest.mark.parametrize("rho", [RHO, 2 * np.pi], ids=["cone", "control"])
    @pytest.mark.parametrize("xp,yp", [(0.3, 0.2), (0.42, 1.3)],
                             ids=["same-radius", "other-radius"])
    def test_flat_sum_matches_per_mode_loop(self, rho, xp, yp):
        # the warm sum as a loop over the angular modes, one np.sum per
        # mode, on the same mode data
        x, y, damping = 0.3, 0.2, LIGHT["damping"]
        k, lam, weight = _mode_data(rho, LIGHT["wall_r"], x, xp, damping)
        alpha = 2 * np.pi / rho
        for t in (0.35, 0.7, 0.8):
            total = 0.0
            for mode in np.unique(k):
                part = k == mode
                angular = (1.0 if mode == 0
                           else 2.0 * np.cos(mode * alpha * (y - yp)))
                total += angular * float(np.sum(weight[part]
                                                * np.sin(t * lam[part])))
            got = flat_cone_sine_kernel_series(rho, LIGHT["wall_r"], t, x, y,
                                               xp, yp, damping=damping)
            assert got.real == pytest.approx(total / rho, rel=1e-13, abs=0)

    def test_mode_arrays_are_flat_and_read_only(self):
        k, lam, weight = _mode_data(RHO, LIGHT["wall_r"], 0.3, 0.4,
                                    LIGHT["damping"])
        assert k.shape == lam.shape == weight.shape and k.ndim == 1
        assert np.all(np.diff(k) >= 0) and k[0] == 0
        for arr in (k, lam, weight):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_kernel_is_real(self):
        val = flat_cone_sine_kernel_series(RHO, 1.1, 0.8, 0.3, 0.0, 0.4, 0.9,
                                           damping=LIGHT["damping"])
        assert val.imag == 0.0


class TestExtractor:
    DAMPING = 40.0

    def synth(self, coeffs, window=0.15, n=61):
        ts = 1.0 + np.linspace(-window, window, n)
        tau = ts - 1.0
        vals = conormal_basis(tau, self.DAMPING) @ np.asarray(coeffs)
        return ts, vals

    def test_synthetic_recovery(self):
        target = [0.3, 0.2, 2.0 + 1.0j, -0.5, 0.0, 0.0, 0.1, 0.0, 0.0]
        ts, vals = self.synth(target)
        c_h, c_log, rms = extract_front_coefficients(ts, vals, 1.0,
                                                     damping=self.DAMPING)
        assert abs(c_h - (2.0 + 1.0j)) <= 1e-3
        assert abs(c_log - (-0.5)) <= 1e-3
        assert rms <= 1e-10

    def test_pure_smooth_input(self):
        ts = 1.0 + np.linspace(-0.15, 0.15, 61)
        tau = ts - 1.0
        vals = 0.4 - 0.7 * tau + 0.2 * tau**2 + 0.05 * np.sin(3 * tau)
        c_h, c_log, rms = extract_front_coefficients(ts, vals, 1.0,
                                                     damping=self.DAMPING)
        assert abs(c_h) <= 5e-3
        assert abs(c_log) <= 5e-3

    def test_window_halving_stability(self):
        target = [0.3, -0.1, 1.5, -0.4, 0.6, 0.2, 0.1, 0.3, -0.2]
        ts, vals = self.synth(target, window=0.3, n=121)
        tau = ts - 1.0
        vals = vals + 0.05 * tau**3  # smooth contamination off the basis
        full = extract_front_coefficients(ts, vals, 1.0, damping=self.DAMPING)
        keep = np.abs(tau) <= 0.15
        half = extract_front_coefficients(ts[keep], vals[keep], 1.0,
                                          damping=self.DAMPING)
        assert abs(half[0] - full[0]) <= 0.01 * abs(full[0])
        assert abs(half[1] - full[1]) <= 0.01 * max(abs(full[1]), abs(full[0]))

    def test_blind_zone_excluded(self):
        # points inside the blind zone get no vote: perturbing them there
        # cannot move the fit
        target = [0.0, 0.0, 1.0, -0.3, 0.0, 0.0, 0.0, 0.0, 0.0]
        ts, vals = self.synth(target)
        inside = np.abs(ts - 1.0) < 2.5 / self.DAMPING
        spoiled = vals.copy()
        spoiled[inside] += 100.0
        a = extract_front_coefficients(ts, vals, 1.0, damping=self.DAMPING)
        b = extract_front_coefficients(ts, spoiled, 1.0, damping=self.DAMPING)
        assert a == b

    @pytest.mark.parametrize("count", [8, 9])
    def test_sample_count_guard(self, count):
        # fewer samples than the 9 basis columns fit any values exactly;
        # the one at the front sits in the blind zone and does not count
        outside = [-0.15, -0.13, -0.11, -0.09, -0.07, 0.07, 0.09, 0.11, 0.13]
        tau = np.array([0.0] + outside[:count])
        target = [0.3, 0.2, 2.0, -0.5, 0.0, 0.0, 0.1, 0.0, 0.0]
        vals = conormal_basis(tau, self.DAMPING) @ np.asarray(target)
        if count < 9:
            with pytest.raises(IllConditionedError,
                               match=f"holds {count} samples"):
                extract_front_coefficients(1.0 + tau, vals, 1.0,
                                           damping=self.DAMPING)
        else:
            c_h, c_log, _ = extract_front_coefficients(1.0 + tau, vals, 1.0,
                                                       damping=self.DAMPING)
            assert c_h == pytest.approx(2.0, abs=1e-8)
            assert c_log == pytest.approx(-0.5, abs=1e-8)


    def test_non_finite_samples_refused(self):
        target = [0.3, 0.2, 2.0, -0.5, 0.0, 0.0, 0.1, 0.0, 0.0]
        ts, vals = self.synth(target)
        spoiled = vals.copy()
        spoiled[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            extract_front_coefficients(ts, spoiled, 1.0, damping=self.DAMPING)
        for bad in (np.nan, np.inf):
            times = ts.copy()
            times[0] = bad
            with pytest.raises(ValueError, match="sample times"):
                extract_front_coefficients(times, vals, 1.0,
                                           damping=self.DAMPING)


class TestSmoothedBasis:
    def test_heaviside_limits(self):
        assert smoothed_heaviside(-0.5, 40.0) == pytest.approx(0.0, abs=1e-12)
        assert smoothed_heaviside(0.5, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert smoothed_heaviside(0.0, 40.0) == pytest.approx(0.5, abs=1e-12)

    def test_log_matches_unsmoothed_far_from_front(self):
        # convolving log|tau| with a Gaussian of width sigma shifts the
        # value by sigma^2/2 * (log)'' = -sigma^2/(2 tau^2) to leading order
        sig = 1.0 / 40.0
        expect = np.log(0.5) - sig**2 / (2 * 0.25)
        assert smoothed_log(0.5, 40.0) == pytest.approx(expect, abs=1e-5)
        assert smoothed_log(-0.5, 40.0) == pytest.approx(expect, abs=1e-5)

    @pytest.mark.parametrize("damping", [30.0, 40.0])
    def test_closed_form_columns_match_quadrature(self, damping):
        # |tau| and tau|tau| against the quadrature convolution
        tau = np.linspace(-0.15, 0.15, 121)
        basis = conormal_basis(tau, damping)
        assert np.max(np.abs(basis[:, 4] - _smoothed(abs, tau, damping))) \
            <= 1e-12
        assert np.max(np.abs(basis[:, 8] - _smoothed(lambda z: z * abs(z),
                                                     tau, damping))) <= 1e-12

    def test_basis_shape(self):
        tau = np.linspace(-0.2, 0.2, 11)
        assert conormal_basis(tau, 40.0).shape == (11, 9)
        assert conormal_basis(0.1, 40.0).shape == (1, 9)

    def test_basis_refuses_a_grid_of_tau(self):
        # a (5, 9) tau once gave a (5, 81) array, each column's values
        # side by side
        with pytest.raises(ValueError, match=r"\(5, 9\)"):
            conormal_basis(np.linspace(-0.1, 0.1, 45).reshape(5, 9), 40.0)

    @pytest.mark.parametrize("ratio", [0.0, 1e-3, 1.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_log_family_against_multiprecision(self, ratio, sign):
        # columns 3, 5 and 7: E log|X|, E[X log|X|], E[X^2 log|X|] for
        # X ~ N(tau, sig^2), with |tau| / sig from the front itself to
        # far outside the window
        damping = 40.0
        tau = sign * ratio / damping
        row = conormal_basis(np.array([tau]), damping)[0]
        for col, power in ((3, 0), (5, 1), (7, 2)):
            ref = _mp_log_moment(tau, 1.0 / damping, power)
            assert abs(row[col] - ref) <= 4e-15 * max(1.0, abs(ref))
        assert smoothed_log(tau, damping) == row[3]

    def test_log_family_parity(self):
        # log|tau| and tau^2 log|tau| are even, tau log|tau| is odd, and
        # the closed form keeps that exactly
        tau = np.concatenate([[0.0], np.geomspace(1e-6, 3.0, 40)])
        plus = conormal_basis(tau, 40.0)
        minus = conormal_basis(-tau, 40.0)
        assert np.array_equal(plus[:, 3], minus[:, 3])
        assert np.array_equal(plus[:, 5], -minus[:, 5])
        assert np.array_equal(plus[:, 7], minus[:, 7])

    def test_smoothed_log_shapes(self):
        tau = np.linspace(-0.2, 0.2, 12).reshape(3, 4)
        grid = smoothed_log(tau, 40.0)
        assert grid.shape == (3, 4)
        assert grid[1, 2] == smoothed_log(float(tau[1, 2]), 40.0)
        assert isinstance(smoothed_log(0.1, 40.0), float)


class TestSpecialFunctions:
    """The package's own erf and digamma against scipy's."""

    def test_digamma_at_half_integers(self):
        # psi(j + 1/2) for every j to 2e4 (across the recurrence's switch
        # at 10), then log-spaced to 1e8, past the Poisson window at
        # lam = 5e7; within four units in the last place of psi, or of
        # psi(10.5) = 2.4, from which the recurrence subtracts
        j = np.concatenate([np.arange(20001.0),
                            np.round(np.geomspace(2e4, 1e8, 2000))])
        ref = sp.digamma(j + 0.5)
        ulp = np.spacing(np.maximum(np.abs(ref), 2.4))
        assert np.all(np.abs(_digamma(j + 0.5) - ref) <= 4 * ulp)

    @pytest.mark.parametrize("tau", [0.013, np.linspace(-0.1, 0.1, 41),
                                     np.linspace(-0.1, 0.1, 45).reshape(5, 9)],
                             ids=["scalar", "1-D", "2-D"])
    def test_erf_columns_against_scipy(self, tau):
        damping = 40.0
        sig = 1.0 / damping
        e = sp.erf(np.asarray(tau) / (sig * np.sqrt(2.0)))
        g = sig * np.sqrt(2.0 / np.pi) * np.exp(-np.asarray(tau)**2
                                                 / (2 * sig**2))
        h = smoothed_heaviside(tau, damping)
        assert np.shape(h) == np.shape(tau)
        assert np.max(np.abs(h - 0.5 * (1.0 + e))) <= 1e-15
        if np.ndim(tau) > 1:  # one row per sample: the basis takes 1-D tau
            return
        cols = np.split(conormal_basis(tau, damping), 9, axis=1)
        for k, ref in ((2, 0.5 * (1.0 + e)), (4, g + tau * e),
                       (8, (np.square(tau) + sig**2) * e + tau * g)):
            assert np.max(np.abs(cols[k] - np.reshape(ref, cols[k].shape))) \
                <= 1e-15, k


class TestDampingGuard:
    """A damping that is not finite and positive is refused up front."""

    CALLS = {
        "kernel": lambda d: flat_cone_sine_kernel_series(
            RHO, 1.1, 0.8, 0.3, 0.2, 0.4, 1.1, damping=d),
        "basis": lambda d: conormal_basis(np.linspace(-0.1, 0.1, 5), d),
        "heaviside": lambda d: smoothed_heaviside(0.1, d),
        "log": lambda d: smoothed_log(0.1, d),
        "fit": lambda d: extract_front_coefficients(
            1.0 + np.linspace(-0.15, 0.15, 61), np.ones(61), 1.0, damping=d),
    }

    @pytest.mark.parametrize("damping", BAD_DAMPINGS, ids=repr)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, damping):
        with pytest.raises(ValueError, match="damping must be finite"):
            self.CALLS[call](damping)

    def test_smallest_positive_accepted(self):
        # no mode lies below lambda = 5 damping, so the sum is empty
        assert self.CALLS["kernel"](TINY) == 0.0
        assert self.CALLS["heaviside"](TINY) == 0.5
        assert math.isfinite(self.CALLS["log"](TINY))
        with np.errstate(invalid="ignore", over="ignore"):
            basis = self.CALLS["basis"](TINY)
        assert basis.shape == (5, 9)
        # the blind zone 2.5 / damping swallows every sample
        with pytest.raises(IllConditionedError, match="holds 0 samples"):
            self.CALLS["fit"](TINY)
