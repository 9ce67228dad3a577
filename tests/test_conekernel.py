"""Flat-cone mode-sum oracle: causality, wall independence, front fits.

The expensive cross-validation against the link-spectrum front
coefficients lives in the acceptance suite; here the kernel machinery
and the extractor are exercised at a light damping where a mode build
takes seconds.
"""

import numpy as np
import pytest

from conetrace import besselj
from conetrace.conekernel import (
    _mode_data,
    conormal_basis,
    extract_front_coefficients,
    flat_cone_sine_kernel_series,
    smoothed_heaviside,
    smoothed_log,
)
from conetrace.errors import IllConditionedError, WallInfluenceError

RHO = 3 * np.pi / 2
LIGHT = dict(damping=20.0, wall_r=1.1)


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
        # criterion 3's cone build: one polish evaluation per zero, and one
        # radial evaluation since x = x'; a search for the zeros would
        # evaluate J about a dozen times per zero
        points = []
        evaluate = besselj._eval

        def counting(nu, x, deriv):
            points.append(np.size(x))
            return evaluate(nu, x, deriv)

        monkeypatch.setattr(besselj, "_eval", counting)
        besselj._zeros_and_slopes.cache_clear()
        modes = _mode_data.__wrapped__(1.5 * np.pi, 2.0, 0.5, 0.5, 40.0)
        zeros = sum(len(lams) for _, lams, _ in modes)
        assert zeros > 5000
        assert sum(points) <= 3 * zeros

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

    def test_basis_shape(self):
        tau = np.linspace(-0.2, 0.2, 11)
        assert conormal_basis(tau, 40.0).shape == (11, 9)
