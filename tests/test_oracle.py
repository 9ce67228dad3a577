"""Doubled-square spectrum, smoothed traces, and brute-force composition."""

import numpy as np
import pytest

from conetrace.amplitudes import (
    CutoffSpec,
    TraceSingularityPrediction,
    interior_amplitude,
    model_kernel,
)
from conetrace import composition
from conetrace.composition import (
    CompositionGeometry,
    brute_force_composition,
    flat_collinear_geometry,
    sphere_arc_geometry,
)
from conetrace.errors import NoCriticalPointError, QuadratureDivergenceError
from conetrace.spectra import (
    SmoothedTrace,
    doubled_square_spectrum,
    fit_trace_singularity,
    smoothed_wave_trace,
)


class TestDoubledSquareSpectrum:
    def test_zero_present_once(self):
        eigs = doubled_square_spectrum(50.0)
        assert np.sum(eigs == 0.0) == 1

    def test_smallest_nonzero_is_pi(self):
        eigs = doubled_square_spectrum(50.0)
        assert eigs[eigs > 0][0] == pytest.approx(np.pi, abs=1e-14)

    def test_multiplicity_at_pi_sqrt2(self):
        eigs = doubled_square_spectrum(50.0)
        assert np.sum(np.abs(eigs - np.pi * np.sqrt(2)) < 1e-12) == 2

    def test_weyl_count_loose(self):
        eigs = doubled_square_spectrum(300.0)
        lam = 250.0
        # area 2 surface: N(lam) ~ lam^2 / (2 pi); monitored loosely
        assert np.sum(eigs <= lam) / (lam**2 / (2 * np.pi)) == pytest.approx(
            1.0, abs=0.05)

    def test_sorted(self):
        eigs = doubled_square_spectrum(120.0)
        assert np.all(np.diff(eigs) >= 0)

    def test_lambda_max_guard(self):
        with pytest.raises(ValueError):
            doubled_square_spectrum(6000.0)


class TestSmoothedTrace:
    def test_single_eigenvalue_exact(self):
        ts = np.linspace(-1, 1, 7)
        tr = smoothed_wave_trace([3.0], 5.0, ts)
        expect = np.exp(-9.0 / 50.0) * np.exp(-1j * ts * 3.0)
        assert np.allclose(tr.samples, expect, rtol=0, atol=1e-15)

    def test_conjugate_symmetry(self):
        eigs = doubled_square_spectrum(60.0)
        ts = np.linspace(0.1, 2.0, 9)
        fwd = smoothed_wave_trace(eigs, 12.0, ts)
        bwd = smoothed_wave_trace(eigs, 12.0, -ts)
        assert np.max(np.abs(bwd.samples - np.conj(fwd.samples))) < 1e-12

    def test_shift_modulation(self):
        # with the damp effectively flat, shifting the spectrum by Delta
        # modulates the samples by e^{-i t Delta}
        eigs = np.array([2.0, 5.0, 11.0])
        ts = np.linspace(0.0, 3.0, 11)
        base = smoothed_wave_trace(eigs, 1e6, ts)
        shifted = smoothed_wave_trace(eigs + 0.7, 1e6, ts)
        assert np.allclose(shifted.samples,
                           base.samples * np.exp(-1j * ts * 0.7), atol=1e-9)

    @pytest.mark.parametrize("lambda_max", [220.0, 2000.0])
    def test_matches_per_t_loop(self, lambda_max):
        # reference: the plain sum over every eigenvalue, one t at a time;
        # dropping terms damped below 1e-18 and merging repeats only
        # reorders and truncates the sum at rounding level
        sigma = 40.0
        eigs = doubled_square_spectrum(lambda_max)
        ts = np.linspace(1.3, 3.7, 41)
        damp = np.exp(-(eigs**2) / (2.0 * sigma**2))
        ref = np.array([np.sum(damp * np.exp(-1j * t * eigs)) for t in ts])
        got = smoothed_wave_trace(eigs, sigma, ts).samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_determinism(self):
        eigs = doubled_square_spectrum(80.0)
        ts = np.linspace(1.0, 2.0, 33)
        a = smoothed_wave_trace(eigs, 15.0, ts)
        b = smoothed_wave_trace(eigs, 15.0, ts)
        assert np.array_equal(a.samples, b.samples)

    def test_sigma_guard(self):
        with pytest.raises(ValueError):
            smoothed_wave_trace([1.0], 0.0, [0.0])


class TestFitTraceSingularity:
    def test_synthetic_recovery(self):
        sigma = 40.0
        pred = TraceSingularityPrediction(
            L=1.7, L0=1.7, k=1, n=2, order=0.5,
            coefficient=0.8 - 0.3j)
        cut = CutoffSpec()
        ts = np.arange(1.35, 2.05, 0.004)
        vals = model_kernel(pred, cut, ts, damping_sigma=sigma) \
            + 0.2 - 0.1 * (ts - 1.7)
        trace = SmoothedTrace(np.array([]), sigma, ts, vals)
        C, res = fit_trace_singularity(trace, 1.7, pred, cut)
        assert abs(C - (0.8 - 0.3j)) <= 0.01 * abs(0.8 - 0.3j)


class TestComposition:
    def test_flat_collinear_matches_interior_amplitude(self):
        geom = flat_collinear_geometry(1.0, 1.0)
        a_leg = interior_amplitude(1.0, 0, 1.0)
        val = brute_force_composition(geom, a_leg * a_leg, 200.0)
        pred = interior_amplitude(2.0, 0, 1.0) * np.sqrt(200.0)
        assert abs(val / pred - 1.0) <= 0.02

    def test_unequal_legs(self):
        geom = flat_collinear_geometry(0.8, 1.4)
        a12 = (interior_amplitude(0.8, 0, 1.0)
               * interior_amplitude(1.4, 0, 1.0))
        val = brute_force_composition(geom, a12, 250.0)
        pred = interior_amplitude(2.2, 0, 1.0) * np.sqrt(250.0)
        assert abs(val / pred - 1.0) <= 0.02

    def test_no_critical_point(self):
        # second endpoint displaced off the line: the meeting-point phase
        # has no critical point at the chart center
        def dist2(u, v):
            return np.hypot(1.0 - u, v - 0.6)

        geom = CompositionGeometry(
            lambda u, v: np.hypot(1.0 + u, v), dist2,
            lambda u, v: np.ones_like(u + v))
        with pytest.raises(NoCriticalPointError):
            brute_force_composition(geom, 1.0, 200.0)

    def test_refinement_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(composition, "REFINE_TOL", 1e-12)
        geom = flat_collinear_geometry(1.0, 1.0)
        with pytest.raises(QuadratureDivergenceError):
            brute_force_composition(geom, 1.0, 200.0)

    def test_xi_guard(self):
        geom = flat_collinear_geometry(1.0, 1.0)
        with pytest.raises(ValueError):
            brute_force_composition(geom, 1.0, -5.0)

    def test_sphere_geometry_guards(self):
        with pytest.raises(ValueError):
            sphere_arc_geometry(np.pi, 0.5)
        with pytest.raises(ValueError):
            sphere_arc_geometry(1.0, 3.5)


def complex_exp_eta_loop(geom, amp12, xi, sigma_eta, scale):
    """The eta sum of composition._quadrature as a complex exponential
    over n_u x n_v x 16 blocks, the form the fold replaced.  Returns
    (value, n_eta)."""
    a, b = geom.halfwidth_long, geom.halfwidth_trans
    eta_max = min(4.0 * sigma_eta, 0.85 * xi)
    zero = np.asarray(0.0, float)
    d2_star = float(geom.dist2(zero, zero))
    d_tot = d2_star + float(geom.dist1(zero, zero))
    hvv = abs(composition._check_critical_point(geom))

    def nodes(phase_span, floor=48):
        return int(scale * max(floor, 0.6 * phase_span + 40))

    n_u, n_v = nodes(eta_max * a * 2), nodes(xi * hvv * b**2)
    n_eta = nodes(a * eta_max * 2)
    tu, wu = np.polynomial.legendre.leggauss(n_u)
    tv, wv = np.polynomial.legendre.leggauss(n_v)
    te, we = np.polynomial.legendre.leggauss(n_eta)
    uu, vv = np.meshgrid(a * tu, b * tv, indexing="ij")
    eta, we = eta_max * te, eta_max * we
    d1, d2 = geom.dist1(uu, vv), geom.dist2(uu, vv)
    base = (amp12(uu, vv) * geom.jacobian(uu, vv)
            * composition._bump(uu / a) * composition._bump(vv / b)
            * np.exp(1j * (d1 + d2 - d_tot) * xi)
            * ((a * wu)[:, None] * (b * wv)[None, :]))
    total = 0.0 + 0.0j
    for k0 in range(0, n_eta, 16):
        et, wt = eta[k0:k0 + 16], we[k0:k0 + 16]
        osc = np.exp(1j * (d2 - d2_star)[:, :, None] * et[None, None, :])
        freq = np.sqrt(xi) * np.sqrt(xi + et) * np.exp(
            -(et**2) / (2 * sigma_eta**2))
        total += np.sum(base[:, :, None] * osc * (freq * wt)[None, None, :])
    return total, n_eta


class TestCompositionFold:
    @pytest.mark.parametrize("case,parity", [
        ("flat", 0),   # scale 0.75 at xi = 200: n_eta = 98
        ("sphere", 1),  # scale 1 at xi = 200: n_eta = 131
    ])
    def test_fold_matches_complex_exp_loop(self, case, parity):
        xi = 200.0
        if case == "flat":
            geom, scale = flat_collinear_geometry(1.0, 1.4), 0.75
            amp12 = lambda u, v: np.full_like(u + v, 0.3 - 0.1j,
                                              dtype=complex)
        else:
            geom, scale = sphere_arc_geometry(5 * np.pi / 4, np.pi / 4), 1.0
            amp12 = lambda u, v: (1.0 + 0.2 * u - 0.1j * v * v) + 0j
        ref, n_eta = complex_exp_eta_loop(geom, amp12, xi, xi**0.75, scale)
        assert n_eta % 2 == parity
        got = composition._quadrature(geom, amp12, xi, xi**0.75, scale)
        assert abs(got - ref) <= 1e-12 * abs(ref)
