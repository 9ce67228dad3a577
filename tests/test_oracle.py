"""Doubled-square spectrum, smoothed traces, and brute-force composition."""

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from conetrace.amplitudes import (
    CutoffSpec,
    TraceSingularityPrediction,
    interior_amplitude,
    model_kernel,
)
from conetrace import amplitudes, composition
from conetrace.composition import (
    CompositionGeometry,
    brute_force_composition,
    flat_collinear_geometry,
    sphere_arc_geometry,
)
from conetrace.errors import NoCriticalPointError, QuadratureDivergenceError
from conetrace.quadrature import gauss_legendre
from conetrace.spectra import (
    SmoothedTrace,
    _doubled_square_to_reach,
    doubled_square_spectrum,
    fit_trace_singularity,
    smoothed_wave_trace,
)
from spectral_reference import direct_trace


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

    @pytest.mark.parametrize("lambda_max", [50.0, 120.0, 2000.0, 5000.0,
                                            5 * np.pi])
    def test_equals_sorted_enumeration(self, lambda_max):
        # reference: every pi sqrt(m^2 + n^2) on the square grid, cut at
        # lambda_max and stably sorted
        k = np.arange(int(np.floor(lambda_max / np.pi)) + 2)
        lam = np.pi * np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
        ref = np.concatenate([lam.ravel(), lam[1:, 1:].ravel()])
        ref = np.sort(ref[ref <= lambda_max], kind="stable")
        assert np.array_equal(doubled_square_spectrum(lambda_max), ref)

    def test_cut_is_inclusive(self):
        # 5 pi = pi sqrt(25): (5, 0), (0, 5), (3, 4), (4, 3) Neumann and
        # (3, 4), (4, 3) Dirichlet
        eigs = doubled_square_spectrum(5 * np.pi)
        assert eigs[-1] == 5 * np.pi
        assert np.sum(eigs == 5 * np.pi) == 6

    def test_cached_spectrum_is_read_only(self):
        eigs = doubled_square_spectrum(50.0)
        assert not eigs.flags.writeable
        with pytest.raises(ValueError):
            eigs[0] = 1.0

    def test_second_call_equals_first(self):
        # a call at another lambda_max in between replaces the kept
        # spectrum, so the last call builds it again
        first = doubled_square_spectrum(120.0)
        again = doubled_square_spectrum(120.0)
        doubled_square_spectrum(50.0)
        rebuilt = doubled_square_spectrum(120.0)
        assert np.array_equal(again, first)
        assert np.array_equal(rebuilt, first)


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

    @staticmethod
    def _check_per_t_loop(lambda_max, ts):
        # reference: the plain sum over every eigenvalue, one t at a time;
        # dropping terms damped below 1e-18, merging repeats and factoring
        # the phases over the grid's blocks only reorder and truncate the
        # sum at rounding level
        sigma = 40.0
        eigs = doubled_square_spectrum(lambda_max)
        damp = np.exp(-(eigs**2) / (2.0 * sigma**2))
        ref = np.array([np.sum(damp * np.exp(-1j * t * eigs)) for t in ts])
        got = smoothed_wave_trace(eigs, sigma, ts).samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lambda_max", [220.0, 2000.0])
    def test_matches_per_t_loop(self, lambda_max):
        self._check_per_t_loop(lambda_max, np.linspace(1.3, 3.7, 41))

    @pytest.mark.parametrize("lambda_max", [220.0, 2000.0])
    def test_matches_per_t_loop_arange(self, lambda_max):
        self._check_per_t_loop(lambda_max, np.arange(1.3, 3.7, 0.06))

    def test_determinism(self):
        eigs = doubled_square_spectrum(80.0)
        ts = np.linspace(1.0, 2.0, 33)
        a = smoothed_wave_trace(eigs, 15.0, ts)
        b = smoothed_wave_trace(eigs, 15.0, ts)
        assert np.array_equal(a.samples, b.samples)

    def test_sigma_guard(self):
        with pytest.raises(ValueError):
            smoothed_wave_trace([1.0], 0.0, [0.0])

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_nonfinite_sigma_refused(self, sigma):
        # NaN fails every comparison, so sigma <= 0 alone would let it in
        with pytest.raises(ValueError):
            smoothed_wave_trace([1.0, 2.0], sigma, [0.0, 1.0])

    def test_nonfinite_eigenvalue_refused(self):
        # a NaN would make the largest damping NaN and silently keep no term
        with pytest.raises(ValueError):
            smoothed_wave_trace([1.0, np.nan], 5.0, [0.0, 1.0])

    def test_prefilter_keeps_the_cut(self):
        # plant the two adjacent floats that straddle the 1e-18 damping
        # cut; the trace must keep exactly the set the plain rule keeps
        sigma = 40.0

        def kept(lam):
            return np.exp(-lam**2 / (2 * sigma**2)) > 1e-18

        lo, hi = 300.0, 400.0
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if kept(mid) else (lo, mid)
        eigs = np.concatenate([doubled_square_spectrum(420.0), [lo, hi]])
        damp = np.exp(-eigs**2 / (2 * sigma**2))
        plain = np.unique(eigs[damp > 1e-18 * damp.max()])
        got = smoothed_wave_trace(eigs, sigma, [0.0, 1.0]).eigenvalues
        assert lo in got and hi not in got
        assert np.array_equal(got, plain)

    def test_shuffled_spectrum(self):
        # a CSV spectrum need not be sorted
        eigs = doubled_square_spectrum(2000.0)
        shuffled = np.random.default_rng(3).permutation(eigs)
        ts = np.arange(3.1, 3.7, 0.004)
        ref = smoothed_wave_trace(eigs, 40.0, ts).samples
        got = smoothed_wave_trace(shuffled, 40.0, ts).samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ulps, ok", [(32, True), (128, False)])
    def test_even_grid_guard_boundary(self, ulps, ok):
        # the guard allows 64 ulp of max|t|; linspace itself is within 2
        ts = np.linspace(1.3, 3.7, 41)
        ts[17] += ulps * np.spacing(3.7)
        if ok:
            assert len(smoothed_wave_trace([2.0, 5.0], 5.0, ts).samples) == 41
        else:
            with pytest.raises(ValueError):
                smoothed_wave_trace([2.0, 5.0], 5.0, ts)

    @pytest.mark.parametrize("n", [1, 2, 13, 150, 500, 2000])
    def test_recurrence_matches_direct_phasors(self, n):
        # every phasor from its own cos/sin pair, as the trace was summed
        # before the step table and anchors came from products
        eigs = _doubled_square_to_reach(2000.0, 40.0)
        ts = np.linspace(1.3, 3.7, n)
        ref = direct_trace(eigs, 40.0, ts)
        got = smoothed_wave_trace(eigs, 40.0, ts).samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_recurrence_on_perturbed_grid(self):
        # a grid the guard accepts, 32 ulp off at an anchor (41 samples go
        # in blocks of 7, so t_14 anchors the third block): the recurrence
        # carries the anchors from t_0 by steps of 7 h
        eigs = _doubled_square_to_reach(2000.0, 40.0)
        ts = np.linspace(1.3, 3.7, 41)
        ts[14] += 32 * np.spacing(3.7)
        ref = direct_trace(eigs, 40.0, ts)
        got = smoothed_wave_trace(eigs, 40.0, ts).samples
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [12.0, 40.0])
    def test_reach_spectrum_gives_the_same_trace(self, sigma):
        full = doubled_square_spectrum(2000.0).copy()
        near = _doubled_square_to_reach(2000.0, sigma)
        assert len(near) < len(full)
        assert near[-1] <= np.sqrt(84.0) * sigma
        ts = np.arange(1.3, 3.7, 0.004)
        a = smoothed_wave_trace(full, sigma, ts)
        b = smoothed_wave_trace(near, sigma, ts)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.samples, b.samples)

    def test_reach_keeps_a_smaller_lambda_max(self):
        near = _doubled_square_to_reach(60.0, 40.0)
        assert np.array_equal(near, doubled_square_spectrum(60.0))

    def test_reach_checks_the_configured_lambda_max(self):
        # the build stops at sqrt(84) sigma, far below the guard, but the
        # guard reads the value asked for
        with pytest.raises(ValueError, match="at most 5000"):
            _doubled_square_to_reach(9000.0, 40.0)
        assert len(_doubled_square_to_reach(5000.0, 40.0)) == 21381

    def test_one_point_grid(self):
        tr = smoothed_wave_trace([3.0, 4.0], 5.0, [0.7])
        expect = (np.exp(-9.0 / 50.0) * np.exp(-2.1j)
                  + np.exp(-16.0 / 50.0) * np.exp(-2.8j))
        assert abs(tr.samples[0] - expect) < 1e-15


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

    def test_kernel_nodes_are_read_only(self):
        # the fit's model kernel shares its cached node sets across calls
        edges, offsets, g = amplitudes._symbol_panels(
            1.5, CutoffSpec(), 322.0, 8, 40.0)
        assert g.shape == (len(edges), len(offsets)) == (
            8, amplitudes._PANEL_NODES)
        assert not any(a.flags.writeable for a in (edges, offsets, g))
        with pytest.raises(ValueError):
            g[0, 0] = 0.0

    def test_non_finite_sample_refused(self):
        pred = TraceSingularityPrediction(
            L=1.7, L0=1.7, k=1, n=2, order=0.5, coefficient=1.0)
        ts = np.arange(1.35, 2.05, 0.004)
        vals = np.ones(len(ts), dtype=complex)
        vals[40] = complex(np.nan, 0.0)
        trace = SmoothedTrace(np.array([]), 40.0, ts, vals)
        with pytest.raises(ValueError, match="trace fit holds non-finite"):
            fit_trace_singularity(trace, 1.7, pred, CutoffSpec())


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

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_nonfinite_xi_refused(self, xi):
        # NaN passed a plain xi <= 0 test and came back as nan + nan j;
        # inf overflowed in the node count
        geom = flat_collinear_geometry(1.0, 1.0)
        with pytest.raises(ValueError, match="need finite xi > 0"):
            brute_force_composition(geom, 1.0, xi)

    def test_nonfinite_amplitude_refused(self):
        # a NaN gap fails the refinement test's comparison, so it used to
        # pass as converged
        geom = flat_collinear_geometry(1.0, 1.0)
        with pytest.raises(QuadratureDivergenceError, match="non-finite"):
            brute_force_composition(geom, complex(np.nan, 0.0), 200.0)

    def test_nonfinite_leg_distance_refused(self):
        # a NaN distance makes the delta span NaN, which has no degree
        def dist2(u, v):
            return np.where(u > 0.44, np.nan, np.hypot(1.0 - u, v))

        geom = CompositionGeometry(lambda u, v: np.hypot(1.0 + u, v), dist2,
                                   lambda u, v: np.ones_like(u + v))
        with pytest.raises(QuadratureDivergenceError, match="not finite"):
            brute_force_composition(geom, 1.0, 200.0)

    def test_sphere_geometry_guards(self):
        with pytest.raises(ValueError):
            sphere_arc_geometry(np.pi, 0.5)
        with pytest.raises(ValueError):
            sphere_arc_geometry(1.0, 3.5)


def _composition_grid(geom, amp12, xi, sigma_eta, scale, rule):
    """The (u, v) factor base, the time mismatch delta, both n_u x n_v,
    and the eta nodes and weights of composition._quadrature, with the
    Legendre rules taken from rule(n)."""
    a, b = composition.HALFWIDTH_LONG, composition.HALFWIDTH_TRANS
    eta_max = min(4.0 * sigma_eta, 0.85 * xi)
    zero = np.asarray(0.0, float)
    d2_star = float(geom.dist2(zero, zero))
    d_tot = d2_star + float(geom.dist1(zero, zero))
    hvv = abs(composition._check_critical_point(geom))

    def nodes(phase_span, floor=48):
        return int(scale * max(floor, 0.6 * phase_span + 40))

    n_u, n_v = nodes(eta_max * a * 2), nodes(xi * hvv * b**2)
    n_eta = nodes(a * eta_max * 2)
    tu, wu = rule(n_u)
    tv, wv = rule(n_v)
    te, we = rule(n_eta)
    uu, vv = np.meshgrid(a * tu, b * tv, indexing="ij")
    d1, d2 = geom.dist1(uu, vv), geom.dist2(uu, vv)
    base = (amp12(uu, vv) * geom.jacobian(uu, vv)
            * composition._bump(uu / a) * composition._bump(vv / b)
            * np.exp(1j * (d1 + d2 - d_tot) * xi)
            * ((a * wu)[:, None] * (b * wv)[None, :]))
    return base, d2 - d2_star, eta_max * te, eta_max * we


def complex_exp_eta_loop(geom, amp12, xi, sigma_eta, scale):
    """The eta sum of composition._quadrature as a complex exponential
    over n_u x n_v x 16 blocks, on numpy's leggauss rules.  Returns
    (value, n_eta)."""
    base, delta, eta, we = _composition_grid(
        geom, amp12, xi, sigma_eta, scale, np.polynomial.legendre.leggauss)
    n_eta = len(eta)
    total = 0.0 + 0.0j
    for k0 in range(0, n_eta, 16):
        et, wt = eta[k0:k0 + 16], we[k0:k0 + 16]
        osc = np.exp(1j * delta[:, :, None] * et[None, None, :])
        freq = np.sqrt(xi) * np.sqrt(xi + et) * np.exp(
            -(et**2) / (2 * sigma_eta**2))
        total += np.sum(base[:, :, None] * osc * (freq * wt)[None, None, :])
    return total, n_eta


def folded_eta_sum(geom, amp12, xi, sigma_eta, scale):
    """The eta sum of composition._quadrature summed at every (u, v)
    node, folded on the mirrored Legendre nodes into cos and sin sums
    and taken 256 nodes at a time: the form the Chebyshev interpolant
    replaced.  It uses the package's rules, so the two differ only in
    how S(delta) is evaluated."""
    base, delta, eta, we = _composition_grid(
        geom, amp12, xi, sigma_eta, scale, gauss_legendre)
    base, delta = base.ravel(), delta.ravel()
    n_eta = len(eta)
    f = np.sqrt(xi) * np.sqrt(xi + eta) * np.exp(
        -(eta**2) / (2 * sigma_eta**2)) * we
    half = n_eta // 2
    eta_pos = eta[n_eta - half:]
    f_even = f[n_eta - half:] + f[half - 1::-1]
    f_odd = f[n_eta - half:] - f[half - 1::-1]
    f_mid = f[half] if n_eta % 2 else 0.0
    total = 0.0 + 0.0j
    for i in range(0, len(delta), 256):
        phase = np.outer(delta[i:i + 256], eta_pos)
        eta_sum = (np.cos(phase) @ f_even + f_mid
                   + 1j * (np.sin(phase) @ f_odd))
        total += base[i:i + 256] @ eta_sum
    return total


def _const_amp(u, v):
    return np.full_like(u + v, 0.3 - 0.1j, dtype=complex)


def _sphere_amp(u, v):
    return (1.0 + 0.2 * u - 0.1j * v * v) + 0j


class TestCompositionFold:
    @pytest.mark.parametrize("case,parity", [
        ("flat", 0),   # scale 0.75 at xi = 200: n_eta = 98
        ("sphere", 1),  # scale 1 at xi = 200: n_eta = 131
    ])
    def test_fold_matches_complex_exp_loop(self, case, parity):
        xi = 200.0
        if case == "flat":
            geom, scale = flat_collinear_geometry(1.0, 1.4), 0.75
            amp12 = _const_amp
        else:
            geom, scale = sphere_arc_geometry(5 * np.pi / 4, np.pi / 4), 1.0
            amp12 = _sphere_amp
        ref, n_eta = complex_exp_eta_loop(geom, amp12, xi, xi**0.75, scale)
        assert n_eta % 2 == parity
        got = composition._quadrature(geom, amp12, xi, xi**0.75, scale)
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestChebyshevEtaSum:
    """composition._quadrature against the per-node folded sum, and its
    tail guard at the degree boundary."""

    @pytest.mark.parametrize("scale", [0.75, 1.0])
    @pytest.mark.parametrize("xi,d1,d2", [
        (200.0, 1.0, 1.0), (250.0, 0.8, 1.4), (400.0, 1.0, 1.0)])
    def test_flat_matches_folded_sum(self, xi, d1, d2, scale):
        geom = flat_collinear_geometry(d1, d2)
        ref = folded_eta_sum(geom, _const_amp, xi, xi**0.75, scale)
        got = composition._quadrature(geom, _const_amp, xi, xi**0.75, scale)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("scale", [0.75, 1.0])
    def test_sphere_matches_folded_sum(self, scale):
        geom = sphere_arc_geometry(5 * np.pi / 4, np.pi / 4)
        ref = folded_eta_sum(geom, _sphere_amp, 200.0, 200.0**0.75, scale)
        got = composition._quadrature(geom, _sphere_amp, 200.0,
                                      200.0**0.75, scale)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("case", [
        ("flat", 200.0, 1.0, 1.0, 0.75), ("flat", 200.0, 1.0, 1.0, 1.0),
        ("flat", 250.0, 0.8, 1.4, 0.75), ("flat", 250.0, 0.8, 1.4, 1.0),
        ("flat", 400.0, 1.0, 1.0, 0.75), ("flat", 400.0, 1.0, 1.0, 1.0),
        ("sphere", 200.0, 5 * np.pi / 4, np.pi / 4, 0.75),
        ("sphere", 200.0, 5 * np.pi / 4, np.pi / 4, 1.0),
    ], ids=lambda c: "-".join(str(round(v, 3)) if isinstance(v, float)
                              else v for v in c))
    def test_moments_match_chebval(self, monkeypatch, case):
        # reference: the interpolant summed by chebval's Clenshaw at every
        # (u, v) node, with the coefficients the quadrature itself made
        kind, xi, d1, d2, scale = case
        if kind == "flat":
            geom, amp12 = flat_collinear_geometry(d1, d2), _const_amp
        else:
            geom, amp12 = sphere_arc_geometry(d1, d2), _sphere_amp
        seen = []
        real = composition.chebinterpolate

        def spy(func, deg):
            seen.append(real(func, deg))
            return seen[-1]

        monkeypatch.setattr(composition, "chebinterpolate", spy)
        got = composition._quadrature(geom, amp12, xi, xi**0.75, scale)
        base, delta, _, _ = _composition_grid(
            geom, amp12, xi, xi**0.75, scale, gauss_legendre)
        lo, hi = delta.min(), delta.max()
        x = (delta.ravel() - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        ref = base.ravel() @ chebval(x, seen[0])
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_constant_mismatch(self):
        # d2 moves at the center, so the critical point is sound, but it
        # is constant on every node: the delta span is 0 and S is one
        # value
        def dist2(u, v):
            return 1.0 + np.where(np.abs(u) < 1e-4, u, 0.0) + 0.0 * v

        geom = CompositionGeometry(lambda u, v: np.hypot(1.0 + u, v), dist2,
                                   lambda u, v: np.ones_like(u + v))
        xi, sigma_eta = 200.0, 200.0**0.75
        base, delta, eta, we = _composition_grid(
            geom, _const_amp, xi, sigma_eta, 1.0, gauss_legendre)
        assert np.all(delta == 0.0)
        # the (u, v) sum cancels to about 4e-6 of sum |base| |S|, so the
        # two summation orders agree to rounding of that size, not of
        # the result's
        size = np.abs(base).sum() * abs(np.sum(np.sqrt(xi) * np.sqrt(
            xi + eta) * np.exp(-(eta**2) / (2 * sigma_eta**2)) * we))
        ref = folded_eta_sum(geom, _const_amp, xi, sigma_eta, 1.0)
        got = composition._quadrature(geom, _const_amp, xi, sigma_eta, 1.0)
        assert abs(got - ref) <= 1e-15 * size

    @pytest.mark.parametrize("rule", [
        lambda c: math.floor(c) - 3,                 # below the band limit
        lambda c: math.ceil(c + 8.0 * c ** (1 / 3)),  # the rule less its 24
    ], ids=["below_band_limit", "without_margin"])
    @pytest.mark.parametrize("xi", [200.0, 400.0])
    def test_tail_guard_refuses_short_degree(self, monkeypatch, rule, xi):
        monkeypatch.setattr(composition, "_chebyshev_degree", rule)
        geom = flat_collinear_geometry(1.0, 1.0)
        with pytest.raises(QuadratureDivergenceError, match="interpolant"):
            composition._quadrature(geom, _const_amp, xi, xi**0.75, 1.0)

    @pytest.mark.parametrize("xi", [200.0, 400.0])
    def test_tail_guard_passes_shipped_degree(self, monkeypatch, xi):
        # the shipped rule's last coefficients sit at rounding, at least
        # ten times under the guard
        seen = []
        real = composition.chebinterpolate

        def spy(func, deg):
            coef = real(func, deg)
            seen.append(np.abs(coef[-4:]).max() / np.abs(coef).max())
            return coef

        monkeypatch.setattr(composition, "chebinterpolate", spy)
        geom = flat_collinear_geometry(1.0, 1.0)
        composition._quadrature(geom, _const_amp, xi, xi**0.75, 1.0)
        assert seen and seen[0] <= 0.1 * composition._TAIL_TOL
