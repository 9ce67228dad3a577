"""Amplitude assembly: interior amplitudes, trace coefficients, model kernels."""

import tracemalloc
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from conetrace import amplitudes as amp
from conetrace import geodesics, jacobi, surfaces
from conetrace.amplitudes import (
    CutoffSpec,
    SegmentInvariants,
    TraceSingularityPrediction,
    interior_amplitude,
    model_kernel,
    trace_singularity,
    trace_singularity_cut_route,
)
from conetrace.errors import (
    NotStrictlyDiffractiveError,
    QuadratureFailureError,
)
from conetrace.geodesics import D_REF, build_closed_diffractive
from conetrace.links import LinkSpectrum, SummationPolicy, diffraction_kernel

A0 = 0.75


@dataclass(frozen=True)
class FakeJunction:
    link: LinkSpectrum
    link_in: float
    link_out: float


@dataclass(frozen=True)
class FakeGeodesic:
    segments: tuple
    junctions: tuple
    length: float
    primitive_length: float
    strictly_diffractive: bool = True


class TestBuildingBlocks:
    def test_interior_unit_values(self):
        a = interior_amplitude(1.0, 0, 1.0)
        assert isinstance(a, complex)
        assert a == pytest.approx(
            np.exp(-1j * np.pi / 4) * (2 * np.pi) ** -1.5
        )

    def test_interior_distance_scaling(self):
        a = interior_amplitude(1.0, 0, 1.0)
        b = interior_amplitude(2.0, 0, 1.0)
        assert abs(b) / abs(a) == pytest.approx(2 ** -0.5)

    def test_morse_quarter_turns(self):
        a = interior_amplitude(1.3, 2, 0.7)
        b = interior_amplitude(1.3, 3, 0.7)
        assert b / a == pytest.approx(np.exp(-1j * np.pi / 2))
        c = interior_amplitude(1.3, 4, 0.7)
        assert c == pytest.approx(a * (-1.0))

    def test_morse_period_four(self):
        a = interior_amplitude(0.9, 1, 1.1)
        b = interior_amplitude(0.9, 5, 1.1)
        assert b == pytest.approx(a)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            interior_amplitude(-1.0, 0, 1.0)
        with pytest.raises(ValueError):
            interior_amplitude(1.0, 0, 0.0)
        with pytest.raises(ValueError):
            SegmentInvariants(d=1.0, morse=0, theta=0.0)
        with pytest.raises(ValueError):
            SegmentInvariants(d=1.0, morse=-1, theta=1.0)


class TestTraceCoefficient:
    def test_requires_strict_diffraction(self):
        geo = FakeGeodesic((), (), 1.0, 1.0, strictly_diffractive=False)
        with pytest.raises(NotStrictlyDiffractiveError):
            trace_singularity(geo)

    def test_orbifold_coefficient_vanishes(self):
        # cone angle pi: the diffraction kernel is identically zero off
        # the singular set, so any such closed geodesic is silent
        link = LinkSpectrum.circle(np.pi)
        seg = SegmentInvariants(d=2.0, morse=0, theta=1.0)
        geo = FakeGeodesic(
            (seg,), (FakeJunction(link, 0.0, 0.6),), 4.0, 4.0
        )
        pred = trace_singularity(geo, invariants=[seg])
        assert abs(pred.coefficient) < 1e-10

    def test_model_selection_by_order(self):
        link = LinkSpectrum.circle(1.5 * np.pi)
        seg = SegmentInvariants(d=2.0, morse=0, theta=1.0)

        def geo(k):
            return FakeGeodesic(
                (seg,) * k, (FakeJunction(link, 0.0, 0.6),) * k,
                2.0 * k, 2.0 * k,
            )

        assert trace_singularity(geo(1), invariants=[seg]).model == "inverse_sqrt"
        p2 = trace_singularity(geo(2), invariants=[seg] * 2)
        assert p2.model == "log"
        assert p2.order == 1.0
        p3 = trace_singularity(geo(3), invariants=[seg] * 3)
        assert p3.model == "power"
        assert p3.order == 1.5
        # the label follows the order wherever the prediction is built
        built = TraceSingularityPrediction(L=2.0, L0=2.0, k=2, n=2, order=1.0,
                                           coefficient=1.0 + 0.0j)
        assert built.model == "log"

    def test_flat_cone_value_explicit(self):
        # one segment of length d through a single cone point: the
        # coefficient is L0 * 2 pi * e^{-i pi/4} * D * d^{-1/2}
        rho = 1.5 * np.pi
        link = LinkSpectrum.circle(rho)
        d = 3.0
        seg = SegmentInvariants(d=d, morse=0, theta=1.0)
        junc = FakeJunction(link, 0.0, 0.7)
        pred = trace_singularity(
            FakeGeodesic((seg,), (junc,), d, d), invariants=[seg]
        )
        dval = diffraction_kernel(link, 2, 0.0, 0.7, SummationPolicy.closed_form()).value
        expect = d * 2 * np.pi * np.exp(-1j * np.pi / 4) * dval * d ** -0.5
        assert pred.coefficient == pytest.approx(expect, rel=1e-12)


class TestTwoPathConsistency:
    @pytest.mark.parametrize("eps", [0.031, 0.0639])
    def test_gap_at_rounding_level(self, eps):
        # both fields are solved leg by leg, never across a bump edge, so
        # the routes agree far inside criterion 9's 1e-8
        geo = build_closed_diffractive(
            surfaces.teardrop(A0, eps), ["tip"], [A0 * (np.pi / 4 + 0.02)],
            length_cap=12.0)
        pred = trace_singularity(geo)
        route = trace_singularity_cut_route(geo)
        assert abs(route - pred.coefficient) / abs(pred.coefficient) < 1e-10

    def test_reverse_shots_of_the_negative_eps_spindle(self):
        # with the seed-0 seeds at eps = -0.05, segment 0's reverse shot,
        # budgeted to the full length, clipped its last step onto the
        # start tip and failed there
        geo = build_closed_diffractive(
            surfaces.perturbed_spindle(A0, -0.05), ["south", "north"],
            [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)])
        pred = trace_singularity(geo)
        route = trace_singularity_cut_route(geo)
        assert abs(route - pred.coefficient) / abs(pred.coefficient) < 1e-8

    @pytest.mark.parametrize("name,tips,seeds,kw,r", [
        ("teardrop", ["tip"], [A0 * (np.pi / 4 + 0.02)], {"length_cap": 12.0}, 2),
        ("teardrop", ["tip"], [A0 * (np.pi / 4 + 0.02)], {"length_cap": 12.0}, 3),
        ("spindle", ["south", "north"],
         [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)], {}, 2),
    ], ids=["teardrop-r2", "teardrop-r3", "spindle-r2"])
    def test_iterates_are_cut_once(self, name, tips, seeds, kw, r, request):
        # the cut runs over the primitive geodesic once: cutting all k
        # segments of an r-fold iterate gave r times the direct value
        geo = build_closed_diffractive(request.getfixturevalue(name),
                                       tips * r, seeds * r, **kw)
        primitive = request.getfixturevalue(f"{name}_closed")
        assert geo.iterate_count == r
        assert geo.primitive_length == pytest.approx(primitive.length, abs=1e-12)
        pred = trace_singularity(geo)
        route = trace_singularity_cut_route(geo)
        assert abs(route - pred.coefficient) / abs(pred.coefficient) < 1e-10

    def test_one_tip_solve_per_direction(self, teardrop, monkeypatch):
        # built here, not taken from the shared fixture, so that no field
        # or reverse shot is already kept on its paths by an earlier test
        geo = build_closed_diffractive(
            teardrop, ["tip"], [A0 * (np.pi / 4 + 0.02)], length_cap=12.0)
        shots, solves = [], []
        shoot, solve = geodesics.shoot_from_tip, jacobi.integrate_jacobi
        monkeypatch.setattr(geodesics, "shoot_from_tip",
                            lambda *a, **kw: shots.append(a[1]) or shoot(*a, **kw))
        monkeypatch.setattr(jacobi, "integrate_jacobi",
                            lambda *a: solves.append(a[1:3]) or solve(*a))
        amp.invariants_for(geo)
        amp.invariants_for(geo)
        trace_singularity(geo)
        trace_singularity_cut_route(geo)
        trace_singularity_cut_route(geo)
        # the build carried each forward field and left its radial end cap
        # to the first read: one reverse shot per segment is left, and one
        # cap solve per direction, each D_REF long, is the only solve
        assert shots == [seg.path.end_tip for seg in geo.segments]
        ends = ([seg.path.length for seg in geo.segments]
                + [seg.path.reversed().length for seg in geo.segments])
        assert [s1 for _, s1 in solves] == ends
        for s0, s1 in solves:
            assert s1 - s0 == pytest.approx(D_REF, abs=1e-6)

    def test_one_shot_per_newton_iteration(self, teardrop, monkeypatch):
        # the converged shot is the segment: no re-shoot after convergence
        shots = []
        shoot = geodesics.shoot_from_tip

        def counted(*args, **kwargs):
            shots.append(args[1])
            return shoot(*args, **kwargs)

        monkeypatch.setattr(geodesics, "shoot_from_tip", counted)
        geo = build_closed_diffractive(
            teardrop, ["tip"], [A0 * (np.pi / 4 + 0.02)], length_cap=12.0)
        assert len(shots) == sum(seg.iterations for seg in geo.segments)


class TestModelKernel:
    CUT = CutoffSpec()

    def pred(self, order, coeff=1.0 + 0.0j, L=5.0):
        return TraceSingularityPrediction(
            L=L, L0=L, k=1, n=2, order=order, coefficient=coeff
        )

    def test_log_model_slope(self):
        p = self.pred(1.0)
        u = 2.0 ** -np.arange(6.0, 22.0)
        y = np.real(model_kernel(p, self.CUT, p.L + u))
        x = np.log(u)
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert coef[0] == pytest.approx(-1.0, abs=1e-3)
        assert r2 > 0.999

    def test_inverse_sqrt_dyadic_ratios(self):
        p = self.pred(0.5)
        u = 2.0 ** -np.arange(10.0, 18.0)
        mags = np.abs(model_kernel(p, self.CUT, p.L + u))
        ratios = mags[1:] / mags[:-1]
        assert np.all(np.abs(ratios - np.sqrt(2)) < 0.02 * np.sqrt(2))

    def test_linear_in_coefficient(self):
        t = np.array([5.01, 5.1, 4.9])
        a = model_kernel(self.pred(0.5), self.CUT, t)
        b = model_kernel(
            self.pred(0.5, coeff=3.0 - 2.0j), self.CUT, t
        )
        assert np.allclose(b, (3.0 - 2.0j) * a, rtol=1e-13)

    def test_conjugate_symmetry(self):
        p = self.pred(0.5)
        us = np.array([0.003, 0.07, 0.4, 2.0])
        plus = model_kernel(p, self.CUT, p.L + us)
        minus = model_kernel(p, self.CUT, p.L - us)
        assert np.allclose(minus, np.conj(plus), rtol=1e-10, atol=1e-12)

    def test_damped_finite_on_singularity(self):
        p = self.pred(0.5)
        val = model_kernel(p, self.CUT, [p.L], damping_sigma=30.0)[0]
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_undamped_diverges_on_singularity(self):
        p = self.pred(0.5)
        with pytest.raises(QuadratureFailureError):
            model_kernel(p, self.CUT, [p.L])

    def test_damped_matches_undamped_off_singularity(self):
        # heavy damping only suppresses the far tail; off the front the
        # two quadratures should agree once sigma is large
        p = self.pred(1.0)
        t = p.L + 0.5
        free = model_kernel(p, self.CUT, [t])[0]
        damped = model_kernel(p, self.CUT, [t], damping_sigma=400.0)[0]
        assert abs(free - damped) < 1e-3 * abs(free)

    @staticmethod
    def per_sample_reference(p, cut, ts, sigma):
        # reference: each sample integrated on its own, one Python loop
        # over its 64-node panels
        def panel_gl(f, a, b, n_osc, nodes=64):
            panels = max(4, int(np.ceil(n_osc)) * 2)
            gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
            edges = np.linspace(a, b, panels + 1)
            total = 0.0 + 0.0j
            for lo, hi in zip(edges[:-1], edges[1:]):
                x = 0.5 * (hi - lo) * (gl_x + 1.0) + lo
                total += 0.5 * (hi - lo) * np.sum(gl_w * f(x))
            return total

        s = p.order
        out = []
        for u in np.asarray(ts, dtype=float) - p.L:
            hi = cut.upper + (8.0 * sigma if sigma is not None else 0.0)

            def f(xi):
                damp = (1.0 if sigma is None
                        else np.exp(-(xi * xi) / (2 * sigma * sigma)))
                return np.exp(-1j * u * xi) * cut.value(xi) * xi ** (-s) * damp

            n_osc = abs(u) * (hi - cut.lower) / (2 * np.pi)
            val = panel_gl(f, cut.lower, hi, n_osc)
            if sigma is None:
                val += hi ** (1.0 - s) * amp._exp_integral_e(s, 1j * u * hi)
            out.append(val)
        return p.coefficient * np.array(out)

    @pytest.mark.parametrize("order", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("sigma", [40.0, None], ids=["damped", "undamped"])
    def test_grouped_matches_per_sample_loop(self, order, sigma):
        p = self.pred(order, coeff=0.8 - 0.3j)
        # 97 samples whose |u| spans several panel counts; undamped, the
        # panels cover only [lower, upper], so |u| must reach further, and
        # the grid steps over u = 0, where the integral diverges for s <= 1
        us = (np.linspace(-0.9, 0.9, 97) if sigma
              else np.linspace(-20.0, 20.0, 97) + 0.004)
        hi = self.CUT.upper + (8.0 * sigma if sigma else 0.0)
        counts = np.maximum(4, 2 * np.ceil(
            np.abs(us) * (hi - self.CUT.lower) / (2 * np.pi)))
        assert len(np.unique(counts)) >= 3
        got = model_kernel(p, self.CUT, p.L + us, damping_sigma=sigma)
        ref = self.per_sample_reference(p, self.CUT, p.L + us, sigma)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [40.0, None], ids=["damped", "undamped"])
    def test_empty_grid(self, sigma):
        out = model_kernel(self.pred(0.5), self.CUT, [], damping_sigma=sigma)
        assert out.shape == (0,) and out.dtype == complex

    def test_undamped_singularity_inside_a_grid(self):
        p = self.pred(1.0)
        with pytest.raises(QuadratureFailureError):
            model_kernel(p, self.CUT, p.L + np.linspace(-0.5, 0.5, 41))

    @pytest.mark.parametrize("sigma", [0.0, -5.0, float("nan"),
                                       float("inf")])
    def test_bad_damping_sigma(self, sigma):
        with pytest.raises(ValueError):
            model_kernel(self.pred(0.5), self.CUT, [5.1],
                         damping_sigma=sigma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sigma", [40.0, None], ids=["damped", "undamped"])
    def test_nonfinite_sample_time_refused(self, bad, sigma):
        # cast to a panel count, a NaN or infinite |u| used to warn and
        # give NaN samples
        with pytest.raises(ValueError, match="finite sample times"):
            model_kernel(self.pred(0.5), self.CUT, [5.1, bad, 4.9],
                         damping_sigma=sigma)

    def test_memory_bounded_by_row_blocks(self):
        # one outer product over 20,000 samples and the ~2,000 nodes of
        # the widest panel layout would take about 650 MB
        p = self.pred(1.5)
        ts = p.L + np.linspace(-0.3, 0.3, 20_000)
        tracemalloc.start()
        try:
            model_kernel(p, self.CUT, ts, damping_sigma=40.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("s", [1.0, 2.0, 0.5, 1.5])
    @pytest.mark.parametrize("z", [0.004j, -0.3j, 0.7j, 1.9j, -1.99j,
                                   0.2 + 0.5j, 1.1 - 1.3j, 1.5])
    def test_exp_integral_small_z_matches_mpmath(self, s, z):
        # the convergent expansion at |z| < 2: the log branch at integer s
        # (psi(m) = -gamma + H_{m-1}) and Gamma(1 - s) z^{s-1} otherwise
        assert abs(z) < 2.0
        with mpmath.workdps(30):
            ref = complex(mpmath.expint(s, z))
        got = amp._exp_integral_e(s, z)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_cutoff_shape(self):
        cut = CutoffSpec(1.0, 2.0)
        assert cut.value(0.5) == 0.0
        assert cut.value(3.0) == 1.0
        assert cut.value(1.5) == pytest.approx(0.5)
        grid = np.linspace(0.5, 2.5, 101)
        vals = cut.value(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        with pytest.raises(ValueError):
            CutoffSpec(2.0, 1.0)
