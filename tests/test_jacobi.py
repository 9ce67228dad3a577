"""Jacobi fields: spreading, Wronskians, Morse indices, broken Hessians."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetrace import jacobi, surfaces
from conetrace.errors import ConjugateDegeneracyError
from conetrace.geodesics import (
    TIP_START_X,
    ChartState,
    geodesic_flow,
    shoot_from_tip,
)

A0 = 0.75


def sphere_arc(sphere, length):
    start = ChartState("band", np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    return geodesic_flow(sphere, start, length)


class TestSpreading:
    def test_flat_theta_is_one(self, plane):
        rng = np.random.default_rng(7)
        for d in np.linspace(0.5, 20.0, 10):
            ang = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(ang), np.sin(ang)])
            path = geodesic_flow(plane, ChartState("cart", np.zeros(2), v), d)
            assert abs(jacobi.theta_spreading(path) - 1.0) < 1e-8

    def test_sphere_theta_exact(self, sphere):
        for d in (0.5, 1.5, 2.5):
            path = sphere_arc(sphere, d)
            assert jacobi.theta_spreading(path) == pytest.approx(
                np.sin(d) / d, abs=1e-9
            )

    def test_flat_cone_tip_theta(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        path = shoot_from_tip(fc, "tip", 0.2, 4.0)
        assert jacobi.theta_spreading(path) == pytest.approx(1.0, abs=1e-8)

    def test_interval_outside_path_rejected(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        path = shoot_from_tip(fc, "tip", 0.2, 4.0)
        for s0, s1 in ((0.0, path.length + 2.0), (1.0, 1.0), (-0.5, 1.0)):
            with pytest.raises(ValueError):
                jacobi.theta_spreading(path, s0, s1)

    def test_symmetry_forward_reverse(self, spindle_closed, teardrop_closed, sphere):
        rng = np.random.default_rng(3)
        paths = [
            spindle_closed.segments[0].path,
            teardrop_closed.segments[0].path,
            sphere_arc(sphere, 2.8),
        ]
        for path in paths:
            for _ in range(5):
                s0, s1 = np.sort(rng.uniform(0.05, path.length - 0.05, 2))
                if s1 - s0 < 0.2:
                    continue
                fwd = jacobi.theta_spreading(path, s0, s1)
                rev = jacobi.theta_spreading(
                    path.reversed(), path.length - s1, path.length - s0
                )
                assert abs(fwd - rev) < 1e-8

    def test_symmetric_check_pair(self, spindle_closed, teardrop_closed):
        # the teardrop loop crosses the pole cap both ways
        for path in (spindle_closed.segments[0].path,
                     teardrop_closed.segments[0].path):
            fwd = jacobi.theta_spreading(path)
            bwd = jacobi.theta_spreading(path.reversed())
            assert abs(fwd - bwd) < 1e-8

    def test_newton_derivative_matches_endpoint_jacobi(self, spindle_closed):
        # the shooting derivative measured in the target band equals the
        # Wronskian of j with the band's own warped solution, hence
        # a0_a * a0_b * |j(L)| once the geodesic actually hits the tip
        seg = spindle_closed.segments[0]
        path = seg.path
        surface = path.surface
        tip_b = surface.tips[path.end_tip]
        chart = surface.chart(tip_b.chart)
        s_sec = path.length - 0.1
        st = path.state(s_sec)
        jf = jacobi.b_jacobi_solution(path, s_sec).at(s_sec)
        sq = chart.sqrt_q(st.p)
        dsq_dr = float(chart.sqrt_q_grad(st.p)[0])
        deriv = 0.75 * (jf.jprime * sq * st.v[0] - jf.j * dsq_dr)
        j_end = jacobi.b_jacobi_solution(path).at(path.length).j
        assert abs(abs(deriv) - 0.75 * tip_b.a0 * abs(j_end)) < 1e-6

    def test_shape_operator_flat_cone(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        path = shoot_from_tip(fc, "tip", 0.0, 4.0)
        # j'/j of the tip field: 1/x on the flat cone
        f = path.flow_field.at(2.0)
        assert f.jprime / f.j == pytest.approx(0.5, abs=1e-9)


class TestFlowField:
    """The field the geodesic flow carries is the Jacobi field: it matches
    a separate solve along the stored path."""

    TOL = 1e-10

    def assert_matches(self, field, ref, ss):
        for s in ss:
            got, want = field.at(s), ref.at(s)
            assert abs(got.j - want.j) <= self.TOL, s
            assert abs(got.jprime - want.jprime) <= self.TOL, s

    @pytest.mark.parametrize("closed", ["spindle_closed", "teardrop_closed"])
    def test_tip_field_matches_separate_solve(self, closed, request):
        # each segment and its reverse shot, which is a flow of its own
        for seg in request.getfixturevalue(closed).segments:
            for path in (seg.path, seg.path.reversed()):
                ref = jacobi.b_jacobi_solution(path)
                ss = np.append(np.linspace(0.05, path.length, 25, endpoint=False),
                               path.length)
                self.assert_matches(path.flow_field, ref, ss)

    def test_teardrop_loop_crosses_the_cap(self, teardrop_closed):
        # the field rides polar -> cap -> polar (and across the seams),
        # unchanged at each leg end
        path = teardrop_closed.segments[0].path
        charts = [chart for chart, _ in groupby(leg.chart for leg in path.legs)]
        assert charts == ["polar", "cap", "polar"]
        for prev, leg in zip(path.legs, path.legs[1:]):
            assert np.allclose(prev.sol(leg.s0)[4:], leg.sol(leg.s0)[4:],
                               rtol=0.0, atol=1e-15)

    def test_start_sliver_is_the_frobenius_start(self):
        surf = surfaces.cone_chart_surface("1.3*(1+p0/2)**0.5")
        c1 = surf.tips["tip"].c1
        path = shoot_from_tip(surf, "tip", 0.0, 2.0)
        for x in (0.0, 0.5 * TIP_START_X, TIP_START_X):
            f = path.flow_field.at(x)
            assert f.j == pytest.approx(x * (1 + c1 * x), abs=1e-18)
            assert f.jprime == pytest.approx(1 + 2 * c1 * x, abs=1e-12)

    def test_interior_start_matches_separate_solve(self, teardrop, monkeypatch):
        # from a polar point through the pole cap and out again
        start = ChartState("polar", np.array([2.0, 0.3]), np.array([1.0, 0.2]))
        path = geodesic_flow(teardrop, start, 3.0)
        assert {leg.chart for leg in path.legs} == {"polar", "cap"}
        ref = jacobi.integrate_jacobi(path, 0.0, path.length, 0.0, 1.0)
        self.assert_matches(path.flow_field, ref, np.linspace(0.0, path.length, 25))
        # and the spreading from s = 0 reads it without a solve of its own
        solves = []
        solve = jacobi.integrate_jacobi
        monkeypatch.setattr(jacobi, "integrate_jacobi",
                            lambda *a: solves.append(a) or solve(*a))
        assert jacobi.theta_spreading(path, 0.0, 2.0) == pytest.approx(
            abs(ref.at(2.0).j) / 2.0, abs=self.TOL)
        assert solves == []

    def test_great_circle_field_is_sine(self, sphere):
        start = ChartState("band", np.array([0.1, 0.2]), np.array([0.3, 1.0]))
        path = geodesic_flow(sphere, start, 3.0)
        for s in np.linspace(0.0, 3.0, 13):
            assert path.flow_field.at(s).j == pytest.approx(np.sin(s), abs=1e-10)


class TestWronskian:
    def test_drift_small_across_surfaces(self, sphere, spindle_closed, teardrop_closed):
        rng = np.random.default_rng(11)
        paths = [
            sphere_arc(sphere, 2.9),
            spindle_closed.segments[0].path,
            teardrop_closed.segments[0].path,
        ]
        for path in paths:
            for _ in range(6):
                s0, s1 = np.sort(rng.uniform(0.0, path.length, 2))
                if s1 - s0 < 0.1:
                    continue
                assert jacobi.wronskian_drift(path, s0, s1) < 1e-8


class TestMorse:
    def test_sphere_counts(self, sphere):
        assert jacobi.morse_index(sphere_arc(sphere, 2.0)) == 0
        assert jacobi.morse_index(sphere_arc(sphere, 3.5)) == 1
        assert jacobi.morse_index(sphere_arc(sphere, 6.5)) == 2

    def test_conjugate_endpoint_refused(self, sphere):
        with pytest.raises(ConjugateDegeneracyError):
            jacobi.morse_index(sphere_arc(sphere, np.pi))

    # on the unit sphere |j(pi +- delta)| = sin(delta) and the guard refuses
    # |j| < MORSE_DEGENERACY_TOL * length: delta below about tol * pi
    @pytest.mark.parametrize("side,expect", [(-1, 0), (1, 1)],
                             ids=["short", "long"])
    def test_degeneracy_guard_edge(self, sphere, side, expect):
        edge = jacobi.MORSE_DEGENERACY_TOL * np.pi
        outside = sphere_arc(sphere, np.pi + side * 2.0 * edge)
        assert jacobi.morse_index(outside) == expect
        inside = sphere_arc(sphere, np.pi + side * 0.5 * edge)
        with pytest.raises(ConjugateDegeneracyError):
            jacobi.morse_index(inside)

    def test_additivity_with_cut_correction(self, sphere):
        path = sphere_arc(sphere, 1.5 * np.pi)
        cut = 0.75 * np.pi
        whole = jacobi.morse_index(path)
        m1 = jacobi.morse_index(path, 0.0, cut)
        m2 = jacobi.morse_index(path, cut, path.length)
        h = jacobi.broken_hessian(path, cut)
        assert whole == m1 + m2 + (1 if h < 0 else 0)
        assert h == pytest.approx(-2.0, abs=1e-9)

    def test_additivity_on_spindle_segment(self, spindle_closed):
        path = spindle_closed.segments[0].path
        cut = 0.45 * path.length
        whole = jacobi.morse_index(path)
        m1 = jacobi.morse_index(path, 0.0, cut)
        m2 = jacobi.morse_index(path, cut, path.length)
        h = jacobi.broken_hessian(path, cut)
        assert whole == m1 + m2 + (1 if h < 0 else 0)


class TestBrokenHessian:
    def test_flat_value(self, plane):
        path = geodesic_flow(
            plane, ChartState("cart", np.zeros(2), np.array([1.0, 0.0])), 3.0
        )
        assert jacobi.broken_hessian(path, 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_frobenius_start_self_consistent(self):
        # non-product tip: curvature ~ c/x, the series start must absorb it
        surf = surfaces.cone_chart_surface("1.3*(1+p0/2)**0.5")
        path = shoot_from_tip(surf, "tip", 0.0, 2.0)
        a = jacobi.b_jacobi_solution(path, 1.5, x_start=1e-4).at(1.5)
        b = jacobi.b_jacobi_solution(path, 1.5, x_start=1e-5).at(1.5)
        c = jacobi.b_jacobi_solution(path, 1.5, x_start=1e-6).at(1.5)
        assert abs(a.j - b.j) < 1e-8
        assert abs(b.j - c.j) < 1e-9
        assert abs(a.jprime - b.jprime) < 1e-8


@settings(max_examples=15, deadline=None)
@given(d=st.floats(0.3, 2.9), cut_frac=st.floats(0.15, 0.85))
def test_property_sphere_additivity(d, cut_frac):
    sphere = surfaces.sphere_band(1.5)
    path = sphere_arc(sphere, d)
    cut = cut_frac * d
    whole = jacobi.morse_index(path)
    m1 = jacobi.morse_index(path, 0.0, cut)
    m2 = jacobi.morse_index(path, cut, d)
    h = jacobi.broken_hessian(path, cut)
    assert whole == m1 + m2 + (1 if h < 0 else 0)
