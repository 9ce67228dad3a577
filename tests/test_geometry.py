"""Geodesic flow, tip shooting, and closed-geodesic assembly."""

import copy
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import brentq

from conetrace import geodesics, surfaces
from conetrace.errors import (
    ConjugateDegeneracyError,
    LeftAtlasError,
    NoConvergenceError,
    SeriesStartFailureError,
    StepFailureError,
)
from conetrace.geodesics import (
    REVERSE_TOL,
    ChartState,
    build_closed_diffractive,
    classify_continuation,
    connect_tips,
    geodesic_flow,
    shoot_from_tip,
)
from conetrace.links import LinkSpectrum

from cone_chart import cone_chart_surface

A0 = 0.75


def bump(r, lo=0.7, hi=np.pi - 0.7):
    if not lo < r < hi:
        return 0.0
    return ((r - lo) * (hi - r)) ** 3 / ((hi - lo) / 2) ** 6


class TestFlow:
    def test_plane_straight_line(self, plane):
        v = np.array([3.0, 4.0])
        path = geodesic_flow(plane, ChartState("cart", np.array([1.0, -2.0]), v), 10.0)
        end = path.state(10.0)
        assert np.allclose(end.p, [1.0 + 6.0, -2.0 + 8.0], atol=1e-10)
        assert path.speed_drift() < 1e-10

    def test_sphere_great_circle_period(self, sphere):
        start = ChartState("band", np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        path = geodesic_flow(sphere, start, 2 * np.pi)
        end = path.state(2 * np.pi)
        assert abs(end.p[0]) < 1e-9
        assert abs(end.p[1] - 2 * np.pi) < 1e-9

    def test_flat_cone_radial(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        path = shoot_from_tip(fc, "tip", 0.8, 3.0)
        assert np.allclose(path.state(2.5).p, [2.5, 0.8], atol=1e-10)
        # and back in: aim at the tip from outside
        back = geodesic_flow(
            fc, ChartState("polar", np.array([1.0, 0.3]), np.array([-1.0, 0.0])), 5.0
        )
        assert back.end_kind == "tip"
        assert back.end_link_point == pytest.approx(0.3, abs=1e-9)
        assert back.length == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("budget", [3.0, 4.0, 4.5, 5.0])
    def test_budget_ending_on_a_tip(self, budget):
        # the tip lies 4.0 ahead; a budget of exactly 4.0 clipped the last
        # step onto it, where the chart divides by r = 0, before the
        # tip-hit event inside that step was seen
        fc = surfaces.flat_cone(1.5 * np.pi)
        start = ChartState("polar", np.array([4.0, 0.2]), np.array([-1.0, 0.0]))
        path = geodesic_flow(fc, start, budget)
        if budget < 4.0:
            assert path.end_kind == "length" and path.length == budget
        else:
            assert path.end_kind == "tip" and path.end_tip == "tip"
            assert path.length == pytest.approx(4.0, abs=1e-14)
            assert path.end_link_point == pytest.approx(0.2, abs=1e-12)

    def test_angular_momentum_conserved_in_tip_band(self, spindle):
        chart = spindle.chart("polar")
        start = ChartState("polar", np.array([0.4, 1.0]), np.array([1.0, 0.5]))
        path = geodesic_flow(spindle, start, 0.25)
        vals = []
        for s in np.linspace(0.0, 0.25, 9):
            st = path.state(s)
            vals.append(chart.metric(st.p)[1, 1] * st.v[1])
        assert np.ptp(vals) < 1e-10

    def test_flow_composition(self, sphere):
        start = ChartState("band", np.array([0.1, 0.2]), np.array([0.3, 1.0]))
        whole = geodesic_flow(sphere, start, 2.4).state(2.4)
        first = geodesic_flow(sphere, start, 1.1).state(1.1)
        second = geodesic_flow(sphere, first, 1.3).state(1.3)
        assert np.allclose(whole.p, second.p, atol=1e-8)
        assert np.allclose(whole.v, second.v, atol=1e-8)

    def test_impact_parameter_controls_tip_hit(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        for b in (0.0, 0.01, 0.05, 0.2):
            # p_theta = b gives closest approach x = b on a flat cone
            v = np.array([-np.sqrt(1.0 - b * b), b])
            path = geodesic_flow(
                fc, ChartState("polar", np.array([1.0, 0.0]), v), 3.0
            )
            if b == 0.0:
                assert path.end_kind == "tip"
            else:
                assert path.end_kind == "length"

    def test_left_atlas_raises(self, plane):
        with pytest.raises(LeftAtlasError):
            geodesic_flow(
                plane,
                ChartState("cart", np.array([0.0, 0.0]), np.array([1.0, 0.0])),
                300.0,
            )

    # (surface, chart, start, velocity, distance to the wall ahead): each
    # start runs straight at a wall at unit speed
    WALLS = {
        "plane +x": (surfaces.plane, "cart",
                     [surfaces.PLANE_HALF_WIDTH - 1.0, 3.0], [1.0, 0.0], 1.0),
        "plane -x": (surfaces.plane, "cart",
                     [1.0 - surfaces.PLANE_HALF_WIDTH, 3.0], [-1.0, 0.0], 1.0),
        "plane +y": (surfaces.plane, "cart",
                     [3.0, surfaces.PLANE_HALF_WIDTH - 1.0], [0.0, 1.0], 1.0),
        "plane -y": (surfaces.plane, "cart",
                     [3.0, 1.0 - surfaces.PLANE_HALF_WIDTH], [0.0, -1.0], 1.0),
        # along a meridian, latitude is arc length
        "sphere north": (surfaces.sphere_band, "band",
                         [surfaces.SPHERE_BAND_MAX_LATITUDE - 0.1, 0.2],
                         [1.0, 0.0], 0.1),
        "sphere south": (surfaces.sphere_band, "band",
                         [0.1 - surfaces.SPHERE_BAND_MAX_LATITUDE, 0.2],
                         [-1.0, 0.0], 0.1),
        "flat cone": (lambda: surfaces.flat_cone(1.5 * np.pi), "polar",
                      [surfaces.FLAT_CONE_R_MAX - 1.0, 0.3], [1.0, 0.0], 1.0),
        # from beyond the switch back to the polar chart (u = 0.55),
        # outward along a radial line to the cap chart's wall u = 0.68
        "teardrop cap": (surfaces.teardrop, "cap", [0.6, 0.0], [1.0, 0.0],
                         0.68 - 0.6),
    }

    @pytest.mark.parametrize("wall", WALLS)
    def test_wall_at_its_boundary(self, wall):
        # a budget that ends a hair inside the wall returns; a hair past
        # it, the flow leaves the atlas
        build, chart, p, v, distance = self.WALLS[wall]
        surf = build()
        start = ChartState(chart, np.array(p), np.array(v))
        inside = geodesic_flow(surf, start, distance - 1e-9)
        assert inside.end_kind == "length"
        assert inside.length == distance - 1e-9
        assert inside.state(inside.length).chart == chart
        with pytest.raises(LeftAtlasError, match=f"chart '{chart}'"):
            geodesic_flow(surf, start, distance + 1e-9)

    @pytest.mark.parametrize("p,v,what", [
        ([0.0, 0.0], [0.0, 0.0], "velocity"),
        ([0.0, 0.0], [np.inf, 0.0], "velocity"),
        ([0.0, 0.0], [np.nan, 1.0], "velocity"),
        ([np.nan, 0.0], [1.0, 0.0], "position"),
        ([0.0, -np.inf], [1.0, 0.0], "position"),
    ])
    def test_bad_start_refused(self, plane, p, v, what):
        # refused before the velocity is divided by its length, with no
        # RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=what):
                geodesic_flow(plane, ChartState("cart", np.array(p), np.array(v)), 1.0)

    def test_teardrop_pole_crossing_is_smooth(self, teardrop):
        # a meridian continues straight through the pole cap
        path = shoot_from_tip(teardrop, "tip", A0 * np.pi / 4, 4.0)
        assert {leg.chart for leg in path.legs} == {"polar", "cap"}
        assert path.speed_drift() < 1e-9
        st = path.state(4.0)
        assert st.chart == "polar"
        # emerged on the opposite meridian
        assert np.remainder(st.p[1], 2 * np.pi) == pytest.approx(
            5 * np.pi / 4, abs=1e-8
        )


class TestConnectTips:
    def test_spindle_finds_invariant_meridian(self, spindle_closed):
        seg = spindle_closed.segments[0]
        assert seg.link_a == pytest.approx(A0 * np.pi / 4, abs=1e-9)
        assert seg.link_b == pytest.approx(A0 * np.pi / 4, abs=1e-9)
        assert seg.miss < 1e-9

    def test_spindle_length_matches_quadrature(self, spindle_closed):
        expected = quad(lambda r: np.sqrt(1 + 0.05 * bump(r)), 0, np.pi, limit=200)[0]
        assert spindle_closed.segments[0].length == pytest.approx(expected, abs=1e-8)

    def test_conjugate_tips_refused(self):
        sym = surfaces.perturbed_spindle(eps=0.0)
        with pytest.raises(ConjugateDegeneracyError):
            connect_tips(sym, "south", "north", A0 * 0.3)

    def test_teardrop_loop(self, teardrop_closed):
        seg = teardrop_closed.segments[0]
        assert seg.link_a == pytest.approx(A0 * np.pi / 4, abs=1e-9)
        assert seg.link_b == pytest.approx(A0 * 5 * np.pi / 4, abs=1e-8)
        expected = 2 * quad(
            lambda r: np.sqrt(1 + 0.05 * bump(r, 0.7, 2.0)), 0, np.pi, limit=200
        )[0]
        assert seg.length == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("closed", ["spindle_closed", "teardrop_closed"])
    def test_radial_finish_matches_flow(self, closed, request):
        # the converged shot is finished radially from the band entry; an
        # honest flow from the same launch must land on the same tip
        for seg in request.getfixturevalue(closed).segments:
            tip = seg.path.surface.tips[seg.path.end_tip]
            flow = shoot_from_tip(seg.path.surface, seg.path.start_tip,
                                  seg.link_a, seg.length + 1.0)
            assert flow.end_kind == "tip" and flow.end_tip == tip.tip_id
            assert abs(flow.length - seg.length) < 1e-9
            # theta whips round at the tip-hit cutoff; read it inside the band
            theta = flow.state(flow.length - tip.band / 2).p[1]
            assert abs(tip.link_coord(theta) - seg.link_b) < 1e-9


class TestBandStop:
    """A shot into a tip stops on entry into the tip's designer band.
    Inside it the metric is dx^2 + Q(x)^2 dy^2, so by Clairaut's relation
    the miss p_theta = Q^2 theta' and its Newton derivative are conserved
    across the band: the shot would read the same further in."""

    @pytest.mark.parametrize("name,eps,tips", [
        ("spindle", 0.05, ("south", "north")),
        ("spindle", -0.05, ("south", "north")),
        ("teardrop", 0.05, ("tip", "tip")),
    ], ids=["spindle", "spindle-negative-eps", "teardrop"])
    def test_miss_and_derivative_read_the_same_deeper_in(self, name, eps, tips):
        build = {"spindle": surfaces.perturbed_spindle,
                 "teardrop": surfaces.teardrop}[name]
        surface = build(a0=A0, eps=eps)
        ta, tb = (surface.tips[t] for t in tips)
        chart = surface.chart(tb.chart)
        seed = A0 * (np.pi / 4 + 0.02)  # the seed-0 builds' first Newton shot
        shot = shoot_from_tip(surface, ta.tip_id, seed, 12.0, into=tb.tip_id)
        assert shot.end_kind == "stop"
        assert tb.x_of(shot.state(shot.s1).p) == pytest.approx(tb.band, abs=1e-9)
        edge = geodesics._band_reading(chart, ta, shot._flow_state(shot.s1)[1])
        assert abs(edge[0]) > 1e-4  # a shot Newton has still to correct
        # the same launch flowed on, read at x = 0.1 on its way in (it
        # turns about x = |p_theta| / a0, closer in)
        on = shoot_from_tip(surface, ta.tip_id, seed, shot.s1 + 0.65)
        s = brentq(lambda s: tb.x_of(on.state(s).p) - 0.1, shot.s1, on.s1,
                   xtol=1e-14)
        miss, deriv = geodesics._band_reading(chart, ta, on._flow_state(s)[1])
        assert miss == pytest.approx(edge[0], rel=0.0, abs=1e-12)
        # the derivative, about 0.1, drifts by the flow's own error on the
        # way in, monotonically: 1.1e-12 on the teardrop, 1e-11 of it, the
        # integrator's rtol
        assert deriv == pytest.approx(edge[1], rel=0.0, abs=2e-12)

    def test_the_builtins_band_edges_are_their_seams(self, spindle, teardrop):
        # the shot ends on the bump's seam crossing itself, not at a second
        # event in the same place, crossed inward (r falls into the south
        # tip and the teardrop's, rises into the north tip)
        for surface, tip, inward in [(spindle, "south", -1.0),
                                     (spindle, "north", 1.0),
                                     (teardrop, "tip", -1.0)]:
            seam, direction = geodesics._band_edge(surface, surface.tips[tip])
            assert seam in surface.seams and direction == inward

    def test_an_edge_that_is_no_seam_stops_the_shot(self, spindle, spindle_closed):
        # with the south band narrowed to 0.5, its edge is no seam of the
        # surface: the shot ends on a seam of its own there, and Newton
        # lands on the same segment, the band being symmetric out to 0.7
        south = dataclasses.replace(spindle.tips["south"], band=0.5)
        narrowed = dataclasses.replace(spindle, tips={**spindle.tips, "south": south})
        ref = spindle_closed.segments[1]
        seg = connect_tips(narrowed, "north", "south", A0 * (5 * np.pi / 4 - 0.02))
        assert seg.path.state(seg.path.s1).p[0] == pytest.approx(0.5, abs=1e-9)
        assert seg.miss < 1e-9
        assert seg.length == pytest.approx(ref.length, abs=1e-12)
        assert seg.link_a == pytest.approx(ref.link_a, abs=1e-10)
        assert seg.link_b == pytest.approx(ref.link_b, abs=1e-10)


class TestReverseShot:
    """`reversed()` is a shot of its own from the path's end, held to the
    path's start by REVERSE_TOL."""

    def test_plane_and_sphere_land_on_their_start(self, plane, sphere):
        for path in (
            geodesic_flow(plane, ChartState("cart", np.array([1.0, -2.0]),
                                            np.array([3.0, 4.0])), 10.0),
            geodesic_flow(sphere, ChartState("band", np.array([0.1, 0.2]),
                                             np.array([0.3, 1.0])), 2.4),
        ):
            rev = path.reversed()
            start, end = path.state(0.0), rev.state(rev.length)
            assert rev.length == path.length and end.chart == start.chart
            assert np.allclose(end.p, start.p, rtol=0.0, atol=1e-10)
            assert np.allclose(end.v, -start.v, rtol=0.0, atol=1e-10)

    def test_reverse_into_a_tip_stops_short_of_it(self):
        # the flat cone's band is its whole chart, so these shots are all
        # head and never leave it: each reverse is the radial line back,
        # with no flow to integrate, finished into the tip (a reverse
        # budgeted the full length once clipped the last step of the 4.0
        # shot's reverse onto the tip, where the chart divides by r = 0)
        fc = surfaces.flat_cone(1.5 * np.pi)
        for length in (1.0, 2.0, 4.0, 7.5):
            rev = shoot_from_tip(fc, "tip", 0.2, length).reversed()
            assert rev.end_tip == "tip"
            assert rev.length == pytest.approx(length, abs=1e-12)
            assert rev.end_link_point == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("closed", ["spindle_closed", "teardrop_closed"])
    def test_guard_at_its_boundary(self, closed, request):
        for seg in request.getfixturevalue(closed).segments:
            path = seg.path
            rev = path.reversed()
            assert (rev.start_tip, rev.end_tip) == (path.end_tip, path.start_tip)
            assert abs(rev.length - path.length) < 1e-2 * REVERSE_TOL
            assert abs(rev.end_link_point - path.start_link_point) < 1e-2 * REVERSE_TOL
            # a launch 1e-7 off lands about 4e-8 (spindle) or 1e-7 (teardrop) off
            moved = copy.copy(path)
            vars(moved).pop("_reverse", None)
            moved.end_link_point += 1e-7
            with pytest.raises(NoConvergenceError):
                moved.reversed()


class TestSeams:
    """The g_rr bump is only finitely smooth at its edges; legs end on
    them, so no integrator step straddles one."""

    def test_legs_end_on_the_bump_edges(self, teardrop_closed):
        # the loop meets each edge twice, 0.7 first where it leaves the
        # tip's band: that is its first leg's start; and no step of a leg
        # lies on both sides of an edge (a leg's end on one is rounded)
        path = teardrop_closed.segments[0].path
        # each leg's run covers exactly its span, the seam legs included
        for leg in path.legs:
            assert (leg.sol.ts[0], leg.sol.ts[-1]) == (leg.s0, leg.s1)
        polar = [leg for leg in path.legs if leg.chart == "polar"]
        ends = [leg.sol(leg.s1)[0] for leg in polar]
        bounds = [path.state(polar[0].s0).p[0]] + ends
        for edge in (0.7, 2.0):
            assert sum(abs(r - edge) < 1e-9 for r in bounds) == 2
        for leg, end in zip(polar, ends):
            rs = np.array([step.y0[0] for step in leg.sol.steps] + [end])
            for edge in (0.7, 2.0):
                side = np.where(abs(rs - edge) < 1e-9, 0.0, np.sign(rs - edge))
                assert (side >= 0).all() or (side <= 0).all()

    def test_shot_starts_on_the_band_edge(self, spindle):
        # a shot's flow starts on the seam at its tip band's edge as a leg
        # that has just crossed it: on the band's piece, not stopped there
        chart = spindle.chart("polar")
        band = chart._piece([1.5, 0.0], 0.0)
        for tip, edge in (("south", 0.7), ("north", np.pi - 0.7)):
            path = shoot_from_tip(spindle, tip, 0.6, 1.0)
            first = path.legs[0]
            assert (first.s0, first.s1) == (0.7, 1.0)
            assert path.state(first.s0).p[0] == edge
            assert first.sol.steps[0].fun.keywords["_jets"] is band

    @pytest.mark.parametrize("closed,hi", [("spindle_closed", np.pi - 0.7),
                                           ("teardrop_closed", 2.0)])
    def test_loop_length_matches_tight_quadrature(self, closed, hi, request):
        # along the invariant meridians sin(2 theta) = 1
        geo = request.getfixturevalue(closed)
        half = np.pi - (hi - 0.7) + quad(
            lambda r: np.sqrt(1 + 0.05 * bump(r, 0.7, hi)), 0.7, hi,
            epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        assert geo.length == pytest.approx(2 * half, abs=1e-10)
        assert max(seg.path.speed_drift() for seg in geo.segments) < 1e-10

    @pytest.mark.parametrize("name,hi", [("spindle", np.pi - 0.7),
                                         ("teardrop", 2.0)])
    def test_pieces_match_the_piecewise_jets_on_their_side(self, name, hi, request):
        chart = request.getfixturevalue(name).chart("polar")
        for theta in (0.3, np.pi / 4, 2.0):
            for d in np.logspace(-9, -3, 7):
                for r in (0.7 - d, 0.7 + d, hi - d, hi + d):
                    p = np.array([r, theta])
                    assert chart._piece(p, 0.0)(r, theta) == chart._jets(r, theta)
                    y = np.array([r, theta, 0.3, 0.7, 0.1, 1.0])
                    assert chart.leg_rhs(p, 0.0)(0.0, y) == chart.flow_rhs(0.0, y)

    @pytest.mark.parametrize("name,hi", [("spindle", np.pi - 0.7),
                                         ("teardrop", 2.0)])
    def test_piece_after_a_seam_is_the_far_side(self, name, hi, request):
        chart = request.getfixturevalue(name).chart("polar")
        band = chart._piece([0.5 * (0.7 + hi), 0.0], 0.0)
        flat = chart._piece([0.3, 0.0], 0.0)
        assert band is not flat
        # the seams' values r - 0.7 and r - hi rise with r
        for edge, inward in ((0.7, 1.0), (hi, -1.0)):
            for r in (edge - 1e-12, edge, edge + 1e-12):
                assert chart._piece([r, 0.5], inward) is band
                assert chart._piece([r, 0.5], -inward) is flat

    @pytest.mark.parametrize("edge,outward", [(0.7, -1.0), (np.pi - 0.7, 1.0)])
    def test_near_tangent_crossing_runs_on_the_far_side(self, spindle, edge, outward):
        # from one ulp outside an edge along its parallel the geodesic
        # drifts into the band and crosses with |v_r| near 1e-8, where a
        # piece chosen from the start's rounding and v_r would be the
        # flat side's, continued across the band with no seam to end it
        chart = spindle.chart("polar")
        band = chart._piece([1.5, 0.0], 0.0)
        for theta in (0.1, 1.0, 2.5, 4.0):
            start = ChartState("polar",
                               np.array([np.nextafter(edge, outward * np.inf), theta]),
                               np.array([0.0, 1.0]))
            path = geodesic_flow(spindle, start, 0.3)
            last = path.legs[-1]
            crossed = path.state(last.s0)
            assert abs(crossed.p[0] - edge) < 1e-12
            assert 0 < -outward * crossed.v[0] < 1e-6
            assert last.sol.steps[0].fun.keywords["_jets"] is band
            assert all(leg.sol.steps[0].fun.keywords["_jets"] is not band
                       for leg in path.legs[:-1] if leg.s1 > leg.s0)

    def test_loop_length_does_not_depend_on_launch_seed(self, teardrop):
        lengths = [build_closed_diffractive(teardrop, ["tip"],
                                            [A0 * (np.pi / 4 + 0.02) + d],
                                            length_cap=12.0).length
                   for d in (-3e-6, -1e-7, 1e-7, 3e-6)]
        assert np.ptp(lengths) < 1e-12


def test_no_jacobi_solve_per_newton_iteration(spindle, teardrop, monkeypatch):
    # the Newton derivative is the shot's own (j, j') at band entry, and a
    # segment's radial end cap is solved when its field is first read, so
    # the build makes no Jacobi solve
    from conetrace import jacobi
    solves = []
    solve = jacobi.integrate_jacobi

    def counted(path, s0, s1, j0, jp0):
        solves.append((s0, s1))
        return solve(path, s0, s1, j0, jp0)

    monkeypatch.setattr(jacobi, "integrate_jacobi", counted)
    for surface, tips, seeds, kw in [
        (spindle, ["south", "north"],
         [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)], {}),
        (teardrop, ["tip"], [A0 * (np.pi / 4 + 0.02)], {"length_cap": 12.0}),
    ]:
        solves.clear()
        geo = build_closed_diffractive(surface, tips, seeds, **kw)
        assert sum(seg.iterations for seg in geo.segments) > len(geo.segments)
        assert solves == []


def test_flow_rhs_calls_of_the_seed0_builds(monkeypatch):
    # each leg runs on one smooth piece of the metric, so the steps that
    # cross the bump's edges are accepted, not rejected down to slivers,
    # and each shot starts at its tip band's edge and ends on the target
    # tip's: 1,908 and 2,550 calls, against 3,276 and 3,228 running on to
    # x = 0.1, 3,786 and 3,537 from x = 1e-6 and 5,646 and 5,616 on the
    # piecewise jets
    calls = []
    for cls in (surfaces.OrthogonalChart, surfaces.CapChart):
        def counted(self, s, y, *args, _rhs=cls.flow_rhs, **kw):
            calls.append(s)
            return _rhs(self, s, y, *args, **kw)
        monkeypatch.setattr(cls, "flow_rhs", counted)
    for surface, tips, seeds, kw in [
        (surfaces.perturbed_spindle(a0=A0, eps=0.05), ["south", "north"],
         [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)], {}),
        (surfaces.teardrop(a0=A0, eps=0.05), ["tip"], [A0 * (np.pi / 4 + 0.02)],
         {"length_cap": 12.0}),
    ]:
        calls.clear()
        build_closed_diffractive(surface, tips, seeds, **kw)
        assert len(calls) <= 4500, tips


def test_flow_work_of_the_seed0_predictions(monkeypatch):
    # the RHS evaluations of the six-component flow (every shot, reverse
    # shots included) through the seed-0 builds and both trace routes:
    # 8,256 when every shot ran on to x = 0.1, 6,012 with each shot into
    # a tip ended on the seam at its band's edge; the count repeats
    # exactly, and the bound is about 1.5% above it (a stop just inside
    # the edge, with a sliver leg after the seam, reads 6,180).  The
    # two-component cap solves of the fields, 186 before and 378 after,
    # are not counted
    from conetrace import amplitudes, ode

    calls = []
    solve = ode.solve

    def counted(fun, t0, t1, y0, **kw):
        if len(y0) == 6:
            def fun(t, y, _f=fun):
                calls.append(t)
                return _f(t, y)
        return solve(fun, t0, t1, y0, **kw)

    monkeypatch.setattr(ode, "solve", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        for surface, tips, seeds, kw in [
            (surfaces.perturbed_spindle(a0=A0, eps=0.05), ["south", "north"],
             [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)], {}),
            (surfaces.teardrop(a0=A0, eps=0.05), ["tip"],
             [A0 * (np.pi / 4 + 0.02)], {"length_cap": 12.0}),
        ]:
            geo = build_closed_diffractive(surface, tips, seeds, **kw)
            amplitudes.trace_singularity(geo, amplitudes.invariants_for(geo))
            amplitudes.trace_singularity_cut_route(geo)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 6100


class TestClosedGeodesics:
    def test_spindle_junctions_strict(self, spindle_closed):
        assert spindle_closed.strictly_diffractive
        for j in spindle_closed.junctions:
            assert j.kind == "strictly_diffractive"
            assert j.separation == pytest.approx(np.pi / 4, abs=1e-6)

    def test_spindle_primitive(self, spindle_closed):
        assert spindle_closed.iterate_count == 1
        assert spindle_closed.primitive_length == pytest.approx(
            spindle_closed.length
        )

    def test_doubled_sequence_detected(self, spindle):
        seeds = [
            A0 * (np.pi / 4 + 0.02),
            A0 * (5 * np.pi / 4 - 0.02),
            A0 * (np.pi / 4 + 0.02),
            A0 * (5 * np.pi / 4 - 0.02),
        ]
        twice = build_closed_diffractive(
            spindle, ["south", "north", "south", "north"], seeds
        )
        assert twice.iterate_count == 2
        assert twice.primitive_length == pytest.approx(twice.length / 2)

    def test_iterate_reuses_the_primitive_shots(self, spindle, monkeypatch):
        # each distinct (tip, next tip, seed) is connected once
        shots = []
        shoot = geodesics.shoot_from_tip
        monkeypatch.setattr(geodesics, "shoot_from_tip",
                            lambda *a, **kw: shots.append(a[1]) or shoot(*a, **kw))
        seeds = [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)]
        counts = []
        for r in (1, 2):
            shots.clear()
            geo = build_closed_diffractive(spindle, ["south", "north"] * r, seeds * r)
            counts.append(len(shots))
        assert counts[0] == counts[1] > 0
        assert geo.segments[2:] == geo.segments[:2]

    def test_classify_continuation(self):
        link = LinkSpectrum.circle(3 * np.pi)
        assert classify_continuation(link, 0.0, np.pi) == "geometric"
        assert classify_continuation(link, 0.0, np.pi + 0.2) == "strictly_diffractive"
        # wrapped arc on a narrow cone
        narrow = LinkSpectrum.circle(1.5 * np.pi)
        assert classify_continuation(narrow, 0.0, 0.5 * np.pi) == "geometric"


class TestPerturbationGuard:
    """g_rr = 1 + eps b(r) sin 2 theta and the bump b reaches 1 at the band
    midpoint, so the metric is Riemannian exactly when |eps| < 1."""

    BUILDS = {"spindle": (surfaces.perturbed_spindle, np.pi / 2),
              "teardrop": (surfaces.teardrop, 1.35)}

    @pytest.mark.parametrize("name", BUILDS)
    @pytest.mark.parametrize("eps", [1 - 1e-9, -(1 - 1e-9)])
    def test_just_inside_builds(self, name, eps):
        build, mid = self.BUILDS[name]
        chart = build(eps=eps).chart("polar")
        theta = 3 * np.pi / 4 if eps > 0 else np.pi / 4  # eps sin 2 theta < 0
        assert chart.metric([mid, theta])[0, 0] == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("name", BUILDS)
    @pytest.mark.parametrize("eps", [1.0, -1.0, 1.5])
    def test_at_and_past_the_bound_raises(self, name, eps):
        with pytest.raises(ValueError, match="eps"):
            self.BUILDS[name][0](eps=eps)


class TestTipData:
    def test_custom_chart_frobenius(self):
        surf = cone_chart_surface("1.2*(1+p0)**0.5")
        tip = surf.tips["tip"]
        assert tip.a0 == pytest.approx(1.2)
        assert tip.c1 == pytest.approx(0.5)

    def test_link_circumference_matches_cone_angle(self, spindle):
        for tip in spindle.tips.values():
            assert tip.link.circumference == pytest.approx(2 * np.pi * tip.a0)

    def test_frobenius_c1_of_irrational_cone_angle(self):
        # a0 = 1.2 sqrt(1.5) is irrational: c1 must come from the exact a0,
        # a rounded one leaves a 1/x term and an infinite limit
        tip = cone_chart_surface("1.2*(1.5-p0)**0.5").tips["tip"]
        assert tip.a0 == pytest.approx(1.2 * np.sqrt(1.5))
        assert tip.c1 == pytest.approx(-1.0 / 3.0)

    def test_degenerate_tip_rejected(self):
        with pytest.raises(SeriesStartFailureError):
            cone_chart_surface("p0")  # sqrt(G) ~ x^2


def _sympy_bump(r, lo, hi):
    core = ((r - lo) * (hi - r)) ** 3 / ((hi - lo) / 2.0) ** 6
    return sp.Piecewise((core, sp.And(r > lo, r < hi)), (0.0, True))


def _reference_pq(surface):
    """sqrt(g_rr) and sqrt(g_theta_theta) of the fixture surfaces' polar
    charts as sympy expressions in (p0, p1): the charts' own definitions,
    which their closed-form jets must reproduce."""
    p0, p1 = sp.symbols("p0 p1", real=True)
    if surface == "cone_chart":
        return p0, p1, sp.Integer(1), p0 * 1.2 * (1 + p0) ** 0.5
    hi = np.pi - 0.7 if surface == "spindle" else 2.0
    P = sp.sqrt(1 + 0.05 * _sympy_bump(p0, 0.7, hi) * sp.sin(2 * p1))
    if surface == "spindle":
        return p0, p1, P, A0 * sp.sin(p0)
    return p0, p1, P, sp.sin(p0) * (A0 + (1 - A0) * sp.sin(p0 / 2) ** 2)


# three velocities whose quadratic forms v^i v^j span all three (i, j):
# the flow's accelerations -G^a_ij v^i v^j at them pin all six symbols
VELOCITIES = ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8))


def _numpy_reference(p0, p1, P, Q):
    """Metric, K, sqrt(G) and its gradient of the metric
    P^2 dp0^2 + Q^2 dp1^2, keyed by chart method, and its Christoffel
    symbols G^a_ij, all derived symbolically from P and Q and lambdified
    with numpy."""
    coords = (p0, p1)
    g = sp.diag(P**2, Q**2)
    ginv = sp.diag(1 / P**2, 1 / Q**2)
    gammas = [
        [[sum(ginv[a, l] * (sp.diff(g[l, j], coords[i]) + sp.diff(g[l, i], coords[j])
                            - sp.diff(g[i, j], coords[l])) for l in range(2)) / 2
          for j in range(2)] for i in range(2)]
        for a in range(2)
    ]
    curv = -(sp.diff(sp.diff(Q, p0) / P, p0) + sp.diff(sp.diff(P, p1) / Q, p1)) / (P * Q)
    funcs = {
        "metric": [[P**2, 0], [0, Q**2]],
        "curvature": curv,
        "sqrt_q": Q,
        "sqrt_q_grad": [sp.diff(Q, p0), sp.diff(Q, p1)],
    }
    return ({name: sp.lambdify(coords, expr, modules="numpy")
             for name, expr in funcs.items()},
            sp.lambdify(coords, gammas, modules="numpy"))


@pytest.fixture(scope="module")
def cone_chart():
    return cone_chart_surface("1.2*(1+p0)**0.5")


class TestCompiledCharts:
    """Charts run as scalar closed-form (builtins) or lambdified (cone
    chart) jets; numpy code of the symbolic derivatives of P and Q is the
    reference, near each tip and just inside and outside each bump edge."""

    REL, ABS = 1e-13, 1e-15

    # the spindle's bump edges are 0.7 and pi - 0.7, the teardrop's 0.7 and 2.0
    EDGES = (0.7, np.pi - 0.7, 2.0)
    TIP_X = (1e-7, 1e-5, 1e-3, 0.1, 1.0)
    TIPS = {"spindle": (0.0, np.pi), "teardrop": (0.0,), "cone_chart": (0.0,)}

    @pytest.mark.parametrize("surface", ["spindle", "teardrop", "cone_chart"])
    def test_matches_numpy_reference(self, request, surface):
        chart = request.getfixturevalue(surface).chart("polar")
        ref, ref_gamma = _numpy_reference(*_reference_pq(surface))
        radii = [edge + d for edge in self.EDGES for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
        radii += [tip + x if tip == 0.0 else tip - x
                  for tip in self.TIPS[surface] for x in self.TIP_X]
        for r in radii:
            for theta in (0.3, np.pi / 4 + 0.1, 4.0):
                p = np.array([r, theta])
                for method in ref:
                    got = np.asarray(getattr(chart, method)(p), dtype=float)
                    want = np.asarray(ref[method](r, theta), dtype=float)
                    assert got.shape == want.shape
                    assert np.allclose(got, want, rtol=self.REL, atol=self.ABS), (
                        surface, method, r, theta)
                gamma = np.asarray(ref_gamma(r, theta), dtype=float)
                for v in VELOCITIES:
                    got = chart.flow_rhs(0.0, np.array([r, theta, *v, 0.2, 1.1]))
                    want = -np.einsum("aij,i,j->a", gamma, v, v)
                    assert np.allclose(got[2:4], want, rtol=self.REL,
                                       atol=self.ABS), (surface, v, r, theta)

    def test_off_domain_raises_step_failure(self):
        # sqrt(G) = 1.2 p0 (1.5 - p0)^0.5 has no real value past p0 = 1.5
        surf = cone_chart_surface("1.2*(1.5-p0)**0.5")
        with pytest.raises(StepFailureError):
            shoot_from_tip(surf, "tip", 0.3, 3.0)

    def test_singular_curvature_stops_the_flow(self):
        # K ~ 1 / (4 (1.5 - p0)^2) ahead of that edge: the flow stops where
        # |K| passes MAX_CURVATURE instead of creeping toward the edge
        chart = cone_chart_surface("1.2*(1.5-p0)**0.5").chart("polar")
        y = np.array([1.5 - 1e-8, 0.3, 1.0, 0.0, 0.1, 1.0])
        with pytest.raises(StepFailureError, match="singular"):
            chart.flow_rhs(0.0, y)
        assert np.all(np.isfinite(chart.flow_rhs(0.0, y - [0.5, 0, 0, 0, 0, 0])))

    def test_path_curvature_finite_at_tip_ends(self, spindle_closed):
        # the chart's K is 0/0 exactly at a tip
        path = spindle_closed.segments[0].path
        assert np.isfinite(path.curvature(0.0))
        assert np.isfinite(path.curvature(path.length))


@pytest.fixture(scope="module", params=[0.3, 0.6, 0.75, 0.9],
                ids=lambda a0: f"a0={a0}")
def teardrop_at(request):
    """(a0, teardrop(a0)); a0 = 0.6 and 0.9 used to fail inside sympy's
    series expansion."""
    return request.param, surfaces.teardrop(request.param)


def test_teardrop_builds_for_cone_angle(teardrop_at):
    a0, surf = teardrop_at
    assert set(surf.charts) == {"polar", "cap"}
    assert surf.tips["tip"].a0 == a0


class TestCapSeries:
    """The cap's series come from the sine coefficients of its profile, by
    power-series products and a division; check them at their edges."""

    def test_pole_curvature(self, teardrop_at):
        a0, surf = teardrop_at
        assert surf.chart("cap").curvature([0.0, 0.0]) == pytest.approx(
            1.0 + 1.5 * (1.0 - a0), rel=1e-13, abs=1e-13)

    def test_branches_agree_at_switch(self, teardrop_at):
        cap = teardrop_at[1].chart("cap")
        below = cap.SERIES_SWITCH * (1 - 1e-12)
        above = cap.SERIES_SWITCH * (1 + 1e-12)
        for series, closed in zip(cap._q_r_k(below), cap._q_r_k(above)):
            assert series == pytest.approx(closed, rel=1e-11)
        assert cap.curvature([below, 0.0]) == pytest.approx(
            cap.curvature([above, 0.0]), rel=1e-11)

    @pytest.mark.parametrize("a0", [0.6, 0.75, 0.8])
    def test_teardrop_profile_coefficients_exact(self, a0):
        # f(pi - u) = (1 + a0)/2 sin u + (1 - a0)/4 sin 2u, so the u^(2k+1)
        # coefficient is (-1)^k / (2k+1)! [(1 + a0)/2 + (1 - a0) 2^(2k-1)]
        coeffs = surfaces.teardrop(a0).chart("cap")._f_coeffs
        assert len(coeffs) == surfaces.CapChart.SERIES_ORDER + 1
        a = Fraction(str(a0))
        for k, c in enumerate(coeffs):
            exact = (Fraction((-1) ** k, math.factorial(2 * k + 1))
                     * ((1 + a) / 2 + (1 - a) * Fraction(2) ** (2 * k - 1)))
            assert abs(c - float(exact)) <= 1e-16 * abs(float(exact)), k

    @pytest.mark.parametrize("a0", [0.3, 0.6, 0.75, 0.8, 0.95])
    def test_teardrop_cap_slope_is_exactly_one(self, a0, monkeypatch):
        # teardrop hands its cap the exact fractions (1 + a0)/2 and
        # (1 - a0)/4 of the decimal a0, whose slope sum b1 + 2 b2 is 1 with
        # no rounding, so its cap never meets the slope check's refusal
        seen = []

        class Recording(surfaces.CapChart):
            def __init__(self, name, sine_coeffs):
                seen.append(tuple(sine_coeffs))
                super().__init__(name, sine_coeffs)

        monkeypatch.setattr(surfaces, "CapChart", Recording)
        surfaces.teardrop(a0)
        assert len(seen) == 1
        assert all(isinstance(b, Fraction) for b in seen[0])
        assert sum(m * b for m, b in enumerate(seen[0], start=1)) == 1

    @pytest.mark.parametrize("sines", [[2.0]], ids=["wrong-slope"])
    def test_bad_profile_rejected(self, sines):
        # sum_m m b_m is the profile's slope at the pole, which must be 1
        with pytest.raises(SeriesStartFailureError):
            surfaces.CapChart("cap", sines)

    def test_slope_tolerance_at_its_boundary(self):
        surfaces.CapChart("cap", [0.9, 0.05 * (1 + 5e-12)])
        with pytest.raises(SeriesStartFailureError):
            surfaces.CapChart("cap", [0.9, 0.05 * (1 + 5e-11)])


def _numpy_cap(cap, p):
    """The cap's metric and Christoffel symbols by the general formulas
    in numpy (np.linalg.inv and the sum over metric derivatives), from
    the chart's own Q and R = Q'(u)/u."""
    x = np.asarray(p, dtype=float)
    u = float(np.hypot(x[0], x[1]))
    q, r, _ = cap._q_r_k(u)
    delta = np.eye(2)
    proj = u * u * delta - np.outer(x, x)
    g = delta + q * proj
    dg = np.empty((2, 2, 2))  # dg[k, i, j] = d g_ij / d x_k
    for k in range(2):
        dg[k] = r * x[k] * proj + q * (2 * x[k] * delta - np.outer(delta[k], x)
                                       - np.outer(x, delta[k]))
    ginv = np.linalg.inv(g)
    gamma = np.empty((2, 2, 2))
    for a in range(2):
        for i in range(2):
            for j in range(2):
                gamma[a, i, j] = 0.5 * sum(
                    ginv[a, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                    for l in range(2))
    return g, gamma


class TestScalarCap:
    """The cap's scalar float code against the general numpy formulas, at
    the pole, on both sides of the series switch and at the chart switch
    back to polar coordinates; K against -f''/f from sympy."""

    REL, ABS = 1e-13, 1e-15

    @pytest.mark.parametrize("u", [0.0, 0.35 - 1e-9, 0.35 + 1e-9, 0.55])
    def test_matches_numpy_formulas(self, teardrop_at, u):
        a0, surf = teardrop_at
        cap = surf.chart("cap")
        w = sp.Symbol("w")
        f = (1 + a0) / 2 * sp.sin(w) + (1 - a0) / 4 * sp.sin(2 * w)
        for phi in (0.0, 0.7, 2.5, -1.9):
            p = np.array([u * np.cos(phi), u * np.sin(phi)])
            g, gamma = _numpy_cap(cap, p)
            assert np.allclose(cap.metric(p), g, rtol=self.REL, atol=self.ABS)
            k = cap.curvature(p)
            for v in VELOCITIES:
                y = np.concatenate([p, v, [0.2, 1.1]])
                want = [*v, *-np.einsum("aij,i,j->a", gamma, v, v), 1.1, -k * 0.2]
                assert np.allclose(cap.flow_rhs(0.0, y), want, rtol=self.REL,
                                   atol=self.ABS), v
            if u > 0:
                k_ref = float(-sp.diff(f, w, 2).subs(w, u) / f.subs(w, u))
                assert k == pytest.approx(k_ref, rel=self.REL)
