"""Jacobi fields: spreading, Wronskians, Morse indices, broken Hessians."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetrace import amplitudes, jacobi, ode, surfaces, verify
from conetrace.errors import ConjugateDegeneracyError
from conetrace.geodesics import (
    ChartState,
    build_closed_diffractive,
    geodesic_flow,
    shoot_from_tip,
)

from cone_chart import cone_chart_surface

A0 = 0.75
# distance from the tip at which b_jacobi_solution starts its field; the
# start's j' misses the x^2 K / 2 term, so the offset must be small: 5e-13
# here, 5e-9 at 1e-4
FROBENIUS_START_X = 1e-6


def _frobenius_start(c1, x):
    """(j, j') of the tip-normalized field at distance x from a tip whose
    sqrt(G) is a0 x (1 + c1 x + ...)."""
    return x * (1.0 + c1 * x), 1.0 + 2.0 * c1 * x


def b_jacobi_solution(path, s1=None, *, x_start=FROBENIUS_START_X):
    """The tip-normalized field (j ~ x near the tip) along a tip-start
    path, solved along the stored path from the Frobenius start
    j = x (1 + c1 x), j' = 1 + 2 c1 x at x_start, with c1 the first
    radial correction of sqrt(G) (exact through second order even where
    the curvature has a 1/x singularity at a non-product tip).  It is
    independent of the flow's closed-form head and the reference the
    tests check that head against."""
    j0, jp0 = _frobenius_start(path.surface.tips[path.start_tip].c1, x_start)
    s1 = path.length if s1 is None else s1
    return jacobi.integrate_jacobi(path, x_start, s1, j0, jp0)


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
        j, jp = b_jacobi_solution(path, s_sec).pair(s_sec)
        sq = chart.sqrt_q(st.p)
        dsq_dr = float(chart.sqrt_q_grad(st.p)[0])
        deriv = 0.75 * (jp * sq * st.v[0] - j * dsq_dr)
        j_end = b_jacobi_solution(path).pair(path.length)[0]
        assert abs(abs(deriv) - 0.75 * tip_b.a0 * abs(j_end)) < 1e-6

    def test_shape_operator_flat_cone(self):
        fc = surfaces.flat_cone(1.5 * np.pi)
        path = shoot_from_tip(fc, "tip", 0.0, 4.0)
        # j'/j of the tip field: 1/x on the flat cone
        j, jp = path.flow_field.pair(2.0)
        assert jp / j == pytest.approx(0.5, abs=1e-9)


class TestFlowField:
    """The field the geodesic flow carries is the Jacobi field: it matches
    a separate solve along the stored path."""

    TOL = 1e-10

    def assert_matches(self, field, ref, ss):
        for s in ss:
            got, want = field.pair(s), ref.pair(s)
            assert abs(got[0] - want[0]) <= self.TOL, s
            assert abs(got[1] - want[1]) <= self.TOL, s

    @pytest.mark.parametrize("closed", ["spindle_closed", "teardrop_closed"])
    def test_tip_field_matches_separate_solve(self, closed, request):
        # each segment and its reverse shot, which is a flow of its own
        for seg in request.getfixturevalue(closed).segments:
            for path in (seg.path, seg.path.reversed()):
                ref = b_jacobi_solution(path)
                ss = np.append(np.linspace(0.05, path.length, 25, endpoint=False),
                               path.length)
                self.assert_matches(path.flow_field, ref, ss)

    def test_float_and_array_reads_agree(self, teardrop_closed):
        # a float takes its own path through the closed-form head, the legs
        # and the end cap; an array is summed in another order
        path = teardrop_closed.segments[0].path
        field = path.flow_field
        ss = np.concatenate([[0.0, 0.5 * path.legs[0].s0],
                             np.linspace(path.legs[0].s0, path.legs[-1].s1, 40),
                             [0.5 * (path.legs[-1].s1 + path.length), path.length]])
        np.testing.assert_allclose(np.array([field.pair(s) for s in ss]).T,
                                   field.pair(ss), rtol=1e-14, atol=1e-15)

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
        # the closed-form head behaves as j ~ x at the tip: its first two
        # terms are the Frobenius start's, at a non-product tip
        # (sqrt(G) = 1.3 x sqrt(1 + x/2), c1 = 1/4; the next terms of j
        # and j' are -x^3/32 and -3 x^2/32)
        surf = cone_chart_surface("1.3*(1+p0/2)**0.5")
        c1 = surf.tips["tip"].c1
        assert c1 == pytest.approx(0.25, abs=1e-15)
        path = shoot_from_tip(surf, "tip", 0.0, 2.0)
        for x in (0.0, 1e-7, 1e-6, 1e-4):
            j, jp = path.flow_field.pair(x)
            assert j == pytest.approx(x * (1 + c1 * x), abs=x**3 / 16 + 1e-18)
            assert jp == pytest.approx(1 + 2 * c1 * x, abs=x**2 / 8 + 1e-15)

    def test_head_matches_separate_solve(self, spindle_closed, teardrop_closed):
        # across the designer band the closed form is the field that a
        # solve from the Frobenius start finds
        for closed in (spindle_closed, teardrop_closed):
            for seg in closed.segments:
                for path in (seg.path, seg.path.reversed()):
                    x0 = path.legs[0].s0
                    assert x0 == pytest.approx(0.7, abs=1e-15)
                    ref = b_jacobi_solution(path, x0)
                    self.assert_matches(path.flow_field, ref,
                                        np.linspace(1e-3, x0, 15))

    def test_shot_shorter_than_its_band(self):
        # a shot shorter than its tip's band (1 on the flat cone, the whole
        # chart on a cone chart) is all head, with one leg of length zero
        for surf, length, field in [
            (surfaces.flat_cone(1.5 * np.pi), 0.75, lambda s: (s, 1.0)),
            (cone_chart_surface("1.3*(1+p0/2)**0.5"), 3.0,
             lambda s: (s * np.sqrt(1 + s / 2),
                        np.sqrt(1 + s / 2) + s / (4 * np.sqrt(1 + s / 2)))),
        ]:
            path = shoot_from_tip(surf, "tip", 0.2, length)
            assert [(leg.s0, leg.s1) for leg in path.legs] == [(length, length)]
            assert path.length == length
            for s in (0.0, length / 3, length):
                j, jp = path.flow_field.pair(s)
                assert (j, jp) == pytest.approx(field(s), abs=1e-13)
                assert path.state(s).p == pytest.approx([s, 0.2 / surf.tips["tip"].a0])
            assert path.flow_field.zero_count(path.length) == 0

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
            abs(ref.pair(2.0)[0]) / 2.0, abs=self.TOL)
        assert solves == []

    def test_great_circle_field_is_sine(self, sphere):
        start = ChartState("band", np.array([0.1, 0.2]), np.array([0.3, 1.0]))
        path = geodesic_flow(sphere, start, 3.0)
        for s in np.linspace(0.0, 3.0, 13):
            assert path.flow_field.pair(s)[0] == pytest.approx(np.sin(s), abs=1e-10)


class TestEndPair:
    """A field from s0 > 0 is the combination of the path's two end fields
    that vanishes at s0 with slope 1; a solve along the stored path is the
    reference."""

    TOL = 1e-9

    def test_matches_separate_solve(self, sphere, spindle_closed, teardrop_closed):
        # s0 in a start tip's closed-form head (x < 0.7), mid-path, and in
        # the radial end cap (the last 0.7, across the target tip's band) of
        # a tip-to-tip segment
        paths = [seg.path for seg in spindle_closed.segments]
        paths += [teardrop_closed.segments[0].path, sphere_arc(sphere, 2.8),
                  sphere_arc(sphere, 4.0)]
        for path in paths:
            length = path.length
            for s0 in (0.3, 0.5 * length, length - 0.05):
                field = jacobi._field_from(path, s0, length)
                ref = jacobi.integrate_jacobi(path, s0, length, 0.0, 1.0)
                ss = np.linspace(s0, length, 15)
                np.testing.assert_allclose(field.pair(ss), ref.pair(ss),
                                           rtol=0.0, atol=self.TOL)

    def test_criteria_4_to_7_solve_only_end_caps(self, monkeypatch):
        # built afresh, so that the first run makes every shot it reads
        verify._segment_paths.cache_clear()
        verify._spindle_closed.cache_clear()
        solves = []
        solve = jacobi.integrate_jacobi

        def counted(path, s0, s1, j0, jp0):
            solves.append((path, s0, s1))
            return solve(path, s0, s1, j0, jp0)

        monkeypatch.setattr(jacobi, "integrate_jacobi", counted)
        for criterion in (4, 5, 6, 7):
            assert verify.run(criterion).passed
        # the radial end caps of the two spindle segments, of their reverse
        # shots and of the shots back from those (criterion 6's backward
        # side), each solved once when its flow's field is first read
        assert len(solves) == 6
        for path, s0, s1 in solves:
            assert path.end_kind == "tip"
            assert (s0, s1) == (path.legs[-1].s1, path.length)
        solves.clear()
        for criterion in (4, 5, 6, 7):
            verify.run(criterion)
        assert solves == []

    # on the unit sphere W = -a(L) = -sin(L), and the pair is refused when
    # |sin L| < END_PAIR_TOL L: for L = pi +- delta, delta below about
    # END_PAIR_TOL pi
    @pytest.mark.parametrize("side", [-1, 1], ids=["short", "long"])
    def test_conjugate_ends_guard_edge(self, sphere, side):
        edge = jacobi.END_PAIR_TOL * np.pi
        outside = sphere_arc(sphere, np.pi + side * 1.1 * edge)
        field = jacobi._field_from(outside, 1.0, outside.length)
        ss = np.linspace(1.0, outside.length, 9)
        np.testing.assert_allclose(field.pair(ss),
                                   [np.sin(ss - 1.0), np.cos(ss - 1.0)],
                                   rtol=0.0, atol=1e-8)
        assert jacobi.wronskian_drift(outside) < 1e-8
        inside = sphere_arc(sphere, np.pi + side * 0.9 * edge)
        for read in (jacobi.theta_spreading, jacobi.morse_index,
                     jacobi.wronskian_drift):
            with pytest.raises(ConjugateDegeneracyError):
                read(inside, 1.0)
        # a field from s0 = 0 is the flow's own and needs no pair
        assert jacobi.theta_spreading(inside) == pytest.approx(
            abs(np.sin(inside.length)) / inside.length, abs=1e-10)


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

    def test_span_checked_at_its_edge(self, sphere):
        # the span of _field_from: s1 = length reads, one ulp past it and
        # an empty span raise instead of reading at clamped points
        path = sphere_arc(sphere, 2.5)
        assert jacobi.wronskian_drift(path, 0.5, path.length) < 1e-8
        past = np.nextafter(path.length, np.inf)
        for s0, s1 in ((0.5, past), (0.5, 9.0), (2.0, 1.0), (-1.0, 1.0),
                       (1.0, 1.0)):
            with pytest.raises(ValueError, match="need 0 <= s0 < s1"):
                jacobi.wronskian_drift(path, s0, s1)


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

    @pytest.mark.parametrize("eps", [0.05, 0.01, -0.05, -0.01])
    def test_sign_rule_on_the_seed0_builds(self, eps):
        # the index follows the sign of eps sin 2 theta on the invariant
        # meridians (theta = pi/4 here): each spindle segment's is 1 for
        # eps > 0 and 0 for eps < 0, the teardrop loop's 2 against 1
        spindle, teardrop = seed0_geodesics(eps)
        assert [inv.morse for inv in amplitudes.invariants_for(spindle)] == (
            [1, 1] if eps > 0 else [0, 0])
        assert [inv.morse for inv in amplitudes.invariants_for(teardrop)] == (
            [2] if eps > 0 else [1])

    def test_additivity_on_spindle_segment(self, spindle_closed):
        path = spindle_closed.segments[0].path
        cut = 0.45 * path.length
        whole = jacobi.morse_index(path)
        m1 = jacobi.morse_index(path, 0.0, cut)
        m2 = jacobi.morse_index(path, cut, path.length)
        h = jacobi.broken_hessian(path, cut)
        assert whole == m1 + m2 + (1 if h < 0 else 0)


GRID_PAD = 1e-9  # the grid scan starts and ends this far inside its interval


def grid_zero_count(field, lo, hi):
    """The zero search that the Prüfer-angle count replaced, kept as its
    reference: the sign changes of j on max(400, 200 (hi - lo)) even
    points of [lo + GRID_PAD, hi - GRID_PAD]."""
    grid = np.linspace(lo + GRID_PAD, hi - GRID_PAD, max(400, int(200 * (hi - lo))))
    sign = np.sign(field.pair(grid)[0])
    return int(np.count_nonzero(sign[:-1] * sign[1:] < 0))


def seed0_geodesics(eps):
    """The seed-0 spindle and teardrop geodesics, at the given eps."""
    return [
        build_closed_diffractive(surfaces.perturbed_spindle(A0, eps),
                                 ["south", "north"],
                                 [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)]),
        build_closed_diffractive(surfaces.teardrop(A0, eps), ["tip"],
                                 [A0 * (np.pi / 4 + 0.02)], length_cap=12.0),
    ]


class _Sine:
    """j = sin(s + shift), whose Prüfer angle is s + shift, behind the
    given knots; every s at which it is read is kept in `reads`."""

    def __init__(self, knots, shift=0.0):
        self.ks, self.shift, self.reads = np.asarray(knots), shift, []

    def __call__(self, s):
        self.reads += np.atleast_1d(s).tolist()
        return np.array([np.sin(s + self.shift), np.cos(s + self.shift)])

    def knots(self):
        return self.ks, np.array([np.sin(self.ks + self.shift),
                                  np.cos(self.ks + self.shift)])


class TestZeros:
    """Zeros are counted by the Prüfer angle, unwrapped across the
    integrator's step ends."""

    @pytest.mark.parametrize("eps", [0.05, -0.05, 0.01, -0.01])
    def test_step_ends_match_the_grid_scan(self, eps):
        found = 0
        for geo in seed0_geodesics(eps):
            for seg in geo.segments:
                path = seg.path
                length = path.length
                fields = [(path.flow_field, 0.0),
                          (path.reversed().flow_field, 0.0),
                          (jacobi.integrate_jacobi(path, 1.0, length, 0.0, 1.0), 1.0),
                          (jacobi._field_from(path, 1.0, length), 1.0)]
                for field, lo in fields:
                    # j(lo) is zero to rounding, which must not count
                    assert field.zero_count(lo) == 0
                    count = field.zero_count(length)
                    assert count == grid_zero_count(field, lo, length)
                    found += count
                # zeros inside an interval: a difference of two counts
                field = path.flow_field
                assert (field.zero_count(0.6 * length) - field.zero_count(0.3)
                        == grid_zero_count(field, 0.3, 0.6 * length))
        assert found > 0

    def test_two_zeros_inside_one_step(self):
        # j = cos s from its zero at -pi/2, with knots at 1 and 5 only:
        # j > 0 at both ends of that step, and zeros at pi/2 and 3 pi/2
        # inside it
        field = jacobi.JacobiSolution(_Sine([-np.pi / 2, 1.0, 5.0], np.pi / 2),
                                      -np.pi / 2, 6.0)
        assert np.cos(1.0) > 0 and np.cos(5.0) > 0
        assert field.zero_count(6.0) == 2
        assert field.zero_count(np.array([0.0, 2.0, 4.0, 6.0])).tolist() == [0, 1, 1, 2]

    @pytest.mark.parametrize("side", [-1, 1], ids=["under", "over"])
    def test_phase_step_guard_edge(self, side):
        # j = sin s turns by its step's length: a step just under
        # PHASE_STEP_MAX is unwrapped from its ends, one just over it is
        # halved once; the only other read is the end s1
        a, b = 2.5, 2.5 + jacobi.PHASE_STEP_MAX + side * 1e-9
        stub = _Sine([0.0, 1.25, a, b])
        field = jacobi.JacobiSolution(stub, 0.0, b + 0.25)
        assert field.zero_count(b + 0.25) == 1
        halved = [0.5 * (a + b)] if side > 0 else []
        assert stub.reads == [b + 0.25] + halved + [b + 0.25]

    def test_dense_outputs_of_a_seed0_pass(self, monkeypatch):
        # the seed-0 predict_curved pass builds 106 step interpolants (110
        # with the zeros placed by Brent's method, 310 when every zero
        # search read j on a grid)
        built = []
        coefficients = ode._Step.coefficients

        def counted(step):
            if step._G is None:
                built.append(step.t0)
            return coefficients(step)

        monkeypatch.setattr(ode._Step, "coefficients", counted)
        for geo in seed0_geodesics(0.05):
            amplitudes.trace_singularity(geo)
            amplitudes.trace_singularity_cut_route(geo)
        assert len(built) <= 200


class TestBrokenHessian:
    def test_flat_value(self, plane):
        path = geodesic_flow(
            plane, ChartState("cart", np.zeros(2), np.array([1.0, 0.0])), 3.0
        )
        assert jacobi.broken_hessian(path, 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_frobenius_start_self_consistent(self):
        # non-product tip: curvature ~ c/x.  Solves from the series start
        # at three offsets absorb it and land on the closed-form head
        surf = cone_chart_surface("1.3*(1+p0/2)**0.5")
        path = shoot_from_tip(surf, "tip", 0.0, 2.0)
        head = path.flow_field.pair(1.5)
        for x_start, tol in ((1e-4, 1e-8), (1e-5, 1e-9), (1e-6, 1e-9)):
            f = b_jacobi_solution(path, 1.5, x_start=x_start).pair(1.5)
            assert abs(f[0] - head[0]) < tol
            assert abs(f[1] - head[1]) < tol


@settings(max_examples=15, deadline=None)
@given(d=st.floats(0.3, 2.9), cut_frac=st.floats(0.15, 0.85))
def test_property_sphere_additivity(d, cut_frac):
    sphere = surfaces.sphere_band()
    path = sphere_arc(sphere, d)
    cut = cut_frac * d
    whole = jacobi.morse_index(path)
    m1 = jacobi.morse_index(path, 0.0, cut)
    m2 = jacobi.morse_index(path, cut, d)
    h = jacobi.broken_hessian(path, cut)
    assert whole == m1 + m2 + (1 if h < 0 else 0)
