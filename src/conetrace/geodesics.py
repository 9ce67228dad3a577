"""Geodesic flow, tip shooting, and closed diffractive geodesics.

Geodesics are integrated chart by chart with the in-repo DOP853 kernel
(`ode`) at tight tolerance; terminal events handle tip hits (x crossing
1e-7 in a designer band), chart transitions (with hysteresis so a fresh
leg never starts on its own trigger), atlas exits, and caller-supplied
section stops.  A seam of the surface (where the metric is only finitely
smooth) ends a leg too.  Each leg integrates the smooth piece of the
metric that it starts in, continued past the seams (`Chart.leg_rhs`), so
the step that crosses a seam is accepted like any other; the leg is then
solved again from that step's start up to the seam, so that it ends on a
step's end, and a fresh leg in the same chart starts there on the other
piece; the leg before keeps only its steps before the crossing one.  No
leg evaluates two pieces, and each leg's run covers exactly its span, so
a path joins its legs' runs into one dense output (`GeodesicPath.flow`),
through which every read of the flow goes; a leg's end belongs to it, as
a step's end does to the step.  A solve along the stored path
(`jacobi.integrate_jacobi`) restarts at the legs' ends (`GeodesicPath.breaks`).
A leg that starts on the seam it has just crossed takes the far side's piece.
A start position or velocity that is not finite, or a velocity of
length zero, is refused with ValueError.  A step's dense output is built
when it is first read (`ode`), so a StepFailureError that the chart
raises only at a dense-output stage of some step comes out of the
later call that reads it (`GeodesicPath.state`, `flow_field` and the
Jacobi fields read from it), not out of the flow.

One ODE per shot: the state is (p, v, j, j'), the geodesic with the
scalar Jacobi field j'' = -K j riding along, K read from the chart at
the same point.  The DOP853 tolerance is rtol 1e-11 on every component,
atol ATOL on (p, v) and JACOBI_ATOL on (j, j').  Events, transition maps
and path states read (p, v) only; a chart switch carries (j, j')
unchanged, since j is a scalar normal field.  A flow from an interior
point starts the field at (0, 1).  A shot from a tip starts where
numerics are needed, at the edge x0 = min(band, length) of the tip's
designer band: there the metric is dx^2 + Q(x, y)^2 dy^2, so the radial
line y = y0 is a geodesic, d/dy0 is a Jacobi field of length Q, and the
tip field is exactly j = Q(x, y0)/a0 with j' = Q_x(x, y0)/a0; the flow
starts from that state, and the head [0, x0] is read from the same
closed form.  A flow that starts on a seam (the band's edge on the
builtins) starts as a leg that has just crossed it.  So every path's
spreading field from s = 0 (`GeodesicPath.flow_field`, the tip field on
a tip-start path) is the flow's own, read from the closed-form head and
the joined flow; a radial end cap into a tip is one solve across the
band from the flow's values at its edge, made when the field is first
read.  A path's reverse
(`GeodesicPath.reversed`) is a shot of its own from the path's end back
to its start, finished into a start tip the way a converged segment is,
so its field is its own flow's too; from an end tip it leaves with the
angular momentum that the path arrived with, so that it retraces the
path, and it must land on the path's start within REVERSE_TOL.

Tip-to-tip segments are found by shooting: start radially at the edge
of the source tip's band, stop on entry into the target tip's designer
band (x = band, `_band_edge`), and measure the angular momentum
p_theta = G theta' about the target tip as the miss.  Inside that band
the metric is dx^2 + G(x) dy^2, so by Clairaut's relation p_theta is
conserved across it, and so is its derivative; the shot has nothing
left to tell once it is in.  Newton steps use the exact derivative
d p_theta / d theta0 = a0 (j' sqrt(G) - j d sqrt(G)/ds) from the shot's
own (j, j') at band entry, read with its (p, v) from the flow's end
state, so conjugate tips are detected (and refused) rather than
silently iterated on.  On the builtins the band's edge is a seam, the
g_rr bump's edge, and the shot ends on that seam's crossing, whose leg
ends on a step's end (the tail re-solve above); elsewhere the edge is a
seam of the shot's own.  The converged shot is the segment: radial
curves are geodesics in the band and the shot, radial to within its
miss, is finished straight into the tip, the field across that end cap
solved from the band's edge.  A closed geodesic connects each distinct
(tip, next tip, seed) once, so an iterate reuses its primitive's shots.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import ode
from .errors import (
    ConjugateDegeneracyError,
    LeftAtlasError,
    NoConvergenceError,
    StepFailureError,
)
from .jacobi import JACOBI_ATOL, JACOBI_RTOL, JacobiSolution
from .links import GEOMETRIC_TOL, LinkSpectrum, singular_set_distance
from .surfaces import SEAM_LOOKAHEAD, OrthogonalChart, Seam, Surface, Tip

__all__ = [
    "ChartState",
    "ConnectResult",
    "GeodesicPath",
    "Junction",
    "DiffractiveGeodesic",
    "geodesic_flow",
    "shoot_from_tip",
    "connect_tips",
    "build_closed_diffractive",
    "classify_continuation",
]

TIP_HIT_X = 1e-7
# DOP853 tolerances of every leg: rtol on all six components, atol on
# (p, v); (j, j') take JACOBI_ATOL
RTOL, ATOL = JACOBI_RTOL, 1e-12
_FLOW_ATOL = np.array([ATOL] * 4 + [JACOBI_ATOL] * 2)
MAX_LEGS = 400  # legs (chart switches and seam crossings) allowed in one flow
NEWTON_TOL = 1e-9  # |p_theta| miss at which a shot has converged
MAX_NEWTON = 50
DEGENERACY_TOL = 1e-8  # |d p_theta / d theta0| below this: conjugate tips
# largest miss of a reverse shot at its base's start: length and link
# point at a tip, chart position at an interior point
REVERSE_TOL = 1e-9
SPEED_SAMPLES = 50  # points at which speed_drift reads |speed - 1|


@dataclass
class ChartState:
    chart: str
    p: np.ndarray
    v: np.ndarray


@dataclass
class PathLeg:
    chart: str
    s0: float
    s1: float
    sol: ode.Solution  # dense output over [s0, s1]


@dataclass
class TipEnd:
    """Radial extension of a path into `tip` along the radial line at
    `angle`; the tip point itself sits at s = s_tip."""

    tip: Tip
    angle: float
    s_tip: float


class GeodesicPath:
    """Unit-speed geodesic as chart legs with one dense output of the
    flow state (p, v, j, j'), `flow`: the legs' runs joined.

    The parameter s is arc length.  If an end is a tip, the legs stop at
    the edge of the tip's designer band (a start, and the end of a
    segment from connect_tips or of a reverse shot into a tip, which
    stop on entry into the band) or at x = 1e-7 (a flow whose budget
    ends on the tip), and the remaining radial stretch is filled in
    exactly; s = 0 and s = length then sit at the tips.
    """

    def __init__(self, surface, legs, end_kind="length"):
        self.surface = surface
        self.legs = legs
        self.s0, self.s1 = legs[0].s0, legs[-1].s1  # the legs' span
        self.length = self.s1
        self.start_kind, self.end_kind = "interior", end_kind
        self.start_tip = self.end_tip = None
        self.start_link_point = self.end_link_point = None
        self._start_cap = self._end_cap = None  # TipEnd or None
        self._leg_ends = [leg.s1 for leg in legs]
        # the legs' runs, each over exactly its leg, as one dense output
        self.flow = ode.Solution.joined([leg.sol for leg in legs])

    def state(self, s: float) -> ChartState:
        if s < self.s0 and self._start_cap is not None:
            return self._tip_state(self._start_cap, s)
        if s > self.s1 and self._end_cap is not None:
            return self._tip_state(self._end_cap, s)
        chart, yv = self._flow_state(s)
        return ChartState(chart, yv[:2], yv[2:4])

    def _flow_state(self, s: float):
        """The chart of the leg that holds s, and the flow's (p, v, j, j')
        there, s clamped to the legs' span.  A leg's end belongs to it,
        as a step's end does to the step in `ode.Solution`."""
        s = min(max(float(s), self.s0), self.s1)
        i = min(bisect.bisect_left(self._leg_ends, s), len(self.legs) - 1)
        return self.legs[i].chart, self.flow(s)

    @property
    def breaks(self) -> list[float]:
        """The legs' ends: chart switches, seams and the tip caps' edges."""
        return [self.s0] + self._leg_ends

    def _tip_state(self, cap: TipEnd, s: float) -> ChartState:
        tip, x = cap.tip, abs(s - cap.s_tip)
        out = 1.0 if cap.s_tip <= s else -1.0  # velocity points toward growing s
        p = np.array([tip.axis_value + tip.sign * x, cap.angle])
        v = np.array([tip.sign * out, 0.0])
        return ChartState(tip.chart, p, v)

    def curvature(self, s: float) -> float:
        # unsimplified chart curvature is 0/0 exactly at a tip (the chart
        # raises StepFailureError there); K is continuous, so evaluate a
        # hair inside
        if self._start_cap is not None:
            s = max(s, self._start_cap.s_tip + 1e-9)
        if self._end_cap is not None:
            s = min(s, self._end_cap.s_tip - 1e-9)
        st = self.state(s)
        return self.surface.chart(st.chart).curvature(st.p)

    def speed_drift(self) -> float:
        ss = np.linspace(self.s0, self.s1, SPEED_SAMPLES)
        worst = 0.0
        for s in ss:
            st = self.state(s)
            worst = max(worst, abs(self.surface.chart(st.chart).norm(st.p, st.v) - 1.0))
        return worst

    @cached_property
    def flow_field(self) -> JacobiSolution:
        """The spreading field from s = 0 that the flow carried, over
        [0, length]; read on first use and kept, so the path must not
        change after that (an end cap's solve happens then)."""
        return JacobiSolution(_FlowField(self), 0.0, self.length)

    def reversed(self) -> "GeodesicPath":
        """The same curve traversed backwards: a shot of its own from this
        path's end, kept on first use."""
        return self._reverse

    @cached_property
    def _reverse(self) -> "GeodesicPath":
        # it starts where this path ends and runs at most its length; from
        # a tip start it ends like a converged connect_tips shot, on entry
        # into the tip's band, finished radially into the tip.  Its budget
        # stops half the band short of the tip: a last step clipped to end
        # on the tip itself evaluates the flow at x = 0, where the chart
        # has no value, before the band entry in that step is seen.  A
        # path no longer than the band never left it (all head, as on the
        # flat cone, whose band is its whole chart): its reverse is the
        # radial line back, with nothing to integrate
        surface = self.surface
        into, budget, head = None, self.length, False
        if self.start_kind == "tip":
            tip = self._start_cap.tip
            head = self.length <= tip.band
            into = tip.tip_id
            budget = 0.0 if head else self.length - tip.band / 2
        if self.end_kind == "tip":
            # turned around, the shot leaves the band's edge with the
            # angular momentum that this path arrived with, and so retraces
            # it: a radial launch dropped the converged shot's miss, and
            # the flow carried that change of direction to the far tip
            # about 3 times larger (1.2e-11 on the seed-0 teardrop loop)
            _, y = self._flow_state(self.s1)
            arrived = surface.chart(self._end_cap.tip.chart).sqrt_q(y[:2]) ** 2 * y[3]
            rev = shoot_from_tip(surface, self.end_tip, self.end_link_point,
                                 budget, into=into, p_theta=-arrived)
        else:
            st = self.state(self.length)
            rev = geodesic_flow(surface, ChartState(st.chart, st.p, -st.v),
                                budget, into=into)
        if self.start_kind == "tip":
            if rev.end_kind == "stop" or head:
                _end_at_tip(rev, tip)
            if rev.end_tip != self.start_tip:
                miss = np.inf
            else:
                circ = tip.link.circumference
                gap = np.remainder(rev.end_link_point - self.start_link_point
                                   + circ / 2, circ) - circ / 2
                miss = max(abs(rev.length - self.length), abs(gap))
        else:
            end, start = rev.state(rev.length), self.state(0.0)
            miss = (np.max(np.abs(end.p - start.p)) if end.chart == start.chart
                    else np.inf)
        if not miss <= REVERSE_TOL:
            raise NoConvergenceError(
                f"reverse shot missed the path's start by {miss:.3e}")
        return rev


class _FlowField:
    """(j, j') of a path's flow at s (a float or an array): the closed
    form on a tip start's head (`_radial_field`), the path's joined flow
    solution, and one solve from the flow's end values across a
    radial end cap."""

    def __init__(self, path: GeodesicPath):
        self.flow, self.s0, self.s1 = path.flow, path.s0, path.s1
        self.head = None
        start = path._start_cap
        if start is not None:
            self.head = partial(_radial_field, path.surface.chart(start.tip.chart),
                                start.tip, start.angle)
        self.cap = None
        if path._end_cap is not None:
            from .jacobi import integrate_jacobi  # read from jacobi when run, not at import

            j, jp = self.flow(self.s1)[4:]
            self.cap = integrate_jacobi(path, self.s1, path.length, j, jp)

    def __call__(self, s):
        if np.ndim(s) == 0:
            # a float, as `JacobiSolution.pair` reads one point: about 9 us
            # here, 75 us through the masks and searches of the array path
            s = float(s)
            if self.head is not None and s < self.s0:
                return self.head(s)
            if self.cap is not None and s > self.s1:
                return self.cap.pair(s)
            return self.flow(min(max(s, self.s0), self.s1))[4:]
        s = np.asarray(s, dtype=float)
        out = np.empty((2,) + s.shape)
        head = (s < self.s0) & (self.head is not None)
        cap = (s > self.s1) & (self.cap is not None)
        # the flow is read only where s lies on it, so that no head or cap
        # point builds the interpolant of the flow's first or last step
        on = ~(head | cap)
        if on.any():
            out[:, on] = self.flow(np.clip(s[on], self.s0, self.s1))[4:]
        if head.any():
            out[:, head] = np.array([self.head(x) for x in s[head]]).T
        if cap.any():
            out[:, cap] = self.cap.pair(s[cap])
        return out

    def knots(self):
        """The start of every step the flow and the end cap took, and
        (j, j') stored there (`JacobiSolution.zero_count`)."""
        s, y = self.flow.knots()
        y = y[4:]
        if self.cap is not None:
            cs, cy = self.cap.knots()
            s, y = np.concatenate([s, cs]), np.concatenate([y, cy], axis=1)
        return s, y


def _radial_field(chart: OrthogonalChart, tip: Tip, angle: float,
                  x: float) -> np.ndarray:
    """(j, j') of the tip field at distance x from `tip` along the radial
    line at `angle`, inside the tip's designer band.  The metric there is
    dx^2 + Q(x, y)^2 dy^2, so radial lines are geodesics and the
    variation d/d angle is a Jacobi field of length Q: the field with
    j ~ x at the tip is exactly j = Q/a0, j' = Q_x/a0."""
    p = (tip.axis_value + tip.sign * x, angle)
    return np.array([chart.sqrt_q(p), tip.sign * chart.sqrt_q_grad(p)[0]]) / tip.a0


def geodesic_flow(surface: Surface, start: ChartState, length: float, *,
                  into: str | None = None) -> GeodesicPath:
    """Integrate the unit-speed geodesic from `start` for at most `length`,
    with the Jacobi field that starts at (j, j') = (0, 1).

    Ends on: exhausted length, a tip hit, or entry into the designer
    band of tip `into` (end kind "stop").  Raises LeftAtlasError on atlas
    exit and StepFailureError if the integrator fails.
    """
    return _flow(surface, start, 0.0, length, (0.0, 1.0), into)


def _flow(surface: Surface, start: ChartState, s_start: float, s_end: float,
          field_start, into) -> GeodesicPath:
    """The flow from `start` at parameter s_start up to at most s_end, with
    the Jacobi field that starts at (j, j') = `field_start`.  A flow whose
    budget ends on a tip ends at that tip; a flow into tip `into` ends on
    the inward crossing of its band's edge."""
    chart_name = start.chart
    p = np.asarray(start.p, dtype=float)
    v = np.asarray(start.v, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError(f"start position {p} is not finite")
    if not np.isfinite(v).all():
        raise ValueError(f"start velocity {v} is not finite")
    speed = surface.chart(chart_name).norm(p, v)
    if not 0.0 < speed < np.inf:
        raise ValueError(f"start velocity {v} at {p} has length {speed}, "
                         f"not a positive finite one")
    v = v / speed
    field = np.asarray(field_start, dtype=float)

    tip_rules = surface.tip_rules(TIP_HIT_X)
    # (seam, direction) whose crossing ends a flow into a tip
    edge = None if into is None else _band_edge(surface, surface.tips[into])
    all_seams = surface.seams
    if edge is not None and edge[0] not in all_seams:
        all_seams = all_seams + [edge[0]]
    legs: list[PathLeg] = []
    s_cur = s_start
    end_kind, end_payload = "length", None
    # (seam, direction) the leg starts on: it must not fire at once.  A
    # start on a seam is a leg that has just crossed it in the direction
    # in which v carries the seam's value
    skip = None
    for sm in all_seams:
        if sm.chart == chart_name and sm.value(p) == 0.0:
            ahead = sm.value(p + SEAM_LOOKAHEAD * v)
            if ahead != 0.0:
                skip = (sm, math.copysign(1.0, ahead))
                break

    for _ in range(MAX_LEGS):
        chart = surface.chart(chart_name)
        rules = [r for r in tip_rules if r.chart == chart_name]
        rules += [r for r in surface.atlas_rules if r.chart == chart_name]
        transitions = [t for t in surface.transitions if t.src == chart_name]
        events = [(lambda y, _f=r.value: _f(y[:2], y[2:4]), r.direction)
                  for r in rules]
        events += [(lambda y, _t=t: _t.trigger(y[:2]), -1.0) for t in transitions]
        seams = [(sm, d) for sm in all_seams if sm.chart == chart_name
                 for d in (-1.0, 1.0) if (sm, d) != skip]
        events += [(lambda y, _f=sm.value: _f(y[:2]), d) for sm, d in seams]

        # a leg in a chart with seams integrates the smooth piece it
        # starts in, so the step that crosses a seam is not rejected; a
        # leg that starts on the seam it has just crossed takes the piece
        # on the far side, which rounding of p alone could not tell
        rhs = chart.leg_rhs(p, skip[1] if skip is not None else 0.0)
        y0 = np.concatenate([p, v, field])
        try:
            run = _solve_leg(rhs, s_cur, s_end, y0, events)
        except StepFailureError:
            # a budget that ends on a tip clips the last step onto it,
            # where the chart has no value, before the tip-hit event
            # inside that step is seen; half the hit radius short of the
            # tip, the event fires
            s_short = s_end - TIP_HIT_X / 2
            if s_short <= s_cur or not any(r.kind == "tip" for r in rules):
                raise
            run = _solve_leg(rhs, s_cur, s_short, y0, events)
            if not (run.event is not None and run.event < len(rules)
                    and rules[run.event].kind == "tip"):
                raise
        legs.append(PathLeg(chart_name, s_cur, run.t, run.sol))

        if run.event is None:
            break
        s_ev, idx = run.t, run.event
        p, v, field = run.y[:2], run.y[2:4], run.y[4:]
        if idx < len(rules):
            rule = rules[idx]
            if rule.kind == "atlas":
                raise LeftAtlasError(
                    f"geodesic left the atlas in chart '{chart_name}' at s = {s_ev:.6g}"
                )
            end_kind = rule.kind
            end_payload = rule.payload
            break
        if idx >= len(rules) + len(transitions):
            # a seam: solve again from the start of the step that crossed
            # it up to the seam, so the leg ends on a step's end (order 8)
            # rather than on the interpolant the event was placed on
            # (order 7); the leg keeps its steps before that one, and a
            # fresh leg in the same chart begins at its start
            skip = seams[idx - len(rules) - len(transitions)]
            k = max(np.searchsorted(run.sol.ts, s_ev), 1) - 1
            step = run.sol.steps[k]  # the step that crossed, from s_k
            s_k = step.t0
            tail = _solve_leg(rhs, s_k, s_ev, step.y0)
            if s_k > s_cur:
                sol = ode.Solution(run.sol.ts[:k + 1], run.sol.steps[:k])
                legs[-1] = PathLeg(chart_name, s_cur, s_k, sol)
            else:
                legs.pop()
            legs.append(PathLeg(chart_name, s_k, s_ev, tail.sol))
            p, v, field = tail.y[:2], tail.y[2:4], tail.y[4:]
            s_cur = s_ev
            if skip == edge:
                end_kind = "stop"
                break
            continue
        s_cur = s_ev
        skip = None
        tr = transitions[idx - len(rules)]
        p_new = tr.map_point(p)
        v_new = tr.map_velocity(p, v)
        chart_name, p, v = tr.dst, p_new, v_new
    else:
        raise StepFailureError("geodesic exceeded the leg budget")

    path = GeodesicPath(surface, legs, end_kind)
    if end_kind == "tip":
        _end_at_tip(path, surface.tips[end_payload])
    return path


def _solve_leg(rhs, s0, s1, y0, events=()) -> ode.Result:
    """DOP853 over [s0, s1] of the flow (p, v, j, j') in one chart."""
    return ode.solve(rhs, s0, s1, y0, rtol=RTOL, atol=_FLOW_ATOL, events=events)


def _end_at_tip(path: GeodesicPath, tip: Tip) -> None:
    """End `path` at `tip` along the radial line from its last leg's end,
    which must lie in the tip's designer band (radial curves are
    geodesics there)."""
    st = path.state(path.s1)
    path.length = path.s1 + tip.x_of(st.p)
    path.end_kind = "tip"
    path.end_tip = tip.tip_id
    path.end_link_point = tip.link_coord(st.p[1])
    path._end_cap = TipEnd(tip, st.p[1], path.length)


def shoot_from_tip(surface: Surface, tip_id: str, link_point: float,
                   length: float, *, into: str | None = None,
                   p_theta: float = 0.0) -> GeodesicPath:
    """Radial launch from a tip at link arc coordinate `link_point`.

    s = 0 is the tip itself.  The flow starts at the edge of the tip's
    designer band, s = x0 = min(band, length), from the exact state
    there: the radial line and the tip field j = Q/a0 (`_radial_field`),
    which also fills in the head [0, x0].  On a chart whose band is all
    of it, such as the flat cone, a shot shorter than the band is all
    head and its one leg has length zero.  A shot `into` a tip ends on
    entry into that tip's band, as `geodesic_flow` does.  A nonzero
    `p_theta` = Q^2 theta' about the tip turns the flow's start off the
    radial line (a reverse shot's, by its path's arrival miss); the
    head stays radial.
    """
    tip = surface.tips[tip_id]
    chart = surface.chart(tip.chart)
    theta0 = tip.angle_of_link(link_point)
    x0 = min(tip.band, length)
    p = np.array([tip.axis_value + tip.sign * x0, theta0])
    v = np.array([tip.sign, 0.0])
    if p_theta:
        v[1] = p_theta / chart.sqrt_q(p) ** 2  # _flow makes v unit
    path = _flow(surface, ChartState(tip.chart, p, v), x0, length,
                 _radial_field(chart, tip, theta0, x0), into)
    path.start_kind, path.start_tip = "tip", tip_id
    path.start_link_point = float(np.remainder(link_point, tip.link.circumference))
    path._start_cap = TipEnd(tip, theta0, 0.0)
    return path


@dataclass
class ConnectResult:
    path: GeodesicPath
    link_a: float
    link_b: float
    length: float
    iterations: int
    miss: float


def _band_edge(surface: Surface, tip: Tip) -> tuple[Seam, float]:
    """The edge x = band of `tip`'s designer band as a seam, with the
    direction in which its value moves on the way in.  Where a seam of
    the surface vanishes on the edge (the g_rr bump's edge on the
    builtins), it is that seam: a shot ends on its crossing, whose leg
    ends on a step's end, and not at a second event in the same place."""
    x = tip.axis_value + tip.sign * tip.band
    on_edge = [np.array([x, y]) for y in (0.0, 1.0, 2.0)]
    seam = next((sm for sm in surface.seams if sm.chart == tip.chart
                 and all(sm.value(p) == 0.0 for p in on_edge)), None)
    if seam is None:
        seam = Seam(tip.chart, lambda p: tip.x_of(p) - tip.band)
    outside = np.array([x + tip.sign * SEAM_LOOKAHEAD, 0.0])
    return seam, -math.copysign(1.0, seam.value(outside))


def _band_reading(chart_b: OrthogonalChart, ta: Tip, y) -> tuple[float, float]:
    """The miss p_theta about the target tip and its derivative in the
    launch angle at tip `ta`, from the flow state y = (p, v, j, j') of a
    shot in the target's band (chart `chart_b`)."""
    p, v, j, jp = y[:2], y[2:4], y[4], y[5]
    sq = chart_b.sqrt_q(p)
    miss = sq * sq * v[1]
    # variation of p_theta under the launch angle, via the Killing field
    # of the symmetric band: eps0 tracks the parallel frame orientation
    # fixed at launch, v[0] the radial sense at the section
    dsq_dr = float(chart_b.sqrt_q_grad(p)[0])
    return miss, ta.sign * ta.a0 * (jp * sq * v[0] - j * dsq_dr)


def connect_tips(surface: Surface, tip_a: str, tip_b: str, seed_link_point: float,
                 *, length_cap: float = 50.0) -> ConnectResult:
    """Newton-shoot a geodesic from tip_a into tip_b.

    Works for tip_a == tip_b (a loop): the shot starts on the band's edge
    moving out, so only its return into the band ends it.
    """
    ta, tb = surface.tips[tip_a], surface.tips[tip_b]
    chart_b = surface.chart(tb.chart)
    if not isinstance(chart_b, OrthogonalChart):
        raise StepFailureError("target tip must live in an orthogonal polar chart")
    theta0 = ta.angle_of_link(float(seed_link_point))

    for it in range(1, MAX_NEWTON + 1):
        path = shoot_from_tip(surface, tip_a, ta.a0 * theta0, length_cap,
                              into=tip_b)
        if path.end_kind != "stop":
            raise NoConvergenceError(
                f"shot from '{tip_a}' never entered the band of "
                f"'{tip_b}' (ended: {path.end_kind})"
            )
        # the shot's end, at band entry
        miss, deriv = _band_reading(chart_b, ta, path._flow_state(path.length)[1])
        if abs(deriv) < DEGENERACY_TOL:
            raise ConjugateDegeneracyError(
                f"tips '{tip_a}' and '{tip_b}' are conjugate along this shot "
                f"(transverse derivative {deriv:.3e})"
            )
        if abs(miss) < NEWTON_TOL:
            _end_at_tip(path, tb)
            return ConnectResult(
                path=path,
                link_a=path.start_link_point,
                link_b=path.end_link_point,
                length=path.length,
                iterations=it,
                miss=abs(miss),
            )
        theta0 -= miss / deriv

    raise NoConvergenceError(
        f"tip connection '{tip_a}' -> '{tip_b}' did not converge in "
        f"{MAX_NEWTON} Newton steps (last miss {miss:.3e})"
    )


def classify_continuation(link: LinkSpectrum, q_in: float, q_out: float) -> str:
    """'geometric' when some link geodesic of length pi joins the two
    arrival directions (wrapped arcs count) to within GEOMETRIC_TOL, else
    'strictly_diffractive'."""
    if singular_set_distance(link, np.pi, q_in, q_out) < GEOMETRIC_TOL:
        return "geometric"
    return "strictly_diffractive"


@dataclass(frozen=True)
class Junction:
    tip_id: str
    link_in: float
    link_out: float
    link: LinkSpectrum
    separation: float  # distance to the singular set at time pi
    kind: str


@dataclass
class DiffractiveGeodesic:
    surface: Surface
    segments: list[ConnectResult]
    junctions: list[Junction]  # junction j sits at the start of segment j
    length: float
    primitive_length: float
    iterate_count: int

    @property
    def strictly_diffractive(self) -> bool:
        return all(j.kind == "strictly_diffractive" for j in self.junctions)


def build_closed_diffractive(surface: Surface, tip_sequence, seeds, *,
                             length_cap: float = 50.0) -> DiffractiveGeodesic:
    """Assemble a closed geodesic through the given cyclic tip sequence.

    seeds[j] is the launch link coordinate for the segment from
    tip_sequence[j] to tip_sequence[(j+1) % k].  Each distinct (tip,
    next tip, seed) is connected once, so the segments of an iterate
    given as `tips * r, seeds * r` are the primitive's own.
    """
    k = len(tip_sequence)
    if k == 0:
        raise ValueError("need at least one tip in the sequence")
    if len(seeds) != k:
        raise ValueError("need one seed per segment")
    keys = [(tip_sequence[j], tip_sequence[(j + 1) % k], float(seeds[j]))
            for j in range(k)]
    connected = {key: connect_tips(surface, *key, length_cap=length_cap)
                 for key in dict.fromkeys(keys)}
    segments = [connected[key] for key in keys]
    junctions = []
    for j in range(k):
        tip = surface.tips[tip_sequence[j]]
        q_in = segments[j - 1].link_b
        q_out = segments[j].link_a
        kind = classify_continuation(tip.link, q_in, q_out)
        junctions.append(
            Junction(tip.tip_id, q_in, q_out, tip.link,
                     singular_set_distance(tip.link, np.pi, q_in, q_out), kind)
        )
    sig = [
        (tip_sequence[j], tip_sequence[(j + 1) % k],
         round(segments[j].link_a, 6), round(segments[j].link_b, 6),
         round(segments[j].length, 9))
        for j in range(k)
    ]
    period = k
    for p in range(1, k):
        if k % p == 0 and all(sig[j] == sig[(j + p) % k] for j in range(k)):
            period = p
            break
    total = float(sum(seg.length for seg in segments))
    primitive = float(sum(seg.length for seg in segments[:period]))
    return DiffractiveGeodesic(surface, segments, junctions, total, primitive,
                               k // period)
