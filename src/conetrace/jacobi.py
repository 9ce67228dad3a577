"""Jacobi fields along geodesic paths: spreading, Morse indices, Hessians.

Fields of the scalar Jacobi equation j'' + K(s) j = 0 along a GeodesicPath.

Conventions: the normalized spreading between parameters s0 < s1 is
Theta = |j(s1)| / (s1 - s0) for the field with j(s0) = 0, j'(s0) = 1,
so Theta = 1 on flat surfaces.  The Morse index counts interior zeros
of that field on the open interval.

The field from s0 = 0 of every path is the flow's own
(`path.flow_field`): the geodesic flow carries (j, j') as two more
components of each shot, with K read from the chart at the same point,
at the per-component tolerances (JACOBI_RTOL, JACOBI_ATOL on j and j').
A tip-launched field is exact in closed form across the tip's designer
band, j = Q/a0 with sqrt(G) = Q, and the flow starts from it at the
band's edge; only a radial end cap into a tip is solved along the
stored path (`integrate_jacobi`).  The reverse field is the same for
`path.reversed()`, a shot of its own from the path's end.  Theta, the
Morse index and the broken Hessian from s0 = 0 read these; j'/j is the
shape operator the cut route reads.  Unless the path's ends are
conjugate the two are a fundamental pair: a field from s0 > 0 is their
combination (`_EndPair`), and `wronskian_drift` reads their Wronskian.
The Morse index is a Sturm count (`JacobiSolution.zero_count`): the
number of half-turns of the Prüfer angle atan2(j, j'), unwrapped across
the (j, j') that the flows store at the integrator's step ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import ConjugateDegeneracyError

__all__ = [
    "JacobiField",
    "JacobiSolution",
    "integrate_jacobi",
    "theta_spreading",
    "morse_index",
    "broken_hessian",
    "wronskian_drift",
]

JACOBI_RTOL = 1e-11
JACOBI_ATOL = 1e-13
# |j(s1)| below this times (s1 - s0) counts as a conjugate endpoint
MORSE_DEGENERACY_TOL = 1e-8
# |a(L)| below this times L: conjugate ends for `_EndPair`, whose field errs
# by up to about 3e-9 just above it (sphere arcs of length near pi)
END_PAIR_TOL = 1e-3
# the largest Prüfer-angle step between two knots that `zero_count`
# unwraps without reading the interpolant between them
PHASE_STEP_MAX = math.pi / 2
WRONSKIAN_CHECKS = 20  # points at which wronskian_drift reads W


@dataclass(frozen=True)
class JacobiField:
    j: float
    jprime: float


class JacobiSolution:
    """Dense solution of j'' + K j = 0 over [s0, s1] along a path."""

    def __init__(self, sol, s0: float, s1: float):
        self._sol = sol
        self.s0 = s0
        self.s1 = s1
        self._phases = None

    def pair(self, s) -> np.ndarray:
        """(j, j') at s (a float or an array), clamped to [s0, s1]."""
        return self._sol(np.clip(s, self.s0, self.s1))

    def at(self, s: float) -> JacobiField:
        y = self.pair(s)
        return JacobiField(float(y[0]), float(y[1]))

    def j(self, s) -> np.ndarray:
        return self.pair(s)[0]

    def knots(self):
        """The start of each integrator step behind the field, and the
        (j, j') stored there: s of shape (m,), values of shape (2, m)."""
        return self._sol.knots()

    def zero_count(self, s):
        """Zeros of j in (s0, s), for s (a float or an array) in [s0, s1],
        of a field that starts at a zero with j'(s0) > 0.

        Sturm's count: the Prüfer angle theta = atan2(j, j') moves at
        theta' = (j'^2 + K j^2) / (j^2 + j'^2), which is 1 wherever j = 0,
        so each zero of j is an upward crossing of a multiple of pi and the
        count is floor(theta(s) / pi), with theta(s0) = 0.  theta is
        unwrapped across the knots (`_knot_phases`) and from the knot
        below s to s."""
        ks, theta = self._knot_phases()
        s = np.clip(s, self.s0, self.s1)
        below = theta[np.searchsorted(ks, s, side="right") - 1]
        j, jp = self.pair(s)
        phase = below + _wrapped(np.arctan2(j, jp) - below)
        # theta never falls below 0, its value at s0: only rounding does
        count = np.floor(np.maximum(phase, 0.0) / math.pi).astype(int)
        return int(count) if np.ndim(count) == 0 else count

    def _knot_phases(self):
        """s0, the knots inside (s0, s1) and s1, with theta unwrapped
        across them from theta(s0) = 0.  Every interval whose wrapped phase
        step is not below PHASE_STEP_MAX is halved, reading the
        interpolant, until all steps are below it: that catches a turn
        hidden by sparse knots, and a tip's closed-form head, where no
        knot lies."""
        if self._phases is None:
            ks, ky = self.knots()
            inside = (self.s0 < ks) & (ks < self.s1)
            s = np.concatenate([[self.s0], ks[inside], [self.s1]])
            phase = np.arctan2(*np.column_stack([(0.0, 1.0), ky[:, inside],
                                                 self.pair(self.s1)]))
            while (wide := np.nonzero(np.abs(_wrapped(np.diff(phase)))
                                      >= PHASE_STEP_MAX)[0]).size:
                mid = 0.5 * (s[wide] + s[wide + 1])
                s = np.insert(s, wide + 1, mid)
                phase = np.insert(phase, wide + 1, np.arctan2(*self.pair(mid)))
            theta = np.concatenate([[0.0], np.cumsum(_wrapped(np.diff(phase)))])
            self._phases = s, theta
        return self._phases


def _wrapped(d):
    """d moved by a multiple of 2 pi into [-pi, pi)."""
    return np.remainder(d + math.pi, 2.0 * math.pi) - math.pi


def integrate_jacobi(path, s0: float, s1: float, j0: float,
                     jprime0: float) -> JacobiSolution:
    """The field with (j, j') = (j0, jprime0) at s0, solved along the
    stored path piece by piece between its leg ends (`path.breaks`: chart
    switches and seams, where K may be only finitely smooth), so that no
    step straddles one."""
    def rhs(s, y):
        return (y[1], -path.curvature(s) * y[0])

    ends = [s0] + [b for b in path.breaks if s0 < b < s1] + [s1]
    pieces, y = [], [j0, jprime0]
    for a, b in zip(ends[:-1], ends[1:]):
        run = ode.solve(rhs, a, b, y, rtol=JACOBI_RTOL, atol=JACOBI_ATOL)
        pieces.append(run.sol)
        y = run.y
    return JacobiSolution(ode.Solution.joined(pieces), s0, s1)


class _EndPair:
    """The field with j(s0) = 0, j'(s0) = 1 as (a(s0) c - c(s0) a) / W(s0),
    with a = `path.flow_field` and c the reverse shot's field read at L - s,
    its slope negated.  W = a c' - a' c is -a(L) at s = L, and the field
    errs by about a's and c's error over |a(L)|, so a path with
    |a(L)| < END_PAIR_TOL L (conjugate ends) raises ConjugateDegeneracyError."""

    def __init__(self, path, s0: float):
        self.length, self.a = path.length, path.flow_field
        if abs(self.a.at(self.length).j) < END_PAIR_TOL * self.length:
            raise ConjugateDegeneracyError("the path's ends are conjugate: no end pair")
        self.c = path.reversed().flow_field
        a, ap, c, cp = self.ends(s0)
        w = a * cp - ap * c
        self.ka, self.kc = -c / w, a / w

    def ends(self, s):
        """(a, a', c, c') at s, a float or an array."""
        a, ap = self.a.pair(s)
        c, cp = self.c.pair(self.length - s)
        return a, ap, c, -cp

    def __call__(self, s):
        a, ap, c, cp = self.ends(s)
        return np.array([self.ka * a + self.kc * c, self.ka * ap + self.kc * cp])

    def knots(self):
        """The step starts of both end fields, in s, and (j, j') there."""
        s = np.union1d(self.a.knots()[0], self.length - self.c.knots()[0])
        return s, self(s)


def _field_from(path, s0: float, s1: float) -> JacobiSolution:
    """j(s0) = 0, j'(s0) = 1 over [s0, s1]: the flow's field or `_EndPair`."""
    # a kept field ends at the path's end and would clamp past it
    if not 0.0 <= s0 < s1 <= path.length:
        raise ValueError(f"need 0 <= s0 < s1 <= length {path.length:.6g}, "
                         f"got s0 = {s0:.6g}, s1 = {s1:.6g}")
    return path.flow_field if s0 == 0.0 else JacobiSolution(_EndPair(path, s0), s0, s1)


def theta_spreading(path, s0: float = 0.0, s1: float = None) -> float:
    """Spreading |j(s1)|/(s1 - s0) of `_field_from`'s field; 1 on flat surfaces."""
    s1 = path.length if s1 is None else s1
    field = _field_from(path, s0, s1)
    return abs(field.at(s1).j) / (s1 - s0)


def morse_index(path, s0: float = 0.0, s1: float = None) -> int:
    """Interior zero count on (s0, s1) of the field from s0 (`_field_from`)."""
    s1 = path.length if s1 is None else s1
    field = _field_from(path, s0, s1)
    if abs(field.at(s1).j) < MORSE_DEGENERACY_TOL * (s1 - s0):
        raise ConjugateDegeneracyError(
            "endpoint is conjugate: Morse index undefined at this tolerance"
        )
    return field.zero_count(s1)


def broken_hessian(path, s_cut: float) -> float:
    """Second variation of length at a one-point break of the path.

    H = ja'/ja + jb'/jb with ja the spreading field from the start and
    jb the spreading field from the end (traversed backwards), both
    evaluated at the cut.  Breaking a minimizing arc gives H > 0; each
    negative H adds one to the Morse index of the concatenation:
    index(whole) = index(part1) + index(part2) + [H < 0].
    """
    fa = _field_from(path, 0.0, s_cut).at(s_cut)
    rev = path.reversed()
    s_rev = path.length - s_cut
    fb = _field_from(rev, 0.0, s_rev).at(s_rev)
    if abs(fa.j) < 1e-12 or abs(fb.j) < 1e-12:
        raise ConjugateDegeneracyError("cut point is conjugate to an endpoint")
    return fa.jprime / fa.j + fb.jprime / fb.j


def wronskian_drift(path, s0: float = 0.0, s1: float = None) -> float:
    """Max |W(s)/W(s0) - 1| of the path's end pair (`_EndPair`) at
    WRONSKIAN_CHECKS even points of [s0, s1]; 0 for exact integrations.
    The pair comes from two separate shots, so this checks both."""
    s1 = path.length if s1 is None else s1
    a, ap, c, cp = _EndPair(path, s0).ends(np.linspace(s0, s1, WRONSKIAN_CHECKS))
    w = a * cp - ap * c
    return float(np.max(np.abs(w / w[0] - 1.0)))
