"""Jacobi fields along geodesic paths: spreading, Morse indices, Hessians.

The scalar Jacobi equation j'' + K(s) j = 0 is integrated along a
GeodesicPath.

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
band's edge; only a radial end cap into a tip takes one short solve of
its own.  The reverse field is the same for `path.reversed()`, a shot of
its own from the path's end.  Every function here that starts a field
at s0 = 0 reads one of these, so Theta, the Morse index and the broken
Hessian share them; j'/j is the shape operator the cut route reads.  A
field from s0 > 0 is its own solve along the stored path at the same
tolerances, restarted at each of the path's leg ends, so that no step
straddles a seam of the metric.  `b_jacobi_solution` solves a tip field
that way from the Frobenius start j(x) = x (1 + c1 x), j'(x) = 1 + 2 c1 x
at a small offset, where c1 is the first radial correction of sqrt(G)
(exact through second order even when the curvature has a 1/x
singularity at a non-product tip); it is the reference the closed-form
head is checked against.  Every solve runs on the in-repo DOP853 kernel
(`ode`).  The zeros behind the Morse index are bracketed by j at the
integrator's step ends, which the solves store, and placed by its Brent
root finder (`JacobiSolution.zeros`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import ConjugateDegeneracyError, StepFailureError

__all__ = [
    "JacobiField",
    "JacobiSolution",
    "integrate_jacobi",
    "b_jacobi_solution",
    "theta_spreading",
    "morse_index",
    "broken_hessian",
    "wronskian_drift",
]

# distance from the tip at which b_jacobi_solution starts its field;
# the start's j' misses the x^2 K / 2 term, so the offset must be small:
# 5e-13 here, 5e-9 at 1e-4
FROBENIUS_START_X = 1e-6
JACOBI_RTOL = 1e-11
JACOBI_ATOL = 1e-13
# |j(s1)| below this times (s1 - s0) counts as a conjugate endpoint
MORSE_DEGENERACY_TOL = 1e-8
ZERO_PAD = 1e-9  # zeros are searched this far inside an interval's ends
ZERO_SAMPLES = 32  # points at which j is read on a piece that may hide zeros
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

    def zeros(self, lo: float = None, hi: float = None):
        """Zeros of j in the open interval (lo, hi), searched ZERO_PAD
        inside its ends.

        The knots inside the interval, with the (j, j') the integrator
        stored there, and the interval's two ends cut it into pieces that
        each lie in one integrator step (or in a tip's closed-form head).
        A piece whose ends differ in sign holds a zero, which Brent's
        method places on the interpolant.  A piece can also hide zeros
        that its ends' signs do not show; the cubic Hermite interpolant of
        its ends' (j, j') flags such a piece (`_hermite_flags`), and only a
        flagged piece is sampled, at ZERO_SAMPLES points, its sign changes
        bracketed the same way.  So no interpolant is read but at the
        interval's ends, on a flagged piece and where a zero is placed.
        """
        lo = self.s0 if lo is None else lo
        hi = self.s1 if hi is None else hi
        a, b = lo + ZERO_PAD, hi - ZERO_PAD
        if not a < b:
            return []
        ks, ky = self.knots()
        inside = (a < ks) & (ks < b)
        s = np.concatenate([[a], ks[inside], [b]])
        j, jp = np.column_stack([self.pair(a), ky[:, inside], self.pair(b)])
        flagged = _hermite_flags(np.diff(s), j[:-1], jp[:-1], j[1:], jp[1:])
        out = []
        for i in np.nonzero(flagged | (j[:-1] * j[1:] < 0))[0]:
            if flagged[i]:
                grid = np.linspace(s[i], s[i + 1], ZERO_SAMPLES)
                vals = self.j(grid)
            else:
                grid, vals = s[i:i + 2], j[i:i + 2]
            for k in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
                out.append(ode.brent(lambda t: float(self.j(t)), grid[k],
                                     grid[k + 1], xtol=1e-12))
        return out


def _hermite_flags(h, j0, d0, j1, d1) -> np.ndarray:
    """Whether each piece, of length h with (j, j') = (j0, d0) and
    (j1, d1) at its ends, may hide zeros of j that the signs of j0 and j1
    do not show.  The cubic Hermite interpolant p of those values flags
    it when p has more zeros in the piece than those signs show, or when
    |p| has a local minimum inside that is not a zero: j turns back
    toward zero there and may reach it."""
    # p = j0 + m0 x + c x^2 + e x^3 on x in [0, 1]; p' has the Bernstein
    # coefficients m0, m0 + c, m1, so where all three share a strict
    # sign p is monotone and the piece is not flagged
    m0, m1 = h * d0, h * d1
    c = 3.0 * (j1 - j0) - 2.0 * m0 - m1
    e = 2.0 * (j0 - j1) + m0 + m1
    mid = m0 + c
    monotone = (((m0 > 0) & (mid > 0) & (m1 > 0))
                | ((m0 < 0) & (mid < 0) & (m1 < 0)))
    flags = np.zeros(h.shape, dtype=bool)
    for i in np.nonzero(~monotone)[0]:
        ja, jb, m, q2, q3 = (float(v[i]) for v in (j0, j1, m0, c, e))
        # the roots of p' = m + 2 q2 x + 3 q3 x^2 in (0, 1), ascending
        if q3 == 0.0:
            xs = [-m / (2.0 * q2)] if q2 != 0.0 else []
        else:
            disc = q2 * q2 - 3.0 * q3 * m
            xs = [] if disc < 0.0 else sorted(
                (-q2 + sign * math.sqrt(disc)) / (3.0 * q3) for sign in (-1.0, 1.0))
        xs = [x for x in xs if 0.0 < x < 1.0]
        p = [ja + x * (m + x * (q2 + x * q3)) for x in xs]
        turns_back = any(px * (2.0 * q2 + 6.0 * q3 * x) > 0 for px, x in zip(p, xs))
        seq = [ja] + p + [jb]
        extra = sum(u * w < 0 for u, w in zip(seq, seq[1:])) > (ja * jb < 0)
        flags[i] = extra or turns_back
    return flags


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


def _frobenius_start(c1: float, x):
    """(j, j') of the tip-normalized field at distance x from a tip whose
    sqrt(G) is a0 x (1 + c1 x + ...); x may be an array."""
    return x * (1.0 + c1 * x), 1.0 + 2.0 * c1 * x


def b_jacobi_solution(path, s1: float = None, *,
                      x_start: float = FROBENIUS_START_X) -> JacobiSolution:
    """Tip-normalized Jacobi field (j ~ x near the tip) along a tip-start
    path, solved afresh on every call along the stored path."""
    if path.start_kind != "tip":
        raise StepFailureError("b-Jacobi field needs a path starting at a tip")
    j0, jp0 = _frobenius_start(path.surface.tips[path.start_tip].c1, x_start)
    s1 = path.length if s1 is None else s1
    return integrate_jacobi(path, x_start, s1, j0, jp0)


def _field_from(path, s0: float, s1: float) -> JacobiSolution:
    # a kept field ends at the path's end and would clamp past it
    if not 0.0 <= s0 < s1 <= path.length:
        raise ValueError(f"need 0 <= s0 < s1 <= length {path.length:.6g}, "
                         f"got s0 = {s0:.6g}, s1 = {s1:.6g}")
    if s0 == 0.0:
        return path.flow_field
    return integrate_jacobi(path, s0, s1, 0.0, 1.0)


def theta_spreading(path, s0: float = 0.0, s1: float = None) -> float:
    """Normalized geodesic spreading |j(s1)|/(s1 - s0); 1 on flat surfaces."""
    s1 = path.length if s1 is None else s1
    field = _field_from(path, s0, s1)
    return abs(field.at(s1).j) / (s1 - s0)


def morse_index(path, s0: float = 0.0, s1: float = None) -> int:
    """Interior zero count of the spreading field on (s0, s1)."""
    s1 = path.length if s1 is None else s1
    field = _field_from(path, s0, s1)
    if abs(field.at(s1).j) < MORSE_DEGENERACY_TOL * (s1 - s0):
        raise ConjugateDegeneracyError(
            "endpoint is conjugate: Morse index undefined at this tolerance"
        )
    return len(field.zeros(s0, s1))


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
    """Max |W - 1| of the fundamental pair at WRONSKIAN_CHECKS even points
    of [s0, s1]; 0 for an exact integration."""
    s1 = path.length if s1 is None else s1
    a = integrate_jacobi(path, s0, s1, 1.0, 0.0)
    b = integrate_jacobi(path, s0, s1, 0.0, 1.0)
    worst = 0.0
    for s in np.linspace(s0, s1, WRONSKIAN_CHECKS):
        fa, fb = a.at(s), b.at(s)
        worst = max(worst, abs(fa.j * fb.jprime - fa.jprime * fb.j - 1.0))
    return worst
