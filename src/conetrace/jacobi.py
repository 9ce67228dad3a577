"""Jacobi fields along geodesic paths: spreading, Morse indices, Hessians.

The scalar Jacobi equation j'' + K(s) j = 0 is integrated along a
GeodesicPath.  Fields launched at a tip use the Frobenius start
j(x) = x (1 + c1 x), j'(x) = 1 + 2 c1 x at a small offset, where c1 is
the first radial correction of sqrt(G); this is exact through second
order even when the curvature has a 1/x singularity at a non-product
tip.

Conventions: the normalized spreading between parameters s0 < s1 is
Theta = |j(s1)| / (s1 - s0) for the field with j(s0) = 0, j'(s0) = 1,
so Theta = 1 on flat surfaces.  The Morse index counts interior zeros
of that field on the open interval.

The field from s0 = 0 of every path is the flow's own
(`path.flow_field`): the geodesic flow carries (j, j') as two more
components of each shot, with K read from the chart at the same point,
at the per-component tolerances (JACOBI_RTOL, JACOBI_ATOL on j and j'),
and only a radial end cap into a tip takes one short solve of its own.
The reverse field is the same for `path.reversed()`, a shot of its own
from the path's end.  Every function here that starts a field at s0 = 0
reads one of these, so Theta, the Morse index and the broken Hessian
share them; j'/j is the shape operator the cut route reads.  A field
from s0 > 0 is its own solve along the stored path at the same
tolerances, restarted at each of the path's leg ends, so that no step
straddles a seam of the metric; `b_jacobi_solution` solves a tip field
that way, as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp
from scipy.optimize import brentq

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

# distance from the tip at which tip fields start, and shots launch
# (geodesics.TIP_START_X); the start's j' misses the x^2 K / 2 term, so
# the offset must be small: 5e-13 here, 5e-9 at 1e-4
FROBENIUS_START_X = 1e-6
JACOBI_RTOL = 1e-11
JACOBI_ATOL = 1e-13
# |j(s1)| below this times (s1 - s0) counts as a conjugate endpoint
MORSE_DEGENERACY_TOL = 1e-8
ZERO_PAD = 1e-9  # zeros are searched this far inside an interval's ends
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

    def zeros(self, lo: float = None, hi: float = None):
        """Zeros of j in the open interval (lo, hi)."""
        lo = self.s0 if lo is None else lo
        hi = self.s1 if hi is None else hi
        if hi - lo <= 2 * ZERO_PAD:
            return []
        grid = np.linspace(lo + ZERO_PAD, hi - ZERO_PAD,
                           max(400, int(200 * (hi - lo))))
        vals = self.j(grid)
        out = []
        sign = np.sign(vals)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            out.append(brentq(lambda s: float(self.j(s)), grid[i], grid[i + 1],
                              xtol=1e-12))
        return out


def integrate_jacobi(path, s0: float, s1: float, j0: float,
                     jprime0: float) -> JacobiSolution:
    """The field with (j, j') = (j0, jprime0) at s0, solved along the
    stored path piece by piece between its leg ends (`path.breaks`: chart
    switches and seams, where K may be only finitely smooth), so that no
    step straddles one."""
    def rhs(s, y):
        return (y[1], -path.curvature(s) * y[0])

    ends = [s0] + [b for b in path.breaks if s0 < b < s1] + [s1]
    ts, pieces, y = [s0], [], [j0, jprime0]
    for a, b in zip(ends[:-1], ends[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=JACOBI_RTOL,
                        atol=JACOBI_ATOL, dense_output=True)
        if not sol.success:
            raise StepFailureError(f"Jacobi integrator failed: {sol.message}")
        ts.extend(sol.sol.ts[1:])
        pieces.extend(sol.sol.interpolants)
        y = sol.y[:, -1]
    return JacobiSolution(OdeSolution(ts, pieces), s0, s1)


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
