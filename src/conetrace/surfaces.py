"""Chart-based conic surfaces.

A surface is an atlas of two-dimensional charts with transition maps,
plus a list of tips (cone points).  Near a tip the metric has the
designer form dx^2 + x^2 h(x, y) dy^2 with x the distance to the tip, so
radial curves are the only geodesics reaching it and the link circle
carries an arc-length coordinate q = a0 * theta.

Charts come in two flavors:

* OrthogonalChart: metric P^2 dp0^2 + Q^2 dp1^2 given by its jets
  (P, P_0, P_1, P_11, Q, Q_0, Q_1, Q_00), a subscript naming a partial
  derivative in p0 or p1.  One formula turns them into the six
  Christoffel symbols and the Gauss curvature, which the ODE right-hand
  sides call point by point on Python floats; a point off the chart's
  real domain raises StepFailureError.  Writing the curvature in terms
  of P and Q (not P^2, Q^2) keeps it numerically clean down to
  x ~ 1e-7 at tips.  Every builtin writes its jets as scalar `math`
  code, so building a surface needs no symbolic algebra.
* CapChart: a Cartesian chart covering a smooth rotationally symmetric
  pole (the far end of a teardrop surface), where polar coordinates
  degenerate.  The metric is delta_ij + Q(u)(u^2 delta_ij - x_i x_j)
  with Q built from a profile that is a finite sine series, so the
  profile, its derivatives and its Taylor coefficients are closed
  forms; Taylor series of Q, its radial derivative and the curvature,
  by truncated power-series products and a division, avoid the
  cancellation of the closed forms near the pole.

Builtins: flat cone, plane, sphere band, perturbed spindle, teardrop.
Only the last two have closed geodesics through their tips, so only
they are config builtins; the other three serve the verify criteria and
the tests.  The spindle and teardrop perturb g_rr by
1 + eps * bump(r) * sin(2 theta) inside a mid band, with |eps| < 1 so
that g_rr stays positive; the tip bands stay exactly rotationally
symmetric, which keeps tip shooting and transverse miss measurement
exact.  The bump is only C^2 at the band's edges, so those edges are
the surfaces' seams: the geodesic flow ends a leg on each, and each leg
integrates one smooth piece of the metric, the band's polynomial or the
flat exterior, continued past the edges (`Chart.leg_rhs`), so no
integrator step reads the metric on both sides of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import SeriesStartFailureError, StepFailureError
from .links import LinkSpectrum

__all__ = [
    "Chart",
    "OrthogonalChart",
    "CapChart",
    "Tip",
    "Transition",
    "StopRule",
    "Seam",
    "Surface",
    "flat_cone",
    "plane",
    "sphere_band",
    "perturbed_spindle",
    "teardrop",
]

# |K| above this, a curvature radius below the 1e-7 tip-hit distance, marks
# a singular point of the metric: the Jacobi field riding the flow would
# otherwise creep toward it in steps limited by the rounding of K
MAX_CURVATURE = 1e14

# how far past a seam a leg that starts on it, having just crossed it,
# looks for the piece of a piecewise metric it runs in: far beyond the
# rounding of the seam's location (about 1e-12), far short of the band
SEAM_LOOKAHEAD = 1e-9

# what chart code raises off the chart's real domain: a `math` domain
# error, a division by zero, or float() of the complex value that
# Python's (-x)**0.5 gives
_OFF_DOMAIN = (ArithmeticError, ValueError, TypeError)


class Chart:
    """Base chart interface: metric, curvature and the geodesic flow."""

    name: str

    def metric(self, p) -> np.ndarray:
        raise NotImplementedError

    def curvature(self, p) -> float:
        raise NotImplementedError

    def flow_rhs(self, s, y):
        """Geodesic flow with the Jacobi pair riding along: y is
        (p0, p1, v0, v1, j, j') and j'' = -K(p) j at the same point."""
        raise NotImplementedError

    def leg_rhs(self, p, crossing: float):
        """The flow_rhs that a leg starting at p integrates: the
        chart's own, unless its metric is only piecewise smooth (see
        OrthogonalChart).  `crossing` is +1 or -1 for a leg that starts on
        a seam the flow has just crossed, the direction in which the
        seam's value changed sign, and 0 for any other leg."""
        return self.flow_rhs

    def norm(self, p, v) -> float:
        g = self.metric(p)
        return float(np.sqrt(v @ g @ v))


class OrthogonalChart(Chart):
    """Metric P(p0,p1)^2 dp0^2 + Q(p0,p1)^2 dp1^2 from its jets.

    `jets(p0, p1)` returns (P, P_0, P_1, P_11, Q, Q_0, Q_1, Q_00) at a
    point as floats, which is all the Christoffel symbols and
    K = -((Q_00 P - Q_0 P_0)/P^2 + (P_11 Q - P_1 Q_1)/Q^2) / (P Q)
    need.  Every evaluation runs on Python floats; a point where the
    chart has no real value raises StepFailureError.

    A metric that is only piecewise smooth, with the pieces meeting on
    the surface's seams, also gives `piece(p, crossing)`: the jets of
    the piece that a leg starting at p runs in (see `leg_rhs`),
    continued smoothly past its seams.  Each leg integrates that piece
    alone, so the step that crosses a seam, on which the leg ends, sees
    one smooth metric and is not rejected down to a sliver.
    """

    def __init__(self, name: str, jets: Callable[[float, float], tuple],
                 piece: Callable[[np.ndarray, float], Callable] = None):
        self.name = name
        self._jets = jets
        self._piece = piece

    def _off_domain(self, p0: float, p1: float, exc: Exception) -> StepFailureError:
        return StepFailureError(
            f"chart '{self.name}' has no real value at p = "
            f"({p0:.6g}, {p1:.6g}): {exc}")

    def _jets_at(self, p) -> tuple:
        p0, p1 = float(p[0]), float(p[1])
        try:
            return self._jets(p0, p1)
        except _OFF_DOMAIN as exc:
            raise self._off_domain(p0, p1, exc) from exc

    def _gammas_k(self, p0: float, p1: float, jets=None) -> tuple:
        """G^0_00, G^0_01, G^0_11, G^1_00, G^1_01, G^1_11 and K, from the
        chart's jets or the given piece's."""
        try:
            P, P0, P1, P11, Q, Q0, Q1, Q00 = (jets or self._jets)(p0, p1)
            return (P0 / P, P1 / P, -Q * Q0 / (P * P),
                    -P * P1 / (Q * Q), Q0 / Q, Q1 / Q,
                    -((Q00 * P - Q0 * P0) / (P * P)
                      + (P11 * Q - P1 * Q1) / (Q * Q)) / (P * Q))
        except _OFF_DOMAIN as exc:
            raise self._off_domain(p0, p1, exc) from exc

    def metric(self, p) -> np.ndarray:
        jets = self._jets_at(p)
        return np.array([[jets[0] ** 2, 0.0], [0.0, jets[4] ** 2]])

    def flow_rhs(self, s, y, _jets=None):
        p0, p1, v0, v1, j, jp = y.tolist()
        g000, g001, g011, g100, g101, g111, k = self._gammas_k(p0, p1, _jets)
        if not abs(k) <= MAX_CURVATURE:
            raise StepFailureError(
                f"chart '{self.name}' has curvature {k:.3g} at p = ({p0:.6g}, "
                f"{p1:.6g}): the metric is singular there")
        a0 = -(g000 * v0 * v0 + 2 * g001 * v0 * v1 + g011 * v1 * v1)
        a1 = -(g100 * v0 * v0 + 2 * g101 * v0 * v1 + g111 * v1 * v1)
        return [v0, v1, a0, a1, jp, -k * j]

    def leg_rhs(self, p, crossing: float):
        if self._piece is None:
            return self.flow_rhs
        return functools.partial(self.flow_rhs, _jets=self._piece(p, crossing))

    def curvature(self, p) -> float:
        return self._gammas_k(float(p[0]), float(p[1]))[6]

    def sqrt_q(self, p) -> float:
        return self._jets_at(p)[4]

    def sqrt_q_grad(self, p) -> np.ndarray:
        jets = self._jets_at(p)
        return np.array([jets[5], jets[6]])


def _horner(coeffs, s: float) -> float:
    """sum coeffs[i] s^i."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * s + c
    return out


class CapChart(Chart):
    """Cartesian chart over a smooth pole of a surface of revolution.

    Built from the radial profile f(u) = sum_m b_m sin(m u), m = 1, 2,
    ... (distance u from the pole, circle length 2 pi f(u));
    `sine_coeffs` is (b_1, b_2, ...), floats or exact Fractions: the
    Taylor coefficients of f are summed exactly from them and rounded
    once.  A sine series is odd, and sum_m m b_m = 1 makes
    f(u) = u + O(u^3), so the pole is smooth (another slope raises
    SeriesStartFailureError).  The metric is
    g_ij = delta_ij + Q(u)(u^2 delta_ij - x_i x_j) with
    Q = ((f/u)^2 - 1) / u^2.  Below SERIES_SWITCH, Q, R = Q'(u)/u and
    K = -f''/f come from series in u^2; above it, from f, f' and f''.
    Every evaluation runs on Python floats.
    """

    SERIES_SWITCH = 0.35
    SERIES_ORDER = 8  # powers of u^2 kept

    def __init__(self, name: str, sine_coeffs):
        self.name = name
        exact = [(m, Fraction(b)) for m, b in enumerate(sine_coeffs, start=1)]
        self._sines = tuple((m, float(b)) for m, b in exact)
        slope = float(sum(m * b for m, b in exact))
        if not abs(slope - 1.0) <= 1e-12:
            raise SeriesStartFailureError(
                f"cap profile must satisfy f(u) = u + O(u^3); its slope at "
                f"the pole is {slope!r}")
        # f/u = sum a_i u^(2i) through u^(2n), with
        # a_i = (-1)^i / (2i+1)! sum_m b_m m^(2i+1), each summed exactly
        # and rounded once
        n = self.SERIES_ORDER
        a = [float(Fraction((-1) ** i, math.factorial(2 * i + 1))
                   * sum(b * m ** (2 * i + 1) for m, b in exact))
             for i in range(n + 1)]
        self._f_coeffs = a
        # (f/u)^2 = 1 + sum m_j u^(2j), Q = sum m_{j+1} u^(2j)
        q = [sum(a[i] * a[j - i] for i in range(j + 1)) for j in range(1, n + 1)]
        self._q_coeffs = q
        # R = Q'(u)/u as a series in u^2: coefficient of u^(2i) is 2(i+1) q_{i+1}
        self._r_coeffs = [2 * (i + 1) * q[i + 1] for i in range(n - 1)]
        # -f''/f = -(f''/u) / (f/u) with f''/u = sum (2j+3)(2j+2) a_{j+1} u^(2j)
        k: list[float] = []
        for j in range(n):
            b = (2 * j + 3) * (2 * j + 2) * a[j + 1]
            k.append(-b - sum(a[i] * k[j - i] for i in range(1, j + 1)))
        self._k_coeffs = k

    def _q_r_k(self, u: float) -> tuple[float, float, float]:
        """Q(u), R(u) = Q'(u)/u and K(u)."""
        if u < self.SERIES_SWITCH:
            s = u * u
            return (_horner(self._q_coeffs, s), _horner(self._r_coeffs, s),
                    _horner(self._k_coeffs, s))
        f = fp = fpp = 0.0
        for m, b in self._sines:
            sm, cm = math.sin(m * u), math.cos(m * u)
            f += b * sm
            fp += m * b * cm
            fpp -= m * m * b * sm
        q = (f * f - u * u) / u**4
        qp = (2 * f * fp - 2 * u) / u**4 - 4 * (f * f - u * u) / u**5
        return q, qp / u, -fpp / f

    def metric(self, p) -> np.ndarray:
        x, y = float(p[0]), float(p[1])
        q = self._q_r_k(math.hypot(x, y))[0]
        return np.array([[1.0 + q * y * y, -q * x * y],
                         [-q * x * y, 1.0 + q * x * x]])

    def flow_rhs(self, s, y):
        x0, x1, v0, v1, j, jp = y.tolist()
        u2 = x0 * x0 + x1 * x1
        q, r, k = self._q_r_k(math.sqrt(u2))
        # Christoffel symbols of the first kind:
        # G_l,ij = R/2 (u^2 (x_i d_lj + x_j d_li - x_l d_ij) - x_i x_j x_l)
        # + Q (x_i d_lj + x_j d_li - 2 x_l d_ij), so
        # G_l,ij v^i v^j = xv (R u^2 + 2Q) v_l - ((R u^2/2 + 2Q) |v|^2
        # + R xv^2 / 2) x_l, then raised by g^-1 = I - c (u^2 I - x x^T)
        # with c = Q / (1 + Q u^2)
        xv = x0 * v0 + x1 * v1
        along_v = xv * (r * u2 + 2.0 * q)
        along_x = (0.5 * r * u2 + 2.0 * q) * (v0 * v0 + v1 * v1) + 0.5 * r * xv * xv
        w0 = along_v * v0 - along_x * x0
        w1 = along_v * v1 - along_x * x1
        c = q / (1.0 + q * u2)
        cross = c * x0 * x1
        a0 = -((1.0 - c * x1 * x1) * w0 + cross * w1)
        a1 = -(cross * w0 + (1.0 - c * x0 * x0) * w1)
        return [v0, v1, a0, a1, jp, -k * j]

    def curvature(self, p) -> float:
        return self._q_r_k(math.hypot(float(p[0]), float(p[1])))[2]


@dataclass(frozen=True)
class Tip:
    """A cone point sitting on the p0-axis of a polar-type chart.

    x = sign * (p0 - axis_value) is the distance to the tip inside the
    designer band x < band, where the metric is dx^2 + Q^2 dy^2 (a shot
    starts at its edge in closed form, `geodesics.shoot_from_tip`, and a
    shot into the tip stops on entry into it, `geodesics.connect_tips`:
    with Q = Q(x), as on the builtins, the miss p_theta = Q^2 y' is
    conserved across the band); the link arc coordinate is
    q = (a0 * p1) mod rho.  c1 is the first radial
    correction of sqrt(G) = a0 x (1 + c1 x + ...), from which the tests
    start the reference tip field they check the closed form against.
    """

    tip_id: str
    chart: str
    axis_value: float
    sign: float
    link: LinkSpectrum
    a0: float
    c1: float
    band: float  # designer band width in x

    def x_of(self, p) -> float:
        return self.sign * (p[0] - self.axis_value)

    def link_coord(self, p1: float) -> float:
        return float(np.remainder(self.a0 * p1, self.link.circumference))

    def angle_of_link(self, q: float) -> float:
        return q / self.a0


@dataclass(frozen=True)
class Transition:
    """Chart switch rule: when `trigger` crosses zero from above while in
    `src`, map position/velocity into `dst`."""

    src: str
    dst: str
    trigger: Callable[[np.ndarray], float]
    map_point: Callable[[np.ndarray], np.ndarray]
    map_velocity: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class StopRule:
    """Terminal event for geodesic integration in a given chart."""

    chart: str
    value: Callable[[np.ndarray, np.ndarray], float]  # of (p, v)
    direction: float
    kind: str  # "tip" | "atlas"
    payload: object = None


@dataclass(frozen=True)
class Seam:
    """A curve value(p) = 0 in `chart` across which the metric is only
    finitely smooth, such as the edge of a Piecewise perturbation.  The
    geodesic flow ends a leg on it, so that no integrator step straddles
    it."""

    chart: str
    value: Callable[[np.ndarray], float]


@dataclass
class Surface:
    charts: dict[str, Chart]
    tips: dict[str, Tip] = field(default_factory=dict)
    transitions: list[Transition] = field(default_factory=list)
    atlas_rules: list[StopRule] = field(default_factory=list)
    seams: list[Seam] = field(default_factory=list)

    def chart(self, name: str) -> Chart:
        return self.charts[name]

    def tip_rules(self, x_hit: float) -> list[StopRule]:
        rules = []
        for tip in self.tips.values():
            rules.append(
                StopRule(
                    chart=tip.chart,
                    value=lambda p, v, _t=tip, _x=x_hit: _t.x_of(p) - _x,
                    direction=-1.0,
                    kind="tip",
                    payload=tip.tip_id,
                )
            )
        return rules


def _perturbed_chart(eps: float, lo: float, hi: float,
                     profile: Callable[[float], tuple]) -> OrthogonalChart:
    """The polar chart with P = sqrt(1 + eps b(r) sin 2 theta) and
    Q = f(r), where profile(r) returns (f, f', f'').

    b is the C^2 bump ((r - lo)(hi - r))^3 / w^6, w = (hi - lo)/2, on
    (lo, hi) and 0 outside: it vanishes to third order at both edges and
    reaches 1 at the midpoint, so |eps| < 1 keeps g_rr = P^2 positive.
    The edges are seams of the surfaces that use it (`_bump_seams`).
    The chart's pieces are the band's polynomial and the flat exterior,
    each continued past the edges.  A leg takes the piece its start
    lies in; a leg that starts on an edge it has just crossed takes the
    one on the far side, at r + SEAM_LOOKAHEAD crossing (the seams'
    values r - lo and r - hi rise with r), whatever the rounding of its
    start or however small its v_r.  The two pieces differ by
    O(eps d^3 / w^3) at a distance d beyond an edge.
    """
    if not abs(eps) < 1.0:
        raise ValueError(
            f"eps must lie strictly between -1 and 1, not {eps!r}: g_rr = "
            f"1 + eps * bump * sin(2 theta) reaches 1 - |eps| <= 0 in the band")
    scale = eps / ((hi - lo) / 2.0) ** 6

    def flat(r, theta):
        q, q0, q00 = profile(r)
        return 1.0, 0.0, 0.0, 0.0, q, q0, 0.0, q00

    def band(r, theta):
        q, q0, q00 = profile(r)
        g = (r - lo) * (hi - r)
        eb = scale * g * g * g  # eps b(r)
        eb_r = 3.0 * scale * g * g * (lo + hi - 2.0 * r)  # eps b'(r)
        s2, c2 = math.sin(2.0 * theta), math.cos(2.0 * theta)
        p = math.sqrt(1.0 + eb * s2)
        p1 = eb * c2 / p
        return (p, 0.5 * eb_r * s2 / p, p1, -(2.0 * eb * s2 + p1 * p1) / p,
                q, q0, 0.0, q00)

    def jets(r, theta):
        return (band if lo < r < hi else flat)(r, theta)

    def piece(p, crossing):
        r = float(p[0]) + SEAM_LOOKAHEAD * crossing
        return band if lo < r < hi else flat

    return OrthogonalChart("polar", jets, piece)


def _bump_seams(chart: str, lo: float, hi: float) -> list[Seam]:
    """The bump's edges r = lo and r = hi, where g_rr is only C^2."""
    return [Seam(chart, lambda p, _r=edge: p[0] - _r) for edge in (lo, hi)]


def flat_cone(rho: float, r_max: float = 50.0) -> Surface:
    """Flat cone of circumference rho: dx^2 + x^2 dy^2, y of period rho."""
    chart = OrthogonalChart("polar", lambda r, y: (1.0, 0.0, 0.0, 0.0, r, 1.0, 0.0, 0.0))
    tip = Tip("tip", "polar", 0.0, 1.0, LinkSpectrum.circle(rho), 1.0, 0.0, band=r_max)
    atlas = [
        StopRule("polar", lambda p, v: r_max - p[0], -1.0, "atlas"),
    ]
    return Surface({"polar": chart}, {"tip": tip}, [], atlas)


def plane(half_width: float = 100.0) -> Surface:
    chart = OrthogonalChart("cart", lambda x, y: (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    atlas = [
        StopRule("cart", lambda p, v, w=half_width: w - abs(p[0]), -1.0, "atlas"),
        StopRule("cart", lambda p, v, w=half_width: w - abs(p[1]), -1.0, "atlas"),
    ]
    return Surface({"cart": chart}, {}, [], atlas)


def sphere_band(max_latitude: float = 1.35) -> Surface:
    """Unit sphere in latitude/longitude, away from the poles."""

    def jets(lat, lon):
        c = math.cos(lat)
        return 1.0, 0.0, 0.0, 0.0, c, -math.sin(lat), 0.0, -c

    chart = OrthogonalChart("band", jets)
    atlas = [
        StopRule("band", lambda p, v, m=max_latitude: m - abs(p[0]), -1.0, "atlas"),
    ]
    return Surface({"band": chart}, {}, [], atlas)


def perturbed_spindle(a0: float = 0.75, eps: float = 0.05) -> Surface:
    """Two conic tips at r = 0 and r = pi, cone angles 2 pi a0.

    Metric sqrt(g_rr) = sqrt(1 + eps * bump(r) * sin(2 theta)),
    sqrt(g_theta_theta) = a0 sin r, with |eps| < 1 (ValueError
    otherwise).  The bump lives in [0.7, pi - 0.7], so both tip bands
    are exactly rotationally symmetric.  For eps = 0
    every meridian joins the tips and the tips are conjugate; eps != 0
    leaves exact tip-to-tip geodesics on the invariant meridians
    theta = pi/4 and 5 pi/4 with nonconjugate tips.
    """
    band_lo, band_hi = 0.7, np.pi - 0.7

    def profile(r):
        f = a0 * math.sin(r)
        return f, a0 * math.cos(r), -f

    chart = _perturbed_chart(eps, band_lo, band_hi, profile)
    rho = 2 * np.pi * a0
    tips = {
        "south": Tip("south", "polar", 0.0, 1.0, LinkSpectrum.circle(rho), a0, 0.0, band_lo),
        "north": Tip("north", "polar", np.pi, -1.0, LinkSpectrum.circle(rho), a0, 0.0, band_lo),
    }
    return Surface({"polar": chart}, tips, [], [],
                   _bump_seams("polar", band_lo, band_hi))


def teardrop(a0: float = 0.75, eps: float = 0.05) -> Surface:
    """One conic tip (angle 2 pi a0) at r = 0, smooth pole at r = pi.

    Profile f(r) = sin(r) (a0 + (1 - a0) sin^2(r/2))
    = (1 + a0)/2 sin r - (1 - a0)/4 sin 2r: slope a0 at the tip, slope 1
    at the pole, odd in the distance to either end so the pole is
    genuinely smooth.  The same g_rr bump perturbation as the spindle,
    |eps| < 1, lives in r in [0.7, 2.0]; the pole cap r > pi - 0.55 is
    covered by a Cartesian CapChart on f(pi - u) =
    (1 + a0)/2 sin u + (1 - a0)/4 sin 2u and stays exactly symmetric.
    """
    band_lo, band_hi = 0.7, 2.0
    b1, b2 = (1 + a0) / 2, (1 - a0) / 4

    def profile(r):
        s1, s2 = math.sin(r), math.sin(2.0 * r)
        return (b1 * s1 - b2 * s2, b1 * math.cos(r) - 2.0 * b2 * math.cos(2.0 * r),
                -b1 * s1 + 4.0 * b2 * s2)

    chart = _perturbed_chart(eps, band_lo, band_hi, profile)
    # exact coefficients of the decimal a0 names (0.6 is 3/5, not its
    # binary neighbor), so each cap series coefficient is that profile's
    # correctly rounded value
    a0_exact = Fraction(str(a0))
    cap = CapChart("cap", ((1 + a0_exact) / 2, (1 - a0_exact) / 4))
    rho = 2 * np.pi * a0
    tips = {
        "tip": Tip("tip", "polar", 0.0, 1.0, LinkSpectrum.circle(rho), a0, 0.0, band_lo)
    }

    u_in, u_out = 0.40, 0.55

    def polar_to_cap(p):
        uu = np.pi - p[0]
        return np.array([uu * np.cos(p[1]), uu * np.sin(p[1])])

    def polar_to_cap_vel(p, v):
        uu = np.pi - p[0]
        du = -v[0]
        c, s = np.cos(p[1]), np.sin(p[1])
        return np.array([du * c - uu * s * v[1], du * s + uu * c * v[1]])

    def cap_to_polar(p):
        uu = np.hypot(p[0], p[1])
        return np.array([np.pi - uu, np.arctan2(p[1], p[0])])

    def cap_to_polar_vel(p, v):
        uu = np.hypot(p[0], p[1])
        du = (p[0] * v[0] + p[1] * v[1]) / uu
        dth = (p[0] * v[1] - p[1] * v[0]) / uu**2
        return np.array([-du, dth])

    transitions = [
        Transition(
            "polar",
            "cap",
            trigger=lambda p: (np.pi - u_in) - p[0],
            map_point=polar_to_cap,
            map_velocity=polar_to_cap_vel,
        ),
        Transition(
            "cap",
            "polar",
            trigger=lambda p: u_out - np.hypot(p[0], p[1]),
            map_point=cap_to_polar,
            map_velocity=cap_to_polar_vel,
        ),
    ]
    atlas = [
        StopRule("cap", lambda p, v: 0.68 - np.hypot(p[0], p[1]), -1.0, "atlas"),
    ]
    return Surface({"polar": chart, "cap": cap}, tips, transitions, atlas,
                   _bump_seams("polar", band_lo, band_hi))

