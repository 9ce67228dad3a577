"""Chart-based conic surfaces.

A surface is an atlas of two-dimensional charts with transition maps,
plus a list of tips (cone points).  Near a tip the metric has the
designer form dx^2 + x^2 h(x, y) dy^2 with x the distance to the tip, so
radial curves are the only geodesics reaching it and the link circle
carries an arc-length coordinate q = a0 * theta.

Charts come in two flavors:

* OrthogonalChart: metric P^2 dp0^2 + Q^2 dp1^2 given by sympy
  expressions for P and Q.  Christoffel symbols and the Gauss curvature
  are derived symbolically and compiled to scalar Python code on the
  `math` module (a Piecewise becomes a conditional expression), which
  is what the ODE right-hand sides call point by point; a point off the
  chart's real domain raises StepFailureError.  Writing the curvature
  in terms of P and Q (not P^2, Q^2) keeps it numerically clean down to
  x ~ 1e-7 at tips.
* CapChart: a Cartesian chart covering a smooth rotationally symmetric
  pole (the far end of a teardrop surface), where polar coordinates
  degenerate.  The metric is delta_ij + Q(u)(u^2 delta_ij - x_i x_j)
  with Q built from the profile; a Taylor series evaluates Q, its
  radial derivative, and the curvature without cancellation near the
  pole.  Sympy's ring series (`rs_series`, exact rational arithmetic)
  expands only the profile f; the series of (f/u)^2 and -f''/f follow
  from it by truncated power-series products and a division.

Builtins: flat cone, plane, sphere band, perturbed/symmetric spindle,
teardrop.  The spindle and teardrop perturb g_rr by
1 + eps * bump(r) * sin(2 theta) inside a mid band; the tip bands stay
exactly rotationally symmetric, which keeps tip shooting and transverse
miss measurement exact.  The bump is only C^2 at the band's edges, so
those edges are the surfaces' seams: the geodesic flow ends a leg on
each, and no integrator step reads the metric on both sides of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import sympy as sp
from sympy.polys.polyerrors import BasePolynomialError
from sympy.polys.ring_series import rs_series

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
    "symmetric_spindle",
    "teardrop",
    "cone_chart_surface",
]

_P0, _P1 = sp.symbols("p0 p1", real=True)

# |K| above this, a curvature radius below the 1e-7 tip-hit distance, marks
# a singular point of the metric: the Jacobi field riding the flow would
# otherwise creep toward it in steps limited by the rounding of K
MAX_CURVATURE = 1e14


_CHART_LOCALS = {"p0": _P0, "p1": _P1, "x": _P0, "y": _P1, "r": _P0, "theta": _P1}


def _sympify(expr):
    if isinstance(expr, str):
        return sp.sympify(expr, locals=_CHART_LOCALS)
    return sp.sympify(expr)


def _lambdify(expr):
    """Scalar code for expr(p0, p1): `math` calls on Python floats, so a
    Piecewise compiles to a conditional expression.  Common subexpressions
    are computed once: the flow's right-hand side (six Christoffel symbols
    and K) takes 2.2 us per call instead of 7.1 on the spindle chart
    (x86, Python 3.11)."""
    return sp.lambdify((_P0, _P1), expr, modules="math", cse=True)


class Chart:
    """Base chart interface: metric, Christoffel symbols, curvature."""

    name: str

    def metric(self, p) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, p) -> np.ndarray:
        raise NotImplementedError

    def curvature(self, p) -> float:
        raise NotImplementedError

    def flow_rhs(self, s, y):
        """Geodesic flow with the Jacobi pair riding along: y is
        (p0, p1, v0, v1, j, j') and j'' = -K(p) j at the same point."""
        raise NotImplementedError

    def norm(self, p, v) -> float:
        g = self.metric(p)
        return float(np.sqrt(v @ g @ v))


class OrthogonalChart(Chart):
    """Metric P(p0,p1)^2 dp0^2 + Q(p0,p1)^2 dp1^2 from sympy expressions.

    Every evaluation runs on Python floats; a point where the chart has
    no real value raises StepFailureError.
    """

    def __init__(self, name: str, sqrt_e, sqrt_q):
        self.name = name
        P = _sympify(sqrt_e)
        Q = _sympify(sqrt_q)
        self.sqrt_e_expr, self.sqrt_q_expr = P, Q
        P0, P1 = sp.diff(P, _P0), sp.diff(P, _P1)
        Q0, Q1 = sp.diff(Q, _P0), sp.diff(Q, _P1)
        gammas = [
            P0 / P,            # G^0_00
            P1 / P,            # G^0_01
            -Q * Q0 / P**2,    # G^0_11
            -P * P1 / Q**2,    # G^1_00
            Q0 / Q,            # G^1_01
            Q1 / Q,            # G^1_11
        ]
        curv = -(sp.diff(Q0 / P, _P0) + sp.diff(P1 / Q, _P1)) / (P * Q)
        self._p = _lambdify(P)
        self._q = _lambdify(Q)
        self._q_grad = _lambdify([Q0, Q1])
        # the flow reads the six symbols and K at each point in one call
        self._gammas_k = _lambdify(gammas + [curv])
        self._curv = _lambdify(curv)

    def _eval(self, fn, p):
        """fn at the chart point p: a float, or a list of floats."""
        p0, p1 = float(p[0]), float(p[1])
        try:
            out = fn(p0, p1)
            if isinstance(out, list):
                return [float(v) for v in out]
            return float(out)
        # off the chart's real domain `math` code raises a domain error or
        # divides by zero, and float() refuses the complex value that
        # Python's (-x)**0.5 gives
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise StepFailureError(
                f"chart '{self.name}' has no real value at p = "
                f"({p0:.6g}, {p1:.6g}): {exc}"
            ) from exc

    def metric(self, p) -> np.ndarray:
        e = self._eval(self._p, p) ** 2
        g = self._eval(self._q, p) ** 2
        return np.array([[e, 0.0], [0.0, g]])

    def christoffel(self, p) -> np.ndarray:
        g000, g001, g011, g100, g101, g111, _ = self._eval(self._gammas_k, p)
        out = np.empty((2, 2, 2))
        out[0] = [[g000, g001], [g001, g011]]
        out[1] = [[g100, g101], [g101, g111]]
        return out

    def flow_rhs(self, s, y):
        p0, p1, v0, v1, j, jp = y.tolist()
        g000, g001, g011, g100, g101, g111, k = self._eval(self._gammas_k, (p0, p1))
        if not abs(k) <= MAX_CURVATURE:
            raise StepFailureError(
                f"chart '{self.name}' has curvature {k:.3g} at p = ({p0:.6g}, "
                f"{p1:.6g}): the metric is singular there")
        a0 = -(g000 * v0 * v0 + 2 * g001 * v0 * v1 + g011 * v1 * v1)
        a1 = -(g100 * v0 * v0 + 2 * g101 * v0 * v1 + g111 * v1 * v1)
        return [v0, v1, a0, a1, jp, -k * j]

    def curvature(self, p) -> float:
        return self._eval(self._curv, p)

    def sqrt_q(self, p) -> float:
        return self._eval(self._q, p)

    def sqrt_q_grad(self, p) -> np.ndarray:
        return np.array(self._eval(self._q_grad, p))


def _odd_series(f, u, n: int) -> list[float]:
    """a_0 .. a_n of an odd profile f = sum a_i u^(2i+1) with a_0 = 1.

    Sympy's ring series expands f in exact rational arithmetic on
    truncated series; a profile it cannot expand, a term it leaves
    unexpanded or a coefficient that is not a number raises
    SeriesStartFailureError."""
    try:
        f_series = rs_series(f, u, 2 * n + 2).as_expr()
        c = {int(k[0]): float(v) for k, v in sp.Poly(f_series, u).as_dict().items()}
    # a function with no ring series (NotImplementedError, or a KeyError
    # for its name), a power it refuses (ValueError), a term it leaves
    # unexpanded (PolynomialError) and a symbolic coefficient (TypeError)
    except (NotImplementedError, LookupError, ValueError, TypeError,
            BasePolynomialError) as exc:
        raise SeriesStartFailureError(
            f"cap profile {f} has no power series in {u}: {exc!r}") from exc
    if abs(c.get(1, 0.0) - 1.0) > 1e-12 or any(k % 2 == 0 for k in c):
        raise SeriesStartFailureError("cap profile must satisfy f(u) = u + O(u^3), odd")
    return [c.get(2 * i + 1, 0.0) for i in range(n + 1)]


class CapChart(Chart):
    """Cartesian chart over a smooth pole of a surface of revolution.

    Built from a radial profile ftilde(u) (distance u from the pole,
    circle length 2 pi ftilde(u)) with ftilde(u) = u + O(u^3) and odd.
    The metric is g_ij = delta_ij + Q(u)(u^2 delta_ij - x_i x_j) with
    Q = ((ftilde/u)^2 - 1) / u^2, evaluated by series for small u.
    """

    SERIES_SWITCH = 0.35
    SERIES_ORDER = 8  # powers of u^2 kept

    def __init__(self, name: str, profile_expr, var):
        self.name = name
        u = var
        f = _sympify(profile_expr)
        self._f = sp.lambdify(u, f, modules="math")
        self._fp = sp.lambdify(u, sp.diff(f, u), modules="math")
        self._fpp = sp.lambdify(u, sp.diff(f, u, 2), modules="math")
        # f/u = sum a_i u^(2i), a_0 = 1, through u^(2n): one series of f,
        # the rest by truncated power-series products and a division
        n = self.SERIES_ORDER
        a = _odd_series(f, u, n)
        # (f/u)^2 = 1 + sum m_j u^(2j), Q = sum m_{j+1} u^(2j)
        self._q_coeffs = np.array(
            [sum(a[i] * a[j - i] for i in range(j + 1)) for j in range(1, n + 1)]
        )
        # R = Q'(u)/u as a series in u^2: coefficient of u^(2i) is 2(i+1) q_{i+1}
        self._r_coeffs = np.array(
            [2 * (i + 1) * self._q_coeffs[i + 1] for i in range(n - 1)]
        )
        # -f''/f = -(f''/u) / (f/u) with f''/u = sum (2j+3)(2j+2) a_{j+1} u^(2j)
        k: list[float] = []
        for j in range(n):
            b = (2 * j + 3) * (2 * j + 2) * a[j + 1]
            k.append(-b - sum(a[i] * k[j - i] for i in range(1, j + 1)))
        self._k_coeffs = np.array(k)

    def _q_r(self, u: float) -> tuple[float, float]:
        """Q(u) and R(u) = Q'(u)/u."""
        if u < self.SERIES_SWITCH:
            s = u * u
            powers = s ** np.arange(len(self._q_coeffs))
            q = float(self._q_coeffs @ powers)
            r = float(self._r_coeffs @ powers[: len(self._r_coeffs)])
            return q, r
        f, fp = self._f(u), self._fp(u)
        q = (f * f - u * u) / u**4
        qp = (2 * f * fp - 2 * u) / u**4 - 4 * (f * f - u * u) / u**5
        return q, qp / u

    def metric(self, p) -> np.ndarray:
        x, y = p
        u2 = x * x + y * y
        q, _ = self._q_r(np.sqrt(u2))
        return np.array(
            [
                [1.0 + q * (u2 - x * x), -q * x * y],
                [-q * x * y, 1.0 + q * (u2 - y * y)],
            ]
        )

    def christoffel(self, p) -> np.ndarray:
        x = np.asarray(p, dtype=float)
        u = float(np.hypot(x[0], x[1]))
        q, r = self._q_r(u)
        u2 = u * u
        delta = np.eye(2)
        proj = u2 * delta - np.outer(x, x)
        g = delta + q * proj
        # dg[k, i, j] = d g_ij / d x_k
        dg = np.empty((2, 2, 2))
        for k in range(2):
            dg[k] = r * x[k] * proj + q * (
                2 * x[k] * delta
                - np.outer(delta[k], x)
                - np.outer(x, delta[k])
            )
        ginv = np.linalg.inv(g)
        gamma = np.empty((2, 2, 2))
        for a in range(2):
            for i in range(2):
                for j in range(2):
                    gamma[a, i, j] = 0.5 * sum(
                        ginv[a, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                        for l in range(2)
                    )
        return gamma

    def flow_rhs(self, s, y):
        p = np.array(y[:2])
        v = np.array(y[2:4])
        gamma = self.christoffel(p)
        acc = -np.einsum("aij,i,j->a", gamma, v, v)
        return (v[0], v[1], acc[0], acc[1], y[5], -self.curvature(p) * y[4])

    def curvature(self, p) -> float:
        u = float(np.hypot(p[0], p[1]))
        if u < self.SERIES_SWITCH:
            powers = (u * u) ** np.arange(len(self._k_coeffs))
            return float(self._k_coeffs @ powers)
        return float(-self._fpp(u) / self._f(u))


@dataclass(frozen=True)
class Tip:
    """A cone point sitting on the p0-axis of a polar-type chart.

    x = sign * (p0 - axis_value) is the distance to the tip inside the
    designer band; the link arc coordinate is q = (a0 * p1) mod rho.
    c1 is the first radial correction of sqrt(G) = a0 x (1 + c1 x + ...),
    feeding the series start of tip Jacobi fields.
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
    kind: str  # "tip" | "atlas" | "stop"
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


def _tip_c1(sqrt_q_expr, tip_axis_value: float, sign: float) -> tuple[float, float]:
    """Expand sqrt(G) = a0 x (1 + c1 x + ...) at a tip; return (a0, c1)."""
    x = sp.Symbol("x", positive=True)
    expr = sqrt_q_expr.subs(_P0, tip_axis_value + sign * x)
    # float exponents like **0.5 block symbolic limits; rationalize them
    expr = sp.nsimplify(expr, rational=True)
    try:
        value_at_tip = float(sp.limit(expr, x, 0, "+"))
        # exact: a rounded a0 leaves (expr / (a0 x) - 1) / x ~ 1/x
        a0_exact = sp.limit(expr / x, x, 0, "+")
        a0 = float(a0_exact)
        if abs(value_at_tip) > 1e-12 or not np.isfinite(a0) or abs(a0) < 1e-14:
            raise SeriesStartFailureError(
                "sqrt(G) must vanish to exactly first order at a tip"
            )
        c1 = float(sp.limit((expr / (a0_exact * x) - 1) / x, x, 0, "+"))
        if not np.isfinite(c1):
            raise SeriesStartFailureError(
                "sqrt(G) has no finite first radial correction at a tip")
    except SeriesStartFailureError:
        raise
    except Exception as exc:
        raise SeriesStartFailureError(f"tip expansion of sqrt(G) failed: {exc}") from exc
    return a0, c1


def _bump(var, lo: float, hi: float):
    """C^2 bump: vanishes to third order at both edges, max 1 at midpoint.
    The edges are seams of the surfaces that use it (`_bump_seams`)."""
    width = (hi - lo) / 2.0
    core = ((var - lo) * (hi - var)) ** 3 / width**6
    return sp.Piecewise((core, sp.And(var > lo, var < hi)), (0.0, True))


def _bump_seams(chart: str, lo: float, hi: float) -> list[Seam]:
    """The bump's edges r = lo and r = hi, where g_rr is only C^2."""
    return [Seam(chart, lambda p, _r=edge: p[0] - _r) for edge in (lo, hi)]


def flat_cone(rho: float, r_max: float = 50.0) -> Surface:
    """Flat cone of circumference rho: dx^2 + x^2 dy^2, y of period rho."""
    chart = OrthogonalChart("polar", 1, _P0)
    tip = Tip("tip", "polar", 0.0, 1.0, LinkSpectrum.circle(rho), 1.0, 0.0, band=r_max)
    atlas = [
        StopRule("polar", lambda p, v: r_max - p[0], -1.0, "atlas"),
    ]
    return Surface({"polar": chart}, {"tip": tip}, [], atlas)


def plane(half_width: float = 100.0) -> Surface:
    chart = OrthogonalChart("cart", 1, 1)
    atlas = [
        StopRule("cart", lambda p, v, w=half_width: w - abs(p[0]), -1.0, "atlas"),
        StopRule("cart", lambda p, v, w=half_width: w - abs(p[1]), -1.0, "atlas"),
    ]
    return Surface({"cart": chart}, {}, [], atlas)


def sphere_band(max_latitude: float = 1.35) -> Surface:
    """Unit sphere in latitude/longitude, away from the poles."""
    chart = OrthogonalChart("band", 1, sp.cos(_P0))
    atlas = [
        StopRule("band", lambda p, v, m=max_latitude: m - abs(p[0]), -1.0, "atlas"),
    ]
    return Surface({"band": chart}, {}, [], atlas)


def perturbed_spindle(a0: float = 0.75, eps: float = 0.05) -> Surface:
    """Two conic tips at r = 0 and r = pi, cone angles 2 pi a0.

    Metric sqrt(g_rr) = sqrt(1 + eps * bump(r) * sin(2 theta)),
    sqrt(g_theta_theta) = a0 sin r.  The bump lives in [0.7, pi - 0.7],
    so both tip bands are exactly rotationally symmetric.  For eps = 0
    every meridian joins the tips and the tips are conjugate; eps != 0
    leaves exact tip-to-tip geodesics on the invariant meridians
    theta = pi/4 and 5 pi/4 with nonconjugate tips.
    """
    band_lo, band_hi = 0.7, np.pi - 0.7
    pexpr = sp.sqrt(1 + eps * _bump(_P0, band_lo, band_hi) * sp.sin(2 * _P1))
    qexpr = a0 * sp.sin(_P0)
    chart = OrthogonalChart("polar", pexpr, qexpr)
    rho = 2 * np.pi * a0
    tips = {
        "south": Tip("south", "polar", 0.0, 1.0, LinkSpectrum.circle(rho), a0, 0.0, band_lo),
        "north": Tip("north", "polar", np.pi, -1.0, LinkSpectrum.circle(rho), a0, 0.0, band_lo),
    }
    return Surface({"polar": chart}, tips, [], [],
                   _bump_seams("polar", band_lo, band_hi))


def symmetric_spindle(a0: float = 0.75) -> Surface:
    return perturbed_spindle(a0=a0, eps=0.0)


def teardrop(a0: float = 0.75, eps: float = 0.05) -> Surface:
    """One conic tip (angle 2 pi a0) at r = 0, smooth pole at r = pi.

    Profile f(r) = sin(r) (a0 + (1 - a0) sin^2(r/2)): slope a0 at the
    tip, slope 1 at the pole, odd in the distance to either end so the
    pole is genuinely smooth.  The same g_rr bump perturbation as the
    spindle lives in r in [0.7, 2.0]; the pole cap r > pi - 0.55 is
    covered by a Cartesian CapChart and stays exactly symmetric.
    """
    band_lo, band_hi = 0.7, 2.0
    pexpr = sp.sqrt(1 + eps * _bump(_P0, band_lo, band_hi) * sp.sin(2 * _P1))
    profile = sp.sin(_P0) * (a0 + (1 - a0) * sp.sin(_P0 / 2) ** 2)
    chart = OrthogonalChart("polar", pexpr, profile)
    u = sp.Symbol("u", positive=True)
    cap_profile = (sp.sin(_P0) * (a0 + (1 - a0) * sp.sin(_P0 / 2) ** 2)).subs(
        _P0, sp.pi - u
    )
    cap = CapChart("cap", sp.expand_trig(cap_profile), u)
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


def cone_chart_surface(sqrt_h_expr, rho: float, r_max: float = 10.0) -> Surface:
    """Single-tip cone dx^2 + x^2 h(x, y) dy^2 from sqrt(h) as a sympy
    expression in (p0, p1); used for non-product tip tests."""
    sqrt_h = _sympify(sqrt_h_expr)
    qexpr = _P0 * sqrt_h
    chart = OrthogonalChart("polar", 1, qexpr)
    a0, c1 = _tip_c1(qexpr, 0.0, 1.0)
    tip = Tip("tip", "polar", 0.0, 1.0, LinkSpectrum.circle(2 * np.pi * a0), a0, c1, band=r_max)
    atlas = [StopRule("polar", lambda p, v: r_max - p[0], -1.0, "atlas")]
    return Surface({"polar": chart}, {"tip": tip}, [], atlas)
