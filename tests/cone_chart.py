"""A single-tip cone chart from a sympy expression: the tests' reference
tip with c1 != 0.

Every surface the package builds has c1 = 0 at its tips and writes its
jets by hand.  These charts take theirs from sympy, so the tests can
check the tip data, the compiled-chart formulas, the off-domain and
singular-curvature guards and the Frobenius start on a non-product tip.
No closed geodesic exists on them: every geodesic from the one tip is
radial and leaves the atlas.
"""

import numpy as np
import sympy as sp

from conetrace.errors import SeriesStartFailureError
from conetrace.links import LinkSpectrum
from conetrace.surfaces import OrthogonalChart, StopRule, Surface, Tip


def _tip_c1(sqrt_q_expr, p0, tip_axis_value: float, sign: float) -> tuple[float, float]:
    """Expand sqrt(G) = a0 x (1 + c1 x + ...) at a tip; return (a0, c1).
    sqrt_q_expr is a sympy expression in the chart coordinate p0."""
    x = sp.Symbol("x", positive=True)
    expr = sqrt_q_expr.subs(p0, tip_axis_value + sign * x)
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


def cone_chart_surface(sqrt_h_expr, *, r_max: float = 10.0) -> Surface:
    """Single-tip cone dx^2 + x^2 h(x, y) dy^2 from sqrt(h), a string
    sympy parses in (p0, p1), also spelled (x, y) or (r, theta).  The
    chart's jets come from one lambdify of the sympy derivatives of
    sqrt(G) = x sqrt(h).  The link circumference is 2 pi a0, with
    a0 = sqrt(h) at the tip."""
    p0, p1 = sp.symbols("p0 p1", real=True)
    names = {"p0": p0, "p1": p1, "x": p0, "y": p1, "r": p0, "theta": p1}
    qexpr = p0 * sp.sympify(sqrt_h_expr, locals=names)
    # P = 1, so only Q's jets are compiled
    q_jets = sp.lambdify((p0, p1), [qexpr, qexpr.diff(p0), qexpr.diff(p1),
                                    qexpr.diff(p0, 2)], modules="math", cse=True)

    def jets(x, y):
        # float() refuses a complex value off the chart's real domain
        q, q0, q1, q00 = (float(v) for v in q_jets(x, y))
        return 1.0, 0.0, 0.0, 0.0, q, q0, q1, q00

    chart = OrthogonalChart("polar", jets)
    a0, c1 = _tip_c1(qexpr, p0, 0.0, 1.0)
    tip = Tip("tip", "polar", 0.0, 1.0, LinkSpectrum.circle(2 * np.pi * a0), a0, c1, band=r_max)
    atlas = [StopRule("polar", lambda p, v: r_max - p[0], -1.0, "atlas")]
    return Surface({"polar": chart}, {"tip": tip}, [], atlas)
