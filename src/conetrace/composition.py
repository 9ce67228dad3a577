"""Brute-force composition of two half-wave legs by direct quadrature.

The composed kernel of two interior propagators is, at fixed output
frequency xi, a three-dimensional oscillatory integral over the
intermediate point w = (u, v) and the relative frequency eta:

    C(xi) = int dw deta  a1(w) a2(w) xi^{1/2} (xi+eta)^{1/2}
            exp(i [(d1(w) + d2(w) - d_tot) xi + (d2(w) - d2*) eta])

The eta integral enforces d2 = d2* (the legs meet at matched times) and
the remaining stationary phase in w reproduces the composed interior
amplitude.  Evaluating this integral numerically, with no stationary
phase input, gives an independent check on the composition constants
and the conjugate-point index bookkeeping.

A Gaussian localizer of width sigma_eta = xi^{3/4} tames the eta axis;
its smearing of the time-matching constraint biases the result by
O((sigma_eta * halfwidth)^{-2}), well below the O(1/xi) accuracy of the
leading amplitude itself.  Smooth bump cutoffs confine w.

Every axis is a Gauss-Legendre rule.  The eta rule enters only through
the trig sum S(delta) = sum_k f_k exp(i delta eta_k) of the time
mismatch delta = d2(w) - d2*, so S is not summed at every w node.  On
the span mid +- R of delta over the box, S(mid + R s) is entire of
exponential type c = R eta_max in s, and its Chebyshev coefficients are
bounded by 2 |J_n(c)| sum |f_k|, which fall below rounding once
n > c + O(c^{1/3}).  S is sampled at the deg + 1 Chebyshev points of
deg = ceil(c + 8 c^{1/3} + 24) and interpolated; that is
(deg + 1) n_eta trig values instead of n_u n_v n_eta.  A result whose
last Chebyshev coefficients are not below rounding relative to the
largest raises QuadratureDivergenceError.

The interpolant is never evaluated node by node.  With x_j the node's
delta mapped to [-1, 1], sum_j base_j S(x_j) = sum_n c_n m_n, where the
moments m_n = sum_j base_j T_n(x_j) come from the real three-term
recurrence of T_n, with base as a real (re, im) pair.  That is one real
vector step and one real product per degree, in place of a complex
Clenshaw step (numpy's chebval, which the tests keep as the reference).
Splitting the delta span into pieces of lower degree fails the tail
guard: the samples' rounding stays at the scale of S's peak, while S on
an outer piece is about 1e-3 of it, so that piece's last coefficients
end near 1e-12 of its largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate

from .errors import NoCriticalPointError, QuadratureDivergenceError
from .quadrature import gauss_legendre

__all__ = [
    "CompositionGeometry",
    "brute_force_composition",
    "flat_collinear_geometry",
    "sphere_arc_geometry",
]

# half-widths of the (u, v) box: along the geodesic and across it
HALFWIDTH_LONG = 0.45
HALFWIDTH_TRANS = 0.35


@dataclass(frozen=True)
class CompositionGeometry:
    """Two leg distance functions over a chart (u, v) on the intermediate
    manifold, centered on the expected meeting point.

    dist1/dist2 take broadcastable arrays (u, v); jacobian is the area
    density of the chart.  Every chart's box has the half-widths
    HALFWIDTH_LONG along the geodesic (u) and HALFWIDTH_TRANS across it (v).
    """

    dist1: callable
    dist2: callable
    jacobian: callable


def flat_collinear_geometry(d1: float, d2: float) -> CompositionGeometry:
    """Two collinear legs in the plane, meeting at the origin of the
    chart; endpoints at (-d1, 0) and (d2, 0)."""

    def dist1(u, v):
        return np.hypot(d1 + u, v)

    def dist2(u, v):
        return np.hypot(d2 - u, v)

    return CompositionGeometry(dist1, dist2, lambda u, v: np.ones_like(u + v))


def sphere_arc_geometry(d1: float, d2: float) -> CompositionGeometry:
    """Two legs along a great circle on the unit sphere, meeting at
    arc length d1 from the start; leg 1 may exceed pi (one conjugate
    point passed), leg 2 must stay short of pi.

    The chart is geodesic normal coordinates at the meeting point, so
    the area density is sin(r)/r.
    """
    if not 0 < d2 < np.pi or not 0 < d1 < 2 * np.pi or d1 == np.pi:
        raise ValueError("need 0 < d2 < pi and 0 < d1 < 2 pi, d1 != pi")
    p0 = np.array([1.0, 0.0, 0.0])
    wstar = np.array([math.cos(d1), math.sin(d1), 0.0])
    p2 = np.array([math.cos(d1 + d2), math.sin(d1 + d2), 0.0])
    e1 = np.array([-math.sin(d1), math.cos(d1), 0.0])
    e2 = np.array([0.0, 0.0, 1.0])

    def chart(u, v):
        r = np.hypot(u, v)
        rs = np.where(r > 0, r, 1.0)
        sinc = np.where(r > 0, np.sin(rs) / rs, 1.0)
        return (np.cos(r)[..., None] * wstar
                + (sinc * u)[..., None] * e1 + (sinc * v)[..., None] * e2)

    def dist1(u, v):
        c = np.clip(chart(u, v) @ p0, -1.0, 1.0)
        short = np.arccos(c)
        return short if d1 < np.pi else 2 * np.pi - short

    def dist2(u, v):
        return np.arccos(np.clip(chart(u, v) @ p2, -1.0, 1.0))

    def jacobian(u, v):
        r = np.hypot(u, v)
        rs = np.where(r > 0, r, 1.0)
        return np.where(r > 0, np.sin(rs) / rs, 1.0)

    return CompositionGeometry(dist1, dist2, jacobian)


REFINE_TOL = 0.01  # largest relative coarse/fine gap of a converged value
# the eta sum's interpolant is refused unless its last _TAIL_COEFFS
# Chebyshev coefficients are below _TAIL_TOL of the largest; rounding
# leaves them at up to about 9e-16 in criterion 8's cases, and four
# consecutive ones hold both parities
_TAIL_COEFFS = 4
_TAIL_TOL = 1e-14


def _chebyshev_degree(c):
    """Degree at which the Chebyshev series of a trig sum of exponential
    type c on [-1, 1] has fallen below rounding: past n = c the bound
    2 |J_n(c)| decays like Ai(2^{1/3} (n - c) / c^{1/3}), then faster
    than geometrically.  Criterion 8's sums reach rounding about 12
    degrees past c + 8 c^{1/3}; the last 24 are twice that."""
    return math.ceil(c + 8.0 * c ** (1.0 / 3.0) + 24.0)


def _bump(s):
    """C^inf bump on (-1, 1), value 1 at 0."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    den = np.where(inside, 1.0 - s * s, 1.0)
    return np.where(inside, np.exp(1.0 - 1.0 / den), 0.0)


def _check_critical_point(geom: CompositionGeometry):
    h = 1e-5
    phi = lambda u, v: geom.dist1(np.asarray(u, float), np.asarray(v, float)) \
        + geom.dist2(np.asarray(u, float), np.asarray(v, float))
    dv = (phi(0.0, h) - phi(0.0, -h)) / (2 * h)
    dvv = (phi(0.0, h) - 2 * phi(0.0, 0.0) + phi(0.0, -h)) / h**2
    du_d2 = (geom.dist2(np.asarray(h, float), np.asarray(0.0, float))
             - geom.dist2(np.asarray(-h, float), np.asarray(0.0, float))) / (2 * h)
    if abs(float(dv)) > 1e-6:
        raise NoCriticalPointError("phase not critical at the chart center")
    # the (u, eta) block is hyperbolic with determinant -(du d2)^2 and
    # the v direction carries the transverse broken Hessian; either
    # vanishing degenerates the critical point
    if abs(float(du_d2)) < 1e-8 or abs(float(dvv)) < 1e-8:
        raise NoCriticalPointError("composed phase Hessian is degenerate")
    return float(dvv)


def _quadrature(geom, amp12, xi, sigma_eta, scale):
    a, b = HALFWIDTH_LONG, HALFWIDTH_TRANS
    # keep xi + eta positive; the Gaussian makes the clipped tail negligible
    eta_max = min(4.0 * sigma_eta, 0.85 * xi)
    d2_star = float(geom.dist2(np.asarray(0.0, float), np.asarray(0.0, float)))
    d_tot = d2_star + float(geom.dist1(np.asarray(0.0, float),
                                       np.asarray(0.0, float)))
    hvv = abs(_check_critical_point(geom))

    def nodes(phase_span, floor=48):
        return int(scale * max(floor, 0.6 * phase_span + 40))

    n_u = nodes(eta_max * a * 2)
    n_v = nodes(xi * hvv * b**2)
    n_eta = nodes(a * eta_max * 2)

    tu, wu = gauss_legendre(n_u)
    tv, wv = gauss_legendre(n_v)
    te, we = gauss_legendre(n_eta)
    u = a * tu
    v = b * tv
    eta = eta_max * te
    wu = a * wu
    wv = b * wv
    we = eta_max * we

    uu, vv = np.meshgrid(u, v, indexing="ij")
    d1 = geom.dist1(uu, vv)
    d2 = geom.dist2(uu, vv)
    base = (amp12(uu, vv) * geom.jacobian(uu, vv)
            * _bump(uu / a) * _bump(vv / b)
            * np.exp(1j * (d1 + d2 - d_tot) * xi)
            * (wu[:, None] * wv[None, :])).ravel()
    delta = (d2 - d2_star).ravel()
    # The eta factor f = sqrt(xi) sqrt(xi + eta) exp(-eta^2/2 sigma^2) w
    # is real and Legendre nodes are exactly antisymmetric, so pairing
    # each eta > 0 with its mirror -eta turns S(delta) = sum_k f_k
    # e^{i delta eta_k} into cos(delta eta) (f+ + f-) + i sin(delta eta)
    # (f+ - f-), plus the middle node's f_0 when n_eta is odd.  S is
    # summed this way only at the deg + 1 Chebyshev points of
    # [min delta, max delta] (the module docstring gives the degree and
    # the tail guard); the total base @ S(delta) is the interpolant's
    # coefficients times the nodes' Chebyshev moments.
    f = np.sqrt(xi) * np.sqrt(xi + eta) * np.exp(
        -(eta**2) / (2 * sigma_eta**2)) * we
    half = n_eta // 2
    eta_pos = eta[n_eta - half:]
    f_even = f[n_eta - half:] + f[half - 1::-1]
    f_odd = f[n_eta - half:] - f[half - 1::-1]
    f_mid = f[half] if n_eta % 2 else 0.0

    def eta_sum(d):
        phase = np.outer(d, eta_pos)
        return (np.cos(phase) @ f_even + f_mid
                + 1j * (np.sin(phase) @ f_odd))

    lo, hi = delta.min(), delta.max()
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not math.isfinite(rad):
        raise QuadratureDivergenceError(
            "leg distance is not finite on the (u, v) grid")
    if rad == 0.0:
        return base.sum() * eta_sum(np.array([mid]))[0]
    coef = chebinterpolate(lambda s: eta_sum(mid + rad * s),
                           _chebyshev_degree(rad * eta_max))
    size = np.abs(coef)
    tail = size[-_TAIL_COEFFS:].max() / size.max()
    if not tail <= _TAIL_TOL:
        raise QuadratureDivergenceError(
            f"eta-sum interpolant of degree {len(coef) - 1} ends at "
            f"{tail:.2e} of its largest Chebyshev coefficient")
    return coef @ _chebyshev_moments((delta - mid) / rad, base, len(coef) - 1)


def _chebyshev_moments(x, base, deg):
    """m_n = sum_j base_j T_n(x_j) for n = 0..deg, so that
    base @ chebval(x, coef) = coef @ m.

    T_n(x) comes from the recurrence T_{n+1} = 2 x T_n - T_{n-1} on real
    arrays, and each moment is one real product with base held as an
    (N, 2) real pair."""
    pair = np.column_stack([base.real, base.imag])
    m = np.empty((deg + 1, 2))
    prev, cur = np.ones_like(x), x.copy()
    m[0] = prev @ pair
    m[1] = cur @ pair
    x2 = 2.0 * x
    tmp = np.empty_like(x)
    for n in range(2, deg + 1):
        np.multiply(x2, cur, out=tmp)
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
        m[n] = cur @ pair
    return m[:, 0] + 1j * m[:, 1]


def brute_force_composition(geom: CompositionGeometry, amp12,
                            xi: float) -> complex:
    """Direct quadrature of the composed-amplitude integral at output
    frequency xi.

    amp12(u, v) is the product of the two leg amplitudes on the chart
    (a constant for leading-order checks).  The integral is evaluated
    twice with node counts in ratio 4:3 on every axis; disagreement
    beyond REFINE_TOL raises QuadratureDivergence, otherwise the finer
    value is returned.
    """
    if not (math.isfinite(xi) and xi > 0):
        raise ValueError(f"need finite xi > 0, not {xi!r}")
    sigma_eta = xi**0.75
    if not callable(amp12):
        const = complex(amp12)
        amp12 = lambda u, v: np.full_like(u + v, const, dtype=complex)
    coarse = _quadrature(geom, amp12, xi, sigma_eta, scale=0.75)
    fine = _quadrature(geom, amp12, xi, sigma_eta, scale=1.0)
    # NaN fails every comparison, so the gap test alone would pass it
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        raise QuadratureDivergenceError(
            f"non-finite quadrature value: coarse {coarse}, fine {fine}")
    if abs(fine - coarse) > REFINE_TOL * abs(fine):
        raise QuadratureDivergenceError(
            f"node refinement moved the value by "
            f"{abs(fine - coarse) / abs(fine):.2e} relative"
        )
    return complex(fine)
