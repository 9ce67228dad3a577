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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCriticalPointError, QuadratureDivergenceError
from .quadrature import gauss_legendre

__all__ = [
    "CompositionGeometry",
    "brute_force_composition",
    "flat_collinear_geometry",
    "sphere_arc_geometry",
]


@dataclass(frozen=True)
class CompositionGeometry:
    """Two leg distance functions over a chart (u, v) on the intermediate
    manifold, centered on the expected meeting point.

    dist1/dist2 take broadcastable arrays (u, v); jacobian is the area
    density of the chart.  halfwidth_long is the box size along the
    geodesic (u), halfwidth_trans across it (v).
    """

    dist1: callable
    dist2: callable
    jacobian: callable
    halfwidth_long: float = 0.45
    halfwidth_trans: float = 0.35


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

    return CompositionGeometry(dist1, dist2, jacobian,
                               halfwidth_long=0.45, halfwidth_trans=0.35)


_FOLD_ROWS = 256  # (u, v) nodes per block of the folded eta sum
REFINE_TOL = 0.01  # largest relative coarse/fine gap of a converged value


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
    a = geom.halfwidth_long
    b = geom.halfwidth_trans
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
    # each eta > 0 with its mirror -eta turns sum_k f_k e^{i delta eta_k}
    # into cos(delta eta) (f+ + f-) + i sin(delta eta) (f+ - f-), plus
    # the middle node's f_0 when n_eta is odd: two real matrix products
    # over the flattened (u, v) grid, taken _FOLD_ROWS rows at a time.
    f = np.sqrt(xi) * np.sqrt(xi + eta) * np.exp(
        -(eta**2) / (2 * sigma_eta**2)) * we
    half = n_eta // 2
    eta_pos = eta[n_eta - half:]
    f_even = f[n_eta - half:] + f[half - 1::-1]
    f_odd = f[n_eta - half:] - f[half - 1::-1]
    f_mid = f[half] if n_eta % 2 else 0.0
    total = 0.0 + 0.0j
    for i in range(0, len(delta), _FOLD_ROWS):
        phase = np.outer(delta[i:i + _FOLD_ROWS], eta_pos)
        eta_sum = (np.cos(phase) @ f_even + f_mid
                   + 1j * (np.sin(phase) @ f_odd))
        total += base[i:i + _FOLD_ROWS] @ eta_sum
    return total


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
    if xi <= 0:
        raise ValueError("need xi > 0")
    sigma_eta = xi**0.75
    if not callable(amp12):
        const = complex(amp12)
        amp12 = lambda u, v: np.full_like(u + v, const, dtype=complex)
    coarse = _quadrature(geom, amp12, xi, sigma_eta, scale=0.75)
    fine = _quadrature(geom, amp12, xi, sigma_eta, scale=1.0)
    if abs(fine - coarse) > REFINE_TOL * abs(fine):
        raise QuadratureDivergenceError(
            f"node refinement moved the value by "
            f"{abs(fine - coarse) / abs(fine):.2e} relative"
        )
    return complex(fine)
