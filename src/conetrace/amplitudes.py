"""Trace-singularity assembly for diffractive closed geodesics.

All scalars live in the metric half-density frame with phase convention
(sum of distances - t) * xi.  The module computes the interior
half-wave amplitude between non-conjugate points (criterion 8 checks
it against brute-force composition), the per-segment invariants of a
closed diffractive geodesic, and the leading coefficient of the
wave-trace singularity at its length.  An independent route to that
coefficient integrates a one-point cut over the closed geodesic (the
stationary manifold is the geodesic itself; the cut integrand collapses
by the shape-operator and Wronskian identities, which is exactly what
the cross-check exercises).  A numerical model kernel (the xi-integral
of the symbol against the smooth cutoff) matches predictions against
measured traces; a sample on `count` panels of 64 Legendre nodes takes
64 + count cos/sin pairs, its phases split into panel edge and node
offset.

Surfaces are two-dimensional (the formulas keep n, as DIMENSION = 2), and
every diffraction coefficient is the closed form (POLICY), n = 2 only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConjugateDegeneracyError,
    NotStrictlyDiffractiveError,
    QuadratureFailureError,
)
from .jacobi import CONJUGATE_CUT_TOL, morse_index, theta_spreading
from .links import SummationPolicy, diffraction_kernel
from .quadrature import gauss_laguerre, gauss_legendre

__all__ = [
    "CutoffSpec",
    "SegmentInvariants",
    "TraceSingularityPrediction",
    "interior_amplitude",
    "segment_invariants",
    "invariants_for",
    "trace_singularity",
    "trace_singularity_cut_route",
    "model_kernel",
]

DIMENSION = 2  # surface dimension n
POLICY = SummationPolicy.closed_form()  # summation of every diffraction coefficient
CUT_NODES = 16  # Gauss-Legendre nodes per segment of the cut route


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth frequency cutoff: 0 below `lower`, 1 above `upper`,
    C^2 monotone polynomial step between."""

    lower: float = 1.0
    upper: float = 2.0

    def __post_init__(self):
        if not 0 < self.lower < self.upper < math.inf:
            raise ValueError("need 0 < lower < upper < inf")

    def value(self, xi):
        t = np.clip((np.asarray(xi, dtype=float) - self.lower)
                    / (self.upper - self.lower), 0.0, 1.0)
        return t**3 * (6 * t * t - 15 * t + 10)


@dataclass(frozen=True)
class SegmentInvariants:
    """Per-segment bundle consumed by the amplitude assembler."""

    d: float
    morse: int
    theta: float

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.theta < math.inf
                and self.morse >= 0):
            raise ValueError("segment invariants out of range")


@dataclass(frozen=True)
class TraceSingularityPrediction:
    L: float
    L0: float
    k: int
    n: int
    order: float
    coefficient: complex

    @property
    def model(self) -> str:
        """Model kernel family of the order: "inverse_sqrt" (1/2), "log"
        (1) or "power" (any other)."""
        if self.order == 0.5:
            return "inverse_sqrt"
        if self.order == 1.0:
            return "log"
        return "power"


def interior_amplitude(d: float, m: int, theta: float) -> complex:
    """Half-wave amplitude between non-conjugate interior points: the
    complex scalar of the symbol, of frequency order (n - 1)/2."""
    if not (0 < d < math.inf and 0 < theta < math.inf):
        raise ValueError(f"need finite d > 0 and theta > 0, got {d!r}, {theta!r}")
    n = DIMENSION
    return (np.exp(-1j * np.pi * (n - 1) / 4) * 1j ** (-m)
            * (2 * np.pi) ** (-(n + 1) / 2) * d ** (-(n - 1) / 2)
            * theta ** -0.5)


# the factor W of each segment in C = L0 prod_j W D_j A_j, A_j the
# segment's interior_amplitude
SEGMENT_WEIGHT = ((2 * np.pi) ** (DIMENSION + 0.5)
                  * np.exp(1j * np.pi * (DIMENSION - 2) / 2))


def segment_invariants(result) -> SegmentInvariants:
    """Invariant bundle of one converged tip-to-tip connection; the Morse
    index and Theta both read the path's one tip field."""
    path = result.path
    return SegmentInvariants(
        d=result.length,
        morse=morse_index(path),
        theta=theta_spreading(path),
    )


def invariants_for(geodesic):
    return [segment_invariants(seg) for seg in geodesic.segments]


def _diffraction_values(geodesic) -> list:
    """D_j at each junction of a strictly diffractive closed geodesic."""
    if not geodesic.strictly_diffractive:
        raise NotStrictlyDiffractiveError(
            "trace singularity requires a strictly diffractive geodesic"
        )
    return [diffraction_kernel(j.link, DIMENSION, j.link_in, j.link_out,
                               POLICY).value
            for j in geodesic.junctions]


def trace_singularity(geodesic, invariants=None) -> TraceSingularityPrediction:
    """Leading coefficient C = L0 prod_j SEGMENT_WEIGHT D_j A_j of the
    wave-trace singularity at the length of a strictly diffractive closed
    geodesic, with D_j its diffraction coefficients and A_j the
    interior amplitudes of its segments.  L0 is the primitive length,
    the length of the stationary set (T0 in Duistermaat and Guillemin,
    Invent. Math. 1975)."""
    dvals = _diffraction_values(geodesic)
    if invariants is None:
        invariants = invariants_for(geodesic)
    k = len(geodesic.segments)
    coeff = geodesic.primitive_length
    for dval, seg in zip(dvals, invariants):
        coeff *= SEGMENT_WEIGHT * dval * interior_amplitude(seg.d, seg.morse, seg.theta)
    return TraceSingularityPrediction(
        L=geodesic.length, L0=geodesic.primitive_length, k=k, n=DIMENSION,
        order=k * (DIMENSION - 1) / 2, coefficient=coeff,
    )


def trace_singularity_cut_route(geodesic) -> complex:
    """Independent route to the trace coefficient,
    C = (2 pi)^(-3/2) prod_j (SEGMENT_WEIGHT D_j) sum_c I_c prod_(j != c) A_j:
    I_c integrates over a moving cut point on segment c of the primitive
    geodesic (the stationary manifold, T0) a density built from fresh
    Jacobi data, and the product of amplitudes runs over the whole cycle.

    Every per-node quantity (spreadings, Morse counts, the one-point
    break Hessian) is recomputed from the two tip-launched Jacobi fields
    of the cut segment, so agreement with trace_singularity certifies
    the shape-operator and Wronskian identities behind the assembly.

    Both fields are the ones kept on the path: `path.flow_field`, carried
    by the segment's own shot from its start tip, and
    `path.reversed().flow_field`, carried by a reverse shot of its own
    from the far tip; each solves its radial end cap into the tip when
    first read.  trace_singularity's invariants read the same forward
    field, and an iterate's segments are its primitive's own paths.  The
    check stays independent: the direct route reads only the forward
    field's zero count and its value at the far tip, while this route
    reads both fields at its CUT_NODES cut points, as one array read per
    field and segment, and combines them through the break Hessian; a
    deterministic field shared by the two routes changes none of their
    numbers, and the reverse field comes from a geodesic integration of
    its own that shares no step with either.
    """
    dvals = _diffraction_values(geodesic)
    amps = [interior_amplitude(seg.d, seg.morse, seg.theta)
            for seg in invariants_for(geodesic)]
    k = len(geodesic.segments)
    gl_x, gl_w = gauss_legendre(CUT_NODES)

    total = 0.0 + 0.0j
    for c, seg in enumerate(geodesic.segments[:k // geodesic.iterate_count]):
        d_c = seg.length
        sol_a, sol_b = seg.path.flow_field, seg.path.reversed().flow_field
        ells = 0.5 * d_c * (gl_x + 1.0)
        ells_b = d_c - ells
        ja, jpa = sol_a.pair(ells)
        jb, jpb = sol_b.pair(ells_b)
        if np.abs(np.concatenate([ja, jb])).min() < CONJUGATE_CUT_TOL:
            raise ConjugateDegeneracyError("cut node sits on a conjugate point")
        morse = sol_a.zero_count(ells) + sol_b.zero_count(ells_b)
        theta_a = np.abs(ja) / ells
        theta_b = np.abs(jb) / ells_b
        h = jpa / ja + jpb / jb
        merged = (np.exp(1j * np.pi * np.sign(h) / 4)
                  * np.exp(-1j * np.pi / 2)
                  * 1j ** (-morse)
                  * np.abs(h) ** -0.5
                  * (ells * ells_b) ** -0.5
                  * (theta_a * theta_b) ** -0.5)
        cut_integral = (0.5 * d_c * gl_w) @ merged
        total += cut_integral * np.prod(amps[:c] + amps[c + 1:])

    pref = (2 * np.pi) ** -1.5 * np.prod([SEGMENT_WEIGHT * dval for dval in dvals])
    return pref * total


_PANEL_NODES = 64  # Gauss-Legendre nodes per model-kernel panel
_KERNEL_ROWS = 32  # t samples per block of the model kernel's matrix product
_NODE_SETS = 128  # cached (order, cutoff, hi, panel count, sigma) node sets


def model_kernel(prediction, cutoff: CutoffSpec, t_grid,
                 damping_sigma: float = None) -> np.ndarray:
    """Samples of coefficient * int_0^inf e^{-i(t-L)xi} chi(xi) xi^{-order}
    [exp(-xi^2/(2 sigma^2))] dxi on the given t grid.

    The xi-integral runs over composite Gauss-Legendre panels on
    [lower, hi], with hi = upper + 8 sigma when damped; without damping
    hi = upper and the tail beyond the cutoff's plateau is evaluated on
    a rotated contour (Gauss-Laguerre), which is exact up to quadrature
    for the pure-power integrand.

    Each sample u = t - L keeps its own panel count,
    max(4, 2 ceil(|u| (hi - lower) / 2 pi)).  The cutoff is only C^2 at
    xi = upper, inside the first panel, so the quadrature error depends
    on the panel layout: one layout sized for the largest |u| moves
    samples near the front by up to about 1e-4 of the peak.  Samples
    that share a count share one set of panels, kept across calls.
    Every panel repeats one Legendre pattern: its nodes are e_p + l_k,
    e_p the panel's lower edge and l_k the pattern's offsets, so
    e^{-iu xi} = e^{-iu e_p} e^{-iu l_k}.  The weighted symbol is a real
    (panels, _PANEL_NODES) table g, so the panel sums are the real
    matrix products cos(u l) @ g.T - i sin(u l) @ g.T, and each sample
    takes _PANEL_NODES + count cos/sin pairs instead of _PANEL_NODES
    count.  The samples go _KERNEL_ROWS at a time, which bounds memory
    for any grid length.  A NaN or infinite sample time raises
    ValueError.
    """
    if damping_sigma is not None and not (math.isfinite(damping_sigma)
                                          and damping_sigma > 0):
        raise ValueError(
            f"damping_sigma must be finite and > 0, not {damping_sigma!r}")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("model_kernel needs finite sample times")
    s = prediction.order
    us = t_grid - prediction.L
    damped = damping_sigma is not None
    if not damped and s <= 1.0 and np.any(us == 0.0):
        raise QuadratureFailureError(
            "undamped symbol integral diverges on the singular support"
        )
    hi = cutoff.upper + 8.0 * damping_sigma if damped else cutoff.upper
    n_osc = np.abs(us) * (hi - cutoff.lower) / (2 * np.pi)
    panels = np.maximum(4, 2 * np.ceil(n_osc).astype(int))
    out = np.empty(len(us), dtype=complex)
    # a set, not np.unique, whose first call loads numpy.ma (about 10 ms)
    for count in sorted(set(panels.tolist())):
        edges, offsets, g = _symbol_panels(s, cutoff, hi, count, damping_sigma)
        idx = np.flatnonzero(panels == count)
        for i in range(0, len(idx), _KERNEL_ROWS):
            rows = idx[i:i + _KERNEL_ROWS]
            phase = np.outer(us[rows], offsets)
            inner = np.cos(phase) @ g.T - 1j * (np.sin(phase) @ g.T)
            phase = np.outer(us[rows], edges)
            inner *= np.cos(phase) - 1j * np.sin(phase)
            out[rows] = inner.sum(axis=1)
    if not damped:
        for i, u in enumerate(us):
            out[i] += hi ** (1.0 - s) * _exp_integral_e(s, 1j * u * hi)
    return prediction.coefficient * out


@functools.lru_cache(maxsize=_NODE_SETS)
def _symbol_panels(s, cutoff, hi, panels, sigma):
    """(edges, offsets, g) of `panels` equal Gauss-Legendre panels on
    [cutoff.lower, hi]: the nodes are edges[p] + offsets[k], and g[p, k]
    is the real weighted symbol w chi(xi) xi^{-s} [exp(-xi^2/(2 sigma^2))]
    at node k of panel p.

    Every trace fit of one order, cutoff and damping asks for the same
    few panel counts, so the sets are cached; the arrays are read-only,
    as every caller shares them."""
    gl_x, gl_w = gauss_legendre(_PANEL_NODES)
    edges = np.linspace(cutoff.lower, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    xi = half * (gl_x + 1.0) + edges[:-1, None]
    g = half * gl_w * cutoff.value(xi) * xi ** (-s)
    if sigma is not None:
        g *= np.exp(-(xi * xi) / (2 * sigma * sigma))
    edges = edges[:-1]
    offsets = (0.5 * (hi - cutoff.lower) / panels) * (gl_x + 1.0)
    for arr in (edges, offsets, g):
        arr.setflags(write=False)
    return edges, offsets, g


_TAIL_NODES = 96  # Gauss-Laguerre nodes of the undamped kernel's tail


def _exp_integral_e(s: float, z: complex) -> complex:
    """E_s(z) = int_1^inf e^{-z t} t^{-s} dt for Re(z) >= 0.

    Small |z|: the convergent expansion (with the log branch at integer
    s); large |z|: Gauss-Laguerre on the rotated ray t = 1 + w/z.
    """
    if z == 0:
        if s <= 1.0:
            raise QuadratureFailureError("E_s(0) diverges for s <= 1")
        return 1.0 / (s - 1.0)
    if abs(z) >= 2.0:
        w, lw = gauss_laguerre(_TAIL_NODES)
        vals = lw * (1.0 + w / z) ** (-s)
        return np.exp(-z) * np.sum(vals) / z
    total = 0.0 + 0.0j
    if abs(s - round(s)) < 1e-12 and s >= 1:
        m = int(round(s))
        logz = np.log(z)
        # digamma at a positive integer: psi(m) = -gamma + H_{m-1}
        psi_m = -np.euler_gamma + math.fsum(1.0 / j for j in range(1, m))
        for k in range(0, 60):
            if k == m - 1:
                total += (-z) ** k / math.factorial(k) * (psi_m - logz)
            else:
                total += -((-z) ** k) / (math.factorial(k) * (1.0 - m + k))
        return total
    for k in range(0, 60):
        term = (-z) ** k / (math.factorial(k) * (1.0 - s + k))
        total -= term
    total += math.gamma(1.0 - s) * z ** (s - 1.0)
    return total
