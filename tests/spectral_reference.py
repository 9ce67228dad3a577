"""Direct references for the spectral oracle's factored sums.

`model_kernel` takes each sample's panel phases as an edge phasor times
one shared offset phasor, and `smoothed_wave_trace` builds its phasors
by complex recurrence.  These references evaluate the same quadrature
and the same sum with a cos/sin pair for every node or term, the way
both were computed before the factoring: the model kernel as
cos(u xi) @ g - i sin(u xi) @ g over every node, and the trace with
exp(-i t lam) taken directly at every block anchor and grid step.
"""

import math

import numpy as np

from conetrace.amplitudes import _PANEL_NODES, _exp_integral_e
from conetrace.quadrature import gauss_legendre


def _phasors(t, lam):
    """exp(-i t lam) over the outer product of t and lam."""
    phase = np.outer(t, lam)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def direct_trace(eigs, sigma, t_grid):
    """The smoothed trace's samples with every phasor from its own cos/sin
    pair: the same prefilter, damping cut, merge and block product as
    `smoothed_wave_trace`, the anchors at the grid's own values."""
    eigs = np.asarray(eigs, dtype=float).ravel()
    t_grid = np.asarray(t_grid, dtype=float)
    n = len(t_grid)
    h = (t_grid[-1] - t_grid[0]) / (n - 1) if n > 1 else 0.0
    sq = eigs**2
    near = eigs[sq <= sq.min(initial=np.inf) + 84.0 * sigma**2]
    damp = np.exp(-(near**2) / (2.0 * sigma**2))
    keep = damp > 1e-18 * damp.max(initial=0.0)
    lam, which = np.unique(near[keep], return_inverse=True)
    weights = np.bincount(which, weights=damp[keep])
    rows = min(32, max(1, math.ceil(math.sqrt(n))))
    step = _phasors(np.arange(rows) * h, lam)
    anchors = t_grid[::rows]
    samples = np.empty(n, dtype=complex)
    for i in range(0, len(anchors), 32):
        block = _phasors(anchors[i:i + 32], lam) * weights
        lo = i * rows
        samples[lo:lo + len(block) * rows] = (block @ step.T).ravel()[:n - lo]
    return samples


def per_node_kernel(prediction, cutoff, t_grid, damping_sigma=None):
    """The model kernel with a cos/sin pair at every node of every sample:
    each sample on its own panel count, nodes and weighted symbol as
    `model_kernel` lays them out, summed as cos(u xi) @ g - i sin(u xi) @ g."""
    s = prediction.order
    us = np.asarray(t_grid, dtype=float) - prediction.L
    damped = damping_sigma is not None
    hi = cutoff.upper + 8.0 * damping_sigma if damped else cutoff.upper
    gl_x, gl_w = gauss_legendre(_PANEL_NODES)
    out = np.empty(len(us), dtype=complex)
    for i, u in enumerate(us):
        count = max(4, 2 * math.ceil(abs(u) * (hi - cutoff.lower) / (2 * np.pi)))
        edges = np.linspace(cutoff.lower, hi, count + 1)
        half = 0.5 * np.diff(edges)[:, None]
        xi = (half * (gl_x + 1.0) + edges[:-1, None]).ravel()
        g = (half * gl_w).ravel() * cutoff.value(xi) * xi ** (-s)
        if damped:
            g *= np.exp(-(xi * xi) / (2 * damping_sigma * damping_sigma))
        out[i] = np.cos(u * xi) @ g - 1j * (np.sin(u * xi) @ g)
        if not damped:
            out[i] += hi ** (1.0 - s) * _exp_integral_e(s, 1j * u * hi)
    return prediction.coefficient * out
