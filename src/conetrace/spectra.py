"""Exactly enumerable spectra and Gaussian-smoothed wave traces.

The doubled unit square (two copies glued along the boundary) is a flat
conic surface whose four cone points have angle pi, so its diffraction
coefficients vanish identically: the corner-loop length is a closed
diffractive geodesic whose trace singularity must be silent.  Its
spectrum is the union of the Neumann and Dirichlet spectra of the unit
square, which is enumerable in closed form; this makes it the negative
control for the trace-singularity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .amplitudes import CutoffSpec, model_kernel
from .errors import IllConditionedError

__all__ = [
    "SmoothedTrace",
    "doubled_square_spectrum",
    "smoothed_wave_trace",
    "fit_trace_singularity",
]

_TRACE_ROWS = 32  # t values per block of the trace's matrix product


@dataclass(frozen=True)
class SmoothedTrace:
    """Gaussian-damped sum over sqrt-Laplace eigenvalues on a t grid.

    eigenvalues holds the distinct eigenvalues the sum kept.
    """

    eigenvalues: np.ndarray
    sigma: float
    t_grid: np.ndarray
    samples: np.ndarray


def doubled_square_spectrum(lambda_max: float) -> np.ndarray:
    """Sqrt-Laplace eigenvalues pi sqrt(m^2 + n^2) of the doubled unit
    square: Neumann (m, n >= 0) union Dirichlet (m, n >= 1), sorted."""
    if lambda_max > 5000:
        raise ValueError(f"lambda_max must be at most 5000, not {lambda_max:g}")
    top = int(np.floor(lambda_max / np.pi)) + 1
    m, n = np.meshgrid(np.arange(top + 1), np.arange(top + 1), indexing="ij")
    lam = np.pi * np.sqrt(m**2 + n**2)
    neumann = lam.ravel()
    dirichlet = lam[1:, 1:].ravel()
    eigs = np.concatenate([neumann, dirichlet])
    eigs = eigs[eigs <= lambda_max]
    return np.sort(eigs, kind="stable")


def smoothed_wave_trace(eigs, sigma: float, t_grid) -> SmoothedTrace:
    """Sum of exp(-lam^2/(2 sigma^2)) e^{-i t lam} over the spectrum.

    Terms damped below 1e-18 of the largest damping are dropped, and
    repeated eigenvalues are merged into one term whose weight is their
    summed damping.  The weights are real, so the sum is two real matrix
    products, cos(t lam) @ w - i sin(t lam) @ w, taken over _TRACE_ROWS
    t values at a time to bound memory.  The operation sequence is
    fixed, so repeated runs on one machine are bit-identical.
    """
    if sigma <= 0:
        raise ValueError("need sigma > 0")
    eigs = np.asarray(eigs, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    damp = np.exp(-(eigs**2) / (2.0 * sigma**2))
    keep = damp > 1e-18 * damp.max(initial=0.0)
    lam, which = np.unique(eigs[keep], return_inverse=True)
    weights = np.bincount(which, weights=damp[keep])
    samples = np.empty(len(t_grid), dtype=complex)
    for i in range(0, len(t_grid), _TRACE_ROWS):
        rows = t_grid[i:i + _TRACE_ROWS]
        phase = np.outer(rows, lam)
        samples[i:i + _TRACE_ROWS] = (np.cos(phase) @ weights
                                      - 1j * (np.sin(phase) @ weights))
    return SmoothedTrace(lam, sigma, t_grid, samples)


def fit_trace_singularity(trace: SmoothedTrace, length: float, prediction,
                          cutoff: CutoffSpec = None, window: float = 0.35):
    """Measured coefficient of the model singularity at t = length.

    Complex least squares of the trace samples near the length against
    {model kernel with the trace's own Gaussian damping, 1, (t - L)}.
    Returns (C_meas, rms residual).
    """
    cutoff = cutoff or CutoffSpec()
    mask = np.abs(trace.t_grid - length) <= window
    ts = trace.t_grid[mask]
    vals = trace.samples[mask]
    unit = replace(prediction, L=length, L0=length, coefficient=1.0 + 0.0j)
    kernel = model_kernel(unit, cutoff, ts, damping_sigma=trace.sigma)
    design = np.column_stack([kernel, np.ones_like(ts), ts - length])
    cond = np.linalg.cond(design)
    if cond > 1e8:
        raise IllConditionedError(f"trace fit condition number {cond:.2e}")
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = vals - design @ coef
    return coef[0], float(np.sqrt(np.mean(np.abs(resid) ** 2)))
