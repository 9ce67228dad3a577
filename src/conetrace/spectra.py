"""Exactly enumerable spectra and Gaussian-smoothed wave traces.

The doubled unit square (two copies glued along the boundary) is a flat
conic surface whose four cone points have angle pi, so its diffraction
coefficients vanish identically: the corner-loop length is a closed
diffractive geodesic whose trace singularity must be silent.  Its
spectrum is the union of the Neumann and Dirichlet spectra of the unit
square, which is enumerable in closed form; this makes it the negative
control for the trace-singularity machinery.

A smoothed trace sums only the eigenvalues with lam^2 <= lam_min^2 +
84 sigma^2, so the doubled square is built only that far for a trace
(the reach rule, `_doubled_square_to_reach`), and each eigenvalue it
sums costs 2 + ceil(n / (R _TRACE_ROWS)) cos/sin pairs for n samples
in blocks of R, the rest being complex products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .amplitudes import CutoffSpec, model_kernel
from .fitting import guarded_lstsq

__all__ = [
    "SmoothedTrace",
    "doubled_square_spectrum",
    "smoothed_wave_trace",
    "fit_trace_singularity",
]

_TRACE_ROWS = 32  # most grid steps per block, and most anchors per product
_GRID_ULPS = 64  # tolerated distance of a t sample from t_0 + j h, in ulp
_LAMBDA_TOP = 5000.0  # largest lambda_max of a doubled-square build
# a trace sums lam^2 <= lam_min^2 + _REACH_SQ sigma^2: beyond, a term is
# damped by e^{-42} < 1e-18 of the largest
_REACH_SQ = 84.0


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
    square: Neumann (m, n >= 0) union Dirichlet (m, n >= 1), sorted.

    No sort is needed: the integer norms q = m^2 + n^2 are counted, and
    each q gives pi sqrt(q), repeated by its multiplicity, in increasing
    q.  Distinct q give distinct values, so the array equals a stable
    sort of every pi sqrt(m^2 + n^2) bit for bit.

    The last spectrum built is kept, so repeated calls at one lambda_max
    build it once per process; the array is read-only, as every caller
    shares it.
    """
    _check_lambda_max(lambda_max)
    return _doubled_square_spectrum(float(lambda_max))


def _check_lambda_max(lambda_max: float) -> None:
    if lambda_max > _LAMBDA_TOP:
        raise ValueError(f"lambda_max must be at most {_LAMBDA_TOP:g}, "
                         f"not {lambda_max:g}")


def _doubled_square_to_reach(lambda_max: float, sigma: float) -> np.ndarray:
    """The doubled square's spectrum up to lambda_max as far as a trace
    at sigma sums it: up to min(lambda_max, sqrt(84) sigma).

    The spectrum holds 0, so every eigenvalue left out is damped below
    e^{-42} < 1e-18 of the zero mode, and smoothed_wave_trace gives the
    same samples, bit for bit, as over the whole spectrum.  lambda_max
    is checked as given, so a value past the guard is still refused."""
    _check_lambda_max(lambda_max)
    return doubled_square_spectrum(
        min(float(lambda_max), math.sqrt(_REACH_SQ) * sigma))


# The public function stays undecorated so that span tracing, which wraps
# plain functions only, still sees every call.
@functools.lru_cache(maxsize=1)
def _doubled_square_spectrum(lambda_max: float) -> np.ndarray:
    top = max(int(np.floor(lambda_max / np.pi)) + 1, 0)
    sq = np.arange(top + 1) ** 2
    # Dirichlet counts are Neumann counts less the m = 0 and n = 0 axes;
    # q > top^2 gives pi sqrt(q) > lambda_max
    counts = 2 * np.bincount((sq[:, None] + sq[None, :]).ravel())[:top * top + 1]
    counts[sq[1:]] -= 2
    counts[0] -= 1
    q = np.flatnonzero(counts)
    lam = np.pi * np.sqrt(q)
    keep = lam <= lambda_max
    out = np.repeat(lam[keep], counts[q[keep]])
    out.setflags(write=False)
    return out


def _phasors(phase) -> np.ndarray:
    """exp(-i phase), elementwise."""
    out = np.empty(np.shape(phase), dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _powers(first, base, count: int) -> np.ndarray:
    """Rows first * base^r for r = 0, ..., count - 1, each row the one
    above times base."""
    out = np.empty((count, len(base)), dtype=complex)
    out[0] = first
    for r in range(1, count):
        np.multiply(out[r - 1], base, out=out[r])
    return out


def _grid_step(t_grid: np.ndarray) -> float:
    """Step h of an evenly spaced grid t_j = t_0 + j h; ValueError when
    some t_j is farther than _GRID_ULPS ulp of max|t| from t_0 + j h."""
    n = len(t_grid)
    if n < 2:
        return 0.0
    h = (t_grid[-1] - t_grid[0]) / (n - 1)
    gap = np.max(np.abs(t_grid - (t_grid[0] + np.arange(n) * h)))
    tol = _GRID_ULPS * np.spacing(np.max(np.abs(t_grid)))
    if not gap <= tol:
        raise ValueError(
            f"t_grid must be evenly spaced: a sample is {gap:.3e} from "
            f"t_0 + j h (allowed: {tol:.3e})")
    return float(h)


def smoothed_wave_trace(eigs, sigma: float, t_grid) -> SmoothedTrace:
    """Sum of exp(-lam^2/(2 sigma^2)) e^{-i t lam} over the spectrum, on
    an evenly spaced grid t_j = t_0 + j h.

    Terms damped below 1e-18 of the largest damping are dropped, and
    repeated eigenvalues are merged into one term whose weight is their
    summed damping.  Only eigenvalues with lam^2 <= lam_min^2 +
    84 sigma^2 reach the exponential: ln 1e18 < 42, so that prefilter
    keeps a superset of the cut, and the cut itself is unchanged.

    The grid is cut into blocks of R = min(_TRACE_ROWS, ceil(sqrt(n)))
    samples.  With j = b R + r, e^{-i t_j lam} = e^{-i t_{bR} lam}
    e^{-i r h lam}, and one complex product, (anchor * w) @ step.T,
    gives the samples of up to _TRACE_ROWS blocks.  The step table is
    the powers of e^{-i h lam}, and the anchors of each group of
    _TRACE_ROWS blocks are the powers of e^{-i R h lam} from the grid's
    own value at the group's first anchor, so the recurrence is at most
    _TRACE_ROWS products deep.  That takes 2 + ceil(n / (R _TRACE_ROWS))
    cos/sin pairs per eigenvalue: 3 for any grid of up to 1024 samples.
    A grid with some t_j more than _GRID_ULPS (64) ulp of max|t| from
    t_0 + j h is refused with ValueError, as are a sigma that is not
    finite and positive and a non-finite eigenvalue.  The operation
    sequence is fixed, so repeated runs on one machine are
    bit-identical.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"need a finite sigma > 0, not {sigma!r}")
    eigs = np.asarray(eigs, dtype=float).ravel()
    if not np.all(np.isfinite(eigs)):
        raise ValueError("eigenvalues must be finite")
    t_grid = np.asarray(t_grid, dtype=float)
    h = _grid_step(t_grid)
    sq = eigs**2
    near = eigs[sq <= sq.min(initial=np.inf) + _REACH_SQ * sigma**2]
    damp = np.exp(-(near**2) / (2.0 * sigma**2))
    keep = damp > 1e-18 * damp.max(initial=0.0)
    lam, which = np.unique(near[keep], return_inverse=True)
    weights = np.bincount(which, weights=damp[keep])
    n = len(t_grid)
    rows = min(_TRACE_ROWS, max(1, math.ceil(math.sqrt(n))))
    step = _powers(1.0, _phasors(h * lam), rows)
    stride = _phasors((rows * h) * lam)
    anchors = t_grid[::rows]
    samples = np.empty(n, dtype=complex)
    for i in range(0, len(anchors), _TRACE_ROWS):
        count = min(_TRACE_ROWS, len(anchors) - i)
        block = _powers(weights * _phasors(anchors[i] * lam), stride, count)
        lo = i * rows
        samples[lo:lo + count * rows] = (block @ step.T).ravel()[:n - lo]
    return SmoothedTrace(lam, sigma, t_grid, samples)


def fit_trace_singularity(trace: SmoothedTrace, length: float, prediction,
                          cutoff: CutoffSpec = None, window: float = 0.35):
    """Measured coefficient of the model singularity at t = length.

    Complex least squares of the trace samples near the length against
    {model kernel with the trace's own Gaussian damping, 1, (t - L)}.
    Returns (C_meas, rms residual).  A window with fewer samples than
    these 3 unknowns, or a condition number above 1e8, raises
    IllConditionedError.
    """
    cutoff = cutoff or CutoffSpec()
    mask = np.abs(trace.t_grid - length) <= window
    ts = trace.t_grid[mask]
    vals = trace.samples[mask]
    unit = replace(prediction, L=length, L0=length, coefficient=1.0 + 0.0j)
    kernel = model_kernel(unit, cutoff, ts, damping_sigma=trace.sigma)
    design = np.column_stack([kernel, np.ones_like(ts), ts - length])
    coef, rms = guarded_lstsq(design, vals, "trace fit")
    return coef[0], rms
