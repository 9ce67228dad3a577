"""Guarded linear least squares, shared by the front and trace fits.

A design with fewer rows than columns is underdetermined: least squares
then matches the samples exactly, with a rounding-level residual, and
returns one of infinitely many coefficient vectors.  That, and a
numerically rank-deficient design, is refused rather than reported as
a fit.  So is a design or a sample that is not finite, which would
otherwise come back as NaN coefficients.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError

__all__ = ["guarded_lstsq"]

MAX_CONDITION = 1e8


def guarded_lstsq(design: np.ndarray, values: np.ndarray, what: str):
    """(coefficients, rms residual) of the least-squares fit of values
    against the columns of design.

    Raises ValueError, naming `what`, when the design or the values hold
    a NaN or an infinity, and IllConditionedError when the design has
    fewer rows than columns or a condition number above MAX_CONDITION.
    """
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(values))):
        raise ValueError(f"{what} holds non-finite design entries or samples")
    rows, cols = design.shape
    if rows < cols:
        raise IllConditionedError(f"{what} holds {rows} samples, "
                                  f"fewer than its {cols} unknowns")
    cond = np.linalg.cond(design)
    if cond > MAX_CONDITION:
        raise IllConditionedError(f"{what} condition number {cond:.2e}")
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ coef
    return coef, float(np.sqrt(np.mean(np.abs(resid) ** 2)))
