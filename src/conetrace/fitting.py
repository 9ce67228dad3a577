"""Guarded linear least squares, shared by the front and trace fits.

A design with fewer rows than columns is underdetermined: least squares
then matches the samples exactly, with a rounding-level residual, and
returns one of infinitely many coefficient vectors.  That, and a
numerically rank-deficient design, is refused rather than reported as
a fit.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError

__all__ = ["guarded_lstsq"]

MAX_CONDITION = 1e8


def guarded_lstsq(design: np.ndarray, values: np.ndarray, what: str):
    """(coefficients, rms residual) of the least-squares fit of values
    against the columns of design.

    Raises IllConditionedError, naming `what`, when the design has fewer
    rows than columns or a condition number above MAX_CONDITION.
    """
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
