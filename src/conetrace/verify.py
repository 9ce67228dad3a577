"""Verification registry: the oracle criteria shared by `conetrace verify`
and the acceptance battery.

Each criterion measures a few numbers against its bounds, and all but
criterion 2 have a wall-time budget.  `run` returns a Verdict carrying
the measurements, the bounds, the budget and the elapsed time;
`Verdict.passed` looks at the numeric bounds only, so callers that gate
on time (the acceptance tests) compare `elapsed_s` with `budget_s`
themselves, and the CLI report, which leaves the elapsed time out, stays
byte-identical across reruns.

Registered criteria:

1. closed-form link kernels agree with the Abel-extrapolated mode series;
2. the diffraction coefficient vanishes at orbifold cone angles 2 pi / N;
8. brute-force composition of two half-wave legs reproduces the
   stationary-phase constants, conjugate-point phase included;
10. the doubled square's corner loop, which diffracts only through cone
   angles pi, is silent in the exact smoothed trace, while the geometric
   length 2 rings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .amplitudes import CutoffSpec, TraceSingularityPrediction, interior_amplitude
from .composition import (
    brute_force_composition,
    flat_collinear_geometry,
    sphere_arc_geometry,
)
from .links import (
    LinkSpectrum,
    SummationPolicy,
    abel_extrapolate,
    diffraction_kernel,
    singular_set_distance,
)
from .spectra import doubled_square_spectrum, fit_trace_singularity, smoothed_wave_trace

__all__ = ["Measurement", "Verdict", "CRITERIA", "SUITES", "run"]


@dataclass(frozen=True)
class Measurement:
    """One measured value and the closed interval [lo, hi] it must lie in;
    a missing end is unbounded."""

    name: str
    value: float
    lo: float | None = None
    hi: float | None = None

    @property
    def passed(self) -> bool:
        return ((self.lo is None or self.value >= self.lo)
                and (self.hi is None or self.value <= self.hi))

    def __str__(self) -> str:
        lo = "" if self.lo is None else f"{self.lo:.3g} <= "
        hi = "" if self.hi is None else f" <= {self.hi:.3g}"
        return f"{self.name}: {lo}{self.value:.3g}{hi}"


@dataclass(frozen=True)
class Verdict:
    criterion: int
    title: str
    measurements: tuple[Measurement, ...]
    budget_s: float | None  # wall-time gate of the acceptance battery
    elapsed_s: float

    @property
    def passed(self) -> bool:
        """All numeric bounds hold; the time budget is not consulted."""
        return all(m.passed for m in self.measurements)

    def report(self) -> dict:
        """JSON-ready record without the elapsed time."""
        return {
            "criterion": self.criterion,
            "name": self.title,
            "passed": self.passed,
            "measurements": [
                {"name": m.name, "value": float(m.value), "min": m.lo, "max": m.hi}
                for m in self.measurements
            ],
        }


def _link_grid(rho, margin, count):
    """A circle link and up to count points u of (0, rho) at least margin
    from the singular set of its diffraction kernel (pair (u, 0))."""
    link = LinkSpectrum.circle(rho)
    grid = np.linspace(0.01, rho - 0.01, 4 * count)
    keep = [float(u) for u in grid
            if singular_set_distance(link, np.pi, float(u), 0.0) >= margin]
    return link, keep[:count]


def _closed_vs_abel():
    policy = SummationPolicy.closed_form()
    out = []
    for rho in (1.5 * np.pi, 2.5 * np.pi, 7.0):
        link, us = _link_grid(rho, 0.1, 50)
        worst = 0.0
        for u in us:
            closed = diffraction_kernel(link, 2, u, 0.0, policy).value
            series = abel_extrapolate(
                lambda r: diffraction_kernel(
                    link, 2, u, 0.0, SummationPolicy.abel(r=r)).value)
            worst = max(worst, abs(closed - series))
        out.append(Measurement(f"max |closed - Abel| at rho={rho:.6g}",
                               worst, hi=1e-6))
    return out


def _orbifold_vanishing():
    policy = SummationPolicy.closed_form()
    out = []
    for rho in (np.pi, 2 * np.pi, 2 * np.pi / 3):
        link, us = _link_grid(rho, 0.02, 50)
        worst = max(abs(diffraction_kernel(link, 2, u, 0.0, policy).value)
                    for u in us)
        out.append(Measurement(f"max |D| at rho={rho:.6g}", worst, hi=1e-10))
    return out


def _composition():
    geom = flat_collinear_geometry(1.0, 1.0)
    a_leg = interior_amplitude(1.0, 0, 1.0)
    errs = {}
    for xi in (200.0, 400.0):
        val = brute_force_composition(geom, a_leg * a_leg, xi)
        pred = interior_amplitude(2.0, 0, 1.0) * np.sqrt(xi)
        errs[xi] = abs(val / pred - 1.0)

    d1, d2 = 5 * np.pi / 4, np.pi / 4
    theta = lambda d: abs(np.sin(d)) / d
    a12 = (interior_amplitude(d1, 1, theta(d1))
           * interior_amplitude(d2, 0, theta(d2)))
    val = brute_force_composition(sphere_arc_geometry(d1, d2), a12, 200.0)
    pred = interior_amplitude(d1 + d2, 1, theta(d1 + d2)) * np.sqrt(200.0)
    return [
        Measurement("flat collinear relative error at xi=200",
                    errs[200.0], hi=0.02),
        Measurement("error ratio xi=400 / xi=200",
                    errs[400.0] / errs[200.0], lo=0.3, hi=0.8),
        Measurement("sphere conjugate-point phase deviation (degrees)",
                    abs(np.degrees(np.angle(val / pred))), hi=3.0),
    ]


def _doubled_square():
    sigma = 40.0
    eigs = doubled_square_spectrum(2000.0)
    cut = CutoffSpec()
    # the corner loop passes three cone points: k = 3, order 3/2
    unit = TraceSingularityPrediction(
        L=1.0, L0=1.0, k=3, n=2, order=1.5, coefficient=1.0 + 0.0j)

    def measure(length):
        ts = np.arange(length - 0.3, length + 0.3, 0.004)
        tr = smoothed_wave_trace(eigs, sigma, ts)
        return fit_trace_singularity(tr, length, unit, cut, window=0.3)

    corner = 2.0 + np.sqrt(2.0)
    c_corner, _ = measure(corner)
    baseline = float(np.mean([measure(L)[1] for L in (1.4, 3.3, 3.55)]))

    grid = np.arange(1.3, 3.3, 0.004)
    mag = np.abs(smoothed_wave_trace(eigs, sigma, grid).samples)
    peak = mag[np.abs(grid - 2.0) < 0.05].max()
    quiet = ((np.abs(grid - 2.0) > 0.3) & (np.abs(grid - corner) > 0.3)
             & (np.abs(grid - 2 * np.sqrt(2.0)) > 0.3))
    return [
        Measurement("corner-loop |C| (bound: 5 x mean quiet-length fit residual)",
                    abs(c_corner), hi=5.0 * baseline),
        Measurement("t=2 peak prominence over the quiet median",
                    peak / np.median(mag[quiet]), lo=10.0),
    ]


#: criterion number -> (title, wall-time budget in seconds, measure)
CRITERIA = {
    1: ("closed-form vs Abel link kernels", 60.0, _closed_vs_abel),
    2: ("orbifold vanishing", None, _orbifold_vanishing),
    8: ("stationary-phase composition constants", 600.0, _composition),
    10: ("doubled-square negative control", 300.0, _doubled_square),
}

#: `conetrace verify --suite` name -> criteria it runs
SUITES = {"link": (1, 2), "composition": (8,), "spectral": (10,)}


def run(criterion: int) -> Verdict:
    """Measure one registered criterion and time it."""
    title, budget_s, measure = CRITERIA[criterion]
    t0 = time.perf_counter()
    measurements = tuple(measure())
    return Verdict(criterion, title, measurements, budget_s,
                   time.perf_counter() - t0)
