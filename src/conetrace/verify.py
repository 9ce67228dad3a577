"""Verification registry: every acceptance criterion, shared by
`conetrace verify` and the acceptance battery.

Each criterion measures a few numbers against its bounds, and some have
a wall-time budget.  `run` returns a Verdict carrying the measurements,
the bounds, the budget and the elapsed time; `Verdict.passed` looks at
the numeric bounds only, so callers that gate on time (the acceptance
tests) compare `elapsed_s` with `budget_s` themselves, and the CLI
report, which leaves the elapsed time out, stays byte-identical across
reruns.  A criterion builds its inputs (surfaces, geodesics, mode sums)
when it runs, never at import; the closed geodesics that criteria 5, 6
and 9 share are built once per process.  Each criterion that draws
random inputs has its own seeded generator, so no criterion's values
depend on which ran before it.

Registered criteria:

1. closed-form link kernels agree with the Abel-extrapolated mode series;
2. the diffraction coefficient vanishes at orbifold cone angles 2 pi / N;
3. the diffracted-front coefficients c_H and c_log of the link spectrum
   match a fit to the exact flat-cone Bessel mode sum at cone angle
   3 pi / 2, and the round cone (angle 2 pi) shows no front;
4. a tip-launched field on a flat cone spreads exactly: Theta = 1;
5. the Wronskian of each path's end pair of Jacobi fields stays constant
   along random segments of flat, spherical and spindle paths;
6. the spreading Theta of a segment is the same read forwards and
   backwards, each from its own path's end pair;
7. the Morse index is additive over a broken sphere arc, with the broken
   Hessian's sign supplying the index lost at the break;
8. brute-force composition of two half-wave legs reproduces the
   stationary-phase constants, conjugate-point phase included;
9. the trace coefficient and the cut-route integral agree on the spindle
   (k = 2) and teardrop (k = 1) closed geodesics, once and taken twice;
10. the doubled square's corner loop, which diffracts only through cone
   angles pi, is silent in the exact smoothed trace, while the geometric
   length 2 rings.

Criterion 11, a positive spectral control on a curved conic surface,
is out of scope and not registered: it would need that surface's exact
spectrum, which has no closed form.  Criteria 8 and 9 stand in for it on
the stationary-phase assembly, and criterion 3 pins the diffraction
building block.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import surfaces
from .amplitudes import (
    CutoffSpec,
    TraceSingularityPrediction,
    interior_amplitude,
    trace_singularity,
    trace_singularity_cut_route,
)
from .composition import (
    brute_force_composition,
    flat_collinear_geometry,
    sphere_arc_geometry,
)
from .conekernel import extract_front_coefficients, flat_cone_sine_kernel_series
from .geodesics import (
    ChartState,
    build_closed_diffractive,
    geodesic_flow,
    shoot_from_tip,
)
from .jacobi import broken_hessian, morse_index, theta_spreading, wronskian_drift
from .links import (
    LinkSpectrum,
    SummationPolicy,
    abel_extrapolate,
    diffraction_kernel,
    sine_front_coefficients,
    singular_set_distance,
)
from .spectra import _doubled_square_to_reach, fit_trace_singularity, smoothed_wave_trace

__all__ = ["Measurement", "Verdict", "CRITERIA", "SUITES", "ALL", "run"]


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


def _front_coefficients():
    x = xp = 0.5
    dy = np.pi / 3
    damping = 40.0
    t_front = x + xp
    ts = t_front + np.linspace(-0.15, 0.15, 61)
    c_h_ref, c_log_ref = sine_front_coefficients(
        LinkSpectrum.circle(1.5 * np.pi), 2, x, xp, dy, 0.0,
        SummationPolicy.closed_form())
    scale = abs(c_h_ref)

    def fit(rho):
        vals = np.array([
            flat_cone_sine_kernel_series(rho, 2.0, t, x, dy, xp, 0.0,
                                         damping=damping).real
            for t in ts
        ])
        c_h, c_log, _ = extract_front_coefficients(ts, vals, t_front,
                                                   damping=damping)
        return c_h, c_log

    c_h, c_log = fit(1.5 * np.pi)
    # the round cone has no front: its fit reads the leakage of a smooth
    # input through the basis, about 0.01 of scale
    c_h_round, c_log_round = fit(2 * np.pi)
    return [
        Measurement("|c_H - reference| / scale", abs(c_h - c_h_ref) / scale,
                    hi=0.05),
        Measurement("|c_log - reference| / scale",
                    abs(c_log - c_log_ref) / scale, hi=0.05),
        Measurement("round-cone |c_H| / scale", abs(c_h_round) / scale,
                    hi=0.05),
        Measurement("round-cone |c_log| / scale", abs(c_log_round) / scale,
                    hi=0.05),
    ]


def _flat_cone_theta():
    fc = surfaces.flat_cone(1.5 * np.pi)
    worst = max(abs(theta_spreading(shoot_from_tip(fc, "tip", 0.3, d)) - 1.0)
                for d in np.linspace(0.4, 8.0, 10))
    return [Measurement("max |Theta - 1| over 10 tip shots", worst, hi=1e-8)]


A0 = 0.75  # the spindle's and the teardrop's a0: tip link circumference 2 pi a0


@functools.cache
def _spindle_closed(r):
    """The spindle's closed geodesic from the documented seeds, r times."""
    return build_closed_diffractive(
        surfaces.perturbed_spindle(), ["south", "north"] * r,
        [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)] * r)


@functools.cache
def _teardrop_closed(r):
    """The teardrop's loop from the documented seed, r times."""
    return build_closed_diffractive(
        surfaces.teardrop(), ["tip"] * r, [A0 * (np.pi / 4 + 0.02)] * r,
        length_cap=12.0)


@functools.cache
def _segment_paths():
    """Paths that criteria 5 and 6 draw segments from: a line in the
    plane, two sphere arcs and the spindle loop's two segments."""
    plane, sphere = surfaces.plane(), surfaces.sphere_band(1.5)
    return (
        geodesic_flow(plane, ChartState("cart", np.zeros(2),
                                        np.array([0.6, 0.8])), 6.0),
        geodesic_flow(sphere, ChartState("band", np.array([0.0, 0.0]),
                                         np.array([0.0, 1.0])), 2.9),
        geodesic_flow(sphere, ChartState("band", np.array([0.2, 0.1]),
                                         np.array([0.5, 1.0])), 2.5),
        _spindle_closed(1).segments[0].path,
        _spindle_closed(1).segments[1].path,
    )


def _random_segments(rng, count, pad, min_span):
    """count draws (path, s0, s1), cycling through _segment_paths: s0 < s1
    uniform in [pad, length - pad], redrawn while s1 - s0 < min_span."""
    paths = _segment_paths()
    out = []
    while len(out) < count:
        path = paths[len(out) % len(paths)]
        s0, s1 = np.sort(rng.uniform(pad, path.length - pad, 2))
        if s1 - s0 >= min_span:
            out.append((path, s0, s1))
    return out


def _wronskian_constancy():
    segments = _random_segments(np.random.default_rng(5), 100, 0.0, 0.1)
    worst = max(wronskian_drift(path, s0, s1) for path, s0, s1 in segments)
    return [Measurement("max Wronskian drift over 100 segments", worst,
                        hi=1e-8)]


def _theta_symmetry():
    segments = _random_segments(np.random.default_rng(6), 50, 0.05, 0.2)
    worst = max(
        abs(theta_spreading(path, s0, s1)
            - theta_spreading(path.reversed(), path.length - s1,
                              path.length - s0))
        for path, s0, s1 in segments)
    return [Measurement("max forward/backward Theta gap over 50 segments",
                        worst, hi=1e-8)]


def _morse_additivity():
    sphere = surfaces.sphere_band(1.5)

    def arc(length):
        return geodesic_flow(
            sphere, ChartState("band", np.zeros(2), np.array([0.0, 1.0])),
            length)

    def parts(d, cut):
        """(whole index, first part's, second part's, Hessian term)."""
        path = arc(d)
        return (morse_index(path), morse_index(path, 0.0, cut),
                morse_index(path, cut, d),
                1 if broken_hessian(path, cut) < 0 else 0)

    cases = [(1.5 * np.pi, 0.75 * np.pi)]
    rng = np.random.default_rng(13)
    for _ in range(11):
        d = rng.uniform(0.4, 4.4)
        if abs(d - np.pi) < 0.1:
            continue
        cut = rng.uniform(0.15, 0.85) * d
        if abs(cut - np.pi) < 0.05 or abs(d - cut - np.pi) < 0.05:
            continue
        cases.append((d, cut))
    found = [parts(d, cut) for d, cut in cases]
    failures = sum(whole != m1 + m2 + ind for whole, m1, m2, ind in found)
    whole, m1, _, ind = found[0]
    return [
        Measurement(f"additivity failures over {len(cases)} sphere splits",
                    failures, lo=0, hi=0),
        Measurement("index of the 3pi/2 arc", whole, lo=1, hi=1),
        Measurement("index of its first part, to 3pi/4", m1, lo=0, hi=0),
        Measurement("Hessian term at the 3pi/4 break", ind, lo=1, hi=1),
    ]


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


def _two_routes():
    out = []
    for name, geo in (("spindle k=2", _spindle_closed(1)),
                      ("teardrop k=1", _teardrop_closed(1)),
                      ("spindle k=2 taken twice", _spindle_closed(2)),
                      ("teardrop k=1 taken twice", _teardrop_closed(2))):
        direct = trace_singularity(geo).coefficient
        cut = trace_singularity_cut_route(geo)
        out.append(Measurement(f"{name} |direct - cut route| / |direct|",
                               abs(direct - cut) / abs(direct), hi=1e-8))
    return out


def _doubled_square():
    sigma = 40.0
    eigs = _doubled_square_to_reach(2000.0, sigma)
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
    # the median as np.median takes it, whose first call loads numpy.ma
    # (about 10 ms)
    quiet_mag = np.sort(mag[quiet])
    half = len(quiet_mag) // 2
    median = 0.5 * (quiet_mag[half] + quiet_mag[(len(quiet_mag) - 1) // 2])
    return [
        Measurement("corner-loop |C| (bound: 5 x mean quiet-length fit residual)",
                    abs(c_corner), hi=5.0 * baseline),
        Measurement("t=2 peak prominence over the quiet median",
                    peak / median, lo=10.0),
    ]


#: criterion number -> (title, wall-time budget in seconds, measure)
CRITERIA = {
    1: ("closed-form vs Abel link kernels", 60.0, _closed_vs_abel),
    2: ("orbifold vanishing", None, _orbifold_vanishing),
    3: ("diffracted-front coefficients", 600.0, _front_coefficients),
    4: ("flat-cone tip spreading", None, _flat_cone_theta),
    5: ("Wronskian constancy", None, _wronskian_constancy),
    6: ("spreading symmetry", None, _theta_symmetry),
    7: ("Morse index additivity", None, _morse_additivity),
    8: ("stationary-phase composition constants", 600.0, _composition),
    9: ("two-route trace assembly", None, _two_routes),
    10: ("doubled-square negative control", 300.0, _doubled_square),
}

#: `conetrace verify --suite` name -> criteria it runs
SUITES = {
    "link": (1, 2),
    "composition": (8,),
    "spectral": (10,),
    "front": (3,),
    "jacobi": (4, 5, 6, 7),
    "assembly": (9,),
}

#: the suites `--suite all` runs: the quick ones.  front, jacobi and
#: assembly build cone mode sums or closed geodesics, and the benchmark's
#: oracle_suites workload times `all`, so they would move its wall time.
ALL = ("link", "composition", "spectral")


def run(criterion: int) -> Verdict:
    """Measure one registered criterion and time it."""
    title, budget_s, measure = CRITERIA[criterion]
    t0 = time.perf_counter()
    measurements = tuple(measure())
    return Verdict(criterion, title, measurements, budget_s,
                   time.perf_counter() - t0)
