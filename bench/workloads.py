"""The benchmark's workloads: inputs drawn from a seed, tasks run through
conetrace's public API, and the oracle check for each task's result.

Seed 0 reproduces the acceptance-test inputs, and only seed 0 is
compared with the golden values in goldens.py.  Every other seed draws
inputs from a band on which the oracles hold with margin and the work
per pass does not depend on the draw.

Why these three workloads (each stresses different layers):

* predict_curved: the quick-start pipeline on two curved surfaces.  It
  runs surfaces, geodesics, jacobi and amplitudes, and no Bessel, spectra
  or Abel code, so it is the bypass workload for oracle-side changes.
* cone_front: criterion 3's flat-cone front oracle.  One cold cone mode
  build (Bessel zeros and values) per cone, then 60 warm kernel sums, so
  it shows cache and zero-finder changes and ignores geometry changes.
* oracle_suites: `conetrace verify --suite all` and three
  `conetrace spectral-trace` runs, in-process through `cli.main`.  The
  only workload that runs the Abel link path, composition and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time

import goldens

A0 = 0.75
SIGMA = 40.0          # smoothing of the model kernels and spectral traces
FRONT_DAMPING = 30.0  # cone mode-sum damping Lambda; 20 trips the 1e8 guard
FRONT_BOUND = 0.05    # criterion 3: front coefficients within 5% of scale
GAP_BOUND = 1e-8      # criterion 9: direct vs cut-route relative gap
CORNER = 2.0 + math.sqrt(2.0)


class Pass:
    """Runs one workload's tasks in order and keeps each one's verdict."""

    def __init__(self, seed, scratch, tracer=None):
        self.seed = seed
        self.scratch = scratch  # directory for the files a task writes
        self.tracer = tracer
        self.tasks = []
        self.observed = {}  # golden name -> value, for seed 0

    def step(self, task_id, compute, check=None):
        """Run `compute()`; then `check(result)` returns a list of
        (ok, detail) pairs.  A raise or a failed pair fails the task."""
        if self.tracer is not None:
            self.tracer.task = task_id
        t0 = time.perf_counter()
        ok, details, result = True, [], None
        try:
            result = compute()
            for good, detail in (check(result) if check else []):
                ok = ok and bool(good)
                details.append(("ok " if good else "FAIL ") + detail)
        except Exception as exc:  # a failing task is counted, not fatal
            ok = False
            details.append(f"FAIL raised {type(exc).__name__}: {exc}")
        self.tasks.append({"task": task_id, "ok": ok,
                           "seconds": time.perf_counter() - t0, "details": details})
        if self.tracer is not None:
            self.tracer.task = None
        return result

    def golden(self, name, value):
        """(ok, detail) against the recorded value; seed 0 only."""
        if self.seed != 0:
            return []
        self.observed[name] = value
        return [goldens.check(name, value)]


def _close(value, ref, tol, what):
    gap = abs(value - ref)
    return gap <= tol, f"{what} |{value:.6g} - {ref:.6g}| = {gap:.2e} <= {tol:.1e}"


# ------------------------------------------------------------ predict_curved

def predict_curved_inputs(seed):
    if seed == 0:
        return {"eps_spindle": 0.05, "eps_teardrop": 0.05}
    rng = random.Random(seed)
    return {"eps_spindle": rng.uniform(0.03, 0.07),
            "eps_teardrop": rng.uniform(0.03, 0.07)}


def _geodesic_checks(p, name, geo, k):
    checks = [(geo.strictly_diffractive, "strictly diffractive"),
              (len(geo.segments) == k, f"{k} segments")]
    for j, seg in enumerate(geo.segments):
        checks.append((seg.miss < 1e-9, f"segment {j} miss {seg.miss:.1e}"))
    return checks + p.golden(f"{name}.length", geo.length)


def _symmetric_kernel(pred, samples):
    """The unit model kernel is conjugate-symmetric about t = L."""
    import numpy as np
    unit = np.asarray(samples) / pred.coefficient
    worst = float(np.max(np.abs(unit[::-1] - np.conj(unit))))
    scale = float(np.max(np.abs(unit)))
    return [(np.all(np.isfinite(unit)), "finite samples"),
            (worst <= 1e-10 * scale,
             f"conjugate symmetry about L {worst / scale:.1e} <= 1e-10")]


def predict_curved(p, inp):
    import numpy as np
    import conetrace as ct

    cases = [
        ("spindle", lambda: ct.perturbed_spindle(a0=A0, eps=inp["eps_spindle"]),
         ["south", "north"],
         [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)], {}),
        ("teardrop", lambda: ct.teardrop(a0=A0, eps=inp["eps_teardrop"]),
         ["tip"], [A0 * (np.pi / 4 + 0.02)], {"length_cap": 12.0}),
    ]
    for name, build, tips, seeds, kw in cases:
        k = len(tips)
        surface = p.step(f"{name}.surface", build, lambda s: [
            (set(tips) <= set(s.tips), "tips present")])
        geo = p.step(f"{name}.geodesic",
                     lambda: ct.build_closed_diffractive(surface, tips, seeds, **kw),
                     lambda g: _geodesic_checks(p, name, g, k))
        invs = p.step(f"{name}.invariants", lambda: ct.invariants_for(geo),
                      lambda v: [_close(sum(s.d for s in v), geo.length, 1e-12,
                                        "segment lengths sum to L")])
        pred = p.step(f"{name}.trace", lambda: ct.trace_singularity(geo, invs),
                      lambda r: [(r.order == k / 2, f"order {r.order}"),
                                 (np.isfinite(r.coefficient), "finite coefficient")]
                      + p.golden(f"{name}.coefficient", r.coefficient))

        def cut_checks(cut):
            gap = abs(pred.coefficient - cut) / abs(pred.coefficient)
            return [(gap <= GAP_BOUND, f"two-path gap {gap:.2e} <= {GAP_BOUND:.0e}")
                    ] + p.golden(f"{name}.cut_gap", gap)

        p.step(f"{name}.cut_route",
               lambda: ct.trace_singularity_cut_route(geo), cut_checks)
        p.step(f"{name}.model_kernel",
               lambda: ct.model_kernel(pred, ct.CutoffSpec(),
                                       pred.L + np.linspace(-0.3, 0.3, 61),
                                       damping_sigma=SIGMA),
               lambda v: _symmetric_kernel(pred, v))


# ---------------------------------------------------------------- cone_front

def cone_front_inputs(seed):
    if seed == 0:
        return {"dy": math.pi / 3}
    # off-singular band where the Lambda = 30 fit stays well inside 5%
    return {"dy": random.Random(seed).uniform(0.2, 0.7)}


def cone_front(p, inp):
    import numpy as np
    import conetrace as ct

    x = xp = 0.5
    dy = inp["dy"]
    t_front = x + xp
    ts = t_front + np.linspace(-0.15, 0.15, 61)
    cf = ct.SummationPolicy.closed_form()

    ref = p.step("front.reference", lambda: ct.sine_front_coefficients(
        ct.LinkSpectrum.circle(1.5 * np.pi), 2, x, xp, dy, 0.0, cf),
        lambda r: [(abs(r[0]) > 0, "nonzero c_H reference")])
    scale = abs(ref[0]) if ref is not None else float("nan")

    def samples(rho):
        return np.array([
            ct.flat_cone_sine_kernel_series(rho, 2.0, t, x, dy, xp, 0.0,
                                            damping=FRONT_DAMPING).real
            for t in ts])

    def fit(vals):
        return ct.extract_front_coefficients(ts, vals, t_front,
                                             damping=FRONT_DAMPING)

    finite = lambda v: [(np.all(np.isfinite(v)), "finite kernel samples")]
    vals = p.step("front.kernel", lambda: samples(1.5 * np.pi), finite)
    p.step("front.fit", lambda: fit(vals), lambda r: [
        (abs(r[0] - ref[0]) <= FRONT_BOUND * scale,
         f"c_H error {abs(r[0] - ref[0]) / scale:.2%} of scale <= 5%"),
        (abs(r[1] - ref[1]) <= FRONT_BOUND * scale,
         f"c_log error {abs(r[1] - ref[1]) / scale:.2%} of scale <= 5%"),
    ] + p.golden("front.c_h", r[0]) + p.golden("front.c_log", r[1]))

    ctrl = p.step("control.kernel", lambda: samples(2 * np.pi), finite)
    floor = 0.01 * scale  # leakage of a smooth input through the basis
    p.step("control.fit", lambda: fit(ctrl), lambda r: [
        (abs(r[0]) <= 5 * floor and abs(r[1]) <= 5 * floor,
         f"round cone ({abs(r[0]):.2e}, {abs(r[1]):.2e}) <= 5 x floor "
         f"{floor:.1e}"),
    ] + p.golden("control.c_h", r[0]) + p.golden("control.c_log", r[1]))


# ------------------------------------------------------------- oracle_suites

def oracle_suites_inputs(seed):
    if seed == 0:
        return {"quiet_L": 3.3}
    # quiet lengths whose fit residual keeps the silence test's margin
    return {"quiet_L": random.Random(seed).uniform(3.25, 3.35)}


def _cli(argv):
    from conetrace import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _fit_line(text):
    """(C, residual rms) from the `# fit:` trailer of spectral-trace."""
    last = text.strip().splitlines()[-1]
    _, re_c, im_c, resid = last.lstrip("# ").split(",")
    return complex(float(re_c), float(im_c)), float(resid)


def oracle_suites(p, inp):
    def verify_checks(res):
        code, text = res
        report = json.loads(text)
        return [(code == 0, f"exit code {code}"),
                (report["passed"], f"{len(report['results'])} suite checks passed")]

    p.step("verify", lambda: _cli(["verify", "--suite", "all"]), verify_checks)

    def spectral(length):
        path = os.path.join(p.scratch, f"spectral-{os.getpid()}.json")
        # the 150-point grid of criterion 10: arange(L - 0.3, L + 0.3, 0.004)
        cfg = {"eigenvalues": {"doubled_square": {"lambda_max": 2000.0}},
               "sigma": SIGMA,
               "t_grid": {"min": length - 0.3, "max": length - 0.3 + 149 * 0.004,
                          "count": 150},
               "fit": {"L": length, "k": 3, "window": 0.3}}
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        try:
            code, text = _cli(["spectral-trace", "--config", path])
        finally:
            os.remove(path)
        if code != 0:
            raise RuntimeError(f"spectral-trace exit code {code}")
        return _fit_line(text)

    corner = p.step("trace.corner", lambda: spectral(CORNER), lambda r: (
        p.golden("corner.abs_c", abs(r[0]))))
    p.step("trace.geodesic", lambda: spectral(2.0), lambda r: [
        (abs(r[0]) >= 10.0 * abs(corner[0]),
         f"discrimination |C(2)| {abs(r[0]):.3f} >= 10 x corner "
         f"{abs(corner[0]):.3f}")] + p.golden("geodesic.abs_c", abs(r[0])))
    p.step("trace.quiet", lambda: spectral(inp["quiet_L"]), lambda r: [
        (abs(corner[0]) <= 5.0 * r[1],
         f"silence |C corner| {abs(corner[0]):.3f} <= 5 x baseline "
         f"{r[1]:.3f} at L = {inp['quiet_L']:.4f}")]
        + p.golden("quiet.baseline", r[1]))


WORKLOADS = {
    "predict_curved": (predict_curved_inputs, predict_curved),
    "cone_front": (cone_front_inputs, cone_front),
    "oracle_suites": (oracle_suites_inputs, oracle_suites),
}

# the layers each workload is meant to stress; a traced run reports the
# share of its wall time that their self time covers
INTENDED = {
    "predict_curved": ("surfaces", "geodesics", "jacobi", "amplitudes"),
    "cone_front": ("besselj", "conekernel"),
    "oracle_suites": ("links", "spectra"),
}
