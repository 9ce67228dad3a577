"""Span tracing of conetrace from outside the package.

`install` replaces every public function of the traced modules by a
wrapper that records one span per call: its name, start, end, parent
span and the task that was running.  The wrapper goes into the defining
module and into every other reference the package holds to the same
function object (a by-name import such as `conekernel.bessel_j_zeros`,
or a module-level table such as `config._BUILTINS`), so calls are seen
whichever route they take.  A function-local import such as the one in
`geodesics.connect_tips` reads the defining module's attribute when it
runs, so it picks up the wrapper too.

Spans stay in memory; `layer_metrics` turns them into the per-layer
metrics the benchmark reports, and `Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

# defining module -> the layer its time is charged to
LAYERS = {
    "besselj": "besselj",
    "conekernel": "conekernel",
    "links": "links",
    "surfaces": "surfaces",
    "geodesics": "geodesics",
    "jacobi": "jacobi",
    "amplitudes": "amplitudes",
    "spectra": "spectra",
    "composition": "composition",
    "cli": "cli",
    "config": "cli",
}

PACKAGE = "conetrace"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "task", "tag")

    def __init__(self, sid, name, start, end, parent, task, tag=None):
        self.sid, self.name, self.parent, self.task = sid, name, parent, task
        self.start, self.end, self.tag = start, end, tag

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._kernel_keys: set = set()

    def wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = Span(sid, name, time.perf_counter(), None,
                        self._stack[-1] if self._stack else None, self.task)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if hook is not None:
                span.tag = hook(self, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# ---------------------------------------------------------------- hooks
# A hook runs after a call returns and records the work counts that only
# the arguments or the result show.  It returns a tag kept on the span.

def _arg(fn_args, kwargs, index, name, default=None):
    if len(fn_args) > index:
        return fn_args[index]
    return kwargs.get(name, default)


def _bessel_eval(tr, a, kw, result):
    tr.counts["besselj.eval_points"] += int(np.size(_arg(a, kw, 1, "x")))


def _bessel_zeros(tr, a, kw, result):
    tr.counts["besselj.zeros_found"] += int(len(result))


_KERNEL_PARAMS = ("rho", "wall_r", "t", "x", "y", "xp", "yp",
                  "mode_cutoff", "zero_cutoff", "damping")


def _cone_kernel(tr, a, kw, result):
    bound = dict(zip(_KERNEL_PARAMS, a))
    bound.update(kw)
    # the arguments the mode build depends on; a new tuple means a cold build
    key = tuple(bound.get(k) for k in ("rho", "wall_r", "x", "xp", "damping",
                                       "mode_cutoff", "zero_cutoff"))
    if key in tr._kernel_keys:
        return "warm"
    tr._kernel_keys.add(key)
    return "cold"


def _policy_kind(tr, a, kw, result):
    return getattr(_arg(a, kw, 5, "policy"), "kind", None)


def _connect(tr, a, kw, result):
    tr.counts["geodesics.newton_iters"] += int(result.iterations)


def _model_kernel(tr, a, kw, result):
    tr.counts["amplitudes.model_kernel_points"] += int(len(result))


def _spectrum(tr, a, kw, result):
    tr.counts["spectra.eigenvalues"] += int(len(result))


def _smoothed_trace(tr, a, kw, result):
    points = len(result.t_grid)
    tr.counts["spectra.trace_points"] += points
    tr.counts["spectra.trace_terms"] += len(result.eigenvalues) * points


HOOKS = {
    "besselj.bessel_j": _bessel_eval,
    "besselj.bessel_j_prime": _bessel_eval,
    "besselj.bessel_j_pair": _bessel_eval,
    "besselj.bessel_j_zeros": _bessel_zeros,
    "conekernel.flat_cone_sine_kernel_series": _cone_kernel,
    "links.half_kg_kernel": _policy_kind,
    "geodesics.connect_tips": _connect,
    "amplitudes.model_kernel": _model_kernel,
    "spectra.doubled_square_spectrum": _spectrum,
    "spectra.smoothed_wave_trace": _smoothed_trace,
}


# ------------------------------------------------------------- patching

def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions():
    """{original function: span name} for the public functions that the
    traced modules define."""
    found = {}
    for short in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{short}.{name}"
    return found


def _references(module):
    """(container, key, value) for each module attribute and for each
    entry of a module-level dict or list."""
    for key, value in list(vars(module).items()):
        yield vars(module), key, value
        if isinstance(value, dict):
            for k, v in list(value.items()):
                yield value, k, v
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield value, i, v


def install(tracer):
    """Wrap every public function wherever the package refers to it.

    Returns {span name: wrapper}."""
    originals = public_functions()
    wrappers = {fn: tracer.wrap(fn, name, HOOKS.get(name))
                for fn, name in originals.items()}
    for module in package_modules():
        for container, key, value in _references(module):
            if inspect.isfunction(value) and value in wrappers:
                container[key] = wrappers[value]
    return {originals[fn]: w for fn, w in wrappers.items()}


def unpatched_aliases(wrapped):
    """Places in the package that still reach a wrapped function's
    original: each is a call path the trace would miss."""
    originals = {w.__wrapped_original__: name for name, w in wrapped.items()}
    missed = []
    for module in package_modules():
        for container, key, value in _references(module):
            if inspect.isfunction(value) and value in originals:
                where = module.__name__
                if container is not vars(module):
                    where += " (table entry)"
                missed.append(f"{where}.{key} -> {originals[value]}")
    return missed


# ------------------------------------------------------------ arithmetic

def self_times(spans):
    """{span id: duration minus the part of it that its children cover}.

    Children may overlap each other or stick out of the parent; only the
    union of their intervals inside the parent counts as covered."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _outermost(spans, names, tag=None):
    """(calls, inclusive seconds) of spans named in `names` (and carrying
    `tag`, if given) that do not run inside another span of `names`."""
    by_id = {s.sid: s for s in spans}
    calls, seconds = 0, 0.0
    for s in spans:
        if s.name not in names or (tag is not None and s.tag != tag):
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            calls += 1
            seconds += s.end - s.start
    return calls, seconds


def _calls(spans, names):
    return sum(1 for s in spans if s.name in names)


def layer_metrics(spans, counts):
    """The per-layer metrics, named `<layer>.<metric>`."""
    self_by_layer = layer_self_seconds(spans)

    def incl(*names, tag=None):
        return _outermost(spans, set(names), tag)[1]

    # every public function of surfaces builds a surface
    builds, build_s = _outermost(
        spans, {s.name for s in spans if s.name.startswith("surfaces.")})
    m = {
        "besselj.eval_calls": _calls(spans, {"besselj.bessel_j",
                                             "besselj.bessel_j_prime",
                                             "besselj.bessel_j_pair"}),
        "besselj.eval_points": counts["besselj.eval_points"],
        "besselj.zeros_calls": _calls(spans, {"besselj.bessel_j_zeros"}),
        "besselj.zeros_found": counts["besselj.zeros_found"],
        "besselj.zeros_s": incl("besselj.bessel_j_zeros"),
        "conekernel.kernel_calls": _calls(
            spans, {"conekernel.flat_cone_sine_kernel_series"}),
        "conekernel.kernel_cold_s": incl(
            "conekernel.flat_cone_sine_kernel_series", tag="cold"),
        "conekernel.kernel_warm_s": incl(
            "conekernel.flat_cone_sine_kernel_series", tag="warm"),
        "conekernel.fit_s": incl("conekernel.extract_front_coefficients"),
        "conekernel.basis_s": incl("conekernel.conormal_basis",
                                   "conekernel.smoothed_heaviside",
                                   "conekernel.smoothed_log"),
        "links.closed_form_calls": _outermost(
            spans, {"links.half_kg_kernel"}, "closed_form")[0],
        "links.closed_form_s": incl("links.half_kg_kernel", tag="closed_form"),
        "links.abel_calls": _outermost(
            spans, {"links.half_kg_kernel"}, "abel")[0],
        "links.abel_s": incl("links.half_kg_kernel", tag="abel"),
        "links.extrapolations": _calls(spans, {"links.abel_extrapolate"}),
        "links.front_s": incl("links.sine_front_coefficients",
                              "links.a0_b0_coefficients"),
        "surfaces.builds": builds,
        "surfaces.build_s": build_s,
        "geodesics.closed_builds": _calls(
            spans, {"geodesics.build_closed_diffractive"}),
        "geodesics.build_s": incl("geodesics.build_closed_diffractive"),
        "geodesics.connects": _calls(spans, {"geodesics.connect_tips"}),
        "geodesics.connect_s": incl("geodesics.connect_tips"),
        "geodesics.newton_iters": counts["geodesics.newton_iters"],
        "geodesics.shots": _calls(spans, {"geodesics.shoot_from_tip"}),
        "geodesics.flows": _calls(spans, {"geodesics.geodesic_flow"}),
        # every b_jacobi_solution runs exactly one integrate_jacobi, so the
        # integrate_jacobi spans count both entry points once each
        "jacobi.solves": _calls(spans, {"jacobi.integrate_jacobi"}),
        "jacobi.solve_s": incl("jacobi.integrate_jacobi"),
        "jacobi.theta_calls": _calls(spans, {"jacobi.theta_spreading"}),
        "jacobi.morse_calls": _calls(spans, {"jacobi.morse_index"}),
        "amplitudes.invariants_s": incl("amplitudes.invariants_for",
                                        "amplitudes.segment_invariants"),
        "amplitudes.trace_s": incl("amplitudes.trace_singularity"),
        "amplitudes.cut_route_s": incl("amplitudes.trace_singularity_cut_route"),
        "amplitudes.model_kernel_s": incl("amplitudes.model_kernel"),
        "amplitudes.model_kernel_points": counts["amplitudes.model_kernel_points"],
        "spectra.spectrum_s": incl("spectra.doubled_square_spectrum"),
        "spectra.eigenvalues": counts["spectra.eigenvalues"],
        "spectra.trace_s": incl("spectra.smoothed_wave_trace"),
        "spectra.trace_points": counts["spectra.trace_points"],
        "spectra.trace_terms": counts["spectra.trace_terms"],
        "spectra.fit_s": incl("spectra.fit_trace_singularity"),
        "composition.calls": _calls(spans,
                                    {"composition.brute_force_composition"}),
        "cli.verify_s": incl("cli.cmd_verify"),
        "cli.spectral_trace_s": incl("cli.cmd_spectral_trace"),
    }
    for layer in sorted(set(LAYERS.values()) - {"surfaces"}):
        m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return m


def layer_self_seconds(spans):
    """{layer: summed self time}; the layers' shares of a traced run."""
    selfs = self_times(spans)
    out = Counter()
    for s in spans:
        out[LAYERS[s.name.split(".", 1)[0]]] += selfs[s.sid]
    return dict(out)
