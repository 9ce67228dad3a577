"""Self-tests of the benchmark's tracing and statistics.

    python3 -m pytest bench -q
"""

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.fixture(scope="module")
def wrapped():
    import conetrace
    import conetrace.cli  # noqa: F401
    import conetrace.config  # noqa: F401
    loaded = {m.__name__.rsplit(".", 1)[-1] for m in tracing.package_modules()}
    on_disk = {p.stem for p in (ROOT / "src" / "conetrace").glob("*.py")}
    assert on_disk - {"__init__"} <= loaded, "a module escaped the alias scan"
    tracer = tracing.Tracer()
    return tracer, tracing.install(tracer)


def test_every_alias_is_patched(wrapped):
    _, names = wrapped
    assert tracing.unpatched_aliases(names) == []
    from conetrace import amplitudes, cli, config, conekernel
    import conetrace
    for fn in (conekernel.bessel_j_zeros, amplitudes.morse_index,
               cli.smoothed_wave_trace, conetrace.trace_singularity,
               config._BUILTINS["teardrop"]):
        assert hasattr(fn, "__wrapped_original__"), fn.__name__


def test_a_missed_alias_is_reported(wrapped):
    _, names = wrapped
    original = names["besselj.bessel_j"].__wrapped_original__
    planted = types.ModuleType("conetrace._planted")
    planted.bessel_j = original
    planted.TABLE = {"j": original}
    sys.modules[planted.__name__] = planted
    try:
        missed = tracing.unpatched_aliases(names)
    finally:
        del sys.modules[planted.__name__]
    assert sorted(missed) == [
        "conetrace._planted (table entry).j -> besselj.bessel_j",
        "conetrace._planted.bessel_j -> besselj.bessel_j"]


def test_function_local_imports_reach_wrappers(wrapped):
    # e.g. connect_tips imports b_jacobi_solution when it runs, so the
    # defining module's attribute must be the wrapper
    _, names = wrapped
    found = 0
    for path in (ROOT / "src" / "conetrace").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    module = sys.modules[f"conetrace.{node.module}"]
                    for alias in node.names:
                        key = f"{node.module}.{alias.name}"
                        if key in names:
                            found += 1
                            assert getattr(module, alias.name) is names[key]
    assert found >= 1


def test_traced_call_records_spans_and_counts(wrapped):
    tracer, _ = wrapped
    from conetrace import conekernel
    before = len(tracer.spans)
    tracer.task = "probe"
    zeros = conekernel.bessel_j_zeros(1.5, 30.0)
    tracer.task = None
    new = tracer.spans[before:]
    assert new[0].name == "besselj.bessel_j_zeros" and new[0].parent is None
    assert all(s.task == "probe" for s in new)
    assert all(s.parent == new[0].sid for s in new[1:])
    assert {s.name for s in new[1:]} <= {"besselj.bessel_j", "besselj.bessel_j_pair"}
    assert tracer.counts["besselj.zeros_found"] >= len(zeros) > 0


def _spans(*rows):
    return [Span(i, name, start, end, parent, None, tag)
            for i, (name, start, end, parent, tag) in enumerate(rows)]


def test_self_time_subtracts_the_union_of_children():
    spans = _spans(
        ("cli.main", 0.0, 10.0, None, None),
        ("links.diffraction_kernel", 1.0, 3.0, 0, None),
        ("links.half_kg_kernel", 1.5, 2.0, 1, "abel"),
        ("links.abel_extrapolate", 2.0, 5.0, 0, None),   # overlaps the first
        ("spectra.smoothed_wave_trace", 9.0, 12.0, 0, None),  # sticks out
    )
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(0.5)
    assert tracing.layer_self_seconds(spans) == pytest.approx(
        {"cli": 5.0, "links": 1.5 + 0.5 + 3.0, "spectra": 3.0})


def test_inclusive_metrics_count_outermost_spans_once():
    spans = _spans(
        ("surfaces.symmetric_spindle", 0.0, 4.0, None, None),
        ("surfaces.perturbed_spindle", 0.5, 3.5, 0, None),
        ("surfaces.teardrop", 5.0, 6.0, None, None),
        ("links.half_kg_kernel", 6.0, 6.5, None, "abel"),
        ("links.half_kg_kernel", 7.0, 7.25, None, "closed_form"),
    )
    m = tracing.layer_metrics(spans, tracing.Counter())
    assert m["surfaces.builds"] == 2
    assert m["surfaces.build_s"] == pytest.approx(5.0)
    assert (m["links.abel_calls"], m["links.abel_s"]) == (1, pytest.approx(0.5))
    assert m["links.closed_form_s"] == pytest.approx(0.25)


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    m = tracing.layer_metrics([], tracing.Counter())
    declared = {x["name"] for x in stats.SPEC["per_layer"]}
    assert declared - set(m) == {"trace.wall_s", "trace.intended_frac"}


METRIC = {"name": "wall_s", "better": "lower", "bound": 0.1}


STEADY = [10.0, 10.1, 9.9, 10.0] * 3


@pytest.mark.parametrize("parent, change, word", [
    (STEADY, [x - 2.0 for x in STEADY], "improved"),
    (STEADY[:4], [x - 2.0 for x in STEADY[:4]], "no worse"),  # too few pairs
    (STEADY, [x + 0.05 for x in STEADY], "no worse"),
    (STEADY, [x + 2.0 for x in STEADY], "worse"),
    ([10.0, 14.0, 7.0, 12.0], [11.0, 13.0, 8.0, 12.5], "unresolved"),
])
def test_verdicts(parent, change, word):
    _, got = stats.verdict(parent, change, list(zip(parent, change)), METRIC)
    assert got == word
