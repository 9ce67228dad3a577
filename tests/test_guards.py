"""Each numerical guard on both sides of its boundary, a relative 1e-3
(or 1e-9 absolute for the wall) inside and outside the band."""

import math

import numpy as np
import pytest

from conetrace import conekernel, geodesics, links, surfaces
from conetrace.amplitudes import CutoffSpec, SegmentInvariants, interior_amplitude
from conetrace.conekernel import flat_cone_sine_kernel_series
from conetrace.errors import (
    ConjugateDegeneracyError,
    GeometricSetError,
    NonPositiveRadiusError,
    PolicyMismatchError,
    WallInfluenceError,
)
from conetrace.geodesics import classify_continuation, connect_tips
from conetrace.links import LinkSpectrum, SummationPolicy, diffraction_kernel

LINK = LinkSpectrum.circle(3 * np.pi)
CLOSED = SummationPolicy.closed_form()
TINY = 5e-324  # the smallest positive float
NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


def test_geometric_tol_boundary():
    # the pair (u, 0) lies u - pi from the singular set of exp(-i pi nu)
    tol = links.GEOMETRIC_TOL
    with pytest.raises(GeometricSetError):
        diffraction_kernel(LINK, 2, np.pi + (1 - 1e-3) * tol, 0.0, CLOSED)
    value = diffraction_kernel(LINK, 2, np.pi + (1 + 1e-3) * tol, 0.0,
                               CLOSED).value
    assert math.isfinite(value.real) and math.isfinite(value.imag)


def test_regularity_band_boundary():
    band = links.REGULARITY_BAND
    inside = diffraction_kernel(LINK, 2, np.pi + (1 - 1e-3) * band, 0.0, CLOSED)
    outside = diffraction_kernel(LINK, 2, np.pi + (1 + 1e-3) * band, 0.0, CLOSED)
    assert not inside.regular
    assert outside.regular


def test_classify_continuation_boundary():
    # arrival link_in = 0 and departure pi + delta sit delta from the
    # singular set, and GEOMETRIC_TOL is the only threshold
    tol = links.GEOMETRIC_TOL
    assert classify_continuation(LINK, 0.0, np.pi + (1 - 1e-3) * tol) == "geometric"
    assert (classify_continuation(LINK, 0.0, np.pi + (1 + 1e-3) * tol)
            == "strictly_diffractive")


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["past", "short"])
def test_wall_margin_boundary(side):
    rho, wall_r, x, xp = 1.5 * np.pi, 1.1, 0.35, 0.35
    t = 2 * wall_r - conekernel.WALL_MARGIN - x - xp + side * 1e-9
    args = (rho, wall_r, t, x, 0.0, xp, 1.0)
    if side > 0:
        with pytest.raises(WallInfluenceError):
            flat_cone_sine_kernel_series(*args, damping=8.0)
    else:
        assert math.isfinite(flat_cone_sine_kernel_series(*args, damping=8.0).real)


class _Recorder:
    """Stands in for a tolerance and records each value compared to it."""

    def __init__(self):
        self.seen = []

    def __gt__(self, value):
        self.seen.append(value)
        return False


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["inside", "outside"])
def test_degeneracy_tol_boundary(monkeypatch, side):
    # a nearly symmetric spindle: |d p_theta / d theta0| is about 1.6 eps
    # at every Newton step, far below 1 but far above the default 1e-8
    spindle = surfaces.perturbed_spindle(eps=1e-4)
    seed = 0.75 * (np.pi / 4 + 0.02)
    probe = _Recorder()
    monkeypatch.setattr(geodesics, "DEGENERACY_TOL", probe)
    connect_tips(spindle, "south", "north", seed)
    smallest = min(probe.seen)
    monkeypatch.setattr(geodesics, "DEGENERACY_TOL", smallest * (1 + side * 1e-3))
    if side > 0:
        with pytest.raises(ConjugateDegeneracyError):
            connect_tips(spindle, "south", "north", seed)
    else:
        assert connect_tips(spindle, "south", "north", seed).miss < 1e-9


# the public constructors refuse non-finite input on their own, not only
# through the config layer; the smallest positive float still passes

def test_link_circle_smallest_positive():
    assert LinkSpectrum.circle(TINY).circumference == TINY


@NON_FINITE
def test_link_circle_non_finite(bad):
    with pytest.raises(NonPositiveRadiusError):
        LinkSpectrum.circle(bad)


def test_gaussian_policy_smallest_positive():
    assert SummationPolicy.gaussian(TINY).sigma == TINY


@NON_FINITE
def test_gaussian_policy_non_finite(bad):
    with pytest.raises(PolicyMismatchError):
        SummationPolicy.gaussian(bad)


def test_mode_cutoff_one():
    assert SummationPolicy.abel(mode_cutoff=1).mode_cutoff == 1
    assert SummationPolicy.gaussian(1.0, mode_cutoff=np.int64(1)).mode_cutoff == 1


@pytest.mark.parametrize("cutoff", [0, 2.5, 1.0, True, math.nan, math.inf])
def test_mode_cutoff_not_an_integer_from_one(cutoff):
    with pytest.raises(PolicyMismatchError):
        SummationPolicy.abel(mode_cutoff=cutoff)


def test_cutoff_largest_finite_upper():
    assert CutoffSpec(1.0, np.finfo(float).max).value(2.0) == 0.0


@NON_FINITE
def test_cutoff_non_finite(bad):
    with pytest.raises(ValueError):
        CutoffSpec(1.0, bad)


def test_segment_invariants_smallest_positive():
    inv = SegmentInvariants(d=TINY, morse=0, theta=TINY)
    assert (inv.d, inv.theta) == (TINY, TINY)
    assert np.isfinite(interior_amplitude(TINY, 0, 1.0))
    assert np.isfinite(interior_amplitude(1.0, 0, TINY))


@NON_FINITE
@pytest.mark.parametrize("field", ["d", "theta"])
def test_segment_invariants_non_finite(bad, field):
    values = {"d": 1.0, "morse": 0, "theta": 1.0, field: bad}
    with pytest.raises(ValueError):
        SegmentInvariants(**values)
    with pytest.raises(ValueError):
        interior_amplitude(values["d"], 0, values["theta"])


_KERNEL_ARGS = dict(t=0.8, x=0.3, y=0.2, xp=0.4, yp=1.1)


def test_sine_kernel_smallest_positive_time():
    args = dict(_KERNEL_ARGS, t=TINY)
    value = flat_cone_sine_kernel_series(1.5 * np.pi, 1.1, *args.values(),
                                         damping=8.0)
    assert math.isfinite(value.real) and math.isfinite(value.imag)


@NON_FINITE
@pytest.mark.parametrize("name", list(_KERNEL_ARGS))
def test_sine_kernel_non_finite(bad, name):
    args = dict(_KERNEL_ARGS, **{name: bad})
    with pytest.raises(ValueError, match="must be finite"):
        flat_cone_sine_kernel_series(1.5 * np.pi, 1.1, *args.values(),
                                     damping=8.0)


def test_empty_tip_sequence():
    # refused before any shot: no tip, no segment, no period to divide by
    with pytest.raises(ValueError, match="at least one tip"):
        geodesics.build_closed_diffractive(surfaces.flat_cone(1.5 * np.pi), [], [])
