"""Shared fixtures: surfaces and converged geodesics are expensive to
build, so they are session-scoped and reused across test modules."""

import numpy as np
import pytest

from conetrace import surfaces
from conetrace.geodesics import build_closed_diffractive

A0 = 0.75


@pytest.fixture(scope="session")
def plane():
    return surfaces.plane()


@pytest.fixture(scope="session")
def sphere():
    return surfaces.sphere_band()


@pytest.fixture(scope="session")
def spindle():
    return surfaces.perturbed_spindle()


@pytest.fixture(scope="session")
def teardrop():
    return surfaces.teardrop()


@pytest.fixture(scope="session")
def spindle_closed(spindle):
    return build_closed_diffractive(
        spindle,
        ["south", "north"],
        [A0 * (np.pi / 4 + 0.02), A0 * (5 * np.pi / 4 - 0.02)],
    )


@pytest.fixture(scope="session")
def teardrop_closed(teardrop):
    return build_closed_diffractive(
        teardrop, ["tip"], [A0 * (np.pi / 4 + 0.02)], length_cap=12.0
    )
