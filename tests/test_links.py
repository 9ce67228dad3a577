"""Tests for link kernels: closed form vs Abel series, guards, coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetrace import (
    GeometricSetError,
    LinkSpectrum,
    SummationPolicy,
    abel_extrapolate,
    cos_sin_pi_nu_kernels,
    diffraction_kernel,
    half_kg_kernel,
    sine_front_coefficients,
)
from conetrace.links import singular_set_distance

CF = SummationPolicy.closed_form()


def off_singular_grid(rho, t=np.pi, margin=0.1, count=50):
    link = LinkSpectrum.circle(rho)
    grid = np.linspace(0.01, rho - 0.01, 4 * count)
    keep = [u for u in grid if singular_set_distance(link, t, u, 0.0) >= margin]
    return link, keep[:count]


class TestDiffractionKernel:
    @pytest.mark.parametrize("rho", [np.pi, 2 * np.pi, 2 * np.pi / 3])
    def test_orbifold_angles_vanish(self, rho):
        # cone angle 2*pi/N: the two cotangents cancel identically
        link, grid = off_singular_grid(rho, margin=0.02, count=100)
        for u in grid:
            assert abs(diffraction_kernel(link, 2, u, 0.0, CF).value) < 1e-12

    @pytest.mark.parametrize("rho", [1.5 * np.pi, 2.5 * np.pi, 7.0])
    def test_closed_form_matches_abel_series(self, rho):
        link, grid = off_singular_grid(rho, margin=0.1, count=50)
        for u in grid:
            d_cf = diffraction_kernel(link, 2, u, 0.0, CF).value
            d_ab = abel_extrapolate(
                lambda r: diffraction_kernel(
                    link, 2, u, 0.0, SummationPolicy.abel(r)
                ).value
            )
            assert abs(d_cf - d_ab) <= 1e-6

    def test_geometric_set_guard(self):
        link = LinkSpectrum.circle(3 * np.pi)
        with pytest.raises(GeometricSetError):
            diffraction_kernel(link, 2, np.pi + 1e-9, 0.0, CF)

    def test_wrapped_pole_guard(self):
        # on a narrow cone the wrapped arc rho - u can have length pi
        link = LinkSpectrum.circle(1.5 * np.pi)
        with pytest.raises(GeometricSetError):
            diffraction_kernel(link, 2, 0.5 * np.pi, 0.0, CF)

    def test_regular_flag(self):
        link = LinkSpectrum.circle(3 * np.pi)
        assert diffraction_kernel(link, 2, 1.0, 0.0, CF).regular
        assert not diffraction_kernel(link, 2, np.pi + 1e-4, 0.0, CF).regular


class TestHalfKgKernel:
    def test_identity_time_is_smoothed_delta(self):
        link = LinkSpectrum.circle(2 * np.pi)
        near = [
            abs(half_kg_kernel(link, 2, 0.0, 0.0, 0.0, SummationPolicy.gaussian(s, 10000)))
            for s in (20.0, 40.0, 80.0)
        ]
        far = [
            abs(half_kg_kernel(link, 2, 0.0, np.pi, 0.0, SummationPolicy.gaussian(s, 10000)))
            for s in (20.0, 40.0, 80.0)
        ]
        assert near[0] < near[1] < near[2]
        assert max(far) < 1.0

    def test_reproduces_diffraction_at_pi(self):
        link = LinkSpectrum.circle(1.5 * np.pi)
        for pol in (CF, SummationPolicy.abel(), SummationPolicy.gaussian(30.0)):
            a = half_kg_kernel(link, 2, np.pi, 1.0, 0.0, pol)
            b = diffraction_kernel(link, 2, 1.0, 0.0, pol).value
            assert abs(a - b) < 1e-10

    def test_two_pi_matches_abel(self):
        link = LinkSpectrum.circle(2 * np.pi)
        v_cf = half_kg_kernel(link, 2, 2 * np.pi, np.pi / 2, 0.0, CF)
        v_ab = abel_extrapolate(
            lambda r: half_kg_kernel(
                link, 2, 2 * np.pi, np.pi / 2, 0.0, SummationPolicy.abel(r)
            )
        )
        assert abs(v_cf - v_ab) <= 1e-6

    def test_shift_dimension_four(self):
        # in ambient dimension n = 4 the link modes are shifted:
        # nu_k = sqrt((2 pi k / rho)^2 + 1), so nu_0 = 1
        rho, sigma, t, u = 7.0, 30.0, 0.9, 1.3
        link = LinkSpectrum.circle(rho)
        value = half_kg_kernel(link, 4, t, u, 0.0,
                               SummationPolicy.gaussian(sigma))
        ks = np.arange(1, 2000)
        nus = np.sqrt((2 * np.pi * ks / rho) ** 2 + 1.0)
        weights = np.exp(-nus**2 / (2 * sigma**2)) * np.exp(-1j * t * nus)
        expected = (np.exp(-1 / (2 * sigma**2)) * np.exp(-1j * t)
                    + 2 * np.sum(weights * np.cos(2 * np.pi * ks * u / rho))) / rho
        assert abs(value - expected) < 1e-12
        unshifted = half_kg_kernel(link, 2, t, u, 0.0,
                                   SummationPolicy.gaussian(sigma))
        assert abs(value - unshifted) > 1e-3

    def test_hermitian_symmetry(self):
        link = LinkSpectrum.circle(7.0)
        for pol in (SummationPolicy.abel(), SummationPolicy.gaussian(30.0)):
            a = half_kg_kernel(link, 2, np.pi, 1.3, 0.2, pol)
            b = half_kg_kernel(link, 2, -np.pi, 0.2, 1.3, pol)
            assert abs(a - np.conj(b)) < 1e-12


class TestCosSinKernels:
    def test_orbifold_vanishing(self):
        link = LinkSpectrum.circle(np.pi)
        c, s = cos_sin_pi_nu_kernels(link, 2, 0.4, 0.0, CF)
        assert abs(c) < 1e-12 and abs(s) < 1e-12

    def test_matches_abel(self):
        link = LinkSpectrum.circle(1.5 * np.pi)
        c_cf, s_cf = cos_sin_pi_nu_kernels(link, 2, np.pi / 3, 0.0, CF)

        def cos_at(r):
            return cos_sin_pi_nu_kernels(link, 2, np.pi / 3, 0.0, SummationPolicy.abel(r))[0]

        def sin_at(r):
            return cos_sin_pi_nu_kernels(link, 2, np.pi / 3, 0.0, SummationPolicy.abel(r))[1]

        assert abs(c_cf - abel_extrapolate(cos_at)) <= 1e-6
        assert abs(s_cf - abel_extrapolate(sin_at)) <= 1e-6

    def test_consistency_with_half_kg(self):
        link = LinkSpectrum.circle(7.0)
        pol = SummationPolicy.gaussian(30.0)
        c, s = cos_sin_pi_nu_kernels(link, 2, 1.1, 0.0, pol)
        km = half_kg_kernel(link, 2, np.pi, 1.1, 0.0, pol)
        kp = half_kg_kernel(link, 2, -np.pi, 1.1, 0.0, pol)
        assert abs((c - 1j * s) - km) < 1e-12
        assert abs((c + 1j * s) - kp) < 1e-12


class TestSineFrontCoefficients:
    def test_orbifold_zero(self):
        link = LinkSpectrum.circle(np.pi)
        c_h, c_log = sine_front_coefficients(link, 2, 1.0, 1.0, 0.4, 0.0, CF)
        assert abs(c_h) < 1e-12 and abs(c_log) < 1e-12

    def test_radial_scaling(self):
        link = LinkSpectrum.circle(1.5 * np.pi)
        one = sine_front_coefficients(link, 2, 1.0, 1.0, np.pi / 3, 0.0, CF)
        four = sine_front_coefficients(link, 2, 2.0, 2.0, np.pi / 3, 0.0, CF)
        assert four[0] == pytest.approx(one[0] / 2.0)


@settings(max_examples=30, deadline=None)
@given(
    rho=st.sampled_from([1.5 * np.pi, 2.5 * np.pi, 7.0]),
    frac=st.floats(0.02, 0.98),
)
def test_property_closed_form_vs_abel(rho, frac):
    link = LinkSpectrum.circle(rho)
    u = frac * rho
    if singular_set_distance(link, np.pi, u, 0.0) < 0.1:
        return
    d_cf = diffraction_kernel(link, 2, u, 0.0, CF).value
    d_ab = abel_extrapolate(
        lambda r: diffraction_kernel(link, 2, u, 0.0, SummationPolicy.abel(r)).value
    )
    assert abs(d_cf - d_ab) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(
    y=st.floats(0.0, 6.0),
    yp=st.floats(0.0, 6.0),
)
def test_property_hermitian_symmetry(y, yp):
    link = LinkSpectrum.circle(7.0)
    try:
        a = half_kg_kernel(link, 2, np.pi, y, yp, SummationPolicy.gaussian(25.0))
        b = half_kg_kernel(link, 2, -np.pi, yp, y, SummationPolicy.gaussian(25.0))
    except GeometricSetError:
        return
    assert abs(a - np.conj(b)) < 1e-12
