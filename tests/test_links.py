"""Tests for link kernels: closed form vs Abel series, guards, coefficients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conetrace import (
    GeometricSetError,
    LinkSpectrum,
    PolicyMismatchError,
    SummationPolicy,
    abel_extrapolate,
    cos_sin_pi_nu_kernels,
    diffraction_kernel,
    half_kg_kernel,
    sine_front_coefficients,
)
from conetrace.links import DEFAULT_ABEL_R, singular_set_distance

CF = SummationPolicy.closed_form()
ABEL = SummationPolicy.abel()


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
        # at t = 0 the Abel sum is the Poisson kernel of the circle,
        # (1 - q^2) / (1 - 2 q cos u + q^2) / (2 pi) with q = r here: it
        # grows at u = 0 as r -> 1 and stays bounded at u = pi
        link = LinkSpectrum.circle(2 * np.pi)
        rs = (0.9, 0.99, 0.999)
        near = [abs(half_kg_kernel(link, 2, 0.0, 0.0, 0.0, SummationPolicy.abel(r)))
                for r in rs]
        far = [abs(half_kg_kernel(link, 2, 0.0, np.pi, 0.0, SummationPolicy.abel(r)))
               for r in rs]
        assert near[0] < near[1] < near[2]
        assert max(far) < 1.0
        for r, value in zip(rs, near):
            assert value == pytest.approx((1 + r) / (1 - r) / (2 * np.pi), rel=1e-12)

    def test_reproduces_diffraction_at_pi(self):
        link = LinkSpectrum.circle(1.5 * np.pi)
        for pol in (CF, ABEL):
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

    def test_hermitian_symmetry(self):
        link = LinkSpectrum.circle(7.0)
        for pol in (CF, ABEL):
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
        c, s = cos_sin_pi_nu_kernels(link, 2, 1.1, 0.0, ABEL)
        km = half_kg_kernel(link, 2, np.pi, 1.1, 0.0, ABEL)
        kp = half_kg_kernel(link, 2, -np.pi, 1.1, 0.0, ABEL)
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
    # the Abel policy has no singular-set guard: near the set the damped
    # value is large but finite, and still Hermitian
    link = LinkSpectrum.circle(7.0)
    a = half_kg_kernel(link, 2, np.pi, y, yp, ABEL)
    b = half_kg_kernel(link, 2, -np.pi, yp, y, ABEL)
    assert abs(a - np.conj(b)) < 1e-12


class TestPolicy:
    def test_fields_are_kind_and_r(self):
        assert [f.name for f in dataclasses.fields(SummationPolicy)] == ["kind", "r"]

    def test_one_abel_default(self):
        assert ABEL.r == SummationPolicy("abel").r == DEFAULT_ABEL_R

    @pytest.mark.parametrize("kind", ["gaussian", "cesaro", "Abel"])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(PolicyMismatchError, match="unknown policy kind"):
            SummationPolicy(kind)

    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("pol", [CF, ABEL], ids=["closed_form", "abel"])
    def test_circle_links_are_two_dimensional(self, pol, n):
        # a circle is the link of a cone only in dimension 2; every kernel
        # refuses another n rather than return a value for no cone
        link = LinkSpectrum.circle(1.5 * np.pi)
        with pytest.raises(PolicyMismatchError, match=f"n = {n}"):
            half_kg_kernel(link, n, np.pi, 1.0, 0.0, pol)
        with pytest.raises(PolicyMismatchError):
            diffraction_kernel(link, n, 1.0, 0.0, pol)
        with pytest.raises(PolicyMismatchError):
            cos_sin_pi_nu_kernels(link, n, 1.0, 0.0, pol)
        with pytest.raises(PolicyMismatchError):
            sine_front_coefficients(link, n, 1.0, 1.0, 1.0, 0.0, pol)
