"""The in-repo DOP853 kernel and Brent root finder against scipy's.

scipy.integrate.solve_ivp(method="DOP853") and scipy.optimize.brentq
are the references; the package itself no longer imports either.  The
kernel groups its stage sums differently from scipy, and the E5 error
estimate is a sum that cancels to about 1e-10 of its terms, so the two
error norms differ by up to about 1e-6 relative and the step sizes by
an eighth of that: step times are compared at 1e-6, the solutions at
the integration tolerance.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.optimize import brentq

from conetrace import ode, surfaces
from conetrace.errors import NoConvergenceError, StepFailureError
from conetrace.geodesics import ATOL, RTOL, shoot_from_tip
from conetrace.jacobi import JACOBI_ATOL

A0 = 0.75
FLOW_ATOL = [ATOL] * 4 + [JACOBI_ATOL] * 2


def test_tableau_is_scipys_bit_for_bit():
    assert np.array_equal(ode.C, scipy_tableau.C)
    assert np.array_equal(ode.A, scipy_tableau.A)
    assert np.array_equal(ode.B, scipy_tableau.B)
    assert np.array_equal(ode.E3, scipy_tableau.E3)
    assert np.array_equal(ode.E5, scipy_tableau.E5)
    assert np.array_equal(ode.D, scipy_tableau.D)


def _oscillator(t, y):
    return [y[1], -y[0]]


def _spindle_leg():
    """The band leg of a seed-0 spindle shot: from the bump's lower edge
    to its upper one, on the band's piece of the metric."""
    spindle = surfaces.perturbed_spindle(a0=A0, eps=0.05)
    path = shoot_from_tip(spindle, "south", A0 * (np.pi / 4 + 0.02), 5.0)
    leg = next(leg for leg in path.legs
               if abs(path.state(leg.s0).p[0] - 0.7) < 1e-9)
    y0 = leg.sol(leg.s0)
    rhs = spindle.chart("polar").leg_rhs(y0[:2], 1.0)  # crossed rising
    seam = (lambda y: y[0] - (np.pi - 0.7), 1.0)
    return rhs, leg.s0, leg.s0 + 5.0, y0, seam, FLOW_ATOL


def _oscillator_case():
    return (_oscillator, 0.0, 10.0, np.array([1.0, 0.0]),
            (lambda y: y[0] - 0.5, -1.0), 1e-13)


@pytest.mark.parametrize("case", [_oscillator_case, _spindle_leg],
                         ids=["oscillator", "spindle_leg"])
def test_matches_solve_ivp(case):
    fun, t0, t1, y0, (g, direction), atol = case()
    kw = dict(method="DOP853", rtol=RTOL, atol=atol, dense_output=True)
    # without events: the whole span
    ref = solve_ivp(fun, (t0, t1), y0, **kw)
    run = ode.solve(fun, t0, t1, y0, rtol=RTOL, atol=atol)
    assert run.event is None and run.t == t1
    assert len(run.sol.ts) == len(ref.sol.ts)
    np.testing.assert_allclose(run.sol.ts, ref.sol.ts, rtol=1e-6, atol=0)
    np.testing.assert_allclose(run.y, ref.y[:, -1], rtol=1e-10, atol=1e-11)
    ts = np.linspace(t0, t1, 200)
    np.testing.assert_allclose(run.sol(ts), ref.sol(ts), rtol=1e-10, atol=1e-11)
    # a float and an array read the same interpolant (summed in another order)
    for t in ts[::37]:
        np.testing.assert_allclose(run.sol(float(t)), run.sol(np.array([t]))[:, 0],
                                   rtol=4 * ode.EPS, atol=4 * ode.EPS)
    # with a terminal event
    event = lambda t, y: g(y)  # noqa: E731
    event.terminal, event.direction = True, direction
    ref = solve_ivp(fun, (t0, t1), y0, events=[event], **kw)
    run = ode.solve(fun, t0, t1, y0, rtol=RTOL, atol=atol, events=[(g, direction)])
    assert ref.status == 1 and run.event == 0
    assert run.t == pytest.approx(ref.t_events[0][0], rel=1e-14, abs=1e-14)
    assert run.sol.ts[-1] == run.t
    np.testing.assert_allclose(run.y, ref.y[:, -1], rtol=1e-10, atol=1e-11)


def test_zero_length_span():
    y0 = np.array([1.0, 2.0])
    ref = solve_ivp(_oscillator, (1.5, 1.5), y0, method="DOP853",
                    dense_output=True)
    run = ode.solve(_oscillator, 1.5, 1.5, y0, rtol=RTOL, atol=1e-13)
    assert run.t == ref.t[-1] == 1.5 and run.event is None
    np.testing.assert_array_equal(run.y, ref.y[:, -1])
    np.testing.assert_array_equal(run.sol(1.5), ref.sol(1.5))
    np.testing.assert_array_equal(run.sol(np.array([1.5, 1.5])), ref.sol([1.5, 1.5]))


def test_rhs_exception_propagates():
    class Probe(Exception):
        pass

    def fun(t, y):
        if t > 0.3:
            raise Probe
        return _oscillator(t, y)

    with pytest.raises(Probe):
        ode.solve(fun, 0.0, 1.0, [1.0, 0.0], rtol=RTOL, atol=1e-13)


def test_rhs_exception_at_a_dense_stage_comes_from_the_read():
    # dense output is built when a step's interpolant is first read, so
    # an RHS that fails only at one of its extra stages lets the solve
    # finish and fails the read of that step, not of the others
    class Probe(Exception):
        pass

    clean = ode.solve(_oscillator, 0.0, 10.0, [1.0, 0.0], rtol=RTOL, atol=1e-13)
    t0, t1 = clean.sol.ts[3], clean.sol.ts[4]
    dense_stage = t0 + ode.C[ode.N_STAGES + 1] * (t1 - t0)

    def fun(t, y):
        if t == dense_stage:
            raise Probe
        return _oscillator(t, y)

    run = ode.solve(fun, 0.0, 10.0, [1.0, 0.0], rtol=RTOL, atol=1e-13)
    np.testing.assert_array_equal(run.y, clean.y)
    run.sol(0.5 * (clean.sol.ts[2] + t0))
    with pytest.raises(Probe):
        run.sol(0.5 * (t0 + t1))
    with pytest.raises(Probe):
        run.sol(np.array([t1 - 1e-3, 9.0]))


def test_non_finite_state_fails_at_once():
    # scipy shrinks the step to its floor first, at hundreds of calls
    calls_after = []

    def fun(t, y):
        if t > 1.0:
            calls_after.append(t)
            return [math.nan, math.nan]
        return _oscillator(t, y)

    with pytest.raises(StepFailureError, match="non-finite"):
        ode.solve(fun, 0.0, 5.0, [1.0, 0.0], rtol=RTOL, atol=1e-13)
    assert len(calls_after) <= ode.N_STAGES


def test_dense_output_is_built_when_read():
    calls = []

    def fun(t, y):
        calls.append(t)
        return _oscillator(t, y)

    run = ode.solve(fun, 0.0, 10.0, [1.0, 0.0], rtol=RTOL, atol=1e-13)
    before = len(calls)
    mid = 0.5 * (run.sol.ts[3] + run.sol.ts[4])
    run.sol(mid)
    run.sol(np.array([mid, mid + 1e-9]))
    assert len(calls) == before + 3  # one step's three extra stages, once
    assert run.sol(mid)[0] == pytest.approx(math.cos(mid), abs=1e-10)


@pytest.mark.parametrize("case", [_oscillator_case, _spindle_leg],
                         ids=["oscillator", "spindle_leg"])
def test_step_end_is_read_without_its_interpolant(case):
    # at x = 1 every weight but those of y0 and F_0 = y1 - y0 is 0, so a
    # run's end reads the interpolant's value bit for bit, unbuilt
    fun, t0, t1, y0, _, atol = case()
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    run = ode.solve(counted, t0, t1, y0, rtol=RTOL, atol=atol)
    before = len(calls)
    last, end = run.sol.steps[-1], run.sol.ts[-1]
    got = run.sol(end)
    assert last._G is None and len(calls) == before
    last.coefficients()
    np.testing.assert_array_equal(got, last(end))
    np.testing.assert_array_equal(got, run.sol(np.array([end]))[:, 0])


@pytest.mark.parametrize("f,a,b,xtol", [
    (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12),
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, 2e-12),
    (lambda x: math.tanh(50 * (x - 0.3)), -1.0, 1.0, 1e-12),
    (lambda x: x - 1e-3, 0.0, 1.0, 4 * ode.EPS),
    (lambda x: x * math.exp(x) - 1, 0.0, 1.0, 1e-12),
])
def test_brent_matches_brentq(f, a, b, xtol):
    # brent's rtol and maxiter are brentq's defaults
    assert ode.BRENT_RTOL == 4 * np.finfo(float).eps and ode.BRENT_MAXITER == 100
    assert ode.brent(f, a, b, xtol=xtol) == brentq(
        f, a, b, xtol=xtol, rtol=ode.BRENT_RTOL, maxiter=ode.BRENT_MAXITER)


def test_brent_gives_up_where_brentq_does():
    # a triple root: both spend their 100 iterations without converging
    f = lambda x: (x - 0.7) ** 3  # noqa: E731
    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 2.0, xtol=1e-12)
    with pytest.raises(NoConvergenceError):
        ode.brent(f, 0.0, 2.0, xtol=1e-12)


def test_brent_needs_a_sign_change():
    with pytest.raises(ValueError):
        ode.brent(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-12)
