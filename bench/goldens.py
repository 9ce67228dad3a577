"""Golden outputs of the default seed (seed 0), each with a tolerance
derived from the oracle bound that certifies it and the reason for it.

Values were recorded from the workloads at seed 0.  A complex value is
stored as [real, imaginary]; its tolerance bounds the modulus of the
difference.  A miss fails the task that produced the value, so it
counts in the run's failed share.
"""

from __future__ import annotations

# criterion 9 certifies the assembled coefficient against an independent
# cut-route integral to 1e-8 relative; 100 times that admits another
# Jacobi integrator or quadrature and still catches a change in the
# assembly itself
_COEFF_WHY = ("100 x the criterion-9 two-path bound (1e-8 relative) on the "
              "coefficient's modulus")
# the closing length comes out of a Newton solve stopped at a p_theta
# miss below 1e-9 with the flow integrated at rtol 1e-11
_LENGTH_WHY = ("Newton stops at a p_theta miss below 1e-9; 1e-7 admits a "
               "different integrator or stopping rule")
_GAP_WHY = ("criterion-9 bound: any two-path gap below 1e-8 is quadrature "
            "error, so the golden gap may move by up to the bound")
# criterion 3 bounds the fitted front coefficients to 5% of
# scale = |c_H reference| = 0.28218; a tenth of that bound is far above
# what a change of Bessel quadrature moves the fit (cond 1.4e6 x 1e-12)
_FRONT_WHY = ("a tenth of the criterion-3 bound: 0.1 x 5% x scale 0.28218; "
              "quadrature-rule changes move the fit by about 1e-6")
# the smoothed trace is an exact finite sum over an exact spectrum and the
# fit's condition number is held below 1e8 by its guard, so rounding-level
# changes of the sum (truncation, merging repeated eigenvalues, another
# summation order) move a fitted value by at most about 1e8 x 1e-14
_SPECTRAL_WHY = ("fit condition guard 1e8 x summation rounding 1e-14 = 1e-6 "
                 "relative; exact spectrum, so anything larger is a real change")


def _abs(value, tol, why):
    return {"value": value, "tol": tol, "why": why}


def _rel(value, rel, why):
    size = abs(complex(*value)) if isinstance(value, list) else abs(value)
    return {"value": value, "tol": rel * size, "why": why}


GOLDENS = {
    "spindle.length": _abs(6.322629489111031, 1e-7, _LENGTH_WHY),
    "spindle.coefficient": _rel([1.5238229639290407e-14, -248.8591755582076],
                                1e-6, _COEFF_WHY),
    "spindle.cut_gap": _abs(2.486333804549972e-09, 1e-8, _GAP_WHY),
    "teardrop.length": _abs(6.3126281488606235, 1e-7, _LENGTH_WHY),
    "teardrop.coefficient": _rel([23.175891523335928, 23.17589152333593],
                                 1e-6, _COEFF_WHY),
    "teardrop.cut_gap": _abs(1.2535475323585978e-09, 1e-8, _GAP_WHY),
    "front.c_h": _abs(0.2774325939231868, 1.4e-3, _FRONT_WHY),
    "front.c_log": _abs(-0.013064251291470904, 1.4e-3, _FRONT_WHY),
    "control.c_h": _abs(0.003953998481981966, 1.4e-3, _FRONT_WHY),
    "control.c_log": _abs(-0.0010032260821287455, 1.4e-3, _FRONT_WHY),
    "corner.abs_c": _rel(0.4710114294072245, 1e-6, _SPECTRAL_WHY),
    "geodesic.abs_c": _rel(51.314141471041154, 1e-6, _SPECTRAL_WHY),
    "quiet.baseline": _rel(0.2785541454330223, 1e-6, _SPECTRAL_WHY),
}


def check(name, value):
    """(ok, detail) for an observed value against its golden."""
    ref = GOLDENS[name]["value"]
    tol = GOLDENS[name]["tol"]
    if isinstance(ref, list):
        ref = complex(*ref)
    gap = abs(value - ref)
    return gap <= tol, f"golden {name} off by {gap:.2e} <= {tol:.1e}"
