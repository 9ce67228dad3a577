"""Watching the diffracted front emerge from an exact cone spectrum.

On a flat cone the half-wave kernel can be summed mode by mode from
Bessel eigenfunctions, with no diffraction theory anywhere in the
computation.  Sampling that sum across t = x + x' and fitting the
smoothed step-plus-log basis recovers the front coefficients, which are
then compared with the closed-form prediction of the link machinery.

Uses a light frequency damping so the mode build takes about a second; the
acceptance suite runs the sharper version.
"""

import numpy as np

from conetrace import (
    LinkSpectrum,
    SummationPolicy,
    extract_front_coefficients,
    flat_cone_sine_kernel_series,
    sine_front_coefficients,
)


def main():
    rho = 1.5 * np.pi
    x = xp = 0.5
    dy = np.pi / 3
    damping = 20.0
    t0 = x + xp

    print("building the mode sum (Bessel zeros per angular mode)...")
    ts = t0 + np.linspace(-0.2, 0.2, 41)
    vals = np.array([
        flat_cone_sine_kernel_series(rho, 1.6, t, x, dy, xp, 0.0,
                                     damping=damping).real
        for t in ts
    ])
    for t, v in zip(ts[::8], vals[::8]):
        bar = "#" * int(60 * abs(v) / (abs(vals).max() + 1e-30))
        print(f"  t = {t:6.3f}  {v:+.5f}  {bar}")

    c_h, c_log, rms = extract_front_coefficients(ts, vals, t0, damping=damping)
    ref_h, ref_log = sine_front_coefficients(
        LinkSpectrum.circle(rho), 2, x, xp, dy, 0.0,
        SummationPolicy.closed_form())
    print(f"\nstep coefficient:  fit {c_h:+.5f}   closed form {ref_h.real:+.5f}"
          f"   ({abs(c_h - ref_h) / abs(ref_h):.1%} off)")
    print(f"log coefficient:   fit {c_log:+.5f}   closed form {ref_log.real:+.5f}")
    print(f"fit residual rms:  {rms:.1e}")


if __name__ == "__main__":
    main()
