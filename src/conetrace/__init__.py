"""conetrace: wave-trace singularity invariants on conic surfaces.

The package computes, for a closed geodesic that diffracts through cone
points of a two-dimensional conic manifold, every ingredient of the
leading singularity of the wave trace at its length: diffraction
coefficients of the cone links, geodesic segments joining cone points,
Jacobi fields with their Morse indices and spreading determinants, and
the assembled singularity coefficient.  Independent numerical oracles
(Bessel mode sums on exact cones, brute-force oscillatory integrals, an
exactly enumerable spectrum) verify each layer.
"""

from .errors import *  # noqa: F401,F403
from .links import (  # noqa: F401
    DiffractionValue,
    LinkSpectrum,
    SummationPolicy,
    abel_extrapolate,
    cos_sin_pi_nu_kernels,
    diffraction_kernel,
    half_kg_kernel,
    sine_front_coefficients,
)
from .surfaces import (  # noqa: F401
    CapChart,
    OrthogonalChart,
    Surface,
    Tip,
    flat_cone,
    perturbed_spindle,
    plane,
    sphere_band,
    teardrop,
)
from .geodesics import (  # noqa: F401
    ChartState,
    ConnectResult,
    DiffractiveGeodesic,
    GeodesicPath,
    Junction,
    build_closed_diffractive,
    classify_continuation,
    connect_tips,
    geodesic_flow,
    shoot_from_tip,
)
from .jacobi import (  # noqa: F401
    JacobiSolution,
    broken_hessian,
    integrate_jacobi,
    morse_index,
    theta_spreading,
    wronskian_drift,
)
from .amplitudes import (  # noqa: F401
    CutoffSpec,
    SegmentInvariants,
    TraceSingularityPrediction,
    interior_amplitude,
    invariants_for,
    model_kernel,
    segment_invariants,
    trace_singularity,
    trace_singularity_cut_route,
)
from .besselj import (  # noqa: F401
    bessel_j,
    bessel_j_pair,
    bessel_j_zeros,
)
from .conekernel import (  # noqa: F401
    conormal_basis,
    extract_front_coefficients,
    flat_cone_sine_kernel_series,
    smoothed_heaviside,
    smoothed_log,
)
from .spectra import (  # noqa: F401
    SmoothedTrace,
    doubled_square_spectrum,
    fit_trace_singularity,
    smoothed_wave_trace,
)
from .composition import (  # noqa: F401
    CompositionGeometry,
    brute_force_composition,
    flat_collinear_geometry,
    sphere_arc_geometry,
)

__version__ = "0.1.0"
