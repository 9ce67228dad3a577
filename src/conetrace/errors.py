"""Exception types shared across the library.

Each error marks a contract violation with a distinct recovery story:
configuration problems, domain guards (evaluation requested on a singular
set), search failures, and degeneracies excluded by hypothesis.
"""


class ConetraceError(Exception):
    """Base class for all library errors."""


class GeometricSetError(ConetraceError):
    """Kernel evaluated too close to its singular support on the link."""


class PolicyMismatchError(ConetraceError):
    """Unknown summation policy, or an ambient dimension n != 2, which
    no circle-link kernel takes."""


class NonPositiveRadiusError(ConetraceError):
    """A radial coordinate that must be positive was not."""


class LeftAtlasError(ConetraceError):
    """A geodesic ran off the chart atlas of the surface."""


class StepFailureError(ConetraceError):
    """The ODE integrator failed to advance."""


class NoConvergenceError(ConetraceError):
    """An iterative search exhausted its iteration budget."""


class ConjugateDegeneracyError(ConetraceError):
    """Endpoints are conjugate along the path; invariants are undefined."""


class SeriesStartFailureError(ConetraceError):
    """Tip chart lacks the radial expansion needed to start a field."""


class NotStrictlyDiffractiveError(ConetraceError):
    """A junction of the closed geodesic admits a geometric continuation."""


class IllConditionedError(ConetraceError):
    """A least-squares fit matrix is numerically rank-deficient."""


class QuadratureFailureError(ConetraceError):
    """Numerical quadrature did not reach its target accuracy."""


class WallInfluenceError(ConetraceError):
    """The truncation wall is close enough to contaminate the kernel."""


class BesselFailureError(ConetraceError):
    """Bessel evaluation or zero search failed its accuracy contract."""


class NoCriticalPointError(ConetraceError):
    """The composed phase has no nondegenerate interior critical point."""


class QuadratureDivergenceError(ConetraceError):
    """Node refinement did not converge for an oscillatory integral."""


class ConfigError(ConetraceError):
    """A run configuration failed schema validation or parsing."""
