"""Exception types shared across the library.

ValueError is reserved for bad arguments and violated preconditions;
NumericalError subclasses signal breakdowns detected while computing.
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""

__all__ = [
    "NumericalError",
    "EigenConvergenceError",
    "PoleProximityError",
    "DegenerateMeasureError",
    "PositivityError",
    "BlowUpError",
    "OverlapError",
]


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures (as opposed to bad input)."""


class EigenConvergenceError(NumericalError):
    """Tridiagonal eigen-iteration did not converge, the computed
    spectrum is not numerically simple, or a spectral weight is beyond
    even its logarithm's reach."""


class PoleProximityError(NumericalError):
    """Evaluation point too close to the spectrum for a resolvent quantity."""


class DegenerateMeasureError(NumericalError):
    """The measure is numerically supported on fewer points than the
    requested matrix size: an orthogonalization norm fell below its
    floor or to 0 (from a measure), or a Hankel pivot to 1e-5 of its
    diagonal moment or below (from moments alone)."""


class PositivityError(NumericalError):
    """A Hankel pivot that must be positive is not."""


class BlowUpError(NumericalError):
    """Direct ODE integration left the trusted region."""


class OverlapError(NumericalError):
    """The two ends of a two-ended reconstruction disagree on the rows
    both rebuild: the spectral data do not determine the lattice in
    double precision."""
