"""Exception hierarchy shared across the package."""


class ConeSpectraError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateFrame(ConeSpectraError):
    """A vector frame has lower rank than the operation requires."""


class NonPositiveDefinite(ConeSpectraError):
    """A metric matrix is not symmetric positive definite."""


class InvalidMesh(ConeSpectraError):
    """A triangle mesh is not closed, oriented, manifold and non-degenerate."""


class CutoffExceeded(ConeSpectraError):
    """A kernel-dimension query needs eigenvalues beyond the spectrum's
    completeness cutoff.  Never silently truncated."""


class MissingSymmetryData(ConeSpectraError):
    """A cone component lacks the symmetry-group dimension needed here."""


class MissingStratumData(ConeSpectraError):
    """A cone component lacks the stratum dimension needed here."""


class RateOnWall(ConeSpectraError):
    """A weight parameter coincides with an indicial root."""


class NonIntegerIndex(ConeSpectraError):
    """Half-integer end contributions failed to sum to an integer,
    which signals inconsistent input kernel tables."""


class NonPositiveArea(ConeSpectraError):
    """An area argument must be strictly positive."""


class QuadratureFailure(ConeSpectraError):
    """Computed Lawlor angles failed their postcondition: the sum is not pi."""


class NoConvergence(ConeSpectraError):
    """An iterative solver ran out of iterations.

    Carries the last residual norm in ``residual`` when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class FitUnstable(ConeSpectraError):
    """A least-squares decay fit had too large a residual to be trusted."""


class DegenerateAngles(ConeSpectraError):
    """Plane angles hit the degenerate boundary {0, pi}."""


class ValidationError(ConeSpectraError):
    """Invalid user-supplied parameters (CLI exit code 2)."""
