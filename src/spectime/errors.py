"""Exception hierarchy shared by all spectime modules."""


class SpectimeError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteEntryError(SpectimeError):
    """A data matrix, a label or a rank holds a NaN or infinite entry."""

    def __init__(self, row: int, col: int, message: str = ""):
        self.row = int(row)
        self.col = int(col)
        super().__init__(message or f"non-finite entry at ({self.row}, {self.col})")


class TooFewPointsError(SpectimeError):
    """Fewer than two data points were supplied, fewer than three for a
    closed loop, or none to a closed-loop metric."""


class DimensionMismatchError(SpectimeError):
    """Two vectors or matrices have incompatible shapes."""


class LengthMismatchError(SpectimeError):
    """Two sequences that must be equally long are not."""


class NotAPermutationError(SpectimeError):
    """A ranking vector is not a bijection on {0..N-1}."""


class BadCellError(SpectimeError):
    """A CSV cell does not parse as a number."""


class BadIndexError(SpectimeError):
    """The index column of a CSV file does not hold 0..N-1 exactly once each."""


class DisconnectedGraphError(SpectimeError):
    """The kernel graph has more than one component (some point has no
    neighbour above rounding, or L's zero eigenvalue repeats); the
    bandwidth is too small."""


class CoincidentPointsError(SpectimeError):
    """All points coincide; a bandwidth cannot be read from their distances."""


class NoConvergenceError(SpectimeError):
    """The eigensolver failed to reach its residual target."""

    def __init__(self, applications: int, message: str):
        self.applications = int(applications)  # vectors the solver applied its operator to
        super().__init__(message)


class EmptyInteriorError(SpectimeError):
    """No point falls inside the requested interior window."""


class ZeroNormError(SpectimeError):
    """A matrix with zero Frobenius norm cannot normalize an error."""


class RankTooLargeError(SpectimeError):
    """Requested projection rank exceeds min(d, N)."""


class DegenerateSketchError(SpectimeError):
    """The randomized sketch has no signal (largest singular value is 0)."""


class ZeroSignalError(SpectimeError):
    """Cannot scale noise against an all-zero signal matrix."""


class DegenerateBaselineError(SpectimeError):
    """The pairwise-comparison similarity is constant; no Fiedler ordering exists."""


class LabelRangeError(SpectimeError, ValueError):
    """A time label lies outside [0, 2*pi]."""


class ConfigError(SpectimeError, ValueError):
    """A run setting outside the range of the stage that reads it."""
