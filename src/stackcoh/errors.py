"""Exception taxonomy shared by all modules."""


class StackcohError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(StackcohError):
    """Matrix or complex shapes are incompatible."""


class InvariantViolation(StackcohError):
    """A structural invariant (d^2 = 0, commutation, axioms) fails.

    Carries an optional ``location`` (JSON-pointer style) for CLI input errors.
    """

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.location = location


class TruncationBoundary(StackcohError):
    """A degree beyond the certified truncation range was requested."""


class TruncationMismatch(StackcohError):
    """Bisimplicial truncations disagree where equality is required."""


class NotFunctorial(StackcohError):
    """A group element fails to act functorially on the atlas groupoid."""


class SimplicialIdentityFailure(InvariantViolation):
    """Face identities fail on a constructed simplicial object."""


class RepresentativeDriftError(StackcohError):
    """An induced map on cohomology left the tracked representative space."""


class NonEquivariantCoefficients(StackcohError):
    """A coefficient complex differential fails to commute with the action."""


class NotClosedUnderOperators(StackcohError):
    """The joint kernel of the Lie derivatives is not operator-stable."""


class NonInvertibleOrder(StackcohError):
    """The field characteristic divides the order of an averaging group."""


class NonEquivariantInput(StackcohError):
    """Supplied symmetry matrices fail to commute with the differentials."""


class UnsupportedRegime(StackcohError):
    """Positive-dimensional Lie data passed to a discrete-only operation."""


class DegreeMismatch(StackcohError):
    """Cochain degrees are inconsistent for the requested operation."""


class SchemaError(StackcohError):
    """CLI input does not match the JSON schema."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.location = location


class NoSolution(StackcohError):
    """A linear system that was expected to be consistent is not."""
