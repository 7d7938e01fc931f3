"""Exception taxonomy.

Validation errors mean the input object is not what it claims to be
(not a group table, not an automorphism, ...).  Operation errors mean a
well-formed request could not be carried out (mismatched groups,
exhausted budgets, empty targets).  Every order cap and work budget in
the library raises SearchBudgetExceeded, naming its group; CapExceeded
is validation: a permutation group whose closure outgrows its cap.
The CLI maps validation/parse failures to exit code 2, a failed
guaranteed postcondition (SoundnessError) to exit code 3, and every
other error, operation failures included, to exit code 1.  Whatever the
CLI's argv alone decides (the count and kind of --set values, a spec's
kind or torsion exponent, the --at list and its count) is a ParseError,
raised before any catalog is read, so it exits 2.
"""


class FinhaarError(Exception):
    """Base class for all package errors."""


class ValidationError(FinhaarError):
    """A constructed object failed its structural validation."""


class NoIdentity(ValidationError):
    pass


class NoInverse(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class InvalidPermutation(ValidationError):
    pass


class CapExceeded(ValidationError):
    pass


class NotBijective(ValidationError):
    pass


class NotMultiplicative(ValidationError):
    pass


class OrderNotDividing3(ValidationError):
    pass


class NotSurjective(ValidationError):
    pass


class OperationError(FinhaarError):
    """A valid request that cannot be satisfied."""


class GroupMismatch(OperationError):
    pass


class UnitBallViolated(OperationError):
    pass


class EmptyBase(OperationError):
    pass


class EmptyTarget(OperationError):
    pass


class WrongKind(OperationError):
    pass


class SearchBudgetExceeded(OperationError):
    """Past an order cap or a work budget; the message starts with the group's label."""


class SoundnessError(FinhaarError):
    """An internal postcondition that is mathematically guaranteed failed.

    Raised only if the implementation itself is wrong; never part of the
    normal control flow.
    """


class ParseError(FinhaarError):
    """Malformed catalog file or entry."""
