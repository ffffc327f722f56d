"""Exception types shared across the package."""


class GrpalgError(Exception):
    """Base class for all package errors."""


class NotPrime(GrpalgError):
    pass


class NotAssociative(GrpalgError):
    pass


class NoIdentity(GrpalgError):
    pass


class NoInverse(GrpalgError):
    pass


class BadPresentation(GrpalgError):
    pass


class NotMetabelian(GrpalgError):
    pass


class NotSemisimple(GrpalgError):
    pass


class EvenQ(GrpalgError):
    pass


class NoClosedForm(GrpalgError, ValueError):
    """The family's closed form does not cover these parameters (m = 1
    when q = 3 mod 4); the group exists and the engine decomposes it."""


class InternalInconsistency(GrpalgError):
    """An internal invariant failed; indicates a bug, not bad input."""


class InvariantViolation(GrpalgError):
    """A verified algebraic invariant failed.  Carries a witness payload."""

    def __init__(self, invariant, witness=None):
        super().__init__(f"{invariant} (witness: {witness!r})")
        self.invariant = invariant
        self.witness = witness
