"""Exception hierarchy for sdckit.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to exit code 2 and prints the class name.
"""


class SdckitError(Exception):
    """Base class for all sdckit errors."""


class AsymmetricMatrix(SdckitError):
    """Input matrix is too far from symmetric to be accepted."""


class NonFiniteEntry(SdckitError):
    """An input matrix has a NaN or infinite entry."""


class OrderMismatch(SdckitError):
    """Matrices in an operation do not share the same order."""


class SingularCongruence(SdckitError):
    """A matrix offered as a congruence is not certified invertible."""


class SingularA(SdckitError):
    """The leading matrix of a pencil is not certified invertible."""


class RepeatedEigenvalues(SdckitError):
    """Pencil eigenvalues are too close to separate reliably."""


class ClassificationAmbiguous(SdckitError):
    """An eigenvalue sits inside the real/complex refusal band."""


class NotPositiveDefinite(SdckitError):
    """The designated combination is not positive definite."""


class NotCommuting(SdckitError):
    """A family expected to commute does not."""


class NotDiagonalizable(SdckitError):
    """A matrix expected to be diagonalizable is not."""


class NotAsdc(SdckitError):
    """A perturbation was requested for a family that is not ASDC."""


class UnsupportedStructure(SdckitError):
    """Floating-point input whose canonical structure we refuse to guess."""


class NotSingularSpec(SdckitError):
    """A singular-pair construction was called on a nonsingular descriptor."""


class StructureMismatch(SdckitError):
    """Structured triple input violates a precondition of the construction."""


class NotInT(SdckitError):
    """Matrix is not block upper-triangular Toeplitz for the partition."""


class CertificationFailed(SdckitError):
    """A constructed object failed its own invariant check.

    This is an internal error surfaced on purpose: results are never
    returned silently when their certificates do not hold.
    """


class RealLambda(SdckitError):
    """Border-parameter recovery needs a non-real eigenvalue."""


class ResampleLimitExceeded(SdckitError):
    """Random instance generation hit the rejection limit."""


class MethodInapplicable(SdckitError):
    """Requested reformulation method cannot be applied to the instance."""


class NoPdElement(SdckitError):
    """No positive definite element found in the searched span."""


class NoConvergence(SdckitError):
    """Iterative closure did not reach a fixpoint within its budget."""


class NoInvertibleElement(SdckitError):
    """No certified-invertible element found in the searched span."""


class EmptyBox(SdckitError):
    """A sampling box has a lower bound above its upper bound."""


class EmptyFamily(SdckitError):
    """An operation requires at least one matrix."""
