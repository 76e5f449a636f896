"""Exception types raised across the package.

Validation problems (bad domains, mismatched grids, malformed weights,
configuration mistakes) derive from ValueError; numerical failures
(eigensolver breakdown, unresolvable degeneracy) derive from RuntimeError.
The CLI maps the first family to exit code 2 and the second to exit code 3.
"""


class InvalidDomainError(ValueError):
    """Grid domain preconditions violated (x_min >= x_max, n < 2, ...)."""


class GridMismatchError(ValueError):
    """Sample vector or operator does not match the expected grid."""


class AsymmetricGridError(ValueError):
    """Operation requires a symmetric grid (x_min == -x_max)."""


class PotentialError(ValueError):
    """Potential coefficients are malformed or not confining."""


class TruncatedSpectrumError(ValueError):
    """Operation requires the complete eigenbasis but got fewer modes."""


class TruncatedOperatorError(ValueError):
    """Identity check applied to an operator flagged as truncated."""


class NonUnimodularWeightError(ValueError):
    """Grading weights must all have unit modulus."""


class UnnormalizedStateError(ValueError):
    """State vector must have Euclidean norm 1."""


class ConfigError(ValueError):
    """Experiment configuration is invalid or incomplete."""


class EigensolverError(RuntimeError):
    """The eigensolver failed to converge or returned an unusable basis."""


class DegenerateSpectrumError(EigensolverError):
    """Near-degenerate eigenvalues could not be resolved.

    Signals a discretization pathology: an unreduced Jacobi matrix has
    simple eigenvalues in exact arithmetic, so a gap below the guard without
    an exact reflection symmetry to separate the pair, or parity blocks
    whose eigenvalues do not alternate, means the computed eigenvectors are
    unreliable.
    """


class SuiteStageError(RuntimeError):
    """A verification-suite stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"verification stage '{stage}' failed: {cause}")
        self.stage = stage
