"""Exception hierarchy for the workbench.

Domain failures (bad geometry, axiom violations) are distinct from usage
failures (unparseable input); the CLI maps them to different exit codes.
"""


class TropicohError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(TropicohError):
    """Ambient dimensions of two objects do not match, or an index or
    coordinate lies outside the object it refers to."""


class CodimensionError(TropicohError):
    """A lattice/subspace pair does not have the required corank."""


class ComplexAxiomError(TropicohError):
    """A candidate polyhedral complex violates the intersection axioms."""


class PurityError(TropicohError):
    """An operation requiring a pure-dimensional complex got a mixed one."""


class BalancingRequiredError(TropicohError):
    """An operation requiring a balanced complex got an unbalanced one."""


class MatroidAxiomError(TropicohError):
    """A basis family violates the exchange axiom."""


class LoopError(TropicohError):
    """The matroid has a loop where a loopless one is required."""


class ColoopError(TropicohError):
    """The chosen element is a coloop where a non-coloop is required."""


class IntegralityError(TropicohError):
    """A piecewise affine function has a non-integral slope."""


class ModificationError(TropicohError):
    """The graph of the function cannot be completed to a balanced cycle."""


class NotAModificationError(TropicohError):
    """A coordinate projection is not a tropical modification."""


class UnboundedDomainError(TropicohError):
    """Integration was requested over an unbounded cell."""


class DegreeError(TropicohError):
    """A superform operation was applied in an impossible bidegree."""


class ParseError(TropicohError):
    """An input file is not well formed."""


class ValidationError(TropicohError):
    """A parsed object fails its structural consistency checks."""
