"""Exception types shared across the toolkit.

The command line maps them to exit codes by type alone: InvalidCode (or an
OSError) exits 2, any other CodeBoundsError exits 1.
"""


class CodeBoundsError(Exception):
    """Base class for all domain errors raised by this package."""


class PreconditionViolated(CodeBoundsError):
    """Input parameters outside the operation's stated domain."""


class InvalidCode(CodeBoundsError):
    """An input code, vector set or file violates its structural invariants."""


class FileFormatError(InvalidCode):
    """A code/certificate file does not follow the documented grammar."""


class NonUnitVector(InvalidCode):
    """A vector claimed to be on the unit sphere is not (index + squared norm).

    The message prints the squared norm with ``str``: ``n`` or ``n/d`` when
    exact, as a float's repr otherwise."""

    def __init__(self, index, norm_sq):
        self.index = index
        self.norm_sq = norm_sq
        super().__init__(f"vector {index} has squared norm {norm_sq}, expected 1")


class NodeLimitExceeded(CodeBoundsError):
    """Exhaustive search ran out of nodes; carries the best witness found."""

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"node limit reached after {result.nodes} nodes "
            f"(best size found: {result.value})"
        )
