"""Exception hierarchy.

Three tiers matter to callers: input/parse problems, violated structural
invariants of the input data, and violated hypotheses of the theorems the
library evaluates (the last group signals that a uniqueness or existence
claim failed on a concrete graph and should never be silently patched over).
"""


class PlumblatError(Exception):
    """Base class for all library errors."""


class GraphParseError(PlumblatError):
    """A graph file or cycle spec could not be parsed; carries position info."""

    def __init__(self, message, source=None, line=None, column=None):
        self.source = source
        self.line = line
        self.column = column
        where = ""
        if source is not None:
            where = f"{source}: "
        if line is not None:
            where += f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class GraphStructureError(PlumblatError):
    """The input graph violates a structural invariant."""


class NotATree(GraphStructureError):
    pass


class Disconnected(GraphStructureError):
    pass


class NotNegativeDefinite(GraphStructureError):
    """Intersection form is not negative definite.

    ``minor_index`` is the 1-based size of the first leading principal minor
    of -I that fails to be strictly positive.
    """

    def __init__(self, minor_index, message=None):
        self.minor_index = minor_index
        super().__init__(message or f"leading principal minor {minor_index} of -I is not positive")


class NoSuchVertex(PlumblatError):
    pass


class NoSuchEdge(PlumblatError):
    pass


class DisconnectedSupport(PlumblatError):
    pass


class DisconnectedSubgraph(PlumblatError):
    pass


class EmptyFeasibleRegion(PlumblatError):
    pass


class NegativeInput(PlumblatError):
    pass


class NotElliptic(PlumblatError):
    pass


class BoxTooLarge(PlumblatError):
    pass


class InvariantViolation(PlumblatError):
    """A theorem identity the library checks failed on a concrete graph."""


def check_identity(holds: bool, message: str) -> None:
    """Raise InvariantViolation unless a theorem identity holds; survives -O."""
    if not holds:
        raise InvariantViolation(message)


class HypothesisViolation(PlumblatError):
    """A theorem hypothesis failed on this input; report, do not guess."""


class ExtremalNotMinimizer(HypothesisViolation):
    """Componentwise join/meet of a minimizer set is not itself a minimizer."""


class NotInSemigroup(HypothesisViolation):
    """Chern class is not in the analytic semigroup of the generic structure."""


class NotStar(HypothesisViolation):
    """Base-point data requested at a vertex that fails the depth-one test."""
