"""Exception types shared across the package.

Everything derives from RgpError so callers (and the CLI) can catch domain
failures in one place without swallowing genuine bugs.
"""


class RgpError(ValueError):
    """Base class for all domain errors raised by this package."""


# --- combinatorial map construction -----------------------------------------

class InvalidMap(RgpError):
    """A permutation triple violates the combinatorial-map axioms."""


class DanglingHalfEdge(RgpError):
    """A rotation mentions a half-edge that no edge declaration binds,
    or an edge references an id that appears in no rotation."""


class DuplicateId(RgpError):
    """An identifier is declared twice where uniqueness is required."""


class OddIncidence(RgpError):
    """An edge declaration does not supply exactly two distinct half-edge ends."""


# --- graph operations ---------------------------------------------------------

class UnknownEdge(RgpError):
    """An operation referenced an edge label that the graph does not have."""


class TooLarge(RgpError):
    """An enumeration guard tripped; pass a larger bound to override."""


class NotATree(RgpError):
    """The closed-form tree evaluator got a graph that is not a tree."""


class NotACycle(RgpError):
    """The closed-form cycle evaluator got a graph that is not an untwisted cycle."""


class NoFlags(RgpError):
    """The quadratic-form polynomial needs at least one flag."""


class InvalidArgument(RgpError):
    """An argument lies outside the values the function accepts (a negative
    power or exponent, an unknown variable kind, an edge end other than 1 or 2,
    a twist other than 0 or 1)."""


class UnknownMethod(RgpError):
    """A strategy, method or r-rule name is not one the function knows."""


class SelfCheckFailed(RgpError):
    """An internal consistency check failed: two routes that must agree did
    not.  This signals a bug in the package, not bad input."""


class NotOrientable(RgpError):
    """The operation is only defined for orientable maps."""


class NotConnected(RgpError):
    """The operation is only defined for connected graphs."""


class HasFlags(RgpError):
    """The operation is only defined for graphs without flags."""


# --- polynomials ---------------------------------------------------------------

class MissingVariable(RgpError):
    """Numeric evaluation hit a variable with no assigned value."""


class ParseError(RgpError):
    """Input text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif position is not None:
            loc = f" (at position {position})"
        super().__init__(f"{message}{loc}")
        self.position = position
        self.line = line
