"""Exception hierarchy shared across the package.

Every error a caller may want to catch programmatically gets its own
class; the CLI maps them onto stable exit codes.
"""


class PermdetError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PermdetError):
    """Malformed graph or matrix input.

    ``line_no`` is the 1-based line of the offending input when known.
    """

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NotBipartiteError(PermdetError):
    """The graph admits no 2-coloring.

    ``odd_cycle`` is a witness: a vertex sequence (1-indexed labels)
    tracing an odd closed walk found during the coloring attempt.
    """

    def __init__(self, odd_cycle):
        self.odd_cycle = tuple(odd_cycle)
        walk = "-".join(str(v) for v in self.odd_cycle)
        super().__init__(f"graph is not bipartite; odd cycle witness: {walk}")


class EnumerationCapExceeded(PermdetError):
    """An exponential enumeration passed its cap, a module constant.

    ``what`` names the enumeration: ``cycle`` (``cycles.DEFAULT_CYCLE_CAP``),
    ``disjoint family`` (``cycles.DEFAULT_FAMILY_CAP``) or ``Sachs
    subgraph`` (``oracles.DEFAULT_SACHS_CAP``, which counts the components
    that search tries, not the subgraphs it finds); or the paths extended by
    the one cycle search, ``cycles.simple_cycles``: ``cycle path``
    (``cycles.DEFAULT_PATH_CAP``) for the whole graph's cycles, on the
    blocks that the cycle counts leave to the search and on every block
    that ``cycles.enumerate_cycles`` lists, and ``alternating path``
    (``matching.DEFAULT_SIGNING_CAP``) for a piece's alternating
    cycles.  The blocks that the frontier transfer matrix counts walk no
    path; their cycles count towards ``cycle``.
    """

    def __init__(self, what, cap):
        self.cap = cap
        super().__init__(f"{what} enumeration exceeded cap of {cap}")


class SizeGuardExceeded(PermdetError):
    """An exponential-time oracle was asked to run beyond its size guard."""

    def __init__(self, what, size, guard):
        self.size = size
        self.guard = guard
        super().__init__(f"{what}: size {size} exceeds guard {guard}")


class InternalInvariantError(PermdetError):
    """A result broke an invariant that holds for every valid input.

    Raised in place of ``assert``, which ``python -O`` strips; reaching it
    means a bug in this package, not bad input.
    """


class VerificationMismatch(PermdetError):
    """A cross-check between independent computations disagreed."""
