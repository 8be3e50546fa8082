"""Exceptions shared across the package."""

import reprlib


class VeechLabError(Exception):
    """Base class for all package errors."""


class InvalidSurface(VeechLabError):
    """Polygon/gluing data does not define a translation surface."""


class NotVertexLevel(VeechLabError, ValueError):
    """A separatrix leaves its polygon through an edge: the direction is
    not vertex-level.  Carries the corner (polygon, vertex) it starts at."""

    def __init__(self, message, corner=None):
        super().__init__(message)
        self.corner = corner


class IntransitiveMonodromy(VeechLabError):
    """Monodromy image does not act transitively on the fiber."""


# the text of IntransitiveMonodromy, and of a failing WellFormedCover's
# witness, for d sheets
NOT_TRANSITIVE = "monodromy image is not transitive on %d sheets"


class CapExceeded(VeechLabError):
    """Coset enumeration exceeded the configured coset cap."""


class QuotientBookkeepingError(VeechLabError):
    """The coset action's orbits do not close the exact Riemann-Hurwitz
    identity of quotient.quotient_invariants."""


class NonChainError(VeechLabError):
    """Holonomy input is not a valid chain of edge segments."""


class VerificationFailure(VeechLabError):
    """A structural verification failed; carries the offending witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MalformedCertificate(VeechLabError, ValueError):
    """Certificate JSON that does not parse: a missing key, a value of the
    wrong type, a coefficient outside the grammar, an element that is not
    real, mixed conductors or an unknown kind.

    A ValueError too, so that handlers written for the untyped errors of
    earlier versions still catch it.
    """


_SHORT = reprlib.Repr()
_SHORT.maxlevel = 8  # deeper lists and dicts print as [...] and {...}
# cut well past width: a flat list, string or number shows its repr up to width
_SHORT.maxlist = _SHORT.maxdict = 40
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 240


def short_repr(value, width: int = 80) -> str:
    """At most width characters of repr(value), for an error message
    about untrusted JSON: bounded in depth, so any nesting formats."""
    return _SHORT.repr(value)[:width]


class SignUndetermined(VeechLabError):
    """Interval refinement did not separate a nonzero real element from 0.

    Carries the conductor of the element and the last interval precision
    tried, in bits.
    """

    def __init__(self, message, conductor=None, prec=None):
        super().__init__(message)
        self.conductor = conductor
        self.prec = prec
