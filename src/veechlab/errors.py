"""Exceptions shared across the package."""


class VeechLabError(Exception):
    """Base class for all package errors."""


class InvalidSurface(VeechLabError):
    """Polygon/gluing data does not define a translation surface."""


class BoundExceeded(VeechLabError):
    """A separatrix left the length cap before closing up.

    The direction is not certified periodic within the cap.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class IntransitiveMonodromy(VeechLabError):
    """Monodromy image does not act transitively on the fiber."""


class CapExceeded(VeechLabError):
    """Coset enumeration exceeded the configured coset cap."""


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


class SignUndetermined(VeechLabError):
    """Interval refinement did not separate a nonzero real element from 0.

    Carries the conductor of the element and the last interval precision
    tried, in bits.
    """

    def __init__(self, message, conductor=None, prec=None):
        super().__init__(message)
        self.conductor = conductor
        self.prec = prec
