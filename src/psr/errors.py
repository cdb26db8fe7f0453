"""Exception types shared across the package."""


class PsrError(Exception):
    """Base class for all errors raised by this package."""


class NotAVertex(PsrError):
    """A point claimed to be a vertex of a polyhedron is not one."""


class SizeLimit(PsrError):
    """A combinatorial enumeration exceeded its configured cap."""


class NonGeneric(PsrError):
    """An operation requiring generic displacement points met a coincidence."""


class SupportMismatch(PsrError):
    """Two cone-labelled objects live on different support cones."""


class NotARoot(PsrError):
    """A claimed root fails the vertex-sharing criterion."""


class NotLocal(PsrError):
    """A family indexed by vertices does not cover, or overruns, the vertex set."""


class BadSupport(PsrError):
    """An exponent support set is not one this routine knows how to handle."""


class BadIndex(PsrError):
    """An index (vertex, coefficient, cell) is out of range."""


class Unbounded(PsrError):
    """A polyhedron expected to be a polytope has nonzero recession cone."""


class NotDiscriminantRoot(PsrError):
    """A witness was requested for a point that is not a discriminant root."""


class InvariantError(PsrError):
    """A mathematical invariant the computation relies on does not hold.

    Raised instead of a bare assert, so the check survives python -O.
    """


class IncompleteLocal(PsrError):
    """A local solution does not have full support at its vertex."""


class UnknownSupport(PsrError):
    """No built-in discriminant exists for the requested support set."""
