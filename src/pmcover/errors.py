"""Exception types shared across the package."""


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class MalformedGraph6(GraphError):
    """Input is not a valid graph6 line."""


class NotCubic(GraphError):
    """Some vertex does not have degree exactly 3."""


class NotSimple(GraphError):
    """Operation requires a simple graph but parallel edges are present."""


class NotPerfectMatching(GraphError):
    """Edge set is not a perfect matching of the graph."""


class Disconnected(GraphError):
    """Operation requires a connected graph."""


class BadEdgeIndex(GraphError):
    """Edge index out of range."""


class BadVertex(GraphError):
    """Vertex out of range."""


class UnknownName(GraphError):
    """No generator with that name."""


class EvenK(GraphError):
    """Family parameter k must be odd."""


class InvalidParams(GraphError):
    """Generator parameters out of range."""


class ChordedCycle(GraphError):
    """Cycle construction degenerates (needs n >= 3 distinct ring vertices)."""


class CatalogError(ValueError):
    """Base class for matching catalog errors."""


class CatalogMismatch(CatalogError):
    """Catalog does not belong to the supplied graph."""


class FewerThanTwoMatchings(CatalogError):
    """Pair statistics need at least two matchings."""


class TooManyMatchings(CatalogError):
    """Enumeration aborted because the requested cap was exceeded."""


class CoveringError(ValueError):
    """Base class for covering construction errors."""


class NotACovering(CoveringError):
    """Members do not cover every edge as their kind requires."""


class NotSize4(CoveringError):
    """Operation requires a plain covering of size exactly 4."""


class NotFRTriple(CoveringError):
    """The three matchings have a nonempty common intersection."""


class NotOdd(CoveringError):
    """Multiset does not cover every edge an odd number of times."""


class CertificateError(ValueError):
    """Base class for construction certificate errors."""


class NotOddCycles(CertificateError):
    """Good-triple search requires two odd cycles."""


class InvalidCertificate(CertificateError):
    """Certificate does not match the graph / two-factor it claims to describe."""


class ConstructionFailed(CertificateError):
    """Internal consistency assertion breached while building a covering."""


class DeadlineExceeded(Exception):
    """The per-graph deadline of ``analyze_graph`` passed."""
