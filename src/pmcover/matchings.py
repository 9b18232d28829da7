"""Complete perfect-matching enumeration and pairwise matching statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CatalogMismatch, FewerThanTwoMatchings, TooManyMatchings
from .graphs import CubicGraph, EdgeSet


@dataclass(frozen=True)
class PMCatalog:
    """The complete, canonically ordered list of perfect matchings of a graph.

    Matchings are sorted by ascending bit pattern, so catalog indices are
    deterministic across runs.  The derived views every solver reads
    (``masks``, ``by_edge``, ``union``) are each built at most once, on
    first access.
    """

    graph: CubicGraph
    matchings: tuple[EdgeSet, ...]

    @property
    def count(self) -> int:
        return len(self.matchings)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.matchings)

    @cached_property
    def by_edge(self) -> tuple[tuple[int, ...], ...]:
        """For each edge, the ascending indices of the members containing it."""
        lists: list[list[int]] = [[] for _ in range(self.graph.m)]
        for i, mask in enumerate(self.masks):
            bits = mask
            while bits:
                low = bits & -bits
                lists[low.bit_length() - 1].append(i)
                bits ^= low
        return tuple(map(tuple, lists))

    @cached_property
    def union(self) -> int:
        """Bitmask of the edges lying in at least one member."""
        bits = 0
        for mask in self.masks:
            bits |= mask
        return bits

    def index_of(self, pm: EdgeSet) -> int:
        """Catalog index of a matching (ValueError if absent)."""
        return self.matchings.index(pm)


def check_catalog(g: CubicGraph, catalog: PMCatalog) -> None:
    if catalog.graph != g:
        raise CatalogMismatch("catalog was built for a different graph")


def check_max_matchings(max_matchings: int | None) -> None:
    if max_matchings is not None and max_matchings < 0:
        raise ValueError(f"max_matchings must be nonnegative, got {max_matchings}")


def enumerate_perfect_matchings(
    g: CubicGraph, max_matchings: int | None = None
) -> PMCatalog:
    """All perfect matchings, each exactly once, canonically sorted.

    Backtracking: repeatedly saturate the lowest-indexed free vertex,
    branching over its incident edges in ascending index order.
    """
    check_max_matchings(max_matchings)
    full = (1 << g.n) - 1
    incidence = g.incidence
    edges = g.edges
    found: list[int] = []

    def extend(saturated: int, chosen: int) -> None:
        if saturated == full:
            found.append(chosen)
            if max_matchings is not None and len(found) > max_matchings:
                raise TooManyMatchings(
                    f"more than {max_matchings} perfect matchings"
                )
            return
        free = ~saturated & full
        v = (free & -free).bit_length() - 1
        for e in incidence[v]:
            a, b = edges[e]
            w = b if a == v else a
            if not (saturated >> w) & 1:
                extend(saturated | (1 << v) | (1 << w), chosen | (1 << e))

    extend(0, 0)
    found.sort()
    return PMCatalog(g, tuple(EdgeSet(g.m, bits) for bits in found))


@dataclass(frozen=True)
class PairStats:
    """Extremes of |Mi ∩ Mj| and |Mi ∪ Mj| over unordered catalog pairs."""

    min_intersection: int
    argmin: tuple[int, int]
    max_union: int
    argmax: tuple[int, int]


def pm_pair_stats(catalog: PMCatalog) -> PairStats:
    """Exact pair extremes with lexicographically smallest witness pairs.

    Every perfect matching has n/2 edges, so |Mi ∪ Mj| = n - |Mi ∩ Mj|:
    the pair of least intersection is also the pair of largest union.
    """
    if catalog.count < 2:
        raise FewerThanTwoMatchings("need at least two perfect matchings")
    masks = catalog.masks
    best = catalog.graph.n  # above any intersection, which has <= n/2 edges
    best_pair = (0, 1)
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            inter = (mi & masks[j]).bit_count()
            if inter < best:
                best = inter
                best_pair = (i, j)
    return PairStats(best, best_pair, catalog.graph.n - best, best_pair)


def matching_line(g: CubicGraph, pm: EdgeSet) -> str:
    """Render a matching as sorted "u-v" pairs, e.g. "0-10 1-5 ..."."""
    pairs = sorted(g.endpoints(e) for e in pm)
    return " ".join(f"{u}-{v}" for u, v in pairs)
