"""Complete perfect-matching enumeration and pairwise matching statistics."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CatalogMismatch,
    EnumerationTooDeep,
    FewerThanTwoMatchings,
    TooManyMatchings,
)
from .graphs import CubicGraph, EdgeSet, _bfs_forest


@dataclass(frozen=True)
class PMCatalog:
    """The complete, canonically ordered list of perfect matchings of a graph.

    Matchings are sorted by ascending bit pattern, so catalog indices are
    deterministic across runs.  The derived views every solver reads
    (``masks``, ``by_edge``, ``union``, ``index_by_mask``, ``pair_stats``)
    are each built at most once, on first access.
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

    @cached_property
    def index_by_mask(self) -> dict[int, int]:
        """The catalog index of each member's bitmask."""
        return {mask: i for i, mask in enumerate(self.masks)}

    def index_of(self, pm: EdgeSet) -> int:
        """Catalog index of a matching (ValueError if absent)."""
        i = self.index_by_mask.get(pm.bits) if pm.width == self.graph.m else None
        if i is None:
            raise ValueError(f"{pm!r} is not in the catalog")
        return i

    @cached_property
    def pair_stats(self) -> PairStats:
        """Extremes of the pair intersections and unions, lex-smallest witnesses.

        Every perfect matching has n/2 edges, so |Mi ∪ Mj| = n - |Mi ∩ Mj|:
        the pair of least intersection is also the pair of largest union.
        The first disjoint pair ends the scan: no pair can beat it, and every
        earlier pair comes first in lex order.
        """
        if self.count < 2:
            raise FewerThanTwoMatchings("need at least two perfect matchings")
        masks = self.masks
        best = self.graph.n  # above any intersection, which has <= n/2 edges
        best_pair = (0, 1)
        for i, mi in enumerate(masks):
            for j in range(i + 1, len(masks)):
                inter = (mi & masks[j]).bit_count()
                if inter < best:
                    best = inter
                    best_pair = (i, j)
                    if inter == 0:
                        return PairStats(0, best_pair, self.graph.n)
        return PairStats(best, best_pair, self.graph.n - best)


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

    Backtracking: repeatedly saturate the first free vertex in BFS-forest
    order, branching over its incident edges.  Following the BFS order keeps
    the saturated region connected, so few branches strand a free vertex
    whose neighbours are all taken.  Bit p of ``saturated`` stands for the
    p-th vertex in that order.  The recursion is n/2 deep, so a graph too
    big for the interpreter's recursion limit raises EnumerationTooDeep.
    """
    check_max_matchings(max_matchings)
    full = (1 << g.n) - 1
    order = [v for v, _ in _bfs_forest(g)]
    position = [0] * g.n
    for p, v in enumerate(order):
        position[v] = p
    # options[p]: (edge bit, bit of the other end's position) per incident edge
    options = [
        tuple((1 << e, 1 << position[g.other_end(e, v)]) for e in g.incidence[v])
        for v in order
    ]
    found: list[int] = []

    def extend(saturated: int, chosen: int) -> None:
        if saturated == full:
            found.append(chosen)
            if max_matchings is not None and len(found) > max_matchings:
                raise TooManyMatchings(
                    f"more than {max_matchings} perfect matchings"
                )
            return
        low = ~saturated & (saturated + 1)  # the first free position's bit
        for edge_bit, end_bit in options[low.bit_length() - 1]:
            if not saturated & end_bit:
                extend(saturated | low | end_bit, chosen | edge_bit)

    try:
        extend(0, 0)
    except RecursionError:
        raise EnumerationTooDeep(
            f"a graph with n={g.n} vertices is too big to enumerate: the search "
            f"recurses n/2 deep, past the recursion limit {sys.getrecursionlimit()}"
        ) from None
    found.sort()
    return PMCatalog(g, tuple(EdgeSet(g.m, bits) for bits in found))


@dataclass(frozen=True)
class PairStats:
    """Extremes of |Mi ∩ Mj| and |Mi ∪ Mj| over unordered catalog pairs."""

    min_intersection: int
    argmin: tuple[int, int]
    max_union: int


def pm_pair_stats(catalog: PMCatalog) -> PairStats:
    """Exact pair extremes with lexicographically smallest witness pairs.

    Raises FewerThanTwoMatchings on a catalog of fewer than two members.
    """
    return catalog.pair_stats


def matching_line(g: CubicGraph, pm: EdgeSet) -> str:
    """Render a matching as sorted "u-v" pairs, e.g. "0-10 1-5 ..."."""
    pairs = sorted(g.endpoints(e) for e in pm)
    return " ".join(f"{u}-{v}" for u, v in pairs)
