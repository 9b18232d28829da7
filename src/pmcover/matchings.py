"""Perfect-matching enumeration into edge-bitmask catalogs, and pair statistics."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CatalogError,
    CatalogMismatch,
    EnumerationTooDeep,
    FewerThanTwoMatchings,
    TooManyMatchings,
)
from .gf2 import gf2_row_reduction, gf2_signed_weights
from .graphs import CubicGraph, EdgeSet, _bfs_forest


@dataclass(frozen=True)
class PMCatalog:
    """The complete, canonically ordered list of perfect matchings of a graph.

    Members are stored as sorted edge bitmasks (ints in 0..2^m - 1), so
    catalog indices are deterministic.  Each view is built once, on first
    access: ``edge_rows`` (the transpose) and its GF(2) views, ``pair_stats``,
    ``index_by_mask`` and ``matchings``, the ``EdgeSet``s that no solver reads.
    """

    graph: CubicGraph
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.graph.m
        for i, mask in enumerate(self.masks):
            if type(mask) is not int or mask < 0 or mask >> m:
                raise CatalogError(f"member {i} is {mask!r}, not in 0..2^{m} - 1")

    @property
    def count(self) -> int:
        return len(self.masks)

    @cached_property
    def matchings(self) -> tuple[EdgeSet, ...]:
        return tuple(EdgeSet(self.graph.m, mask) for mask in self.masks)

    def check_member(self, i: int) -> int:
        """i itself; CatalogError unless 0 <= i < count (no wrap-around)."""
        if not 0 <= i < self.count:
            raise CatalogError(f"member index {i} is outside a catalog of {self.count}")
        return i

    @cached_property
    def edge_rows(self) -> tuple[int, ...]:
        """Row e of the edge x member matrix: bit i set when member i holds e.

        The transpose of ``masks``, read off their binary strings joined
        from the last member to the first: row e is every m-th character,
        starting at edge e's place.
        """
        m = self.graph.m
        bits = "".join(format(mask, f"0{m}b") for mask in reversed(self.masks))
        return tuple(int(bits[m - 1 - e :: m] or "0", 2) for e in range(m))

    @cached_property
    def edge_row_reduction(self) -> tuple[tuple[int, ...], bool]:
        """``gf2_row_reduction`` of the edge rows: one reduction that gives
        both ``edge_row_basis`` and ``all_ones_in_span``."""
        return gf2_row_reduction(self.edge_rows)

    @property
    def edge_row_basis(self) -> tuple[int, ...]:
        """The edge rows independent of those before them; their number is
        the GF(2) rank of the edge x member matrix."""
        return self.edge_row_reduction[0]

    @property
    def all_ones_in_span(self) -> bool:
        """Whether the all-ones vector lies in the GF(2) span of the members:
        whether some set of them covers every edge an odd number of times,
        that is, whether no odd set of edge rows sums to 0."""
        return self.edge_row_reduction[1]

    @cached_property
    def weight_enumerator(self) -> tuple[tuple[int, int], ...]:
        """``gf2_signed_weights`` of the row space of the edge x member matrix.

        One bit-sliced pass over the 2^rank combinations of
        ``edge_row_basis`` on 2^rank-bit integers, whose time and memory
        double with each step of the rank (about 0.015 s at rank 20 and
        0.2 s at rank 23), so callers bound the rank before they read it.
        """
        return gf2_signed_weights(self.edge_row_basis, self.count)

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


def _too_deep(g: CubicGraph) -> EnumerationTooDeep:
    return EnumerationTooDeep(
        f"a graph with n={g.n} vertices is too big to enumerate: the search "
        f"recurses n/2 deep, past the recursion limit {sys.getrecursionlimit()}"
    )


def check_enumeration_depth(g: CubicGraph) -> None:
    """Raise EnumerationTooDeep when the n/2-deep enumeration, called from
    the caller's frame, would pass the recursion limit.

    Only the frames already on the stack are counted, so a graph this lets
    through can still fail inside ``enumerate_perfect_matchings``, a few
    frames deeper, with the same error.
    """
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if depth + g.n // 2 > sys.getrecursionlimit():
        raise _too_deep(g)


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
        raise _too_deep(g) from None
    found.sort()
    return PMCatalog(g, tuple(found))


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
