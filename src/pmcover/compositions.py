"""Graph-building operators: 2-cut and 3-cut connections and the K4 pattern.

The first operand keeps its vertex labels and each later one is shifted past
the vertices before it, so the linking edges (one 2-cut, one 3-cut, or the
four 3-cuts of the K4 pattern) are the edges with exactly one end in an
operand's vertex range.  The 3-cut join and the K4 pattern share one
linker, ``_link_blocks``: it deletes a vertex per block and joins the stubs.
"""

from __future__ import annotations

from .errors import BadEdgeIndex, BadVertex, ConstructionFailed
from .graphs import CubicGraph, find_bridges
from .generators import petersen, theta


def two_cut_join(
    g1: CubicGraph, e1: int, g2: CubicGraph, e2: int
) -> CubicGraph:
    """Delete one edge in each graph and bridge the stubs pairwise.

    Endpoints are matched by ascending vertex label: the smaller endpoints
    of the two deleted edges are joined, likewise the larger ones.  The two
    linking edges form a 2-edge cut.
    """
    if not 0 <= e1 < g1.m:
        raise BadEdgeIndex(f"e1={e1} out of range")
    if not 0 <= e2 < g2.m:
        raise BadEdgeIndex(f"e2={e2} out of range")
    u1, v1 = g1.endpoints(e1)
    u2, v2 = g2.endpoints(e2)
    off = g1.n
    edges = [g1.endpoints(e) for e in range(g1.m) if e != e1]
    edges += [
        (a + off, b + off) for e, (a, b) in enumerate(g2.edges) if e != e2
    ]
    edges += [(u1, u2 + off), (v1, v2 + off)]
    return CubicGraph(g1.n + g2.n, edges)


def _link_blocks(
    blocks: list[tuple[CubicGraph, int]], links
) -> CubicGraph:
    """Delete each block's distinguished vertex and link the stubs.

    Each block is relabeled densely and shifted past the vertices of the
    blocks before it.  A link (i, x, j, y) joins stub x of block i to stub y
    of block j; a block's stubs 0, 1, 2 are the neighbours of its deleted
    vertex in ascending incident-edge order.
    """
    edges: list[tuple[int, int]] = []
    stubs: list[list[int]] = []
    total = 0
    for g, v in blocks:
        if not 0 <= v < g.n:
            raise BadVertex(f"vertex {v} out of range")
        label = [w + total - (w > v) for w in range(g.n)]
        incident = g.incidence[v]
        stubs.append([label[g.other_end(e, v)] for e in incident])
        edges += [
            (label[a], label[b])
            for e, (a, b) in enumerate(g.edges)
            if e not in incident
        ]
        total += g.n - 1
    edges += [(stubs[i][x], stubs[j][y]) for i, x, j, y in links]
    return CubicGraph(total, edges)


def three_cut_join(
    g1: CubicGraph, v1: int, g2: CubicGraph, v2: int
) -> CubicGraph:
    """Delete one vertex in each graph and join the stubs pairwise.

    Stubs pair up by ascending incident-edge index at the deleted vertices;
    the three linking edges form the principal 3-edge cut.
    """
    return _link_blocks([(g1, v1), (g2, v2)], [(0, x, 1, x) for x in range(3)])


# one linking edge between each pair of the four blocks; stubs 0, 1, 2 of
# the k-th block (k = 1..4) are named ak, bk, ck
_K4_LINKS = (
    (0, 0, 2, 0),  # a1 - a3
    (0, 1, 3, 0),  # b1 - a4
    (0, 2, 1, 2),  # c1 - c2
    (1, 1, 3, 2),  # b2 - c4
    (1, 0, 2, 2),  # a2 - c3
    (2, 1, 3, 1),  # b3 - b4
)


def k4_composition(
    blocks: list[tuple[CubicGraph, int]]
) -> CubicGraph:
    """Join four vertex-deleted blocks in the K4 pattern.

    Deletes each distinguished vertex and adds one linking edge between
    every pair of blocks, so the three linking edges at each block form its
    principal 3-edge cut.
    """
    if len(blocks) != 4:
        raise BadVertex("K4 composition needs exactly four blocks")
    return _link_blocks(blocks, _K4_LINKS)


def tau5odd_example() -> CubicGraph:
    """The 20-vertex K4 composition of two Petersen blocks and two thetas."""
    g = k4_composition(
        [(petersen(), 0), (petersen(), 0), (theta(), 0), (theta(), 0)]
    )
    if g.n != 20 or g.m != 30 or not g.is_simple() or find_bridges(g):
        raise ConstructionFailed("composition lost its expected shape")
    return g
