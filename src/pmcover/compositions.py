"""Graph-building operators: 2-cut and 3-cut connections and the K4 pattern.

Every result records the linking edges it created in ``principal_cuts``
(one 2-cut, one 3-cut, or the four 3-cuts of the K4 pattern), so covering
solvers can assert cut-based facts without re-deriving the construction.
"""

from __future__ import annotations

from .errors import BadEdgeIndex, BadVertex, ConstructionFailed
from .graphs import CubicGraph, edges_joining, find_bridges
from .generators import petersen, theta


def two_cut_join(
    g1: CubicGraph, e1: int, g2: CubicGraph, e2: int
) -> CubicGraph:
    """Delete one edge in each graph and bridge the stubs pairwise.

    Endpoints are matched by ascending vertex label: the smaller endpoints
    of the two deleted edges are joined, likewise the larger ones.  The two
    linking edges form the recorded 2-cut.
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
    links = [(u1, u2 + off), (v1, v2 + off)]
    edges += links
    out = CubicGraph(g1.n + g2.n, edges)
    return CubicGraph(
        out.n, out.edges, principal_cuts=(edges_joining(out, links),)
    )


def _delete_vertex(
    g: CubicGraph, v: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges of g - v (relabeled densely) and v's neighbors in edge order."""
    if not 0 <= v < g.n:
        raise BadVertex(f"vertex {v} out of range")
    relabel = [w if w < v else w - 1 for w in range(g.n)]
    stubs = [relabel[g.other_end(e, v)] for e in g.incident(v)]
    edges = [
        (relabel[a], relabel[b])
        for e, (a, b) in enumerate(g.edges)
        if e not in g.incident(v)
    ]
    return edges, stubs


def three_cut_join(
    g1: CubicGraph, v1: int, g2: CubicGraph, v2: int
) -> CubicGraph:
    """Delete one vertex in each graph and join the stubs pairwise.

    Stubs pair up by ascending incident-edge index at the deleted vertices;
    the three linking edges form the recorded principal 3-edge cut.
    """
    edges1, stubs1 = _delete_vertex(g1, v1)
    edges2, stubs2 = _delete_vertex(g2, v2)
    off = g1.n - 1
    edges = list(edges1) + [(a + off, b + off) for a, b in edges2]
    links = [(s1, s2 + off) for s1, s2 in zip(stubs1, stubs2)]
    edges += links
    out = CubicGraph(g1.n + g2.n - 2, edges)
    return CubicGraph(
        out.n, out.edges, principal_cuts=(edges_joining(out, links),)
    )


# one linking edge between each pair of the four blocks, labeling each
# block's stubs a, b, c by ascending incident-edge index
_K4_LINKS = (
    (0, "a", 2, "a"),  # a1 - a3
    (0, "b", 3, "a"),  # b1 - a4
    (0, "c", 1, "c"),  # c1 - c2
    (1, "b", 3, "c"),  # b2 - c4
    (1, "a", 2, "c"),  # a2 - c3
    (2, "b", 3, "b"),  # b3 - b4
)


def k4_composition(
    blocks: list[tuple[CubicGraph, int]]
) -> CubicGraph:
    """Join four vertex-deleted blocks in the K4 pattern.

    Deletes each distinguished vertex and adds one linking edge between
    every pair of blocks; the recorded cuts are the four principal 3-edge
    cuts, one around each block.
    """
    if len(blocks) != 4:
        raise BadVertex("K4 composition needs exactly four blocks")
    offsets: list[int] = []
    edges: list[tuple[int, int]] = []
    stub_of: list[dict[str, int]] = []
    total = 0
    for g, v in blocks:
        block_edges, stubs = _delete_vertex(g, v)
        offsets.append(total)
        edges += [(a + total, b + total) for a, b in block_edges]
        stub_of.append(
            {"a": stubs[0] + total, "b": stubs[1] + total, "c": stubs[2] + total}
        )
        total += g.n - 1
    links = [
        (stub_of[i][x], stub_of[j][y]) for i, x, j, y in _K4_LINKS
    ]
    edges += links
    out = CubicGraph(total, edges)
    cuts = []
    for b in range(4):
        touching = [
            links[idx]
            for idx, (i, _, j, _) in enumerate(_K4_LINKS)
            if b in (i, j)
        ]
        cuts.append(edges_joining(out, touching))
    return CubicGraph(out.n, out.edges, principal_cuts=tuple(cuts))


def tau5odd_example() -> CubicGraph:
    """The 20-vertex K4 composition of two Petersen blocks and two thetas."""
    g = k4_composition(
        [(petersen(), 0), (petersen(), 0), (theta(), 0), (theta(), 0)]
    )
    if g.n != 20 or g.m != 30 or not g.is_simple() or find_bridges(g):
        raise ConstructionFailed("composition lost its expected shape")
    return g
