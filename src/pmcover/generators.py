"""Constructors for the named graphs and snark families, plus random cubic graphs.

Vertex labelings are documented per generator and stable across runs, so
edge indices (and therefore matching catalogs) are reproducible.
"""

from __future__ import annotations

import random

from .edge_coloring import is_three_edge_colorable
from .errors import (
    ChordedCycle,
    ConstructionFailed,
    EvenK,
    InvalidParams,
)
from .graphs import (
    CubicGraph,
    EdgeSet,
    TwoFactor,
    edges_joining,
    find_bridges,
    is_perfect_matching,
    two_factor_of,
)

PETERSEN_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)

def petersen() -> CubicGraph:
    """Petersen graph: outer 5-cycle 0-4, spokes i-(i+5), inner pentagram."""
    return CubicGraph(10, PETERSEN_EDGES)


def k4() -> CubicGraph:
    return CubicGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k33() -> CubicGraph:
    """Complete bipartite graph on parts {0,1,2} and {3,4,5}."""
    return CubicGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def theta() -> CubicGraph:
    """The cubic graph on two vertices: three parallel edges."""
    return CubicGraph(2, [(0, 1), (0, 1), (0, 1)])


def prism(n: int) -> CubicGraph:
    """Two n-cycles 0..n-1 and n..2n-1 joined by spokes i-(n+i)."""
    if n < 3:
        raise InvalidParams("prism needs n >= 3")
    return permutation_graph(list(range(n)))


def blanusa(which: int) -> CubicGraph:
    """The 18-vertex Blanusa snarks, ``generalized_blanusa(which, 1)``."""
    if which not in (1, 2):
        raise InvalidParams("Blanusa snark index must be 1 or 2")
    return generalized_blanusa(which, 1)


def _require_odd(k: int) -> None:
    if k < 3 or k % 2 == 0:
        raise EvenK(f"family parameter must be odd and >= 3, got {k}")


def flower_snark(k: int) -> CubicGraph:
    """Flower snark on 4k vertices (k odd).

    Labels: x_i = i (induced k-cycle), y_i = k+i, z_i = 2k+i (the 2k-cycle
    y_0..y_{k-1} z_0..z_{k-1}), t_i = 3k+i adjacent to x_i, y_i, z_i.
    """
    _require_odd(k)
    x = lambda i: i
    y = lambda i: k + i
    z = lambda i: 2 * k + i
    t = lambda i: 3 * k + i
    edges = [(x(i), x((i + 1) % k)) for i in range(k)]
    edges += [(y(i), y(i + 1)) for i in range(k - 1)] + [(y(k - 1), z(0))]
    edges += [(z(i), z(i + 1)) for i in range(k - 1)] + [(z(k - 1), y(0))]
    for i in range(k):
        edges += [(t(i), x(i)), (t(i), y(i)), (t(i), z(i))]
    return CubicGraph(4 * k, edges)


def flower_proof_cycles(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The odd cycle pair (C, D) partitioning the flower snark.

    C is the x-cycle; D threads y_i t_i z_i through even claws and
    z_i t_i y_i through odd ones, closing with the edge z_{k-1} y_0.
    """
    _require_odd(k)
    cyc_c = tuple(range(k))
    d: list[int] = []
    for i in range(k):
        if i % 2 == 0:
            d += [k + i, 3 * k + i, 2 * k + i]
        else:
            d += [2 * k + i, 3 * k + i, k + i]
    return cyc_c, tuple(d)


GOLDBERG_BLOCK = (
    (0, 1), (1, 3), (1, 6), (3, 4), (5, 6), (2, 7),  # cycle edges within a copy
    (2, 6), (3, 7), (4, 5),                           # matching edges within a copy
)


def goldberg_graph(k: int) -> CubicGraph:
    """Goldberg graph on 8k vertices (k odd; k=5 is the Goldberg snark).

    Each copy i holds vertices a..h at 8i+0..8i+7.  Copies are chained by
    the links a_i-a_{i+1}, f_i-e_{i+1} and h_i-c_{i+1} (indices mod k); the
    in-copy wiring is the unique completion under which the three chained
    cycles below form a 2-factor and the family is not 3-edge-colourable.
    """
    _require_odd(k)
    edges: list[tuple[int, int]] = []
    for i in range(k):
        off = 8 * i
        edges += [(u + off, v + off) for u, v in GOLDBERG_BLOCK]
    for i in range(k):
        j = (i + 1) % k
        edges += [
            (8 * i + 0, 8 * j + 0),  # a_i - a_{i+1}
            (8 * i + 5, 8 * j + 4),  # f_i - e_{i+1}
            (8 * i + 7, 8 * j + 2),  # h_i - c_{i+1}
        ]
    g = CubicGraph(8 * k, edges)
    two_factor_from_cycles(g, goldberg_proof_cycles(k))  # checks the wiring
    return g


def goldberg_proof_cycles(
    k: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The 2-factor cycles (C, D, E) of the Goldberg graph.

    C is the a-ring (length k), D runs e_i d_i b_i g_i f_i through every
    copy (length 5k), E alternates c_i h_i (length 2k, even).
    """
    _require_odd(k)
    cyc_c = tuple(8 * i for i in range(k))
    d: list[int] = []
    e: list[int] = []
    for i in range(k):
        off = 8 * i
        d += [off + 4, off + 3, off + 1, off + 6, off + 5]
        e += [off + 2, off + 7]
    return cyc_c, tuple(d), tuple(e)


def two_factor_from_cycles(
    g: CubicGraph, cycles: tuple[tuple[int, ...], ...]
) -> TwoFactor:
    """Build the TwoFactor whose cycles are the given vertex sequences.

    Raises ConstructionFailed unless the sequences are genuine cycles of g
    whose complement is a perfect matching.
    """
    used = edges_joining(
        g, (pair for cyc in cycles for pair in zip(cyc, cyc[1:] + cyc[:1]))
    )
    pm = EdgeSet(g.m, ((1 << g.m) - 1) & ~used.bits)
    if not is_perfect_matching(g, pm):
        raise ConstructionFailed("cycle complement is not a perfect matching")
    return two_factor_of(g, pm)


# generalized Blanusa blocks: an 8-vertex block cut from the Petersen graph
# by deleting two adjacent vertices, and a 10-vertex block cut by deleting
# two disjoint edges (distance 2 apart for type 1, distance 1 for type 2).
_GB_BLOCK_EDGES = (
    (0, 1), (1, 2), (0, 5), (1, 6), (2, 7),
    (3, 5), (5, 7), (4, 7), (4, 6), (3, 6),
)
_GB_BLOCK_LEFT = (2, 3)
_GB_BLOCK_RIGHT = (0, 4)
_GB_HEAD_DROP = {1: ((0, 1), (3, 8)), 2: ((0, 1), (2, 3))}


def generalized_blanusa(gtype: int, t: int) -> CubicGraph:
    """Generalized Blanusa snark: t >= 1 eight-vertex blocks and one head.

    The head block occupies vertices 0..9 and block i sits at 10+8i; the
    minimal instances (t=1) are the two classical 18-vertex snarks.
    """
    if gtype not in (1, 2):
        raise InvalidParams("type must be 1 or 2")
    if t < 1:
        raise InvalidParams("need at least one block")
    head_left, head_right = _GB_HEAD_DROP[gtype]
    drop = {head_left, head_right}
    edges = [
        e
        for e in ((min(u, v), max(u, v)) for u, v in PETERSEN_EDGES)
        if e not in drop
    ]
    offsets = [10 + 8 * i for i in range(t)]
    for off in offsets:
        edges += [(u + off, v + off) for u, v in _GB_BLOCK_EDGES]
    prev = head_right
    for off in offsets:
        edges.append((prev[0], _GB_BLOCK_LEFT[0] + off))
        edges.append((prev[1], _GB_BLOCK_LEFT[1] + off))
        prev = (_GB_BLOCK_RIGHT[0] + off, _GB_BLOCK_RIGHT[1] + off)
    edges.append((prev[0], head_left[0]))
    edges.append((prev[1], head_left[1]))
    g = CubicGraph(10 + 8 * t, edges)
    if is_three_edge_colorable(g):
        raise ConstructionFailed("generalized Blanusa instance is 3-edge-colorable")
    return g


def permutation_graph(sigma: list[int] | tuple[int, ...]) -> CubicGraph:
    """Two chordless n-cycles 0..n-1 and n..2n-1 plus spokes i-(n+sigma(i))."""
    n = len(sigma)
    if n < 3:
        raise ChordedCycle("rings of length < 3 collapse into parallel edges")
    if sorted(sigma) != list(range(n)):
        raise InvalidParams("sigma must be a permutation of 0..n-1")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + sigma[i]) for i in range(n)]
    return CubicGraph(2 * n, edges)


def random_bridgeless_cubic(n: int, seed: int = 0) -> CubicGraph:
    """Random simple connected bridgeless cubic graph via stub pairing.

    Rejection sampling over random pairings of the 3n half-edges;
    deterministic for a fixed seed.
    """
    if n < 4 or n % 2:
        raise InvalidParams("n must be even and at least 4")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    for _ in range(100000):
        rng.shuffle(stubs)
        pairs = [
            (u, v) if u < v else (v, u) for u, v in zip(stubs[::2], stubs[1::2])
        ]
        if any(u == v for u, v in pairs) or len(set(pairs)) != len(pairs):
            continue
        g = CubicGraph(n, pairs)
        if not g.is_connected() or find_bridges(g):
            continue
        return g
    raise RuntimeError(f"no bridgeless cubic graph found for n={n} seed={seed}")


def is_petersen(g: CubicGraph) -> bool:
    """Whether g is the Petersen graph up to relabelling.

    It is the only cubic graph on 10 vertices in which every vertex has all
    10 within distance 2: such a graph meets the Moore bound 1 + 3 + 6, and
    for degree 3 the Moore graph is unique (Hoffman and Singleton, 1960).
    A parallel edge or a second component leaves some vertex short.
    """
    if g.n != 10:
        return False
    near = [{g.other_end(e, v) for e in g.incidence[v]} for v in range(g.n)]
    return all(len(nbrs.union(*(near[u] for u in nbrs))) == 10 for nbrs in near)
