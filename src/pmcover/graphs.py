"""Cubic multigraph data model and structural queries.

Vertices are 0..n-1.  Edges carry dense indices 0..m-1 that stay stable for
the lifetime of a graph: the edge list is sorted by (min endpoint, max
endpoint), parallel edges sitting next to each other in insertion order.
Parallel edges are allowed (the two-vertex theta graph is a legal operand),
loops are not.  A graph is its vertex count and its edge list: equality,
hashing, pickling and graph6 read nothing else, and ``incidence[v]`` holds
the three edge ids at v.  Everything is immutable after construction, so
instances can be shared freely between threads.

Edge subsets (matchings, cuts, cycle edge sets) are ``EdgeSet`` values: a
fixed-width bit vector over edge indices backed by a plain int.

The cycles of an edge set whose degrees are all 0 or 2 (a 2-factor, the
alternating cycles of a Fan-Raspaud triple) come from one walker,
``walk_cycles``, and vertex pairs become distinct edge ids through
``edges_joining``.

Every traversal walks one BFS forest (``_bfs_forest``): connectivity counts
its roots, isomorphism maps vertices in its order, and bridges and cyclic
connectivity read cuts off the cycle-space signatures of its edges
(``_cut_signatures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    BadEdgeIndex,
    ConstructionFailed,
    Disconnected,
    NotCubic,
    NotPerfectMatching,
)

DEGREE = 3


class EdgeSet:
    """Immutable set of edge indices backed by an int bitmask."""

    __slots__ = ("width", "bits")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError("width must be nonnegative")
        if bits < 0 or bits >> width:
            raise ValueError(f"bits 0x{bits:x} do not fit in width {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    def __reduce__(self):
        return (EdgeSet, (self.width, self.bits))

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "EdgeSet":
        bits = 0
        for e in indices:
            if not 0 <= e < width:
                raise BadEdgeIndex(f"edge index {e} out of range 0..{width - 1}")
            bits |= 1 << e
        return cls(width, bits)

    def _check(self, other: "EdgeSet") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} != {other.width}")

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.width, self.bits | other.bits)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.width, self.bits & other.bits)

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.width, self.bits ^ other.bits)

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.width, self.bits & ~other.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.width and (self.bits >> e) & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __le__(self, other: "EdgeSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet)
            and self.width == other.width
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.width, self.bits))

    def __repr__(self) -> str:
        return f"EdgeSet({list(self)}, width={self.width})"


class CubicGraph:
    """Immutable 3-regular multigraph with canonically ordered edges."""

    __slots__ = ("n", "edges", "incidence", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n <= 0 or n % 2:
            raise NotCubic(f"vertex count must be positive and even, got {n}")
        normalized = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadEdgeIndex(f"edge ({u},{v}) out of vertex range 0..{n - 1}")
            if u == v:
                raise NotCubic(f"loop at vertex {u}")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        edge_tuple = tuple(normalized)
        if len(edge_tuple) != 3 * n // 2:
            raise NotCubic(
                f"expected {3 * n // 2} edges for n={n}, got {len(edge_tuple)}"
            )
        incidence: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edge_tuple):
            incidence[u].append(e)
            incidence[v].append(e)
        for v, inc in enumerate(incidence):
            if len(inc) != DEGREE:
                raise NotCubic(f"vertex {v} has degree {len(inc)}, expected {DEGREE}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_tuple)
        object.__setattr__(self, "incidence", tuple(tuple(i) for i in incidence))
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, name, value):
        raise AttributeError("CubicGraph is immutable")

    def __reduce__(self):
        return (CubicGraph, (self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.m:
            raise BadEdgeIndex(f"edge index {e} out of range 0..{self.m - 1}")
        return self.edges[e]

    def other_end(self, e: int, v: int) -> int:
        u, w = self.endpoints(e)
        if v == u:
            return w
        if v == w:
            return u
        raise BadEdgeIndex(f"vertex {v} is not an endpoint of edge {e}")

    def edge_ids_between(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(e for e in self.incidence[u] if self.other_end(e, u) == v)

    def is_simple(self) -> bool:
        return all(a != b for a, b in zip(self.edges, self.edges[1:]))

    def adjacency_counts(self) -> tuple[tuple[int, ...], ...]:
        """n x n matrix of edge multiplicities (cached)."""
        cached = self._adj
        if cached is None:
            counts = [[0] * self.n for _ in range(self.n)]
            for u, v in self.edges:
                counts[u][v] += 1
                counts[v][u] += 1
            cached = tuple(tuple(row) for row in counts)
            object.__setattr__(self, "_adj", cached)
        return cached

    def edge_set(self, indices: Iterable[int]) -> EdgeSet:
        return EdgeSet.from_indices(self.m, indices)

    def is_connected(self) -> bool:
        return sum(via == -1 for _, via in _bfs_forest(self)) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CubicGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TwoFactor:
    """Cycle decomposition complementing a perfect matching.

    Each cycle is stored as a vertex sequence starting at its minimum vertex
    and traversed toward its smaller-indexed cycle neighbor; the aligned edge
    sequence has edge k joining vertex k to vertex k+1 (cyclically).  Cycles
    are sorted by their minimum vertex.
    """

    graph: CubicGraph
    matching: EdgeSet
    cycles: tuple[tuple[int, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]

    def is_odd(self, i: int) -> bool:
        return len(self.cycles[i]) % 2 == 1

    @property
    def odd_cycle_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.cycles)) if self.is_odd(i))

    @property
    def even_cycle_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.cycles)) if not self.is_odd(i))


def is_perfect_matching(g: CubicGraph, pm: EdgeSet) -> bool:
    if pm.width != g.m or len(pm) != g.n // 2:
        return False
    seen = 0
    for e in pm:
        u, v = g.endpoints(e)
        if (seen >> u) & 1 or (seen >> v) & 1:
            return False
        seen |= (1 << u) | (1 << v)
    return seen == (1 << g.n) - 1


def walk_cycles(
    g: CubicGraph, bits: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The cycles of an edge set (a bitmask) whose degrees are all 0 or 2.

    Returns vertex sequences and aligned edge sequences, edge k joining
    vertex k to vertex k+1 (cyclically).  Each cycle starts at its minimum
    vertex and steps along its smaller edge id, which (edges being sorted by
    endpoints) also leads to its smaller neighbour; cycles are sorted by
    their minimum vertex.
    """
    inc = [[e for e in g.incidence[v] if (bits >> e) & 1] for v in range(g.n)]
    assert all(len(i) in (0, 2) for i in inc), "edge set has a degree-1 or -3 vertex"
    seen = [False] * g.n
    cycles: list[tuple[int, ...]] = []
    cycle_edges: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start] or not inc[start]:
            continue
        verts, edges = [], []
        v, e = start, inc[start][0]
        while not seen[v]:
            seen[v] = True
            verts.append(v)
            edges.append(e)
            v = g.other_end(e, v)
            f1, f2 = inc[v]
            e = f2 if f1 == e else f1
        cycles.append(tuple(verts))
        cycle_edges.append(tuple(edges))
    return tuple(cycles), tuple(cycle_edges)


def two_factor_of(g: CubicGraph, pm: EdgeSet) -> TwoFactor:
    """Decompose the complement of a perfect matching into cycles."""
    if not is_perfect_matching(g, pm):
        raise NotPerfectMatching("edge set is not a perfect matching of the graph")
    cycles, cycle_edges = walk_cycles(g, ((1 << g.m) - 1) & ~pm.bits)
    return TwoFactor(g, pm, cycles, cycle_edges)


def edges_joining(g: CubicGraph, pairs: Iterable[tuple[int, int]]) -> EdgeSet:
    """One distinct edge per vertex pair, the smallest id not yet taken."""
    used = 0
    for u, v in pairs:
        free = [e for e in g.edge_ids_between(u, v) if not (used >> e) & 1]
        if not free:
            raise ConstructionFailed(f"no unused edge {u}-{v} in the graph")
        used |= 1 << free[0]
    return EdgeSet(g.m, used)


def _bfs_forest(g: CubicGraph) -> Iterator[tuple[int, int]]:
    """(vertex, edge to its parent) over a BFS forest of g, parents first.

    Each component is rooted at its smallest vertex, whose edge is -1; the
    number of roots is the number of components.
    """
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        yield root, -1
        queue = [root]
        for v in queue:
            for e in g.incidence[v]:
                w = g.other_end(e, v)
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
                    yield w, e


def _cut_signatures(g: CubicGraph) -> list[int]:
    """A bitmask per edge whose XOR over an edge set F is 0 iff F is a cut.

    A non-tree edge e of the BFS forest has the bit 1 << e; a tree edge has
    the XOR of the bits of the non-tree edges with exactly one end below it,
    i.e. of the fundamental cycles through it.  F is a cut (the edges leaving
    some vertex set) iff it meets every cycle an even number of times, iff the
    XOR of its signatures is 0.
    """
    forest = list(_bfs_forest(g))
    tree = {via for _, via in forest}
    below = [0] * g.n  # XOR of non-tree edge bits at the vertices under v
    sig = [0] * g.m
    for e, (u, v) in enumerate(g.edges):
        if e not in tree:
            sig[e] = 1 << e
            below[u] ^= sig[e]
            below[v] ^= sig[e]
    for v, via in reversed(forest):  # children before parents
        if via != -1:
            sig[via] = below[v]
            below[g.other_end(via, v)] ^= below[v]
    return sig


def find_bridges(g: CubicGraph) -> EdgeSet:
    """All cut edges: the edges whose cut signature is 0 (multigraph aware)."""
    return g.edge_set(e for e, s in enumerate(_cut_signatures(g)) if not s)


def cyclic_connectivity_at_least(g: CubicGraph, k: int) -> bool:
    """True iff no cut of fewer than k edges separates two cycle-bearing parts.

    A side S of a c-edge cut of a cubic graph spans (3|S| - c)/2 edges, so a
    connected side holds a cycle exactly when |S| >= c.  Cuts are read off the
    cut signatures.  A bridge (signature 0) or a 2-edge cut (two equal
    signatures) always has cycles on both sides, as its sides are connected
    and |S| = c mod 2.  Without those, both sides of a 3-edge cut are
    connected, and one holds no cycle only when it is a single vertex, i.e.
    when the three edges meet at one vertex.
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    if not g.is_connected():
        raise Disconnected("cyclic connectivity needs a connected graph")
    sig = _cut_signatures(g)
    edge_of = {s: e for e, s in enumerate(sig)}
    if k >= 2 and 0 in edge_of:
        return False
    if k >= 3 and len(edge_of) < g.m:
        return False
    if k >= 4:
        for e, f in combinations(range(g.m), 2):
            h = edge_of.get(sig[e] ^ sig[f])
            if h is not None and not any(
                {e, f, h} == set(g.incidence[v]) for v in g.edges[e]
            ):
                return False
    return True


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """Exact isomorphism test by backtracking (intended for n <= 24).

    Vertices of g are mapped in BFS-forest order: a tree child goes to an
    unused neighbour of its parent's image, a root to any unused vertex, and
    every step checks edge multiplicities against all vertices mapped so far.
    """
    if g.n != h.n or g.m != h.m:
        return False
    ga, ha = g.adjacency_counts(), h.adjacency_counts()
    order = list(_bfs_forest(g))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        v, via = order[pos]
        if via == -1:
            candidates = range(h.n)
        else:
            pv = mapping[g.other_end(via, v)]
            candidates = [w for w in range(h.n) if ha[pv][w] and not used[w]]
        for w in candidates:
            if used[w]:
                continue
            row_v, row_w = ga[v], ha[w]
            ok = True
            for u2, pu in enumerate(mapping):
                if pu != -1 and row_v[u2] != row_w[pu]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(pos + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)
