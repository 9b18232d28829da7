"""Exact 3-edge-coloring search for cubic graphs.

A proper 3-edge-coloring of a cubic graph is the same thing as a partition
into three perfect matchings, so this decides chromatic index 3 vs 4 and
doubles as an independent lower-bound oracle for covering searches.
"""

from __future__ import annotations

from .graphs import CubicGraph, EdgeSet

_ALL = 0b111


def three_edge_coloring(
    g: CubicGraph,
) -> tuple[EdgeSet, EdgeSet, EdgeSet] | None:
    """A proper 3-edge-coloring as three color classes, or None.

    Backtracking on edges, always branching on the most constrained
    uncolored edge; the first edge and a neighbor are pinned to break
    color symmetry.
    """
    m = g.m
    ends = g.edges
    color = [-1] * m
    used = [0] * g.n  # bitmask of colors present at each vertex

    def place(e: int, c: int) -> None:
        color[e] = c
        u, v = ends[e]
        used[u] |= 1 << c
        used[v] |= 1 << c

    def unplace(e: int) -> None:
        c = color[e]
        color[e] = -1
        u, v = ends[e]
        used[u] &= ~(1 << c)
        used[v] &= ~(1 << c)

    def candidates(e: int) -> int:
        u, v = ends[e]
        return _ALL & ~(used[u] | used[v])

    def pick() -> int | None:
        best = None
        best_count = 4
        for e in range(m):
            if color[e] != -1:
                continue
            cnt = candidates(e).bit_count()
            if cnt == 0:
                return e
            if cnt < best_count:
                best, best_count = e, cnt
                if cnt == 1:
                    break
        return best

    def solve(remaining: int) -> bool:
        if remaining == 0:
            return True
        e = pick()
        cands = candidates(e)
        while cands:
            low = cands & -cands
            cands ^= low
            place(e, low.bit_length() - 1)
            if solve(remaining - 1):
                return True
            unplace(e)
        return False

    place(0, 0)
    pinned = 1
    u, v = ends[0]
    for e in g.incidence[u]:
        if e != 0:
            place(e, 1)
            pinned += 1
            break
    if not solve(m - pinned):
        return None
    classes = [0, 0, 0]
    for e, c in enumerate(color):
        classes[c] |= 1 << e
    return tuple(EdgeSet(m, bits) for bits in classes)


def is_three_edge_colorable(g: CubicGraph) -> bool:
    return three_edge_coloring(g) is not None
