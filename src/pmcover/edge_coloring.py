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

    Backtracking on edges over an explicit trail, always branching on the
    most constrained uncolored edge and trying its colors lowest first; the
    first edge and a neighbor are pinned to break color symmetry.
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

    place(0, 0)
    place(next(e for e in g.incidence[ends[0][0]] if e != 0), 1)
    trail: list[tuple[int, int]] = []  # (edge, colors it has left to try)
    e = pick()
    while e is not None:
        cands = candidates(e)
        while not cands:  # a dead end: undo back to an edge with a color left
            if not trail:
                return None
            e, cands = trail.pop()
            unplace(e)
        low = cands & -cands
        trail.append((e, cands ^ low))
        place(e, low.bit_length() - 1)
        e = pick()
    classes = [0, 0, 0]
    for e, c in enumerate(color):
        classes[c] |= 1 << e
    return tuple(EdgeSet(m, bits) for bits in classes)


def is_three_edge_colorable(g: CubicGraph) -> bool:
    return three_edge_coloring(g) is not None
