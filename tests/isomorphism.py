"""Reference isomorphism test for the test suite.

The package recognises the one graph it must tell apart, the Petersen
graph, by a distance check (``generators.is_petersen``).  The tests compare
generators and that check against this general backtracking search.
"""

from typing import Iterator

from pmcover.graphs import CubicGraph, _bfs_forest


def is_isomorphic(g: CubicGraph, h: CubicGraph) -> bool:
    """Exact isomorphism test by backtracking (intended for n <= 24).

    Vertices of g are mapped in BFS-forest order: a tree child goes to an
    unused neighbour of its parent's image, a root to any unused vertex, and
    every step checks edge multiplicities against all vertices mapped so far.
    The search keeps one candidate iterator per mapped vertex on an explicit
    stack, so its depth is not bounded by the recursion limit.
    """
    if g.n != h.n or g.m != h.m:
        return False
    ga, ha = g.adjacency_counts(), h.adjacency_counts()
    order = list(_bfs_forest(g))
    mapping = [-1] * g.n
    used = [False] * h.n

    def candidates(pos: int) -> Iterator[int]:
        v, via = order[pos]
        row = ha[mapping[g.other_end(via, v)]] if via != -1 else None
        return iter([w for w in range(h.n) if not used[w] and (row is None or row[w])])

    stack = [candidates(0)]
    while stack:
        v = order[len(stack) - 1][0]
        if mapping[v] != -1:  # back from the subtree of v's last image
            used[mapping[v]] = False
            mapping[v] = -1
        row_v = ga[v]
        for w in stack[-1]:
            row_w = ha[w]
            if all(pu == -1 or row_v[u2] == row_w[pu] for u2, pu in enumerate(mapping)):
                mapping[v] = w
                used[w] = True
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return True
        stack.append(candidates(len(stack)))
    return False
