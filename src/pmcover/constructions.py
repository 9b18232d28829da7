"""Constructive covering machinery on 2-factors.

A *good triple* between two odd cycles of a 2-factor is a set of three
cross edges whose endpoints cut both cycles into three odd arcs; a pair of
cycles carrying one is a *good pair*.  When the odd cycles of a 2-factor can
be arranged into good pairs, four perfect matchings covering the whole edge
set can be written down directly - no search.  ``pair_odd_cycles`` returns
the arrangement as certificates, ``four_covering_from_good_pairs`` builds on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coverings import Covering, CoveringKind
from .errors import ConstructionFailed, InvalidCertificate, NotOddCycles
from .graphs import CubicGraph, TwoFactor


@dataclass(frozen=True)
class GoodPairCert:
    """Witness that two odd cycles of a 2-factor form a good pair.

    ``cross_edges`` lists the three edges in ascending index order;
    ``first_endpoints`` / ``second_endpoints`` give their endpoints on the
    two cycles in the same order, and ``arcs`` the arc lengths cut on each
    cycle between consecutive chosen vertices (all six odd).
    """

    cycle_ids: tuple[int, int]
    cross_edges: tuple[int, int, int]
    first_endpoints: tuple[int, int, int]
    second_endpoints: tuple[int, int, int]
    arcs: tuple[tuple[int, int, int], tuple[int, int, int]]


def _cycle_positions(cycle: tuple[int, ...]) -> dict[int, int]:
    return {v: i for i, v in enumerate(cycle)}


def _arc_lengths(
    positions: list[int], length: int
) -> tuple[int, int, int] | None:
    a, b, c = sorted(positions)
    arcs = (b - a, c - b, length - c + a)
    return arcs if all(x % 2 for x in arcs) else None


def check_good_triple(
    g: CubicGraph,
    tf: TwoFactor,
    ci: int,
    cj: int,
    edges: tuple[int, int, int],
) -> GoodPairCert | None:
    """Certificate for a specific cross-edge triple, or None if arcs fail.

    Raises NotOddCycles / InvalidCertificate when the cycles are not both
    odd or the edges do not run between them.
    """
    if not (tf.is_odd(ci) and tf.is_odd(cj)):
        raise NotOddCycles("good triples need two odd cycles")
    ca, cb = tf.cycles[ci], tf.cycles[cj]
    pos_a, pos_b = _cycle_positions(ca), _cycle_positions(cb)
    if len(set(edges)) != 3:
        raise InvalidCertificate("need three distinct edges")
    ends_a: list[int] = []
    ends_b: list[int] = []
    for e in edges:
        u, v = g.endpoints(e)
        if u in pos_a and v in pos_b:
            ends_a.append(u)
            ends_b.append(v)
        elif v in pos_a and u in pos_b:
            ends_a.append(v)
            ends_b.append(u)
        else:
            raise InvalidCertificate(f"edge {e} does not join the two cycles")
    arcs_a = _arc_lengths([pos_a[v] for v in ends_a], len(ca))
    arcs_b = _arc_lengths([pos_b[v] for v in ends_b], len(cb))
    if arcs_a is None or arcs_b is None:
        return None
    ordered = tuple(sorted(edges))
    order = [edges.index(e) for e in ordered]
    return GoodPairCert(
        (ci, cj),
        ordered,
        tuple(ends_a[i] for i in order),
        tuple(ends_b[i] for i in order),
        (arcs_a, arcs_b),
    )


def find_good_triple(
    g: CubicGraph, tf: TwoFactor, ci: int, cj: int
) -> GoodPairCert | None:
    """First good triple between two odd cycles, scanning cross-edge triples
    in ascending edge-index order."""
    if not (tf.is_odd(ci) and tf.is_odd(cj)):
        raise NotOddCycles("good triples need two odd cycles")
    in_a = set(tf.cycles[ci])
    in_b = set(tf.cycles[cj])
    cross = [
        e
        for e, (u, v) in enumerate(g.edges)
        if (u in in_a and v in in_b) or (v in in_a and u in in_b)
    ]
    for trio in combinations(cross, 3):
        cert = check_good_triple(g, tf, ci, cj, trio)
        if cert is not None:
            return cert
    return None


def pair_odd_cycles(
    g: CubicGraph, tf: TwoFactor
) -> list[GoodPairCert] | None:
    """Arrange the odd cycles of a 2-factor into good pairs, or None.

    Backtracking over perfect pairings of the odd cycle ids; even cycles
    stay unpaired.  Returns one certificate per pair, in pairing order, each
    the ``find_good_triple`` of its two cycles.
    """
    odd = list(tf.odd_cycle_ids)
    cache: dict[tuple[int, int], GoodPairCert | None] = {}

    def good(i: int, j: int) -> GoodPairCert | None:
        key = (i, j)
        if key not in cache:
            cache[key] = find_good_triple(g, tf, i, j)
        return cache[key]

    certs: list[GoodPairCert] = []

    def solve(rest: list[int]) -> bool:
        if not rest:
            return True
        first, tail = rest[0], rest[1:]
        for pos, j in enumerate(tail):
            cert = good(first, j)
            if cert is not None:
                certs.append(cert)
                if solve(tail[:pos] + tail[pos + 1 :]):
                    return True
                certs.pop()
        return False

    if solve(odd):
        return certs
    return None


def _near_matching(tf: TwoFactor, cycle_id: int, skip_vertex: int) -> list[int]:
    """Edge ids of the unique perfect matching of a cycle minus one vertex."""
    cyc = tf.cycles[cycle_id]
    edges = tf.cycle_edges[cycle_id]
    length = len(cyc)
    t = cyc.index(skip_vertex)
    return [edges[(t + off) % length] for off in range(1, length - 1, 2)]


def four_covering_from_good_pairs(
    g: CubicGraph, tf: TwoFactor, certs: list[GoodPairCert]
) -> Covering:
    """The direct 4-covering built from good-pair certificates.

    ``certs`` must pair each odd cycle of the 2-factor exactly once, as the
    list ``pair_odd_cycles`` returns does; each certificate is re-checked.
    One matching is the complement of the 2-factor; each of the other three
    takes one cross edge per pair plus the forced near-matchings of the two
    punctured cycles, and the even cycles contribute one alternating class
    to the second matching and the complementary class to the last two.
    """
    paired = [c for cert in certs for c in cert.cycle_ids]
    if sorted(paired) != sorted(tf.odd_cycle_ids):
        raise InvalidCertificate("certificates must pair each odd cycle exactly once")
    rechecked = []
    for cert in certs:
        again = check_good_triple(g, tf, *cert.cycle_ids, cert.cross_edges)
        if again is None:
            raise InvalidCertificate("certificate arcs are not all odd")
        rechecked.append(again)

    base = [tf.matching.bits, 0, 0, 0]
    for cycle_id in tf.even_cycle_ids:
        edges = tf.cycle_edges[cycle_id]
        class_a = [edges[i] for i in range(0, len(edges), 2)]
        class_b = [edges[i] for i in range(1, len(edges), 2)]
        if min(class_b) < min(class_a):
            class_a, class_b = class_b, class_a
        for e in class_a:
            base[1] |= 1 << e
        for e in class_b:
            base[2] |= 1 << e
            base[3] |= 1 << e
    for cert in rechecked:
        first, second = cert.cycle_ids
        for j in range(3):
            bits = 1 << cert.cross_edges[j]
            for e in _near_matching(tf, first, cert.first_endpoints[j]):
                bits |= 1 << e
            for e in _near_matching(tf, second, cert.second_endpoints[j]):
                bits |= 1 << e
            base[1 + j] |= bits

    for j in (1, 2, 3):
        expected = 0
        for cert in rechecked:
            expected |= 1 << cert.cross_edges[j - 1]
        if base[0] & base[j] != expected:
            raise ConstructionFailed("cross-edge intersections are off")
    # construction checks that the members are perfect matchings covering E
    return Covering(g, tuple(base), CoveringKind.PLAIN)
