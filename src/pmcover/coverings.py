"""Exact solvers and verifiers for perfect matching coverings.

Everything runs over a complete ``PMCatalog``: the covering number tau,
plain k-coverings, odd and even coverings (GF(2) feasibility, weight
enumerator counts and subset search), Fulkerson coverings, Fan-Raspaud
triples and the multiplicity structure of 4-coverings.  Searches are
deterministic and always break ties toward the lexicographically smallest
witness by sorted catalog indices.

In a cubic graph each perfect matching has n/2 of the 3n/2 edges, and the
covering searches use what that forces:

* a 3-covering, plain or odd, partitions E, so none exists unless two
  members are disjoint (b = 0, read off ``PMCatalog.pair_stats``);
* every 3 members of a 4-covering form a Fan-Raspaud triple, so 4-coverings
  are found by walking FR triples (``_fr_triples``, the one walk that
  ``find_fr_triples`` also reads), and branch-and-bound set cover is left
  for k >= 5; both complete a partial covering from
  ``PMCatalog.edge_rows``, whose row e holds the members containing edge e;
* tau = 4 gives tau_odd = 5: adding the doubly covered matching to a
  4-covering makes it odd, and tau_odd is odd and at least tau;
  ``analyze_graph`` takes tau_odd from that rule whenever no count is
  reported, so no odd search or count runs there;
* when b > 0 that matching is a fifth member, so no odd 5-covering (or no
  odd covering at all) refutes k = 4: ``_cover_size`` walks as many FR
  triples as the catalog has members, then asks for that refutation
  before it walks on; once k = 4 is out, a Fulkerson covering gives
  tau = 5 (five of its six members cover E), and only without one is
  k >= 5 decided by existence, leaving the lex-first witness to
  ``covering_number``;
* a Fulkerson covering is decided the way set cover is, by branching on
  the most constrained edge over the edge rows (``_fulkerson_exists``),
  with members usable twice; ``analyze_graph`` asks only whether one
  exists, and ``fulkerson_covering`` refines that search to the lex-first
  witness;
* an odd s-covering is an s-set of columns of the edge x matching matrix
  over GF(2) whose XOR is all-ones, and when b > 0 the number of them,
  for every s at once, comes from the weight enumerator of the row space:
  one bit-sliced pass over the 2^r row combinations, r the rank (n/2 + 1
  on the snarks tried), under 1 ms at r = 15 and about 0.015 s at r = 20.
  Its cost doubles with each step of r whatever the catalog, so above
  ``WEIGHT_ENUMERATOR_MAX_RANK`` the subset search runs instead; it also
  runs when b = 0, where a disjoint pair settles tau_odd = 3 at once.  The
  subset search still finds the witness, at the minimum size alone.  The
  pass is cached on the catalog (``PMCatalog.weight_enumerator``), so the
  tau and tau_odd phases share it.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice

from .errors import (
    CoveringError,
    DeadlineExceeded,
    InvalidParams,
    NotACovering,
    NotFRTriple,
    NotOdd,
    NotSize4,
)
from .gf2 import gf2_all_ones_subset_counts
from .graphs import (
    CubicGraph,
    EdgeSet,
    cyclic_connectivity_at_least,
    find_bridges,
    is_perfect_matching,
    walk_cycles,
)
from .matchings import (
    PMCatalog,
    check_catalog,
    check_enumeration_depth,
    enumerate_perfect_matchings,
)


class CoveringKind(Enum):
    PLAIN = "plain"
    ODD = "odd"
    EVEN = "even"
    FULKERSON = "fulkerson"


@dataclass(frozen=True)
class Covering:
    """A multiset of perfect matchings tagged by covering kind.

    ``members`` holds sorted catalog indices (with multiplicities) whenever
    the covering is backed by a catalog; coverings produced constructively
    (without enumerating all matchings first) carry the matchings alone.
    """

    graph: CubicGraph
    matchings: tuple[EdgeSet, ...]
    kind: CoveringKind
    catalog: PMCatalog | None = None
    members: tuple[int, ...] | None = None

    @classmethod
    def from_indices(
        cls, catalog: PMCatalog, indices, kind: CoveringKind
    ) -> "Covering":
        """The validated covering of these members: builds only their EdgeSets."""
        members = tuple(sorted(indices))
        m, masks = catalog.graph.m, catalog.masks
        matchings = tuple(EdgeSet(m, masks[catalog.check_member(i)]) for i in members)
        cov = cls(catalog.graph, matchings, kind, catalog, members)
        cov.validate()
        return cov

    @classmethod
    def from_matchings(
        cls, graph: CubicGraph, matchings, kind: CoveringKind, catalog=None
    ) -> "Covering":
        """A covering of these matchings; backed by ``catalog`` when given."""
        if catalog is not None:
            return cls.from_indices(catalog, map(catalog.index_of, matchings), kind)
        ordered = tuple(sorted(matchings, key=lambda s: s.bits))
        cov = cls(graph, ordered, kind)
        cov.validate()
        return cov

    @property
    def size(self) -> int:
        return len(self.matchings)

    def multiplicities(self) -> tuple[int, ...]:
        counts = [0] * self.graph.m
        for pm in self.matchings:
            for e in pm:
                counts[e] += 1
        return tuple(counts)

    def validate(self) -> None:
        for pm in self.matchings:
            if not is_perfect_matching(self.graph, pm):
                raise NotACovering("member is not a perfect matching")
        mults = self.multiplicities()
        if self.kind is CoveringKind.PLAIN:
            if min(mults) < 1:
                raise NotACovering("plain covering leaves an edge uncovered")
        elif self.kind is CoveringKind.ODD:
            if any(c % 2 == 0 for c in mults):
                raise NotOdd("some edge is covered an even number of times")
        elif self.kind is CoveringKind.EVEN:
            if any(c % 2 == 1 or c < 2 for c in mults):
                raise CoveringError("even covering needs even multiplicity >= 2")
        elif self.kind is CoveringKind.FULKERSON:
            if self.size != 6 or any(c != 2 for c in mults):
                raise CoveringError("Fulkerson covering must cover twice with 6")


@dataclass(frozen=True)
class TauResult:
    status: str  # "ok" | "exceeds" | "infeasible"
    cap: int
    tau: int | None = None
    witness: Covering | None = None


@dataclass(frozen=True)
class OddCoverResult:
    status: str  # "ok" | "none_exists" | "exceeds"
    cap: int
    size: int | None = None
    witness: Covering | None = None
    count_minimum: int | None = None


@dataclass(frozen=True)
class MultiplicityReport:
    vector: tuple[int, ...]
    doubly_covered: EdgeSet


@dataclass(frozen=True)
class FRStructure:
    """Edge partition induced by a Fan-Raspaud triple.

    ``uncovered`` / ``single`` / ``double`` collect the edges lying in 0, 1
    and 2 of the three matchings; uncovered and double edges alternate along
    vertex-disjoint even cycles, returned as vertex sequences.
    """

    uncovered: EdgeSet
    single: EdgeSet
    double: EdgeSet
    alternating_cycles: tuple[tuple[int, ...], ...]


def _min_cover_exists(
    masks: tuple[int, ...],
    rows: tuple[int, ...],
    uncovered: int,
    slots: int,
    lo: int,
    excluded: int,
    half: int,
) -> bool:
    """Can <= slots distinct members with index >= lo cover `uncovered`?

    ``rows`` are the catalog's edge rows, so an edge's usable members are
    its row masked by ``usable``.  Branch on the uncovered edge with the
    fewest, trying them lowest index first; members skipped at a branch
    point are excluded from the whole subtree.
    """
    if uncovered == 0:
        return True
    if slots == 0 or uncovered.bit_count() > slots * half:
        return False
    usable = (-1 << lo) & ~excluded
    best, fewest = 0, 0
    bits = uncovered
    while bits:
        low = bits & -bits
        bits ^= low
        cands = rows[low.bit_length() - 1] & usable
        if not cands:
            return False
        size = cands.bit_count()
        if not best or size < fewest:
            best, fewest = cands, size
            if size == 1:
                break
    ex = excluded
    while best:
        low = best & -best
        best ^= low
        rest = uncovered & ~masks[low.bit_length() - 1]
        if _min_cover_exists(masks, rows, rest, slots - 1, lo, ex, half):
            return True
        ex |= low
    return False


def _lex_cover(
    masks: tuple[int, ...],
    rows: tuple[int, ...],
    full: int,
    k: int,
    half: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest set of k distinct members covering full."""
    count = len(masks)
    if count < k:
        return None
    if not _min_cover_exists(masks, rows, full, k, 0, 0, half):
        return None
    chosen: list[int] = []
    uncovered = full
    lo = 0
    for slot in range(k):
        remaining = k - slot - 1
        for cand in range(lo, count - remaining):
            rest = uncovered & ~masks[cand]
            if _min_cover_exists(masks, rows, rest, remaining, cand + 1, 0, half):
                chosen.append(cand)
                uncovered = rest
                lo = cand + 1
                break
        else:
            raise AssertionError("lex refinement lost a feasible cover")
    return tuple(chosen)


def _fr_triples(masks: tuple[int, ...], rows: tuple[int, ...]):
    """FR triples i < j < k (no edge in all three) in lex order, with their union.

    ``rows`` are the catalog's edge rows: the k that complete (i, j) are the
    members above j in none of the rows of the edges of mi & mj, one mask
    operation per such edge.
    """
    count = len(masks)
    for i in range(count):
        mi = masks[i]
        for j in range(i + 1, count):
            mij, cover_ij = mi & masks[j], mi | masks[j]
            ks = (1 << count) - (1 << (j + 1))  # the members above j
            while mij and ks:
                low = mij & -mij
                mij ^= low
                ks &= ~rows[low.bit_length() - 1]
            while ks:
                low = ks & -ks
                ks ^= low
                k = low.bit_length() - 1
                yield i, j, k, cover_ij | masks[k]


def _four_cover(
    rows: tuple[int, ...], full: int, triples
) -> tuple[int, ...] | None:
    """The first 4-covering along a walk of FR triples, given no 3-covering.

    Every 3 members of a 4-covering form an FR triple, so walking the FR
    triples i<j<k in lex order (``_fr_triples``) and completing each with
    the smallest l > k that contains T0, the edges the triple leaves
    uncovered, finds the lex-smallest 4-covering first.  The members l > k
    holding T0 are the AND of T0's edge rows above bit k.  ``triples`` is
    that walk or a stretch of it: the walk can stop and later resume.
    """
    for i, j, k, union in triples:
        t0 = full & ~union
        # an FR triple covering E would be a 3-covering
        assert t0, "3-covering reached the 4-covering search"
        holders = -1 << (k + 1)
        while t0 and holders:
            low = t0 & -t0
            t0 ^= low
            holders &= rows[low.bit_length() - 1]
        if holders:
            return i, j, k, (holders & -holders).bit_length() - 1
    return None


# default caps of the two searches, analyze_graph, run_scan and the CLI
DEFAULT_CAP = 6
DEFAULT_ODD_CAP = 7


def _has_disjoint_pair(catalog: PMCatalog) -> bool:
    """b = 0: the precondition of a 3-covering, plain or odd, in a cubic graph."""
    return catalog.count >= 2 and catalog.pair_stats.min_intersection == 0


def check_cap(cap: int) -> None:
    """Raise InvalidParams unless ``cap`` is at least 3, the smallest tau."""
    if cap < 3:
        raise InvalidParams(f"cap must be at least 3, got {cap}")


def _cover_size(
    g: CubicGraph,
    catalog: PMCatalog,
    cap: int,
    fulkerson: bool = False,
) -> TauResult:
    """tau up to ``cap``, with a witness only when one comes for free.

    Infeasible when some edge row is 0, an edge in no member.  The witness
    comes with tau = 3 (b = 0) and tau = 4, never with tau >= 5.
    When b > 0 the FR walk for a 4-covering stops after ``catalog.count``
    triples, a step budget: a step takes a few operations on member masks,
    the weight-enumerator pass dozens on 2^r-bit integers, so these steps
    cost far less than the pass.
    k = 4 is then refuted if the all-ones vector is outside the span, or if
    the rank is at most ``WEIGHT_ENUMERATOR_MAX_RANK`` and N_5, the number
    of odd 5-coverings, is 0: a 4-covering plus its doubly covered matching
    is an odd 5-covering by 5 distinct members when b > 0 (the matching
    among the four would leave the other three an odd 3-covering, which
    needs b = 0).  Unrefuted, the walk resumes where it stopped.  Once
    k = 4 is out, tau = 5 follows when ``fulkerson`` says that the caller
    found a Fulkerson covering of this catalog: any five of its six members
    cover every edge.  Otherwise each k >= 5 is decided by existence, the
    set cover over the edge rows (``_min_cover_exists``).
    """
    check_catalog(g, catalog)
    check_cap(cap)
    masks, rows = catalog.masks, catalog.edge_rows
    full = (1 << g.m) - 1
    if not all(rows):  # an edge in no member
        return TauResult("infeasible", cap)
    half = g.n // 2
    if _has_disjoint_pair(catalog):
        # the disjoint pair and the matching on the edges it leaves
        witness = _lex_cover(masks, rows, full, 3, half)
        return TauResult(
            "ok", cap, 3, Covering.from_indices(catalog, witness, CoveringKind.PLAIN)
        )
    if cap < 4:
        return TauResult("exceeds", cap)
    walk = _fr_triples(masks, rows)
    witness = _four_cover(rows, full, islice(walk, catalog.count))
    # _odd_counts is None above the rank limit, where only the span refutes
    if (
        witness is None
        and catalog.all_ones_in_span
        and _odd_counts(catalog, (5,)) != {5: 0}
    ):
        witness = _four_cover(rows, full, walk)
    if witness is not None:
        return TauResult(
            "ok", cap, 4, Covering.from_indices(catalog, witness, CoveringKind.PLAIN)
        )
    if fulkerson and cap >= 5:
        return TauResult("ok", cap, 5)
    for k in range(5, cap + 1):
        if _min_cover_exists(masks, rows, full, k, 0, 0, half):
            return TauResult("ok", cap, k)
    return TauResult("exceeds", cap)


def covering_number(
    g: CubicGraph, catalog: PMCatalog, cap: int = DEFAULT_CAP
) -> TauResult:
    """Exact minimum number of catalog members whose union is E(g).

    Returns infeasible when some edge lies in no perfect matching (bridged
    graphs), and exceeds when the minimum is larger than ``cap``.  A
    3-covering partitions E, so it is ruled out without search unless two
    members are disjoint.  A 4-covering is found by walking FR triples
    (``_four_cover``).  When b > 0 the walk is cut short after
    ``catalog.count`` triples where the span or the weight enumerator
    refutes k = 4 (``_cover_size``), and tau >= 5 is decided by existence
    alone; branch-and-bound set cover then finds the witness at that size.
    The witness is the lexicographically smallest covering in every case.
    """
    result = _cover_size(g, catalog, cap)
    if result.status != "ok" or result.witness is not None:
        return result
    witness = _lex_cover(
        catalog.masks, catalog.edge_rows, (1 << g.m) - 1, result.tau, g.n // 2
    )
    cov = Covering.from_indices(catalog, witness, CoveringKind.PLAIN)
    return replace(result, witness=cov)


def covering_multiplicities(cov: Covering) -> MultiplicityReport:
    """Per-edge multiplicities of a plain 4-covering.

    In a cubic graph every 4-covering covers each edge once or twice and the
    doubly covered edges form a perfect matching; both facts are asserted.
    """
    if cov.size != 4:
        raise NotSize4(f"need a 4-covering, got size {cov.size}")
    mults = cov.multiplicities()
    if min(mults) < 1:
        raise NotACovering("members do not cover every edge")
    assert set(mults) <= {1, 2}, "4-covering multiplicity outside {1,2}"
    doubly = EdgeSet.from_indices(
        cov.graph.m, (e for e, c in enumerate(mults) if c == 2)
    )
    assert is_perfect_matching(cov.graph, doubly), "doubly covered set not a PM"
    return MultiplicityReport(mults, doubly)


def find_fr_triples(
    catalog: PMCatalog, limit: int | None = None
) -> list[tuple[int, int, int]]:
    """Index triples with empty three-way intersection, in lex order: the
    first ``limit`` of them, or all when ``limit`` is None."""
    triples = _fr_triples(catalog.masks, catalog.edge_rows)
    return [t[:3] for t in islice(triples, limit)]


def fr_structure(
    g: CubicGraph, catalog: PMCatalog, triple: tuple[int, int, int]
) -> FRStructure:
    """T0/T1/T2 partition of an FR-triple, with its alternating even cycles."""
    check_catalog(g, catalog)
    m1, m2, m3 = (catalog.masks[catalog.check_member(i)] for i in triple)
    if len(set(triple)) < 3 or m1 & m2 & m3:
        raise NotFRTriple(f"{triple} are not 3 distinct members with no common edge")
    full = (1 << g.m) - 1
    double = (m1 & m2) | (m1 & m3) | (m2 & m3)
    covered = m1 | m2 | m3
    single = covered & ~double
    uncovered = full & ~covered
    cycles, cycle_edges = walk_cycles(g, uncovered | double)
    for verts, edges in zip(cycles, cycle_edges):
        assert len(verts) % 2 == 0, "alternating cycle of odd length"
        for a, b in zip(edges, edges[1:] + edges[:1]):
            assert (uncovered >> a) & 1 != (uncovered >> b) & 1, (
                "T0 and T2 edges fail to alternate"
            )
    return FRStructure(
        EdgeSet(g.m, uncovered),
        EdgeSet(g.m, single),
        EdgeSet(g.m, double),
        cycles,
    )


# Counting the minimum odd coverings by search visits every subset of that
# size instead of stopping at the first witness, so the count is reported only
# up to here, also where the weight enumerator has it at no extra cost.
ODD_COUNT_MAX_SIZE = 7
ODD_COUNT_MAX_CATALOG = 64


def _odd_count_reported(size: int, catalog: PMCatalog) -> bool:
    """Whether the minimum odd coverings of this size are counted."""
    return size <= ODD_COUNT_MAX_SIZE and catalog.count <= ODD_COUNT_MAX_CATALOG


# The weight-enumerator pass works on 2^r-bit integers, r the GF(2) rank of
# the edge x matching matrix (n/2 + 1 on the snarks tried; r = 20 on 240
# members takes about 0.015 s, r = 22 on 480 about 0.05 s and r = 23 on 720
# about 0.2 s, and each step up doubles it); above this rank the subset
# search finds tau_odd, and the FR walk for a 4-covering runs on past its
# budget unless the all-ones vector is outside the span.  Lifting the limit
# changes which solver runs on graphs such as goldberg:5 (rank 21).
WEIGHT_ENUMERATOR_MAX_RANK = 20


def _odd_counts(catalog: PMCatalog, sizes) -> dict[int, int] | None:
    """The number of odd coverings of each size, given that one exists.

    They come from ``PMCatalog.weight_enumerator``, so the pass runs at most
    once per catalog, whichever phase asks first.  None when the rank
    exceeds ``WEIGHT_ENUMERATOR_MAX_RANK``.
    """
    rank = len(catalog.edge_row_basis)
    if rank > WEIGHT_ENUMERATOR_MAX_RANK:
        return None
    return gf2_all_ones_subset_counts(
        catalog.weight_enumerator, rank, catalog.count, sizes
    )


def _odd_cover_size(
    g: CubicGraph, catalog: PMCatalog, cap: int
) -> OddCoverResult:
    """tau_odd up to ``cap`` and its count, with a witness only when searched.

    When no two members are disjoint (b > 0) and the rank is at most
    ``WEIGHT_ENUMERATOR_MAX_RANK``, the counts of every odd size come from
    one weight-enumerator pass and no witness is returned.  Otherwise the
    subset search scans the odd sizes and returns its first witness.
    """
    check_catalog(g, catalog)
    masks = catalog.masks
    full = (1 << g.m) - 1
    # a disjoint pair and the matching on the edges they leave XOR to
    # all-ones, so only b > 0 needs the span reduction
    colourable = _has_disjoint_pair(catalog)
    if not colourable and not catalog.all_ones_in_span:
        return OddCoverResult("none_exists", cap)
    sizes = range(3, min(cap, catalog.count) + 1, 2)
    if sizes and not colourable:
        counts = _odd_counts(catalog, sizes)
        if counts is not None:
            # an odd 3-covering partitions E, so it needs a disjoint pair
            assert counts[3] == 0, "odd 3-covering without a disjoint pair"
            for size in sizes:
                if counts[size]:
                    counted = _odd_count_reported(size, catalog)
                    return OddCoverResult(
                        "ok", cap, size, None, counts[size] if counted else None
                    )
            return OddCoverResult("exceeds", cap)
    for size in sizes:
        if size == 3 and not colourable:
            continue
        counting = _odd_count_reported(size, catalog)
        witness, found = _odd_subsets(
            masks, catalog.index_by_mask, full, size, counting
        )
        if witness is not None:
            cov = Covering.from_indices(catalog, witness, CoveringKind.ODD)
            return OddCoverResult(
                "ok", cap, size, cov, found if counting else None
            )
    return OddCoverResult("exceeds", cap)


def odd_covering_number(
    g: CubicGraph, catalog: PMCatalog, cap: int = DEFAULT_ODD_CAP
) -> OddCoverResult:
    """Minimum size of a set of distinct matchings covering each edge oddly.

    Feasibility is settled first over GF(2): an odd covering exists iff the
    all-ones vector lies in the span of the matching incidence vectors.  A
    set of members is an odd covering iff the XOR of its members equals
    all-ones.  An odd 3-covering partitions E, so size 3 needs two disjoint
    members (b = 0).  When b > 0 and the edge x matching matrix has rank at
    most ``WEIGHT_ENUMERATOR_MAX_RANK``, one weight-enumerator pass over the
    2^rank combinations of its rows (``gf2_all_ones_subset_counts``) counts
    the odd coverings of every size at once, and the subset search then runs
    at the minimum size alone, for the witness.  Otherwise (b = 0, where a
    disjoint pair settles size 3 at once, or above the rank limit) the
    subset search scans the odd sizes.  Either way the witness is the
    lexicographically smallest minimum odd covering.  The number of
    minimum-size odd coverings is reported when the instance is small
    enough (``_odd_count_reported``).
    """
    result = _odd_cover_size(g, catalog, cap)
    if result.status != "ok" or result.witness is not None:
        return result
    # no smaller size has an odd covering, so the first subset found at this
    # size is the one a scan over every size would find
    witness, _ = _odd_subsets(
        catalog.masks, catalog.index_by_mask, (1 << g.m) - 1, result.size, False
    )
    cov = Covering.from_indices(catalog, witness, CoveringKind.ODD)
    return replace(result, witness=cov)


def _odd_subsets(
    masks: tuple[int, ...],
    index_of: dict[int, int],
    target: int,
    size: int,
    count_all: bool,
) -> tuple[tuple[int, ...] | None, int]:
    """First (lex) size-subset whose XOR equals target, plus a full count.

    Enumerates (size-1)-prefixes in lex order; the last member is forced to
    the unique matching completing the XOR, so each subset is seen once.
    """
    count = len(masks)
    witness: tuple[int, ...] | None = None
    hits = 0
    prefix: list[int] = []

    def rec(start: int, depth: int, acc: int) -> bool:
        nonlocal witness, hits
        if depth == size - 1:
            last = index_of.get(acc ^ target)
            if last is not None and (not prefix or last > prefix[-1]):
                if witness is None:
                    witness = tuple(prefix) + (last,)
                    if not count_all:
                        return True
                hits += 1
            return False
        for i in range(start, count - (size - 1 - depth)):
            prefix.append(i)
            if rec(i + 1, depth + 1, acc ^ masks[i]):
                return True
            prefix.pop()
        return False

    rec(0, 0, 0)
    return witness, hits


def odd_covering_from_four_covering(cov4: Covering) -> Covering:
    """Adjoin the doubly covered matching to a 4-covering: an odd 5-covering."""
    report = covering_multiplicities(cov4)
    extra = report.doubly_covered
    mults = [c + (1 if e in extra else 0) for e, c in enumerate(report.vector)]
    assert set(mults) <= {1, 3}, "derived covering not odd"
    return Covering.from_matchings(
        cov4.graph, cov4.matchings + (extra,), CoveringKind.ODD, cov4.catalog
    )


def double_covering(cov: Covering) -> Covering:
    """Take every member twice: an even covering of twice the size."""
    if cov.kind is not CoveringKind.PLAIN:
        raise NotACovering("doubling expects a plain covering")
    return Covering.from_matchings(
        cov.graph, cov.matchings * 2, CoveringKind.EVEN, cov.catalog
    )


def even_covering_from_four_covering(cov4: Covering) -> Covering:
    """Double a 4-covering: a size-8 even covering with multiplicities 2, 4."""
    if cov4.size != 4:
        raise NotSize4(f"need a 4-covering, got size {cov4.size}")
    covering_multiplicities(cov4)  # validates plain 4-covering
    doubled = double_covering(cov4)
    assert set(doubled.multiplicities()) <= {2, 4}
    return doubled


def _add_member(
    masks: tuple[int, ...],
    rows: tuple[int, ...],
    once: int,
    saturated: int,
    blocked: int,
    member: int,
) -> tuple[int, int, int]:
    """``once``, ``saturated`` and ``blocked`` after one more copy of member.

    The member must be unblocked: it holds no saturated edge.  Its edges
    covered once before are saturated now, so their rows join ``blocked``.
    """
    mask = masks[member]
    twice = once & mask
    saturated |= twice
    while twice:
        low = twice & -twice
        twice ^= low
        blocked |= rows[low.bit_length() - 1]
    return once ^ mask, saturated, blocked


def _fulkerson_exists(
    masks: tuple[int, ...],
    rows: tuple[int, ...],
    full: int,
    slots: int,
    excluded: int,
    once: int,
    saturated: int,
    blocked: int,
    found: list[int],
) -> bool:
    """Can ``slots`` more members bring every edge of ``full`` to exactly 2?

    ``once`` and ``saturated`` are the edges the members chosen so far cover
    once and twice, and ``blocked`` is the members holding a saturated edge;
    a member outside ``blocked`` and ``excluded`` is usable, and one picked
    twice blocks itself.  Six members that cover no edge three times fill
    6n/2 = 2m edge slots, so six picks cover every edge exactly twice.
    Fail once an open edge has no usable member, which an edge row of 0
    (bridged or matching-free graphs) does at the root.  Otherwise branch
    on the uncovered edge (else the once-covered edge) with the fewest
    usable members, lowest index first: a tried member stays usable in its
    own subtree, for reuse, and is excluded from its later siblings.  On
    success the members picked are appended to ``found``.
    """
    if slots == 0:
        return True
    usable = ~(blocked | excluded)
    best, fewest = 0, 0
    for bits in (full & ~(once | saturated), once):
        prefer = not best  # once-covered edges only when none is uncovered
        while bits:
            low = bits & -bits
            bits ^= low
            cands = rows[low.bit_length() - 1] & usable
            if not cands:
                return False
            if prefer:
                size = cands.bit_count()
                if not best or size < fewest:
                    best, fewest = cands, size
    ex = excluded
    while best:
        low = best & -best
        best ^= low
        member = low.bit_length() - 1
        state = _add_member(masks, rows, once, saturated, blocked, member)
        if _fulkerson_exists(masks, rows, full, slots - 1, ex, *state, found):
            found.append(member)
            return True
        ex |= low
    return False


def fulkerson_covering(g: CubicGraph, catalog: PMCatalog) -> Covering | None:
    """Six members (each used at most twice) covering every edge exactly twice.

    The lexicographically smallest such multiset, by refinement over the
    existence search ``_fulkerson_exists``: each slot in turn takes the
    least member, from the previous one on (reuse is allowed), whose
    completion exists.  A completion found along the way bounds that test:
    its least member completes the slot, so only smaller members are tried.
    ``None`` is returned only when no Fulkerson covering exists in the
    catalog, i.e. a counterexample to the double-cover conjecture for this
    graph.
    """
    check_catalog(g, catalog)
    masks, rows = catalog.masks, catalog.edge_rows
    full = (1 << g.m) - 1
    found: list[int] = []  # members completing `chosen`
    if not _fulkerson_exists(masks, rows, full, 6, 0, 0, 0, 0, found):
        return None
    chosen: list[int] = []
    once = saturated = blocked = 0
    for slot in range(6):
        member = min(found)
        for cand in range(chosen[-1] if chosen else 0, member):
            if blocked >> cand & 1:
                continue
            state = _add_member(masks, rows, once, saturated, blocked, cand)
            trial = [cand]
            below = (1 << cand) - 1
            if _fulkerson_exists(masks, rows, full, 5 - slot, below, *state, trial):
                found, member = trial, cand
                break
        found.remove(member)
        chosen.append(member)
        once, saturated, blocked = _add_member(
            masks, rows, once, saturated, blocked, member
        )
    return Covering.from_indices(catalog, chosen, CoveringKind.FULKERSON)


REPORT_FIELDS = (
    "n", "m", "pm_count", "tau", "tau_cap", "tau_odd", "tau_odd_count",
    "fulkerson", "berge5", "fr_triple", "b", "max_two_pm_union",
    "bridges", "cyclically4ec",
)


def _expire(signum, frame):
    raise DeadlineExceeded


@contextmanager
def _time_limit(deadline: float | None):
    """Raise DeadlineExceeded inside the block once time.monotonic() > deadline.

    A SIGALRM interval timer interrupts whatever runs at that moment, so a
    deadline needs POSIX and the main thread (elsewhere ``signal.signal``
    raises ValueError), and it refuses with ValueError while the caller's own
    interval timer is armed, which it would cancel.  Without a deadline no
    signal is touched.  A deadline too far off for the timer to hold (inf
    among them) is never reached, so it arms no timer.
    """
    if deadline is None:
        yield
        return
    if signal.getitimer(signal.ITIMER_REAL)[0] > 0:
        raise ValueError("a deadline needs the real interval timer, which is armed")
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded
        with suppress(OverflowError):
            signal.setitimer(signal.ITIMER_REAL, remaining)
        yield
    finally:
        try:  # the alarm may still fire here; restore the handler regardless
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


def analyze_graph(
    g: CubicGraph,
    cap: int = DEFAULT_CAP,
    odd_cap: int = DEFAULT_ODD_CAP,
    max_matchings: int | None = None,
    deadline: float | None = None,
) -> tuple[dict, str]:
    """Full per-graph report as a JSON-ready dict, plus a status string.

    Status is "ok", "infeasible" (some edge lies in no perfect matching) or
    "timeout".  tau is reported only up to ``cap`` (at least 3), while
    berge5 (tau <= 5) is decided at every cap.  The ``deadline`` (a
    ``time.monotonic()`` value) bounds every phase, PM enumeration and
    cyclic connectivity included; it is enforced by SIGALRM, so it works on
    POSIX in the main thread only and raises ValueError in any other thread
    or while the caller's own real interval timer is armed.  A timeout keeps
    the fields finished before it; the rest stay None, never guessed.

    The phases run in this order: bridges, cyclic connectivity, PM
    enumeration, pair stats, Fulkerson, tau, tau_odd, FR triple; so a
    timeout in the tau phase or later keeps ``fulkerson``.  The Fulkerson
    phase asks ``_fulkerson_exists`` only whether a covering exists and
    builds no witness.  tau comes from ``_cover_size``, which looks for no
    lex-first witness: when b > 0 and its FR walk of ``catalog.count``
    triples finds no 4-covering, the span or the weight enumerator may
    refute k = 4 before the walk goes on.  Once k = 4 is out, a Fulkerson
    covering gives tau = 5, and only without one is tau >= 5 decided by
    existence.  When tau = 4 and no ``tau_odd_count`` of size 5 would be
    reported (``_odd_count_reported``), tau_odd is 5 without an odd search, a
    weight-enumerator pass or a derived covering: a 4-covering plus its
    doubly covered matching is an odd 5-covering, and tau_odd is odd and at
    least tau.  Otherwise tau_odd and its count come
    from ``_odd_cover_size``, which reads the weight-enumerator pass the tau
    phase ran, if it ran, and searches for no witness when the enumerator
    settles them.  A NaN ``deadline`` and a graph too big to enumerate
    (EnumerationTooDeep) are refused before the first phase.
    """
    check_cap(cap)
    if deadline is not None and math.isnan(deadline):
        raise ValueError("deadline must be a time.monotonic() value, got nan")
    check_enumeration_depth(g)
    metrics: dict = {key: None for key in REPORT_FIELDS}
    metrics["n"], metrics["m"] = g.n, g.m
    metrics["tau_cap"] = cap
    status = "ok"
    try:
        with _time_limit(deadline):
            metrics["bridges"] = len(find_bridges(g))
            if g.is_connected():
                metrics["cyclically4ec"] = cyclic_connectivity_at_least(g, 4)
            catalog = enumerate_perfect_matchings(g, max_matchings)
            metrics["pm_count"] = catalog.count
            if catalog.count >= 2:
                stats = catalog.pair_stats
                metrics["b"] = stats.min_intersection
                metrics["max_two_pm_union"] = stats.max_union
            fulkerson = _fulkerson_exists(
                catalog.masks, catalog.edge_rows, (1 << g.m) - 1, 6, 0, 0, 0, 0, []
            )
            metrics["fulkerson"] = fulkerson
            # one search decides tau up to cap and berge5 (tau <= 5)
            tau = _cover_size(g, catalog, max(cap, 5), fulkerson)
            if tau.status == "infeasible":
                status = "infeasible"
            elif tau.status == "ok" and tau.tau <= cap:
                metrics["tau"] = tau.tau
            if (
                tau.tau == 4
                and odd_cap >= 5
                and not _odd_count_reported(5, catalog)
            ):
                odd = OddCoverResult("ok", odd_cap, 5)
            else:
                odd = _odd_cover_size(g, catalog, odd_cap)
            if odd.status == "ok":
                metrics["tau_odd"] = odd.size
                metrics["tau_odd_count"] = odd.count_minimum
            elif odd.status == "none_exists":
                metrics["tau_odd_count"] = 0
            metrics["berge5"] = tau.tau is not None and tau.tau <= 5
            metrics["fr_triple"] = bool(find_fr_triples(catalog, limit=1))
    except DeadlineExceeded:
        status = "timeout"
    return metrics, status
