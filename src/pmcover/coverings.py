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
  for k >= 5;
* tau = 4 gives tau_odd = 5: adding the doubly covered matching to a
  4-covering makes it odd, and tau_odd is odd and at least tau;
  ``analyze_graph`` takes tau_odd from that rule whenever no count is
  reported, so no odd search or count runs there;
* an odd s-covering is an s-set of columns of the edge x matching matrix
  over GF(2) whose XOR is all-ones, and when b > 0 the number of them,
  for every s at once, comes from the weight enumerator of the row space:
  one pass over the 2^r row combinations, r the rank (n/2 + 1 on the
  snarks tried).  The pass costs 2^r whatever the catalog, so above
  ``WEIGHT_ENUMERATOR_MAX_RANK`` the subset search runs instead; it also
  runs when b = 0, where a disjoint pair settles tau_odd = 3 at once.  The
  subset search still finds the witness, at the minimum size alone.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right
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
from .gf2 import gf2_all_ones_subset_counts, gf2_in_span
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
        members = tuple(sorted(indices))
        matchings = tuple(catalog.matchings[i] for i in members)
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
    by_edge: tuple[tuple[int, ...], ...],
    uncovered: int,
    slots: int,
    lo: int,
    excluded: int,
    half: int,
) -> bool:
    """Can <= slots distinct members with index >= lo cover `uncovered`?

    Branch on the uncovered edge with the fewest usable members; members
    skipped at a branch point are excluded from the whole subtree.
    """
    if uncovered == 0:
        return True
    if slots == 0 or uncovered.bit_count() > slots * half:
        return False
    best: list[int] | None = None
    bits = uncovered
    while bits:
        low = bits & -bits
        bits ^= low
        cands = [
            i
            for i in by_edge[low.bit_length() - 1]
            if i >= lo and not (excluded >> i) & 1
        ]
        if not cands:
            return False
        if best is None or len(cands) < len(best):
            best = cands
            if len(best) == 1:
                break
    assert best is not None
    ex = excluded
    for i in best:
        if _min_cover_exists(
            masks, by_edge, uncovered & ~masks[i], slots - 1, lo, ex, half
        ):
            return True
        ex |= 1 << i
    return False


def _lex_cover(
    masks: tuple[int, ...],
    by_edge: tuple[tuple[int, ...], ...],
    full: int,
    k: int,
    half: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest set of k distinct members covering full."""
    count = len(masks)
    if count < k:
        return None
    if not _min_cover_exists(masks, by_edge, full, k, 0, 0, half):
        return None
    chosen: list[int] = []
    uncovered = full
    lo = 0
    for slot in range(k):
        remaining = k - slot - 1
        for cand in range(lo, count - remaining):
            rest = uncovered & ~masks[cand]
            if _min_cover_exists(masks, by_edge, rest, remaining, cand + 1, 0, half):
                chosen.append(cand)
                uncovered = rest
                lo = cand + 1
                break
        else:
            raise AssertionError("lex refinement lost a feasible cover")
    return tuple(chosen)


def _fr_triples(masks: tuple[int, ...]):
    """FR triples i < j < k (no edge in all three) in lex order, with their union."""
    count = len(masks)
    for i in range(count):
        mi = masks[i]
        for j in range(i + 1, count):
            mij, cover_ij = mi & masks[j], mi | masks[j]
            for k in range(j + 1, count):
                mk = masks[k]
                if not mij & mk:
                    yield i, j, k, cover_ij | mk


def _four_cover(
    masks: tuple[int, ...],
    by_edge: tuple[tuple[int, ...], ...],
    full: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest 4-covering, given that no 3-covering exists.

    Every 3 members of a 4-covering form an FR triple, so walking the FR
    triples i<j<k in lex order and completing each with the smallest l > k
    that contains T0, the edges the triple leaves uncovered, finds the
    lex-smallest 4-covering first.
    """
    for i, j, k, union in _fr_triples(masks):
        t0 = full & ~union
        # an FR triple covering E would be a 3-covering
        assert t0, "3-covering reached the 4-covering search"
        holders = by_edge[(t0 & -t0).bit_length() - 1]
        for pos in range(bisect_right(holders, k), len(holders)):
            if masks[holders[pos]] & t0 == t0:
                return i, j, k, holders[pos]
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


def covering_number(
    g: CubicGraph, catalog: PMCatalog, cap: int = DEFAULT_CAP
) -> TauResult:
    """Exact minimum number of catalog members whose union is E(g).

    Returns infeasible when some edge lies in no perfect matching (bridged
    graphs), and exceeds when the minimum is larger than ``cap``.  A
    3-covering partitions E, so it is ruled out without search unless two
    members are disjoint.  A 4-covering is found by walking FR triples
    (``_four_cover``), and larger ones by branch-and-bound set cover.  The
    witness is the lexicographically smallest covering in every case.
    """
    check_catalog(g, catalog)
    check_cap(cap)
    masks, by_edge = catalog.masks, catalog.by_edge
    full = (1 << g.m) - 1
    if catalog.union != full:
        return TauResult("infeasible", cap)
    half = g.n // 2
    for k in range(3, cap + 1):
        if k == 3 and not _has_disjoint_pair(catalog):
            continue
        if k == 4:
            witness_idx = _four_cover(masks, by_edge, full)
        else:
            witness_idx = _lex_cover(masks, by_edge, full, k, half)
        if witness_idx is not None:
            witness = Covering.from_indices(catalog, witness_idx, CoveringKind.PLAIN)
            return TauResult("ok", cap, k, witness)
    return TauResult("exceeds", cap)


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
    return [t[:3] for t in islice(_fr_triples(catalog.masks), limit)]


def fr_structure(
    g: CubicGraph, catalog: PMCatalog, triple: tuple[int, int, int]
) -> FRStructure:
    """T0/T1/T2 partition of an FR-triple, with its alternating even cycles."""
    check_catalog(g, catalog)
    m1, m2, m3 = (catalog.masks[i] for i in triple)
    if m1 & m2 & m3:
        raise NotFRTriple("matchings have a common edge")
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


# The weight-enumerator pass walks 2^r row combinations, r the GF(2) rank of
# the edge x matching matrix (n/2 + 1 on the snarks tried; r = 20 takes about
# 0.3 s and each step up doubles it); above this rank the subset search runs.
WEIGHT_ENUMERATOR_MAX_RANK = 20


def _odd_counts(catalog: PMCatalog, sizes) -> dict[int, int] | None:
    """The number of odd coverings of each size, given that one exists.

    Row e of the edge x matching matrix has bit i set when member i holds
    edge e.  None when its rank exceeds ``WEIGHT_ENUMERATOR_MAX_RANK``.
    """
    rows = (sum(1 << i for i in holders) for holders in catalog.by_edge)
    return gf2_all_ones_subset_counts(
        rows, catalog.count, sizes, WEIGHT_ENUMERATOR_MAX_RANK
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
    if not gf2_in_span(masks, full):
        return OddCoverResult("none_exists", cap)
    sizes = range(3, min(cap, catalog.count) + 1, 2)
    colourable = _has_disjoint_pair(catalog)
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


def fulkerson_covering(g: CubicGraph, catalog: PMCatalog) -> Covering | None:
    """Six members (each used at most twice) covering every edge exactly twice.

    Exhaustive search; ``None`` is returned only when no Fulkerson covering
    exists in the catalog, i.e. a counterexample to the double-cover
    conjecture for this graph.
    """
    check_catalog(g, catalog)
    masks = catalog.masks
    count = len(masks)
    full = (1 << g.m) - 1
    # reach[i] = the edges lying in some member with index >= i
    reach = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]

    chosen: list[int] = []

    def dfs(lo: int, slots: int, once: int, saturated: int) -> bool:
        """`once`/`saturated`: the edges the chosen members cover once/twice.

        Six members that cover no edge three times fill 6n/2 = 2m edge
        slots, so a full pick covers every edge exactly twice.  A member
        picked twice is saturated, so the mask test also caps reuse at two.
        """
        if slots == 0:
            return True
        # an edge not yet covered twice that no remaining member contains
        if full & ~saturated & ~reach[lo]:
            return False
        for cand in range(lo, count):
            mask = masks[cand]
            if mask & saturated:
                continue
            chosen.append(cand)
            if dfs(cand, slots - 1, once ^ mask, saturated | (once & mask)):
                return True
            chosen.pop()
        return False

    if dfs(0, 6, 0, 0):
        return Covering.from_indices(catalog, chosen, CoveringKind.FULKERSON)
    return None


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

    When tau = 4 and no ``tau_odd_count`` of size 5 would be reported
    (``_odd_count_reported``), tau_odd is 5 without an odd search or a
    weight-enumerator pass: a 4-covering plus its doubly covered matching
    is an odd 5-covering, and tau_odd is odd and at least tau.  Otherwise
    tau_odd and its count come from ``_odd_cover_size``, which searches
    for no witness when the weight enumerator settles them.
    """
    check_cap(cap)
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
            # one search decides tau up to cap and berge5 (tau <= 5)
            tau = covering_number(g, catalog, max(cap, 5))
            if tau.status == "infeasible":
                status = "infeasible"
            elif tau.status == "ok" and tau.tau <= cap:
                metrics["tau"] = tau.tau
            if (
                tau.tau == 4
                and odd_cap >= 5
                and not _odd_count_reported(5, catalog)
            ):
                odd5 = odd_covering_from_four_covering(tau.witness)
                odd = OddCoverResult("ok", odd_cap, odd5.size, odd5)
            else:
                odd = _odd_cover_size(g, catalog, odd_cap)
            if odd.status == "ok":
                metrics["tau_odd"] = odd.size
                metrics["tau_odd_count"] = odd.count_minimum
            elif odd.status == "none_exists":
                metrics["tau_odd_count"] = 0
            metrics["berge5"] = tau.tau is not None and tau.tau <= 5
            metrics["fr_triple"] = bool(find_fr_triples(catalog, limit=1))
            metrics["fulkerson"] = fulkerson_covering(g, catalog) is not None
    except DeadlineExceeded:
        status = "timeout"
    return metrics, status
