import math
import random
import signal
import threading
import time
from functools import partial
from itertools import combinations

import pytest

from pmcover.compositions import k4_composition, tau5odd_example, three_cut_join
from pmcover.errors import (
    CatalogError,
    CatalogMismatch,
    DeadlineExceeded,
    InvalidParams,
    NotACovering,
    NotFRTriple,
    NotOdd,
    NotSize4,
)
from pmcover.generators import (
    blanusa,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    k4,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from pmcover.gf2 import gf2_in_span, gf2_signed_weights
from pmcover.graphs import EdgeSet, find_bridges, is_perfect_matching
from pmcover.matchings import enumerate_perfect_matchings
from pmcover.coverings import (
    Covering,
    CoveringKind,
    analyze_graph,
    covering_multiplicities,
    covering_number,
    double_covering,
    even_covering_from_four_covering,
    find_fr_triples,
    fr_structure,
    fulkerson_covering,
    odd_covering_from_four_covering,
    odd_covering_number,
)
from pmcover import coverings, matchings
from pmcover.coverings import (
    _cover_size,
    _lex_cover,
    _min_cover_exists,
    _odd_counts,
    _odd_subsets,
)

from test_graphs import bridged_double_k4
from test_matchings import matching_free_cubic


def catalog_of(g):
    return g, enumerate_perfect_matchings(g)


class TestCoveringNumber:
    @pytest.mark.parametrize(
        "graph,tau",
        [(petersen(), 5), (k33(), 3), (k4(), 3), (theta(), 3),
         (blanusa(1), 4), (blanusa(2), 4), (tau5odd_example(), 5)],
    )
    def test_known_values(self, graph, tau):
        g, cat = catalog_of(graph)
        assert covering_number(g, cat, cap=6).tau == tau

    def test_cap_exceeded_result(self):
        g, cat = catalog_of(three_cut_join(petersen(), 0, k33(), 0))
        res = covering_number(g, cat, cap=4)
        assert res.status == "exceeds" and res.tau is None

    def test_infeasible_iff_bridged(self):
        g, cat = catalog_of(bridged_double_k4())
        assert covering_number(g, cat, cap=6).status == "infeasible"
        for seed in range(6):
            h = random_bridgeless_cubic(12, seed)
            hcat = enumerate_perfect_matchings(h)
            res = covering_number(h, hcat, cap=6)
            assert (res.status == "infeasible") == bool(find_bridges(h))

    def test_witness_is_lex_smallest(self):
        g, cat = catalog_of(petersen())
        res = covering_number(g, cat, cap=6)
        assert res.witness.members == (0, 1, 2, 3, 4)
        # any five of the six matchings cover, so this really is the minimum
        masks = cat.masks
        full = (1 << g.m) - 1
        for sub in combinations(range(6), 5):
            acc = 0
            for i in sub:
                acc |= masks[i]
            assert acc == full

    def test_catalog_mismatch(self):
        _, cat = catalog_of(petersen())
        with pytest.raises(CatalogMismatch):
            covering_number(k4(), cat)

    def test_matches_exhaustive_subset_search(self):
        for graph in (petersen(), k33(), prism(5), blanusa(2), flower_snark(3)):
            g, cat = catalog_of(graph)
            masks = cat.masks
            full = (1 << g.m) - 1
            for k in (3, 4):
                exists = any(
                    _union(masks, sub) == full
                    for size in range(1, k + 1)
                    for sub in combinations(range(cat.count), size)
                )
                res = covering_number(g, cat, cap=k)
                assert exists == (res.status == "ok")


    @pytest.mark.parametrize(
        "make",
        [lambda: blanusa(1), lambda: blanusa(2), lambda: flower_snark(3),
         lambda: flower_snark(5), lambda: flower_snark(7),
         lambda: goldberg_graph(5), lambda: generalized_blanusa(1, 3),
         tau5odd_example,
         lambda: k4_composition([(petersen(), 0), (petersen(), 0),
                                 (k33(), 0), (k33(), 0)])],
        ids=["blanusa1", "blanusa2", "flower3", "flower5", "flower7",
             "goldberg5", "gblanusa1-3", "tau5odd", "K4(P,P,K33,K33)"],
    )
    def test_cap_4_matches_branch_and_bound(self, make):
        # cap 4 settles k = 4 by walking FR triples; _lex_cover is the oracle
        g, cat = catalog_of(make())
        res = covering_number(g, cat, cap=4)
        expected = lex_cover(g, cat, 3) or lex_cover(g, cat, 4)
        assert (res.witness.members if res.witness else None) == expected

    @pytest.mark.parametrize(
        "graph",
        [petersen(), blanusa(1), flower_snark(5), tau5odd_example(),  # b > 0
         k4(), k33(), prism(4), flower_snark(3)]
        + [random_bridgeless_cubic(n, seed) for n in (10, 14) for seed in range(3)]
        # b = 0 on all of these: the lex-first 3-covering starts with the
        # first disjoint pair of pair_stats
        + [theta(), prism(3), prism(5), prism(6)]
        + [random_bridgeless_cubic(n, seed) for n in (12, 16, 18, 20) for seed in range(5)],
    )
    def test_size_3_matches_exhaustive_search(self, graph):
        g, cat = catalog_of(graph)
        full = (1 << g.m) - 1
        triples = list(combinations(range(cat.count), 3))
        covers = [t for t in triples if _union(cat.masks, t) == full]
        res = covering_number(g, cat, cap=3)
        assert (res.witness.members if res.witness else None) == (
            covers[0] if covers else None
        )
        odd = [t for t in triples if _xor(cat.masks, t) == full]
        res = odd_covering_number(g, cat, cap=3)
        if res.status == "none_exists":
            assert not odd
        else:
            assert (res.witness.members if res.witness else None) == (
                odd[0] if odd else None
            )
            assert res.count_minimum == (len(odd) if odd else None)

    @pytest.mark.parametrize(
        "make",
        [lambda: blanusa(1), lambda: blanusa(2), lambda: flower_snark(3),
         lambda: flower_snark(5), tau5odd_example, petersen]
        + [partial(random_bridgeless_cubic, n, seed)
           for n, seed in ((14, 226), (14, 231), (14, 246), (16, 98))],
        ids=["blanusa1", "blanusa2", "flower3", "flower5", "tau5odd", "petersen",
             "random:14:226", "random:14:231", "random:14:246", "random:16:98"],
    )
    def test_lex_first_witness_matches_exhaustive_search(self, make):
        # b > 0 on all of them, so the witness comes from the FR walk (tau 4)
        # or the set cover (tau 5), never from a disjoint pair
        g, cat = catalog_of(make())
        full = (1 << g.m) - 1
        res = covering_number(g, cat)
        assert res.status == "ok" and res.tau >= 4
        assert not any(
            _union(cat.masks, sub) == full
            for sub in combinations(range(cat.count), res.tau - 1)
        )
        first = next(
            sub for sub in combinations(range(cat.count), res.tau)
            if _union(cat.masks, sub) == full
        )
        assert res.witness.members == first


def _xor(masks, sub):
    acc = 0
    for i in sub:
        acc ^= masks[i]
    return acc


def _union(masks, sub):
    acc = 0
    for i in sub:
        acc |= masks[i]
    return acc


def lex_cover(g, cat, k):
    """The lex-smallest k distinct members covering E(g), or None."""
    return _lex_cover(cat.masks, cat.edge_rows, (1 << g.m) - 1, k, g.n // 2)


def tau_by_existence(g, cat):
    """The least k >= 3 for which _min_cover_exists finds a k-covering."""
    full = (1 << g.m) - 1
    k = 3
    rows = cat.edge_rows
    while not _min_cover_exists(cat.masks, rows, full, k, 0, 0, g.n // 2):
        k += 1
    return k


def k4_of(*blocks):
    return k4_composition([(block, 0) for block in blocks])


def signed_weights_by_subsets(rows, width):
    """gf2_signed_weights by a direct sum over every subset u of the rows."""
    signed = [0] * (width + 1)
    for u in range(1 << len(rows)):
        total = 0
        for j, row in enumerate(rows):
            if (u >> j) & 1:
                total ^= row
        signed[total.bit_count()] += -1 if u.bit_count() % 2 else 1
    return tuple((w, d) for w, d in enumerate(signed) if d)


# analyze_graph reports on two of the paper's tau = 5 instances
TAU5_REPORT = {
    "bridges": 0, "cyclically4ec": False, "tau": 5, "tau_cap": 6,
    "tau_odd": 7, "fulkerson": True, "berge5": True, "fr_triple": True,
    "b": 1,
}
TAU5ODD_REPORT = dict(
    TAU5_REPORT, n=20, m=30, pm_count=20, max_two_pm_union=19,
    tau_odd_count=64,
)
PPKK_REPORT = dict(
    TAU5_REPORT, n=28, m=42, pm_count=80, max_two_pm_union=27,
    tau_odd_count=None,
)
PRISM5_REPORT = {
    "n": 10, "m": 15, "pm_count": 11, "tau": 3, "tau_cap": 6, "tau_odd": 3,
    "tau_odd_count": 5, "fulkerson": True, "berge5": True, "fr_triple": True,
    "b": 0, "max_two_pm_union": 10, "bridges": 0, "cyclically4ec": True,
}
FLOWER5_REPORT = {
    "n": 20, "m": 30, "pm_count": 32, "tau": 4, "tau_cap": 6, "tau_odd": 5,
    "tau_odd_count": 230, "fulkerson": True, "berge5": True, "fr_triple": True,
    "b": 1, "max_two_pm_union": 19, "bridges": 0, "cyclically4ec": True,
}
BRIDGED_REPORT = {
    "n": 10, "m": 15, "pm_count": 4, "tau": None, "tau_cap": 6,
    "tau_odd": None, "tau_odd_count": 0, "fulkerson": False, "berge5": False,
    "fr_triple": False, "b": 1, "max_two_pm_union": 9, "bridges": 1,
    "cyclically4ec": False,
}


class TestCoverSize:
    """Each branch of _cover_size, with _min_cover_exists as the oracle."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The FR triples the covering searches walk, in order."""
        steps = []
        walk = coverings._fr_triples

        def counted(*args):
            for triple in walk(*args):
                steps.append(triple[:3])
                yield triple

        monkeypatch.setattr(coverings, "_fr_triples", counted)
        return steps

    @pytest.mark.parametrize(
        "make,rank,steps,tau,enumerated",
        [
            # the 4-covering lies within the budget of 32 triples, one per
            # member
            (lambda: flower_snark(5), 11, 23, 4, False),
            (lambda: flower_snark(9), 19, 427, 4, False),
            # the budget of 20 (80) triples is spent and N_5 = 0 refutes k = 4
            (tau5odd_example, 11, 20, 5, True),
            (lambda: k4_of(petersen(), petersen(), k33(), k33()), 15, 80, 5, True),
            # the budget of 10 is spent, N_5 = 2 refutes nothing, and the walk
            # resumes to the 4-covering at its 13th triple
            (lambda: random_bridgeless_cubic(14, 226), 8, 13, 4, True),
            # the budget of 6 is spent and the all-ones vector is outside the
            # span: no pass is needed
            (petersen, 5, 6, 5, False),
            # rank 21 is above the limit, but the 4-covering lies within the
            # budget of 584
            (lambda: goldberg_graph(5), 21, 91, 4, False),
        ],
        ids=["flower5", "flower9", "tau5odd", "K4(P,P,K33,K33)",
             "random:14:226", "petersen", "goldberg5"],
    )
    def test_branch(self, walked, make, rank, steps, tau, enumerated):
        g, cat = catalog_of(make())
        assert cat.pair_stats.min_intersection > 0
        res = _cover_size(g, cat, 6)
        assert len(cat.edge_row_basis) == rank
        assert len(walked) == steps
        assert ("weight_enumerator" in vars(cat)) == enumerated
        assert res.status == "ok" and res.tau == tau == tau_by_existence(g, cat)
        if tau == 4:  # the walk's witness, the lex-first 4-covering
            assert res.witness.members[:3] == walked[-1]
            assert res.witness.members == lex_cover(g, cat, 4)
        else:
            assert res.witness is None

    @pytest.mark.parametrize(
        "make",
        [lambda: flower_snark(7), lambda: goldberg_graph(5),
         lambda: generalized_blanusa(1, 3)],
        ids=["flower7", "goldberg5", "gblanusa1-3"],
    )
    def test_analyze_of_a_tau_4_graph_runs_no_rank_reduction(
        self, monkeypatch, make
    ):
        # the walk finds the 4-covering within its budget, and tau_odd = 5
        # follows from tau = 4 (no count of size 5 is reported here)
        catalogs = []
        enumerate_ = coverings.enumerate_perfect_matchings

        def kept(*args):
            catalogs.append(enumerate_(*args))
            return catalogs[-1]

        monkeypatch.setattr(coverings, "enumerate_perfect_matchings", kept)
        metrics, status = analyze_graph(make())
        assert status == "ok" and (metrics["tau"], metrics["tau_odd"]) == (4, 5)
        built = {"edge_row_reduction", "weight_enumerator"}
        assert not built & set(vars(catalogs[0]))

    @pytest.mark.parametrize(
        "make,report,reductions",
        [(tau5odd_example, TAU5ODD_REPORT, 1),
         (lambda: prism(5),
          {"b": 0, "tau": 3, "tau_odd": 3, "tau_odd_count": 5}, 0)],
        ids=["tau5odd", "prism5"],
    )
    def test_analyze_reduces_the_all_ones_span_once(
        self, monkeypatch, make, report, reductions
    ):
        # a disjoint pair (b = 0) puts all-ones in the span without a reduction
        calls = []
        reduction = matchings.gf2_row_reduction

        def counted(rows):
            calls.append(rows)
            return reduction(rows)

        monkeypatch.setattr(matchings, "gf2_row_reduction", counted)
        metrics, status = analyze_graph(make())
        assert status == "ok" and len(calls) == reductions
        assert {key: metrics[key] for key in report} == report

    @pytest.mark.parametrize(
        "make,report",
        [(tau5odd_example, TAU5ODD_REPORT),
         (lambda: k4_of(petersen(), petersen(), k33(), k33()), PPKK_REPORT)],
        ids=["tau5odd", "K4(P,P,K33,K33)"],
    )
    def test_analyze_takes_tau_5_from_the_fulkerson_covering(
        self, monkeypatch, make, report
    ):
        def no_search(*args):
            raise AssertionError("set-cover search ran")

        monkeypatch.setattr(coverings, "_min_cover_exists", no_search)
        assert analyze_graph(make()) == (report, "ok")

    def test_analyze_without_a_fulkerson_covering_searches_for_tau_5(
        self, monkeypatch
    ):
        searches = []
        search = coverings._min_cover_exists

        def counted(*args):
            searches.append(args[3])
            return search(*args)

        monkeypatch.setattr(coverings, "_fulkerson_exists", lambda *args: False)
        monkeypatch.setattr(coverings, "_min_cover_exists", counted)
        metrics, status = analyze_graph(tau5odd_example())
        assert status == "ok" and searches[0] == 5
        assert (metrics["tau"], metrics["berge5"], metrics["fulkerson"]) == (
            5, True, False
        )

    @pytest.mark.parametrize(
        "make,report,status",
        [(tau5odd_example, TAU5ODD_REPORT, "ok"),
         (lambda: k4_of(petersen(), petersen(), k33(), k33()), PPKK_REPORT, "ok"),
         (lambda: prism(5), PRISM5_REPORT, "ok"),
         (lambda: flower_snark(5), FLOWER5_REPORT, "ok"),
         (bridged_double_k4, BRIDGED_REPORT, "infeasible")],
        ids=["tau5odd", "K4(P,P,K33,K33)", "prism5", "flower5", "bridged"],
    )
    def test_analyze_builds_no_fulkerson_witness(
        self, monkeypatch, make, report, status
    ):
        def no_witness(*args):
            raise AssertionError("lex-first Fulkerson covering built")

        monkeypatch.setattr(coverings, "fulkerson_covering", no_witness)
        assert analyze_graph(make()) == (report, status)

    def test_b_0_takes_the_lex_first_3_covering(self, walked):
        g, cat = catalog_of(prism(5))
        res = _cover_size(g, cat, 6)
        assert res.tau == 3 and res.witness.members == lex_cover(g, cat, 3)
        assert not walked and "edge_row_reduction" not in vars(cat)

    @pytest.mark.parametrize(
        "make,tau,members",
        [(tau5odd_example, 5, (0, 2, 4, 9, 19)),
         (lambda: flower_snark(5), 4, (0, 7, 11, 31))],
        ids=["tau5odd", "flower5"],
    )
    def test_covering_number_keeps_its_lex_first_witness(self, make, tau, members):
        g, cat = catalog_of(make())
        res = covering_number(g, cat, 6)
        assert (res.tau, res.witness.members) == (tau, members)
        assert res.witness.members == lex_cover(g, cat, tau)


class TestFindKCovering:
    def test_petersen_has_no_4_covering(self):
        g, cat = catalog_of(petersen())
        assert lex_cover(g, cat, 4) is None

    def test_petersen_5_covering(self):
        g, cat = catalog_of(petersen())
        assert lex_cover(g, cat, 5) == (0, 1, 2, 3, 4)

    def test_flower5_4_covering(self):
        g, cat = catalog_of(flower_snark(5))
        chosen = lex_cover(g, cat, 4)
        assert len(chosen) == 4 and _union(cat.masks, chosen) == (1 << g.m) - 1

    def test_padding_allowed_when_tau_is_smaller(self):
        g, cat = catalog_of(k33())
        chosen = lex_cover(g, cat, 4)
        assert len(chosen) == 4 and _union(cat.masks, chosen) == (1 << g.m) - 1

    @pytest.mark.parametrize(
        "make",
        [petersen, lambda: flower_snark(3), lambda: blanusa(1),
         lambda: flower_snark(5), partial(random_bridgeless_cubic, 14, 226)],
        ids=["petersen", "flower3", "blanusa1", "flower5", "random:14:226"],
    )
    def test_min_cover_exists_matches_exhaustive_search(self, make):
        # random partial covers, index floors and excluded members
        g, cat = catalog_of(make())
        rng = random.Random(g.m)
        for _ in range(60):
            picked = rng.sample(range(cat.count), rng.randint(0, 2))
            uncovered = ((1 << g.m) - 1) & ~_union(cat.masks, picked)
            slots = rng.randint(1, 4)
            lo = rng.randrange(cat.count // 2)
            excluded = rng.getrandbits(cat.count) & rng.getrandbits(cat.count)
            usable = [i for i in range(lo, cat.count) if not (excluded >> i) & 1]
            expect = any(
                not uncovered & ~_union(cat.masks, sub)
                for s in range(slots + 1)
                for sub in combinations(usable, s)
            )
            assert _min_cover_exists(
                cat.masks, cat.edge_rows, uncovered, slots, lo, excluded, g.n // 2
            ) == expect

    def test_k_below_3_rejected(self):
        g, cat = catalog_of(k4())
        with pytest.raises(InvalidParams):
            covering_number(g, cat, cap=2)


class TestMultiplicities:
    def test_blanusa_doubly_covered_is_pm_of_size_9(self):
        g, cat = catalog_of(blanusa(1))
        cov = covering_number(g, cat, cap=4).witness
        report = covering_multiplicities(cov)
        assert len(report.doubly_covered) == 9
        assert is_perfect_matching(g, report.doubly_covered)

    def test_flower5_doubly_covered_size_10(self):
        g, cat = catalog_of(flower_snark(5))
        cov = covering_number(g, cat, cap=4).witness
        assert len(covering_multiplicities(cov).doubly_covered) == 10

    def test_tau4_witness_pairwise_intersections_nonempty(self):
        g, cat = catalog_of(blanusa(2))
        cov = covering_number(g, cat, cap=4).witness
        for a, b in combinations(cov.members, 2):
            assert cat.matchings[a] & cat.matchings[b]

    def test_wrong_size_rejected(self):
        g, cat = catalog_of(petersen())
        with pytest.raises(NotSize4):
            covering_multiplicities(
                covering_number(g, cat, cap=6).witness
            )

    def test_non_covering_rejected(self):
        g, cat = catalog_of(petersen())
        bad = Covering(g, tuple(cat.matchings[:4]), CoveringKind.PLAIN, cat, (0, 1, 2, 3))
        with pytest.raises(NotACovering):
            covering_multiplicities(bad)


class TestFRTriples:
    def test_petersen_all_20_triples_qualify(self):
        _, cat = catalog_of(petersen())
        triples = find_fr_triples(cat)
        assert len(triples) == 20 == math.comb(6, 3)

    def test_k4_single_triple(self):
        _, cat = catalog_of(k4())
        assert find_fr_triples(cat) == [(0, 1, 2)]

    def test_limit(self):
        _, cat = catalog_of(petersen())
        assert len(find_fr_triples(cat, limit=5)) == 5

    @pytest.mark.parametrize("limit", [None, 1, 5])
    @pytest.mark.parametrize(
        "graph", [petersen(), blanusa(1), tau5odd_example()],
        ids=["petersen", "blanusa1", "tau5odd"],
    )
    def test_matches_brute_force_triple_scan(self, graph, limit):
        _, cat = catalog_of(graph)
        masks = cat.masks
        brute = [
            (i, j, k) for i, j, k in combinations(range(cat.count), 3)
            if masks[i] & masks[j] & masks[k] == 0
        ]
        assert len(brute) > 5
        assert find_fr_triples(cat, limit) == brute[:limit]

    def test_petersen_structure(self):
        g, cat = catalog_of(petersen())
        s = fr_structure(g, cat, (0, 1, 2))
        assert len(s.double) == 3 and len(s.uncovered) == 3 and len(s.single) == 9
        assert len(s.alternating_cycles) == 1
        assert len(s.alternating_cycles[0]) == 6
        # vertex-degree identity: |T1| + 2 |T2| = 3n/2
        assert len(s.single) + 2 * len(s.double) == 3 * g.n // 2

    def test_k4_structure_vacuous(self):
        g, cat = catalog_of(k4())
        s = fr_structure(g, cat, (0, 1, 2))
        assert not s.double and not s.uncovered
        assert len(s.single) == 6
        assert s.alternating_cycles == ()

    def test_blanusa_alternation(self):
        g, cat = catalog_of(blanusa(1))
        triple = find_fr_triples(cat, limit=1)[0]
        s = fr_structure(g, cat, triple)  # internal assertions check alternation
        assert all(len(c) % 2 == 0 for c in s.alternating_cycles)

    def test_rejects_non_fr_triple(self):
        g, cat = catalog_of(petersen())
        # a triple with a common edge does not exist for Petersen, so build
        # one on the bridged graph where every matching shares the bridge
        gb, catb = catalog_of(bridged_double_k4())
        with pytest.raises(NotFRTriple):
            fr_structure(gb, catb, (0, 1, 2))

    def test_rejects_a_repeated_member(self):
        # K4's matchings are pairwise disjoint, so (0, 0, 1) has no common
        # edge, but it is no triple i < j < k of find_fr_triples
        g, cat = catalog_of(k4())
        with pytest.raises(NotFRTriple, match="distinct"):
            fr_structure(g, cat, (0, 0, 1))

    @pytest.mark.parametrize("triple,bad", [((-1, 0, 1), -1), ((0, 1, 3), 3)])
    def test_rejects_an_index_outside_the_catalog(self, triple, bad):
        # a negative index would wrap around to the last member
        g, cat = catalog_of(k4())
        with pytest.raises(CatalogError, match=f"index {bad} .* of 3"):
            fr_structure(g, cat, triple)


class TestOddCoverings:
    def test_petersen_has_none(self):
        g, cat = catalog_of(petersen())
        res = odd_covering_number(g, cat, cap=7)
        assert res.status == "none_exists"
        assert not gf2_in_span(cat.masks, (1 << g.m) - 1)

    def test_k4_size_3(self):
        g, cat = catalog_of(k4())
        res = odd_covering_number(g, cat, cap=7)
        assert res.size == 3 and res.count_minimum == 1

    def test_blanusa_size_5(self):
        for which in (1, 2):
            g, cat = catalog_of(blanusa(which))
            res = odd_covering_number(g, cat, cap=7)
            assert res.size == 5

    def test_example_graph_counts(self):
        g, cat = catalog_of(tau5odd_example())
        res = odd_covering_number(g, cat, cap=7)
        assert res.size == 7 and res.count_minimum == 64
        assert math.comb(cat.count, 7) == 77520

    def test_witness_is_odd_everywhere(self):
        g, cat = catalog_of(blanusa(1))
        res = odd_covering_number(g, cat, cap=7)
        assert all(c % 2 == 1 for c in res.witness.multiplicities())

    def test_no_even_size_subset_is_an_odd_covering(self):
        # parity argument: at each vertex the three odd multiplicities sum
        # to the size, so odd coverings have odd size; verify exhaustively
        for graph in (k4(), k33(), petersen(), prism(4)):
            g, cat = catalog_of(graph)
            masks = cat.masks
            full = (1 << g.m) - 1
            for size in (2, 4):
                for sub in combinations(range(cat.count), size):
                    acc = 0
                    for i in sub:
                        acc ^= masks[i]
                    assert acc != full

    def test_cap_exceeded(self):
        g, cat = catalog_of(tau5odd_example())
        res = odd_covering_number(g, cat, cap=5)
        assert res.status == "exceeds"

    def test_gf2_matches_exhaustive_existence(self):
        from test_graphs import random_cubic_any
        import random

        rng = random.Random(17)
        graphs = [k4(), k33(), petersen(), prism(5), tau5odd_example()]
        graphs += [random_cubic_any(12, rng) for _ in range(10)]
        for g in graphs:
            cat = enumerate_perfect_matchings(g)
            if not (1 <= cat.count <= 25):
                continue
            masks = cat.masks
            full = (1 << g.m) - 1
            sub_exists = _subset_xor_exists(masks, full)
            assert sub_exists == gf2_in_span(masks, full)


def _subset_xor_exists(masks, target):
    half = len(masks) // 2
    reach = {0}
    for mask in masks[:half]:
        reach |= {x ^ mask for x in reach}
    probe = {0}
    for mask in masks[half:]:
        probe |= {x ^ mask for x in probe}
    return any((target ^ p) in reach for p in probe)


class TestWeightEnumerator:
    """Odd-covering counts from the weight enumerator of the matching code."""

    # random:14:226, :246 and :264 have b = 1, the other random graphs b = 0;
    # Petersen is left out, as the all-ones vector is not in its span
    RANDOM = [(n, seed) for n in range(10, 19, 2) for seed in (0, 1)]
    RANDOM += [(14, 226), (14, 246), (14, 264)]

    @pytest.mark.parametrize(
        "make",
        [partial(random_bridgeless_cubic, n, seed) for n, seed in RANDOM]
        + [partial(blanusa, 1), partial(blanusa, 2), partial(flower_snark, 5)],
        ids=[f"random:{n}:{seed}" for n, seed in RANDOM]
        + ["blanusa1", "blanusa2", "flower5"],
    )
    def test_counts_match_the_subset_search(self, make):
        g, cat = catalog_of(make())
        full = (1 << g.m) - 1
        assert cat.count <= 48 and gf2_in_span(cat.masks, full)
        counts = _odd_counts(cat, (3, 5, 7))
        for size in (3, 5, 7):
            _, found = _odd_subsets(cat.masks, cat.index_by_mask, full, size, True)
            assert counts[size] == found, size

    @pytest.mark.parametrize(
        "make,counts",
        [
            (tau5odd_example, {3: 0, 5: 0, 7: 64}),
            (lambda: flower_snark(5), {3: 0, 5: 230}),
            (lambda: blanusa(1), {3: 0, 5: 32}),
            (lambda: k4_of(petersen(), petersen(), k33(), k33()),
             {3: 0, 5: 0, 7: 65536}),
            (lambda: k4_of(petersen(), petersen(), prism(4), k33()),
             {3: 0, 5: 0, 7: 573440}),
            (lambda: k4_of(petersen(), petersen(), petersen(), theta()),
             {3: 0, 5: 0, 7: 0, 9: 32768}),
            # rank 20, the limit
            (lambda: k4_of(petersen(), petersen(), flower_snark(5), theta()),
             {3: 0, 5: 0, 7: 4227072, 9: 6075301888}),
        ],
        ids=["tau5odd", "flower5", "blanusa1", "K4(P,P,K33,K33)",
             "K4(P,P,prism4,K33)", "K4(P,P,P,theta)", "K4(P,P,flower5,theta)"],
    )
    def test_known_counts(self, make, counts):
        g, cat = catalog_of(make())
        assert _odd_counts(cat, tuple(counts)) == counts

    @pytest.mark.parametrize("rank", range(15))
    def test_signed_weights_match_a_sum_over_every_subset(self, rank):
        rng = random.Random(rank)
        for width in sorted({0, 1, 2, 7, 64, 70, rng.randrange(71), 100, 200}):
            # columns drawn from a small pool that holds 0, so that some
            # repeat and some are zero; past 8 distinct patterns the kernel
            # splits them on their top bit, several levels deep at width 200
            pool = [0] + [rng.getrandbits(rank) for _ in range(max(1, width // 3))]
            columns = [rng.choice(pool) for _ in range(width)]
            rows = [
                sum(((c >> j) & 1) << i for i, c in enumerate(columns))
                for j in range(rank)
            ]
            assert gf2_signed_weights(rows, width) == signed_weights_by_subsets(
                rows, width
            ), width

    def test_signed_weights_of_the_empty_basis(self):
        for width in (0, 1, 70, 200):
            assert gf2_signed_weights((), width) == ((0, 1),)

    @pytest.mark.parametrize(
        "make,report",
        [(tau5odd_example, TAU5ODD_REPORT),
         (lambda: k4_of(petersen(), petersen(), k33(), k33()), PPKK_REPORT)],
        ids=["tau5odd", "K4(P,P,K33,K33)"],
    )
    def test_analyze_runs_no_subset_search_on_snarks(self, monkeypatch, make, report):
        def no_search(*args):
            raise AssertionError("subset search ran")

        monkeypatch.setattr(coverings, "_odd_subsets", no_search)
        assert analyze_graph(make()) == (report, "ok")

    @pytest.mark.parametrize(
        "make",
        [tau5odd_example, lambda: random_bridgeless_cubic(14, 226)],
        ids=["tau5odd", "random:14:226"],
    )
    def test_tau_and_tau_odd_share_one_pass(self, monkeypatch, make):
        passes = []
        signed_weights = matchings.gf2_signed_weights

        def counted(*args):
            passes.append(args)
            return signed_weights(*args)

        monkeypatch.setattr(matchings, "gf2_signed_weights", counted)
        metrics, status = analyze_graph(make())
        assert status == "ok" and metrics["tau_odd_count"] is not None
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "make",
        [lambda: blanusa(1), lambda: flower_snark(5), tau5odd_example],
        ids=["blanusa1", "flower5", "tau5odd"],
    )
    def test_search_above_the_rank_limit_agrees(self, monkeypatch, make):
        g, cat = catalog_of(make())
        fast = odd_covering_number(g, cat)
        monkeypatch.setattr(coverings, "WEIGHT_ENUMERATOR_MAX_RANK", 5)
        assert _odd_counts(cat, (3,)) is None
        slow = odd_covering_number(g, cat)
        assert (slow.status, slow.size, slow.count_minimum) == (
            fast.status, fast.size, fast.count_minimum
        )
        assert slow.witness.members == fast.witness.members

    def test_k4_p_p_flower5_theta(self):
        # the paper instance the benchmark leaves out: the subset search runs
        # for minutes on its 240 members; the weight enumerator refutes k = 4
        # and gives tau_odd in one pass, and the Fulkerson covering settles
        # tau = 5
        metrics, status = analyze_graph(
            k4_of(petersen(), petersen(), flower_snark(5), theta())
        )
        assert status == "ok" and metrics["pm_count"] == 240
        assert (metrics["tau"], metrics["tau_odd"]) == (5, 7)
        assert metrics["tau_odd_count"] is None
        assert metrics["berge5"] and metrics["fulkerson"]

    def test_k4_p_p_p_theta_at_odd_cap_9(self):
        g = k4_of(petersen(), petersen(), petersen(), theta())
        assert analyze_graph(g)[0]["tau_odd"] is None
        metrics, status = analyze_graph(g, odd_cap=9)
        assert status == "ok" and metrics["tau_odd"] == 9
        assert metrics["tau_odd_count"] is None


class TestDerivedCoverings:
    def _four_covering(self, g):
        cat = enumerate_perfect_matchings(g)
        return cat, covering_number(g, cat, cap=4).witness

    def test_odd_5_from_blanusa(self):
        g = blanusa(1)
        cat, cov4 = self._four_covering(g)
        odd5 = odd_covering_from_four_covering(cov4)
        assert odd5.size == 5 and odd5.kind is CoveringKind.ODD
        assert set(odd5.multiplicities()) <= {1, 3}

    def test_odd_5_from_flower(self):
        for k in (5, 7):
            g = flower_snark(k)
            cat, cov4 = self._four_covering(g)
            odd5 = odd_covering_from_four_covering(cov4)
            assert odd5.size == 5

    def test_even_8_from_blanusa(self):
        g = blanusa(1)
        _, cov4 = self._four_covering(g)
        even8 = even_covering_from_four_covering(cov4)
        assert even8.size == 8
        assert set(even8.multiplicities()) <= {2, 4}

    def test_derived_coverings_keep_the_catalog(self):
        cat, cov4 = self._four_covering(blanusa(1))
        doubly = covering_multiplicities(cov4).doubly_covered
        odd5 = odd_covering_from_four_covering(cov4)
        even8 = double_covering(cov4)
        assert odd5.members == tuple(sorted(cov4.members + (cat.index_of(doubly),)))
        assert even8.members == tuple(sorted(cov4.members * 2))
        for cov in (odd5, even8):
            assert cov.catalog is cat
            assert cov.matchings == tuple(cat.matchings[i] for i in cov.members)

    def test_doubled_3_coloring_is_degenerate_fulkerson(self):
        g, cat = catalog_of(k4())
        cov3 = covering_number(g, cat, cap=3).witness
        even6 = double_covering(cov3)
        assert even6.size == 6
        assert set(even6.multiplicities()) == {2}

    def test_even_needs_size_4(self):
        g, cat = catalog_of(k4())
        cov3 = covering_number(g, cat, cap=3).witness
        with pytest.raises(NotSize4):
            even_covering_from_four_covering(cov3)


class TestFulkerson:
    def test_petersen_uses_all_six(self):
        g, cat = catalog_of(petersen())
        cov = fulkerson_covering(g, cat)
        assert cov.members == (0, 1, 2, 3, 4, 5)
        assert set(cov.multiplicities()) == {2}

    def test_k4_doubles_its_three(self):
        g, cat = catalog_of(k4())
        cov = fulkerson_covering(g, cat)
        assert cov.members == (0, 0, 1, 1, 2, 2)

    def test_example_graph_has_one(self):
        g, cat = catalog_of(tau5odd_example())
        cov = fulkerson_covering(g, cat)
        assert cov is not None and set(cov.multiplicities()) == {2}

    def test_matching_free_graph_has_none(self):
        g, cat = catalog_of(matching_free_cubic())
        assert fulkerson_covering(g, cat) is None

    @pytest.mark.parametrize(
        "make",
        [k4, petersen, k33, lambda: prism(4), lambda: prism(5),
         lambda: flower_snark(3), theta, bridged_double_k4, matching_free_cubic]
        + [partial(random_bridgeless_cubic, n, seed)
           for n, seed in [(10, seed) for seed in range(6)] + [(10, 11), (12, 6)]],
        ids=["k4", "petersen", "k33", "prism4", "prism5", "flower3", "theta",
             "bridged", "matching_free"]
        + [f"random:10:{s}" for s in range(6)] + ["random:10:11", "random:12:6"],
    )
    def test_exists_matches_exhaustive_search(self, make):
        """From the empty pick and from 40 random partial picks, with members
        below a random lo excluded: the search says yes iff some multiset of
        the remaining slots brings every edge to exactly 2, and on yes the
        members it appends to ``found`` are such a multiset.  random:10:11
        and random:12:6 catch a sibling exclusion off by one member."""
        from itertools import combinations_with_replacement

        g, cat = catalog_of(make())
        assert cat.count <= 11
        masks, rows = cat.masks, cat.edge_rows
        full = (1 << g.m) - 1

        def counts(picks):
            return [sum(e in cat.matchings[i] for i in picks) for e in range(g.m)]

        def twice_everywhere(picks):
            return all(c == 2 for c in counts(picks))

        rng = random.Random(22)
        queries = [((), 0)]
        while len(queries) < 41 and cat.count:
            prefix = tuple(rng.choices(range(cat.count), k=rng.randrange(1, 4)))
            if max(counts(prefix)) <= 2:
                queries.append((prefix, rng.randrange(cat.count)))
        for prefix, lo in queries:
            once = saturated = blocked = 0
            for i in prefix:
                once, saturated, blocked = coverings._add_member(
                    masks, rows, once, saturated, blocked, i
                )
            slots = 6 - len(prefix)
            expected = any(
                twice_everywhere(prefix + rest)
                for rest in combinations_with_replacement(
                    range(lo, cat.count), slots
                )
            )
            found = []
            got = coverings._fulkerson_exists(
                masks, rows, full, slots, (1 << lo) - 1, once, saturated,
                blocked, found,
            )
            assert got == expected, (prefix, lo)
            if got:
                assert len(found) == slots and min(found) >= lo
                assert twice_everywhere(prefix + tuple(found))

    @pytest.mark.parametrize(
        "make,members",
        [(lambda: k4_of(petersen(), petersen(), k33(), k33()),
          (8, 11, 40, 43, 60, 63)),
         (lambda: k4_of(petersen(), petersen(), prism(4), k33()),
          (4, 7, 76, 79, 88, 91)),
         (lambda: k4_of(petersen(), petersen(), flower_snark(5), theta()),
          (0, 33, 114, 120, 217, 223)),
         (lambda: generalized_blanusa(1, 4), (0, 72, 250, 335, 425, 575))],
        ids=["K4(P,P,K33,K33)", "K4(P,P,prism4,K33)", "K4(P,P,flower5,theta)",
             "gblanusa1-4"],
    )
    def test_lex_first_witness_on_larger_catalogs(self, make, members):
        # the witnesses the index-order search found, pinned
        g, cat = catalog_of(make())
        assert fulkerson_covering(g, cat).members == members


class TestConjectureFields:
    """berge5, fulkerson and fr_triple of the report, plus the least k with k
    matchings of empty intersection: 2 iff b == 0, else 3 iff fr_triple."""

    def test_petersen(self):
        metrics, status = analyze_graph(petersen())
        assert status == "ok"
        assert metrics["berge5"] and metrics["fulkerson"] and metrics["fr_triple"]
        assert metrics["b"] >= 1  # no two disjoint matchings: k = 3

    def test_k4(self):
        metrics, status = analyze_graph(k4())
        assert status == "ok"
        assert metrics["berge5"] and metrics["fulkerson"] and metrics["fr_triple"]
        assert metrics["b"] == 0  # two disjoint matchings: k = 2

    def test_blanusa(self):
        metrics, status = analyze_graph(blanusa(1))
        assert status == "ok"
        assert metrics["berge5"] and metrics["fr_triple"]


class TestAnalyze:
    def test_report_fields(self):
        metrics, status = analyze_graph(petersen())
        assert status == "ok"
        assert metrics["n"] == 10 and metrics["m"] == 15
        assert metrics["pm_count"] == 6 and metrics["tau"] == 5
        assert metrics["tau_odd"] is None and metrics["tau_odd_count"] == 0
        assert metrics["fulkerson"] and metrics["berge5"] and metrics["fr_triple"]
        assert metrics["b"] == 1 and metrics["max_two_pm_union"] == 9
        assert metrics["bridges"] == 0 and metrics["cyclically4ec"] is True

    def test_infeasible_status_for_bridged_graph(self):
        metrics, status = analyze_graph(bridged_double_k4())
        assert status == "infeasible"
        assert metrics["bridges"] == 1 and metrics["tau"] is None

    def test_timeout_nulls_missing_fields(self):
        import time

        metrics, status = analyze_graph(
            tau5odd_example(), deadline=time.monotonic() - 1.0
        )
        assert status == "timeout"
        assert metrics["n"] == 20
        assert metrics["fulkerson"] is None

    def test_timeout_in_the_tau_phase_keeps_fulkerson(self, monkeypatch):
        def expire(*args):
            raise DeadlineExceeded

        monkeypatch.setattr(coverings, "_cover_size", expire)
        metrics, status = analyze_graph(tau5odd_example())
        assert status == "timeout"
        assert metrics["fulkerson"] is True and metrics["tau"] is None

    def test_deadline_bounds_pm_enumeration(self):
        # 147477 perfect matchings: enumerating them alone takes about 45 s
        start = time.monotonic()
        metrics, status = analyze_graph(
            random_bridgeless_cubic(80, 0), deadline=start + 1.0
        )
        assert status == "timeout"
        assert time.monotonic() - start <= 2.0
        assert metrics["bridges"] == 0  # finished before the timeout: kept
        assert metrics["pm_count"] is None

    @pytest.mark.parametrize(
        "make",
        [lambda: flower_snark(7), lambda: goldberg_graph(5),
         lambda: generalized_blanusa(1, 3)],
        ids=["flower7", "goldberg5", "gblanusa1-3"],
    )
    def test_tau_odd_of_a_tau_4_graph_matches_the_odd_search(self, make):
        g, cat = catalog_of(make())
        metrics, status = analyze_graph(g)
        odd = odd_covering_number(g, cat)
        assert status == "ok" and metrics["tau"] == 4
        assert (metrics["tau_odd"], metrics["tau_odd_count"]) == (
            odd.size, odd.count_minimum
        )

    def test_deadline_restores_the_alarm_handler_and_timer(self):
        before = signal.getsignal(signal.SIGALRM)
        for deadline in (time.monotonic() + 10, time.monotonic() - 1):
            analyze_graph(petersen(), deadline=deadline)
            assert signal.getsignal(signal.SIGALRM) is before
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_deadline_refuses_a_timer_the_caller_armed(self):
        def handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 30)
            with pytest.raises(ValueError):
                analyze_graph(petersen(), deadline=time.monotonic() + 5)
            assert signal.getsignal(signal.SIGALRM) is handler
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 29
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_deadline_needs_the_main_thread(self):
        outcome = {}

        def worker():
            try:
                analyze_graph(petersen(), deadline=time.monotonic() + 10)
            except ValueError as exc:
                outcome["error"] = exc
            outcome["status"] = analyze_graph(petersen())[1]

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert isinstance(outcome.get("error"), ValueError)
        assert outcome["status"] == "ok"

    def test_has_k_covering_probe(self):
        g, cat = catalog_of(petersen())
        assert covering_number(g, cat, cap=4).status == "exceeds"
        assert covering_number(g, cat, cap=5).tau == 5

    @pytest.mark.parametrize(
        "graph,cap", [(petersen(), 4), (blanusa(1), 3)], ids=["petersen-4", "blanusa1-3"]
    )
    def test_cap_below_tau_reports_no_tau_but_decides_berge5(self, graph, cap):
        metrics, status = analyze_graph(graph, cap=cap)
        assert status == "ok" and metrics["tau_cap"] == cap
        assert metrics["tau"] is None and metrics["berge5"] is True

    @pytest.mark.parametrize("cap", [3, 4, 6])
    def test_bridged_graph_fails_berge5_at_every_cap(self, cap):
        metrics, status = analyze_graph(bridged_double_k4(), cap=cap)
        assert status == "infeasible" and metrics["berge5"] is False

    def test_cap_below_3_rejected(self):
        with pytest.raises(InvalidParams):
            analyze_graph(petersen(), cap=2)

    def test_nan_deadline_rejected_before_any_signal(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("a signal was touched")

        monkeypatch.setattr(signal, "getitimer", untouched)
        monkeypatch.setattr(signal, "signal", untouched)
        monkeypatch.setattr(signal, "setitimer", untouched)
        with pytest.raises(ValueError, match="deadline"):
            analyze_graph(petersen(), deadline=math.nan)


class TestCatalogFreeCoverings:
    """Constructive coverings at sizes where full enumeration is avoided."""

    def _goldberg_four_covering(self):
        from pmcover.constructions import (
            four_covering_from_good_pairs,
            pair_odd_cycles,
        )
        from pmcover.generators import (
            goldberg_graph,
            goldberg_proof_cycles,
            two_factor_from_cycles,
        )

        g = goldberg_graph(5)
        tf = two_factor_from_cycles(g, goldberg_proof_cycles(5))
        certs = pair_odd_cycles(g, tf)
        return g, four_covering_from_good_pairs(g, tf, certs)

    def test_odd_5_covering_from_goldberg(self):
        g, cov4 = self._goldberg_four_covering()
        assert cov4.catalog is None
        odd5 = odd_covering_from_four_covering(cov4)
        assert odd5.size == 5
        assert set(odd5.multiplicities()) <= {1, 3}

    def test_even_8_covering_from_goldberg(self):
        g, cov4 = self._goldberg_four_covering()
        even8 = even_covering_from_four_covering(cov4)
        assert even8.size == 8
        assert set(even8.multiplicities()) <= {2, 4}


def _bridge_join(g1, e1, g2, e2):
    """Subdivide one edge in each graph and join the two new vertices."""
    from pmcover.graphs import CubicGraph

    a, b = g1.endpoints(e1)
    c, d = g2.endpoints(e2)
    off = g1.n
    sub1, sub2 = off + g2.n, off + g2.n + 1
    edges = [g1.endpoints(e) for e in range(g1.m) if e != e1]
    edges += [
        (u + off, v + off) for e, (u, v) in enumerate(g2.edges) if e != e2
    ]
    edges += [(a, sub1), (b, sub1), (c + off, sub2), (d + off, sub2),
              (sub1, sub2)]
    return CubicGraph(g1.n + g2.n + 2, edges)


def test_infeasible_matches_bridges_both_directions():
    """Connected graphs: some edge misses every matching iff a bridge exists."""
    import random

    from test_graphs import random_cubic_any

    rng = random.Random(41)
    graphs = [random_cubic_any(12, rng) for _ in range(20)]
    for seed in range(6):
        g1 = random_bridgeless_cubic(8, seed)
        g2 = random_bridgeless_cubic(10, 50 + seed)
        graphs.append(_bridge_join(g1, seed % g1.m, g2, seed % g2.m))
    bridged_seen = 0
    for g in graphs:
        if not g.is_connected():
            continue
        cat = enumerate_perfect_matchings(g)
        res = covering_number(g, cat, cap=6)
        has_bridges = bool(find_bridges(g))
        assert (res.status == "infeasible") == has_bridges
        bridged_seen += has_bridges
    assert bridged_seen >= 6


def test_analyze_disconnected_graph():
    from pmcover.graphs import CubicGraph

    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    metrics, status = analyze_graph(CubicGraph(8, edges))
    assert status == "ok"
    assert metrics["cyclically4ec"] is None
    assert metrics["tau"] == 3


class TestWitnessDeterminism:
    """Witnesses are the lexicographically smallest optima, brute-force checked."""

    def test_tau_witness_lex_minimal(self):
        for graph in (petersen(), k33(), blanusa(2), flower_snark(3)):
            g, cat = catalog_of(graph)
            res = covering_number(g, cat, cap=6)
            masks = cat.masks
            full = (1 << g.m) - 1
            best = None
            for sub in combinations(range(cat.count), res.tau):
                if _union(masks, sub) == full:
                    best = sub
                    break  # combinations yields lex order: first hit is smallest
            assert res.witness.members == best

    def test_odd_witness_lex_minimal(self):
        for graph in (k4(), blanusa(1), tau5odd_example()):
            g, cat = catalog_of(graph)
            res = odd_covering_number(g, cat, cap=7)
            masks = cat.masks
            full = (1 << g.m) - 1
            best = None
            for sub in combinations(range(cat.count), res.size):
                acc = 0
                for i in sub:
                    acc ^= masks[i]
                if acc == full:
                    best = sub
                    break
            assert res.witness.members == best

    def test_fulkerson_witness_lex_minimal_on_small_catalogs(self):
        from itertools import combinations_with_replacement

        graphs = [k4(), petersen(), k33(), prism(4), prism(5), flower_snark(3),
                  theta()]
        graphs += [random_bridgeless_cubic(10, seed) for seed in range(6)]
        for graph in graphs:
            g, cat = catalog_of(graph)
            assert cat.count <= 11
            found = fulkerson_covering(g, cat)
            best = None
            for sub in combinations_with_replacement(range(cat.count), 6):
                counts = [0] * g.m
                for i in sub:
                    for e in cat.matchings[i]:
                        counts[e] += 1
                if all(c == 2 for c in counts):
                    best = sub
                    break
            assert (found.members if found else None) == best

    def test_repeated_runs_identical(self):
        g, cat = catalog_of(blanusa(1))
        a = covering_number(g, cat, cap=6)
        b = covering_number(g, cat, cap=6)
        assert a.witness.members == b.witness.members
        g2, cat2 = catalog_of(blanusa(1))
        c = covering_number(g2, cat2, cap=6)
        assert a.witness.members == c.witness.members


def test_odd_covering_size_is_exact_minimum():
    for graph in (k4(), blanusa(1), blanusa(2), tau5odd_example()):
        g, cat = catalog_of(graph)
        res = odd_covering_number(g, cat, cap=7)
        masks = cat.masks
        full = (1 << g.m) - 1
        for smaller in range(1, res.size):
            assert not any(
                _xor_all(masks, sub) == full
                for sub in combinations(range(cat.count), smaller)
            )


def _xor_all(masks, sub):
    acc = 0
    for i in sub:
        acc ^= masks[i]
    return acc


class TestKindValidation:
    def test_plain_rejects_non_covering(self):
        g, cat = catalog_of(petersen())
        with pytest.raises(NotACovering):
            Covering.from_indices(cat, (0, 1, 2), CoveringKind.PLAIN)

    def test_even_rejects_odd_multiplicities(self):
        g, cat = catalog_of(k4())
        from pmcover.errors import CoveringError

        with pytest.raises(CoveringError):
            Covering.from_indices(cat, (0, 1, 2), CoveringKind.EVEN)

    def test_fulkerson_rejects_wrong_size(self):
        g, cat = catalog_of(petersen())
        from pmcover.errors import CoveringError

        with pytest.raises(CoveringError):
            Covering.from_indices(cat, (0, 1, 2, 3, 4), CoveringKind.FULKERSON)

    def test_odd_rejects_even_multiplicities(self):
        g, cat = catalog_of(k4())
        # A, A, B, B, C covers the A and B edges twice: not an odd covering
        with pytest.raises(NotOdd):
            Covering.from_indices(cat, (0, 0, 1, 1, 2), CoveringKind.ODD)

    def test_odd_accepts_multiset(self):
        g, cat = catalog_of(k4())
        cov = Covering.from_indices(cat, (0, 0, 0, 1, 2), CoveringKind.ODD)
        assert cov.size == 5 and cov.members == (0, 0, 0, 1, 2)

    @pytest.mark.parametrize("indices,bad", [((-1, 0, 1), -1), ((0, 1, 3), 3)])
    def test_index_outside_the_catalog_rejected(self, indices, bad):
        # a negative index would wrap around to the last member
        g, cat = catalog_of(k4())
        with pytest.raises(CatalogError, match=f"index {bad} .* of 3"):
            Covering.from_indices(cat, indices, CoveringKind.PLAIN)

    def test_non_matching_member_rejected(self):
        g = petersen()
        with pytest.raises(NotACovering):
            Covering.from_matchings(
                g, [g.edge_set([0, 1, 2, 3, 4])], CoveringKind.PLAIN
            )


def test_example_graph_satisfies_fan_raspaud_with_k_3():
    metrics, status = analyze_graph(tau5odd_example())
    assert status == "ok"
    # two disjoint matchings would 3-edge-color the graph, impossible here,
    # so b >= 1 and an FR triple makes 3 the least k of empty intersection
    assert metrics["b"] >= 1 and metrics["fr_triple"]
    assert metrics["berge5"] and metrics["fulkerson"]


def test_tau_3_iff_three_edge_colorable_on_random_graphs():
    from pmcover.edge_coloring import is_three_edge_colorable

    for seed in range(30):
        n = (10, 12, 14, 16)[seed % 4]
        g = random_bridgeless_cubic(n, 7000 + seed)
        cat = enumerate_perfect_matchings(g)
        res = covering_number(g, cat, cap=6)
        assert (res.tau == 3) == is_three_edge_colorable(g)


def test_even_8_from_flower7():
    g = flower_snark(7)
    cat = enumerate_perfect_matchings(g)
    cov4 = covering_number(g, cat, cap=4).witness
    even8 = even_covering_from_four_covering(cov4)
    assert even8.size == 8
    assert set(even8.multiplicities()) <= {2, 4}


def test_find_k_covering_is_lex_smallest():
    for graph, k in ((k33(), 4), (blanusa(1), 5), (petersen(), 5)):
        g, cat = catalog_of(graph)
        chosen = lex_cover(g, cat, k)
        masks = cat.masks
        full = (1 << g.m) - 1
        expect = next(
            sub
            for sub in combinations(range(cat.count), k)
            if _union(masks, sub) == full
        )
        assert chosen == expect


class TestSingleRepresentation:
    """Solvers read ``catalog.masks``; the ``matchings`` view is never built."""

    @pytest.mark.parametrize(
        "make,fields",
        [(lambda: random_bridgeless_cubic(26, 0), {"b": 0, "tau": 3}),
         (lambda: flower_snark(5), {"tau": 4}),
         (tau5odd_example, {"tau": 5, "tau_odd": 7}),
         (lambda: k4_of(petersen(), petersen(), k33(), k33()), {"tau": 5}),
         (bridged_double_k4, {"fulkerson": False, "tau": None}),
         (matching_free_cubic, {"pm_count": 0})],
        ids=["random:26:0", "flower:5", "tau5odd", "K4(P,P,K33,K33)",
             "bridged", "matching-free"],
    )
    def test_analyze_builds_no_matchings_view(self, monkeypatch, make, fields):
        catalogs = []
        enumerate_ = coverings.enumerate_perfect_matchings

        def kept(*args):
            catalogs.append(enumerate_(*args))
            return catalogs[-1]

        monkeypatch.setattr(coverings, "enumerate_perfect_matchings", kept)
        metrics, _ = analyze_graph(make())
        assert {key: metrics[key] for key in fields} == fields
        assert len(catalogs) == 1 and "matchings" not in vars(catalogs[0])

    @pytest.mark.parametrize(
        "graph",
        [petersen(), blanusa(1), flower_snark(5), tau5odd_example(),
         random_bridgeless_cubic(26, 0)],
        ids=["petersen", "blanusa1", "flower5", "tau5odd", "random:26:0"],
    )
    def test_solvers_build_no_matchings_view(self, graph):
        g, cat = catalog_of(graph)
        witnesses = [
            covering_number(g, cat, cap=6).witness,
            odd_covering_number(g, cat, cap=7).witness,
            fulkerson_covering(g, cat),
        ]
        triples = find_fr_triples(cat)
        if triples:
            fr_structure(g, cat, triples[0])
        assert "matchings" not in vars(cat)
        for cov in filter(None, witnesses):
            assert cov.matchings == tuple(EdgeSet(g.m, cat.masks[i]) for i in cov.members)
