import math
import random
from itertools import combinations

import pytest

from pmcover import verify
from pmcover.compositions import k4_composition, tau5odd_example
from pmcover.errors import CatalogError, FewerThanTwoMatchings, TooManyMatchings
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
from pmcover.graphs import CubicGraph, EdgeSet, is_perfect_matching
from pmcover.matchings import (
    PairStats,
    PMCatalog,
    enumerate_perfect_matchings,
    matching_line,
    pm_pair_stats,
)

from test_graphs import bridged_double_k4, random_cubic_any


@pytest.mark.parametrize(
    "graph,expected",
    [
        (petersen(), 6),
        (k4(), 3),
        (k33(), 6),
        (theta(), 3),
        (tau5odd_example(), 20),
    ],
)
def test_known_counts(graph, expected):
    assert enumerate_perfect_matchings(graph).count == expected


def brute_force_masks(g):
    """The edge bitmask of every n/2-edge subset that is a perfect matching."""
    return sorted(
        g.edge_set(combo).bits
        for combo in combinations(range(g.m), g.n // 2)
        if is_perfect_matching(g, g.edge_set(combo))
    )


def test_counts_match_brute_force_up_to_n12():
    rng = random.Random(11)
    graphs = [k4(), k33(), theta(), prism(3), prism(4), prism(5), prism(6),
              petersen(), flower_snark(3)]
    graphs += [random_cubic_any(n, rng) for n in (8, 10, 12) for _ in range(4)]
    for g in graphs:
        assert list(enumerate_perfect_matchings(g).masks) == brute_force_masks(g)


def test_catalog_sorted_and_members_valid():
    for g in (petersen(), blanusa(1), flower_snark(5)):
        cat = enumerate_perfect_matchings(g)
        bits = [pm.bits for pm in cat.matchings]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)
        for pm in cat.matchings:
            assert len(pm) == g.n // 2
            assert is_perfect_matching(g, pm)


def test_every_edge_in_some_pm_for_bridgeless_graphs():
    graphs = [petersen(), k33(), blanusa(1), blanusa(2), flower_snark(5),
              goldberg_graph(3), tau5odd_example(), theta()]
    graphs += [random_bridgeless_cubic(n, n) for n in (10, 12, 14)]
    for g in graphs:
        cat = enumerate_perfect_matchings(g)
        assert all(cat.edge_rows)


def test_bridged_graph_misses_edges():
    g = bridged_double_k4()
    cat = enumerate_perfect_matchings(g)
    missing = EdgeSet.from_indices(
        g.m, (e for e, row in enumerate(cat.edge_rows) if not row)
    )
    assert missing
    # every edge incident to the bridge endpoints except the bridge itself
    bridge = g.edge_ids_between(8, 9)[0]
    for v in (8, 9):
        for e in g.incidence[v]:
            if e != bridge:
                assert e in missing


def test_catalog_views_match_the_matchings_and_are_built_once():
    rng = random.Random(5)
    graphs = [bridged_double_k4()]
    graphs += [random_cubic_any(n, rng) for n in (8, 10, 12) for _ in range(3)]
    for g in graphs:
        cat = enumerate_perfect_matchings(g)
        assert cat.masks == tuple(pm.bits for pm in cat.matchings)
        for e in range(g.m):
            expect = [i for i, pm in enumerate(cat.matchings) if e in pm]
            assert cat.edge_rows[e] == sum(1 << i for i in expect)
        assert cat.masks is cat.masks
        assert cat.matchings is cat.matchings
        assert cat.edge_rows is cat.edge_rows
        assert cat.count == len(cat.masks)
    bridged = enumerate_perfect_matchings(bridged_double_k4())
    assert 0 in bridged.edge_rows
    assert PMCatalog(petersen(), ()).edge_rows == (0,) * 15


@pytest.mark.parametrize(
    "member", [EdgeSet(15, 0b111), -1, 1 << 15], ids=["EdgeSet", "-1", "1<<m"]
)
def test_catalog_rejects_a_member_that_is_not_an_edge_mask(member):
    # checked when the catalog is built, not deep inside a solver
    g = petersen()
    masks = enumerate_perfect_matchings(g).masks
    with pytest.raises(CatalogError, match=r"member 2 is .*in 0\.\.2\^15 - 1"):
        PMCatalog(g, masks[:2] + (member,) + masks[3:])


def test_pair_stats_petersen():
    stats = pm_pair_stats(enumerate_perfect_matchings(petersen()))
    assert stats.min_intersection == 1
    assert stats.max_union == 9
    assert stats.argmin == (0, 1)


def test_pair_stats_k4_disjoint():
    stats = pm_pair_stats(enumerate_perfect_matchings(k4()))
    assert stats.min_intersection == 0
    assert stats.max_union == 4
    assert stats.argmin == (0, 1)


def test_pair_stats_blanusa_balanced_matching():
    stats = pm_pair_stats(enumerate_perfect_matchings(blanusa(1)))
    assert stats.min_intersection == 1


def matching_free_cubic():
    """Center vertex attached to three odd gadgets: no perfect matching."""
    from pmcover.graphs import CubicGraph

    edges = []
    for i in range(3):
        off = 5 * i
        edges += [
            (off, off + 1), (off, off + 2), (off, off + 3),
            (off + 1, off + 2), (off + 1, off + 3),
            (off + 2, off + 4), (off + 3, off + 4),
            (off + 4, 15),
        ]
    return CubicGraph(16, edges)


def test_pair_stats_needs_two():
    cat = enumerate_perfect_matchings(matching_free_cubic())
    assert cat.count == 0
    with pytest.raises(FewerThanTwoMatchings):
        pm_pair_stats(cat)
    one = PMCatalog(k4(), enumerate_perfect_matchings(k4()).masks[:1])
    with pytest.raises(FewerThanTwoMatchings):
        one.pair_stats


def pair_loop_stats(cat):
    """PairStats by the plain pair loop over every i < j, the reference
    for ``PMCatalog.pair_stats``, which folds edge rows once b = 1 is seen."""
    if cat.count < 2:
        raise FewerThanTwoMatchings("need at least two perfect matchings")
    masks, n = cat.masks, cat.graph.n
    best, best_pair = n, (0, 1)
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            inter = (mi & masks[j]).bit_count()
            if inter < best:
                best, best_pair = inter, (i, j)
                if inter == 0:
                    return PairStats(0, best_pair, n)
    return PairStats(best, best_pair, n - best)


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return CubicGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_pair_stats_view_matches_a_full_pair_scan():
    for i in range(55):
        g = random_bridgeless_cubic(10 + 2 * (i % 11), 700 + i)  # n = 10..30
        cat = enumerate_perfect_matchings(g)
        inter = {
            (a, b): (cat.masks[a] & cat.masks[b]).bit_count()
            for a, b in combinations(range(cat.count), 2)
        }
        best = min(inter.values())
        pair = min(p for p, c in inter.items() if c == best)
        assert cat.pair_stats == pm_pair_stats(cat) == pair_loop_stats(cat)
        assert cat.pair_stats.min_intersection == best
        assert cat.pair_stats.argmin == pair
        assert cat.pair_stats.max_union == g.n - best


SCAN_CORPUS_SNARKS = {
    "petersen": petersen,
    "blanusa1": lambda: blanusa(1),
    "blanusa2": lambda: blanusa(2),
    "flower5": lambda: flower_snark(5),
    "flower7": lambda: flower_snark(7),
    "goldberg5": lambda: goldberg_graph(5),
    "gblanusa1-3": lambda: generalized_blanusa(1, 3),
}


@pytest.mark.parametrize(
    "make", SCAN_CORPUS_SNARKS.values(), ids=SCAN_CORPUS_SNARKS.keys()
)
def test_pair_stats_equal_the_pair_loop_on_snarks_and_relabellings(make):
    g = make()
    for h in (g, relabelled(g, 1), relabelled(g, 2)):
        cat = enumerate_perfect_matchings(h)
        assert cat.pair_stats.min_intersection == 1  # snarks: b > 0
        assert cat.pair_stats == pair_loop_stats(cat)


@pytest.mark.parametrize(
    "make",
    [
        tau5odd_example,
        lambda: k4_composition([(petersen(), 0), (petersen(), 0), (k33(), 0), (k33(), 0)]),
        lambda: k4_composition([(petersen(), 0), (petersen(), 0), (prism(4), 0), (k33(), 0)]),
        lambda: k4_composition([(petersen(), 0), (petersen(), 0), (petersen(), 0), (theta(), 0)]),
        lambda: flower_snark(9),
        lambda: flower_snark(11),
    ],
    ids=["tau5odd", "K4(P,P,K33,K33)", "K4(P,P,prism4,K33)", "K4(P,P,P,theta)",
         "flower9", "flower11"],
)
def test_pair_stats_equal_the_pair_loop_on_tau5_and_large_snarks(make):
    cat = enumerate_perfect_matchings(make())
    assert cat.pair_stats == pair_loop_stats(cat)


def test_b2_catalog_never_folds():
    # K4(P,P,P,theta): b = 2, so the pair loop runs to its end
    g = k4_composition([(petersen(), 0), (petersen(), 0), (petersen(), 0), (theta(), 0)])
    cat = enumerate_perfect_matchings(g)
    assert cat.pair_stats == PairStats(2, (0, 38), 26)
    assert "edge_rows" not in vars(cat)


def test_lex_first_disjoint_pair_found_in_a_folded_row():
    # 3-edge-colourable, 19 matchings on n = 14: row 0 meets row 9 in one
    # edge and has no disjoint partner, so row 1 (17 members follow, more
    # than n) is folded and holds the lex-first disjoint pair
    g = random_bridgeless_cubic(14, 124)
    cat = enumerate_perfect_matchings(g)
    assert min((cat.masks[0] & mask).bit_count() for mask in cat.masks[1:]) == 1
    assert cat.pair_stats == pair_loop_stats(cat) == PairStats(0, (1, 9), 14)
    assert "edge_rows" in vars(cat)


@pytest.mark.parametrize("following,folds", [(14, False), (15, True)])
def test_a_colourable_sub_catalog_at_the_fold_boundary(following, folds):
    # drop members from the end of random:14:124's catalog, keeping its
    # disjoint pair (1, 9), until row 1 has n (pair loop) or n + 1 (fold)
    # members after it
    g = random_bridgeless_cubic(14, 124)
    full = enumerate_perfect_matchings(g)
    cat = PMCatalog(g, full.masks[: 2 + following])
    assert cat.count - 1 - 1 == following and g.n == 14
    assert cat.pair_stats == pair_loop_stats(cat) == PairStats(0, (1, 9), 14)
    assert ("edge_rows" in vars(cat)) == folds


@pytest.mark.parametrize("following,folds", [(40, False), (41, True)])
def test_a_snark_sub_catalog_at_the_fold_boundary(following, folds):
    # goldberg 5 (n = 40) has b = 1 and no disjoint pair: members 0 and 249
    # meet in one edge, so row 1 of this sub-catalog is folded only when
    # more than n members follow it, and every folded row comes up empty
    g = goldberg_graph(5)
    full = enumerate_perfect_matchings(g)
    masks = full.masks
    cat = PMCatalog(g, (masks[0], masks[249]) + masks[1 : 1 + following])
    assert cat.count - 1 - 1 == following
    assert cat.pair_stats == pair_loop_stats(cat) == PairStats(1, (0, 1), 39)
    assert ("edge_rows" in vars(cat)) == folds


def test_index_by_mask_finds_every_member_and_nothing_else():
    g = flower_snark(5)
    cat = enumerate_perfect_matchings(g)
    assert [cat.index_by_mask[mask] for mask in cat.masks] == list(range(cat.count))
    assert len(cat.index_by_mask) == cat.count
    assert 0b111 not in cat.index_by_mask


def test_kkn_union_bound_on_random_bridgeless_graphs():
    for i in range(40):
        n = (10, 12, 14, 16)[i % 4]
        g = random_bridgeless_cubic(n, 500 + i)
        stats = pm_pair_stats(enumerate_perfect_matchings(g))
        assert stats.max_union >= math.ceil(9 * n / 10)


def test_matching_line_format():
    g = k4()
    cat = enumerate_perfect_matchings(g)
    lines = [matching_line(g, pm) for pm in cat.matchings]
    assert lines == ["0-3 1-2", "0-2 1-3", "0-1 2-3"]


def test_max_matchings_abort():
    with pytest.raises(TooManyMatchings):
        enumerate_perfect_matchings(petersen(), max_matchings=3)


@pytest.mark.parametrize(
    "g", [petersen(), blanusa(1), random_bridgeless_cubic(26, 0)],
    ids=["petersen", "blanusa1", "random26-0"],
)
def test_max_matchings_boundary(g):
    # the cap counts matchings as the search finds them, in whatever order
    full = enumerate_perfect_matchings(g)
    assert enumerate_perfect_matchings(g, max_matchings=full.count) == full
    with pytest.raises(TooManyMatchings, match=f"more than {full.count - 1} "):
        enumerate_perfect_matchings(g, max_matchings=full.count - 1)


def test_negative_max_matchings_rejected_even_without_matchings():
    with pytest.raises(ValueError, match="max_matchings must be nonnegative, got -1"):
        enumerate_perfect_matchings(matching_free_cubic(), max_matchings=-1)


# criterion 8's graphs, then a bridged graph and one with no perfect matching
ORACLE_GRAPHS = {
    "theta": theta(), "k4": k4(), "k33": k33(), "prism3": prism(3),
    "prism4": prism(4), "prism5": prism(5), "prism6": prism(6),
    "petersen": petersen(), "flower3": flower_snark(3),
    "random10": random_bridgeless_cubic(10, verify.SEED + 10),
    "random12": random_bridgeless_cubic(12, verify.SEED + 12),
    "bridged": bridged_double_k4(), "matching-free": matching_free_cubic(),
}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_verify_oracle_counts_every_perfect_matching(name):
    g = ORACLE_GRAPHS[name]
    assert verify._brute_force_matchings(g) == len(brute_force_masks(g))


def test_verify_oracle_catches_a_catalog_missing_a_member(monkeypatch):
    def short_catalog(g, *args, **kwargs):
        cat = enumerate_perfect_matchings(g, *args, **kwargs)
        return PMCatalog(g, cat.masks[:-1])

    name = "oracles.pm-enumeration-matches-brute-force-n<=12"
    assert {r.name: r.ok for r in verify.criterion_8_oracles()}[name]
    monkeypatch.setattr(verify, "enumerate_perfect_matchings", short_catalog)
    assert not {r.name: r.ok for r in verify.criterion_8_oracles()}[name]


def test_verify_oracle_reads_the_span_test_the_solvers_use(monkeypatch):
    # criterion 8 compares the exhaustive odd-subset search with
    # PMCatalog.all_ones_in_span, so a wrong span test fails its line
    name = "oracles.gf2-feasibility-matches-exhaustive-subsets"
    assert {r.name: r.ok for r in verify.criterion_8_oracles()}[name]
    in_span = PMCatalog.all_ones_in_span
    monkeypatch.setattr(
        PMCatalog, "all_ones_in_span", property(lambda cat: not in_span.fget(cat))
    )
    assert not {r.name: r.ok for r in verify.criterion_8_oracles()}[name]
