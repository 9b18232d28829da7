import math
import random
from itertools import combinations

import pytest

from pmcover import verify
from pmcover.compositions import tau5odd_example
from pmcover.errors import CatalogError, FewerThanTwoMatchings, TooManyMatchings
from pmcover.generators import (
    blanusa,
    flower_snark,
    goldberg_graph,
    k4,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from pmcover.graphs import EdgeSet, is_perfect_matching
from pmcover.matchings import (
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


def test_pair_stats_view_matches_a_full_pair_scan():
    for i in range(50):
        g = random_bridgeless_cubic((10, 12, 14, 16, 18)[i % 5], 700 + i)
        cat = enumerate_perfect_matchings(g)
        inter = {
            (a, b): (cat.masks[a] & cat.masks[b]).bit_count()
            for a, b in combinations(range(cat.count), 2)
        }
        best = min(inter.values())
        pair = min(p for p, c in inter.items() if c == best)
        assert cat.pair_stats == pm_pair_stats(cat)
        assert cat.pair_stats.min_intersection == best
        assert cat.pair_stats.argmin == pair
        assert cat.pair_stats.max_union == g.n - best


def test_index_of_finds_every_member_and_nothing_else():
    g = flower_snark(5)
    cat = enumerate_perfect_matchings(g)
    assert [cat.index_of(pm) for pm in cat.matchings] == list(range(cat.count))
    with pytest.raises(ValueError):
        cat.index_of(EdgeSet(g.m, 0b111))
    with pytest.raises(ValueError):
        cat.index_of(EdgeSet(g.m + 1, cat.masks[0]))


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
