import hashlib
import random

import pytest

from pmcover.compositions import (
    k4_composition,
    tau5odd_example,
    three_cut_join,
    two_cut_join,
)
from pmcover.coverings import covering_number, odd_covering_number
from pmcover.edge_coloring import is_three_edge_colorable
from pmcover.errors import BadEdgeIndex, BadVertex
from pmcover.generators import (
    blanusa,
    flower_snark,
    is_petersen,
    k4,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from pmcover.graphs import cyclic_connectivity_at_least, find_bridges
from pmcover.matchings import enumerate_perfect_matchings

from test_graphs import crossing_edges


class TestTwoCutJoin:
    def test_shape_and_cut_recorded(self):
        g = two_cut_join(petersen(), 0, petersen(), 0)
        assert g.n == 20 and g.m == 30
        # the linking edges are all that leaves the first operand
        assert len(crossing_edges(g, 0, 10)) == 2
        assert not find_bridges(g)

    def test_creates_cyclic_2_cut(self):
        g = two_cut_join(k4(), 0, k4(), 0)
        assert not cyclic_connectivity_at_least(g, 3)

    def test_k4_k4_tau_3(self):
        g = two_cut_join(k4(), 0, k4(), 0)
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=6).tau == 3

    def test_petersen_side_forces_tau_5(self):
        g = two_cut_join(petersen(), 3, k4(), 2)
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=4).status == "exceeds"

    def test_monotonicity_exhaustive_over_cut_choices(self):
        # tau never drops below the left factor's index, whatever we cut
        base = petersen()
        for e1 in range(base.m):
            for e2 in range(k4().m):
                g = two_cut_join(base, e1, k4(), e2)
                cat = enumerate_perfect_matchings(g)
                assert covering_number(g, cat, cap=4).status == "exceeds"

    def test_bad_edge_index(self):
        with pytest.raises(BadEdgeIndex):
            two_cut_join(k4(), 6, k4(), 0)


class TestThreeCutJoin:
    def test_bridgeless_output(self):
        g = three_cut_join(petersen(), 0, k33(), 0)
        assert g.n == 14 and not find_bridges(g)
        # petersen - 0 keeps vertices 0..8
        assert len(crossing_edges(g, 0, 9)) == 3

    def test_petersen_k33_tau_at_least_5(self):
        g = three_cut_join(petersen(), 0, k33(), 0)
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=4).status == "exceeds"

    def test_petersen_k33_no_odd_covering(self):
        g = three_cut_join(petersen(), 0, k33(), 0)
        cat = enumerate_perfect_matchings(g)
        assert odd_covering_number(g, cat, cap=7).status == "none_exists"

    def test_petersen_k4_expands_a_triangle(self):
        g = three_cut_join(petersen(), 0, k4(), 0)
        assert g.n == 12
        assert not is_three_edge_colorable(g)
        cat = enumerate_perfect_matchings(g)
        res = covering_number(g, cat, cap=6)
        assert res.tau >= 4

    def test_cut_dichotomy_when_covered_below_left_tau(self):
        # tau(petersen) = 5: any 4-covering of the join must absorb the
        # whole principal cut into one member
        g = three_cut_join(petersen(), 0, k4(), 0)
        cat = enumerate_perfect_matchings(g)
        # tau is 4 here, so this is the lex-smallest 4-covering
        cov = covering_number(g, cat, cap=4).witness
        if cov is not None:
            cut = crossing_edges(g, 0, 9)
            assert any(cut.bits & ~pm.bits == 0 for pm in cov.matchings)

    def test_theta_collapses_to_single_vertex(self):
        g = three_cut_join(petersen(), 0, theta(), 0)
        # expanding-then-deleting a theta vertex returns the Petersen graph
        assert is_petersen(g)

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            three_cut_join(k4(), 4, k4(), 0)


class TestK4Composition:
    def test_vertex_arithmetic(self):
        g = k4_composition(
            [(petersen(), 0), (petersen(), 0), (theta(), 0), (theta(), 0)]
        )
        assert g.n == 9 + 9 + 1 + 1
        # one principal 3-cut around each block
        blocks = [(0, 9), (9, 18), (18, 19), (19, 20)]
        assert [len(crossing_edges(g, lo, hi)) for lo, hi in blocks] == [3] * 4

    def test_all_k4_blocks_are_colorable(self):
        g = k4_composition([(k4(), 0)] * 4)
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=6).tau == 3

    def test_two_petersen_blocks_force_tau_5(self):
        g = k4_composition(
            [(petersen(), 0), (petersen(), 0), (theta(), 0), (theta(), 0)]
        )
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=4).status == "exceeds"

    def test_each_pair_of_blocks_linked_once(self):
        g = k4_composition([(k4(), 0)] * 4)
        # block b occupies vertices 3b..3b+2 after deleting each hub
        def block_of(v):
            return v // 3

        seen = set()
        for b in range(4):
            cut = crossing_edges(g, 3 * b, 3 * b + 3)
            assert len(cut) == 3
            for e in cut:
                u, v = g.endpoints(e)
                pair = tuple(sorted((block_of(u), block_of(v))))
                seen.add(pair)
        assert seen == {(a, b) for a in range(4) for b in range(4) if a < b}

    def test_needs_four_blocks(self):
        with pytest.raises(BadVertex):
            k4_composition([(k4(), 0)] * 3)


class TestExampleGraph:
    def test_shape(self):
        g = tau5odd_example()
        assert g.n == 20 and g.m == 30
        assert g.is_simple() and not find_bridges(g)

    def test_not_cyclically_4_edge_connected(self):
        # the principal 3-cuts separate cycle-bearing blocks
        assert not cyclic_connectivity_at_least(tau5odd_example(), 4)

    def test_headline_numbers(self):
        g = tau5odd_example()
        cat = enumerate_perfect_matchings(g)
        assert cat.count == 20
        assert covering_number(g, cat, cap=6).tau == 5
        res = odd_covering_number(g, cat, cap=7)
        assert res.size == 7 and res.count_minimum == 64


def test_joins_of_bridgeless_inputs_stay_bridgeless():
    for seed in range(5):
        g1 = random_bridgeless_cubic(10, seed)
        g2 = random_bridgeless_cubic(12, 100 + seed)
        assert not find_bridges(two_cut_join(g1, seed % g1.m, g2, seed % g2.m))
        assert not find_bridges(three_cut_join(g1, seed % g1.n, g2, seed % g2.n))


class TestCompositionPropositions:
    """Behavior predicted by the cut-based arguments, on fresh instances."""

    def test_k4_composition_with_two_tau5_blocks(self):
        # both non-theta blocks have tau >= 5 and no odd 5-covering, so the
        # composition keeps tau >= 5 and cannot have an odd covering of size 5
        pk = three_cut_join(petersen(), 0, k33(), 0)
        g = k4_composition([(petersen(), 0), (pk, 0), (theta(), 0), (theta(), 0)])
        assert g.n == 24
        cat = enumerate_perfect_matchings(g)
        assert cat.count == 40
        res = covering_number(g, cat, cap=5)
        assert res.tau == 5
        odd = odd_covering_number(g, cat, cap=7)
        assert odd.size == 7 and odd.count_minimum == 2048

    def test_odd_covering_obstruction_survives_second_join(self):
        pk = three_cut_join(petersen(), 0, k33(), 0)
        pkk = three_cut_join(pk, 0, k33(), 0)
        cat = enumerate_perfect_matchings(pkk)
        assert odd_covering_number(pkk, cat, cap=7).status == "none_exists"


def composed_edge_lists():
    """The vertex count and edge list of 200 seeded 3-cut joins and 100 K4
    compositions of small operands, multigraphs and random graphs among them."""
    operands = [theta(), k4(), k33(), prism(3), prism(4), petersen(), blanusa(1)]
    operands += [flower_snark(5)]
    operands += [random_bridgeless_cubic(n, 30 + n) for n in (8, 10, 12)]
    rng = random.Random(2028)
    for _ in range(200):
        g1, g2 = rng.choice(operands), rng.choice(operands)
        g = three_cut_join(g1, rng.randrange(g1.n), g2, rng.randrange(g2.n))
        yield g.n, g.edges
    for _ in range(100):
        blocks = [rng.choice(operands) for _ in range(4)]
        g = k4_composition([(b, rng.randrange(b.n)) for b in blocks])
        yield g.n, g.edges


def test_joins_match_the_per_operator_linkers_they_replaced():
    # the sha256 of the repr of every edge list, order included, as the
    # separate 3-cut and K4 linkers built them
    digest = hashlib.sha256()
    for n, edges in composed_edge_lists():
        digest.update(repr((n, edges)).encode())
    assert digest.hexdigest() == (
        "3c6981b0d129a0cd9472b91a8b4534e2442e3083979859de186a72180c2e4ac5"
    )
