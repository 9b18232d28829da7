import pytest

from pmcover.cli import GENERATORS, _generate
from pmcover.edge_coloring import is_three_edge_colorable, three_edge_coloring
from pmcover.errors import (
    ChordedCycle,
    EvenK,
    InvalidParams,
    UnknownName,
)
from pmcover.generators import (
    blanusa,
    flower_proof_cycles,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    goldberg_proof_cycles,
    is_petersen,
    k4,
    k33,
    permutation_graph,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
    two_factor_from_cycles,
)
from pmcover.graphs import find_bridges, is_isomorphic, is_perfect_matching
from pmcover.matchings import enumerate_perfect_matchings
from pmcover.coverings import covering_number


def girth(g):
    import collections

    best = g.n + 1
    for root in range(g.n):
        dist = {root: 0}
        parent_edge = {root: -1}
        queue = collections.deque([root])
        while queue:
            v = queue.popleft()
            for e in g.incidence[v]:
                w = g.other_end(e, v)
                if e == parent_edge[v]:
                    continue
                if w in dist:
                    best = min(best, dist[v] + dist[w] + 1)
                else:
                    dist[w] = dist[v] + 1
                    parent_edge[w] = e
                    queue.append(w)
    return best


class TestNamedGraphs:
    def test_shapes(self):
        assert (petersen().n, petersen().m) == (10, 15)
        assert (k4().n, k4().m) == (4, 6)
        assert (k33().n, k33().m) == (6, 9)
        assert (theta().n, theta().m) == (2, 3)
        assert (prism(5).n, prism(5).m) == (10, 15)

    def test_petersen_girth_five(self):
        assert girth(petersen()) == 5

    def test_all_outputs_cubic_connected_bridgeless(self):
        graphs = [
            petersen(), k4(), k33(), theta(), prism(3), prism(6),
            blanusa(1), blanusa(2), flower_snark(5), goldberg_graph(3),
            generalized_blanusa(1, 2), permutation_graph([1, 0, 2, 4, 3]),
        ]
        for g in graphs:
            assert g.is_connected()
            assert not find_bridges(g)

    def test_lookup(self):
        assert GENERATORS["petersen"][0]() == petersen()
        assert GENERATORS["prism"][0](4) == prism(4)
        assert _generate("prism:4") == prism(4)
        with pytest.raises(UnknownName):
            _generate("heawood")
        with pytest.raises(InvalidParams):
            _generate("prism")


class TestBlanusa:
    def test_basic_properties(self):
        for which in (1, 2):
            g = blanusa(which)
            assert g.n == 18
            assert not find_bridges(g)
            assert not is_three_edge_colorable(g)

    def test_the_two_are_not_isomorphic(self):
        assert not is_isomorphic(blanusa(1), blanusa(2))

    def test_tau_is_4(self):
        for which in (1, 2):
            g = blanusa(which)
            cat = enumerate_perfect_matchings(g)
            assert covering_number(g, cat, cap=4).tau == 4


class TestFlower:
    def test_shape_and_snarkness(self):
        for k in (3, 5, 7, 9):
            g = flower_snark(k)
            assert g.n == 4 * k
            assert not is_three_edge_colorable(g)

    def test_proof_two_factor_matches_generator(self):
        for k in (3, 5, 7):
            g = flower_snark(k)
            cyc_c, cyc_d = flower_proof_cycles(k)
            assert len(cyc_c) == k and len(cyc_d) == 3 * k
            tf = two_factor_from_cycles(g, (cyc_c, cyc_d))
            assert sorted(len(c) for c in tf.cycles) == [k, 3 * k]
            assert is_perfect_matching(g, tf.matching)

    def test_k5_tau_4(self):
        g = flower_snark(5)
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=4).tau == 4

    def test_even_k_rejected(self):
        with pytest.raises(EvenK):
            flower_snark(4)
        with pytest.raises(EvenK):
            flower_snark(1)


class TestGoldberg:
    def test_shape_and_snarkness(self):
        for k in (3, 5, 7, 9):
            g = goldberg_graph(k)
            assert g.n == 8 * k
            assert not is_three_edge_colorable(g)

    def test_proof_two_factor(self):
        for k in (3, 5):
            g = goldberg_graph(k)
            tf = two_factor_from_cycles(g, goldberg_proof_cycles(k))
            assert sorted(len(c) for c in tf.cycles) == [k, 2 * k, 5 * k]
            # exactly one even cycle (the c/h ring), left unpaired
            assert len(tf.even_cycle_ids) == 1

    def test_even_k_rejected(self):
        with pytest.raises(EvenK):
            goldberg_graph(6)


class TestGeneralizedBlanusa:
    def test_minimal_instances_are_the_classical_snarks(self):
        assert is_isomorphic(generalized_blanusa(1, 1), blanusa(1))
        assert is_isomorphic(generalized_blanusa(2, 1), blanusa(2))
        assert not is_isomorphic(generalized_blanusa(1, 1), blanusa(2))

    def test_tau_4_across_instances(self):
        for gtype in (1, 2):
            for t in (1, 2):
                g = generalized_blanusa(gtype, t)
                cat = enumerate_perfect_matchings(g)
                assert covering_number(g, cat, cap=4).tau == 4

    def test_snark_family(self):
        for gtype in (1, 2):
            for t in (1, 2, 3):
                g = generalized_blanusa(gtype, t)
                assert g.n == 10 + 8 * t
                assert not is_three_edge_colorable(g)

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            generalized_blanusa(3, 1)
        with pytest.raises(InvalidParams):
            generalized_blanusa(1, 0)


class TestPermutationGraphs:
    def test_doubling_permutation_is_petersen(self):
        assert is_petersen(permutation_graph([0, 2, 4, 1, 3]))

    def test_identity_is_prism(self):
        g = permutation_graph(list(range(5)))
        assert is_isomorphic(g, prism(5))
        cat = enumerate_perfect_matchings(g)
        assert covering_number(g, cat, cap=4).tau == 3

    def test_small_rings_rejected(self):
        with pytest.raises(ChordedCycle):
            permutation_graph([0, 1])

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidParams):
            permutation_graph([0, 0, 1])


class TestRandomCubic:
    def test_deterministic_per_seed(self):
        assert random_bridgeless_cubic(14, 7) == random_bridgeless_cubic(14, 7)

    def test_n4_is_k4(self):
        assert is_isomorphic(random_bridgeless_cubic(4, 123), k4())

    def test_postconditions(self):
        for seed in range(10):
            g = random_bridgeless_cubic(12, seed)
            assert g.is_simple()
            assert g.is_connected()
            assert not find_bridges(g)

    def test_bad_n(self):
        with pytest.raises(InvalidParams):
            random_bridgeless_cubic(7, 0)


class TestEdgeColoring:
    def test_colorable_graphs_get_three_matchings(self):
        for g in (k4(), k33(), prism(4), prism(5), theta()):
            classes = three_edge_coloring(g)
            assert classes is not None
            for cls in classes:
                assert is_perfect_matching(g, cls)

    def test_snarks_refuse(self):
        assert three_edge_coloring(petersen()) is None
        assert three_edge_coloring(blanusa(1)) is None

    def test_agrees_with_covering_number(self):
        for g in (petersen(), k33(), prism(5), blanusa(2), flower_snark(3)):
            cat = enumerate_perfect_matchings(g)
            res = covering_number(g, cat, cap=6)
            assert (res.tau == 3) == is_three_edge_colorable(g)
