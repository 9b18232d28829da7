import copy
import pickle
import random
from itertools import combinations

import pytest

from pmcover.errors import (
    BadEdgeIndex,
    Disconnected,
    NotCubic,
    NotPerfectMatching,
)
from pmcover.generators import k4, k33, petersen, prism, theta, blanusa
from pmcover.graphs import (
    CubicGraph,
    EdgeSet,
    cyclic_connectivity_at_least,
    find_bridges,
    is_perfect_matching,
    is_perfect_matching_mask,
    two_factor_of,
)

from isomorphism import is_isomorphic


def crossing_edges(g, lo, hi):
    """The edges of g with exactly one end in the vertex range lo..hi-1."""
    return g.edge_set(
        e for e, (u, v) in enumerate(g.edges) if (lo <= u < hi) != (lo <= v < hi)
    )


def bridged_double_k4():
    """Two K4's, one edge subdivided in each, subdivision vertices joined."""
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 8), (3, 8),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 9), (7, 9),
        (8, 9),
    ]
    return CubicGraph(10, edges)


def random_cubic_any(n, rng):
    """Random simple cubic graph, bridges allowed."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = [
            (min(stubs[i], stubs[i + 1]), max(stubs[i], stubs[i + 1]))
            for i in range(0, 3 * n, 2)
        ]
        if any(u == v for u, v in pairs) or len(set(pairs)) != len(pairs):
            continue
        return CubicGraph(n, pairs)


def random_cubic_multigraph(n, rng):
    """Random connected cubic multigraph: parallel edges allowed, no loops."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2)]
        if any(u == v for u, v in pairs):
            continue
        g = CubicGraph(n, pairs)
        if g.is_connected():
            return g


def disjoint_union(*parts):
    edges, off = [], 0
    for g in parts:
        edges += [(u + off, v + off) for u, v in g.edges]
        off += g.n
    return CubicGraph(off, edges)


def components(g, removed=0):
    """(vertex count, edge count) of each component of g minus the edges in
    the `removed` bitmask, by union-find."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = [uv for e, uv in enumerate(g.edges) if not (removed >> e) & 1]
    for u, v in kept:
        parent[find(u)] = find(v)
    verts, edges = {}, {}
    for v in range(g.n):
        verts[find(v)] = verts.get(find(v), 0) + 1
    for u, _ in kept:
        edges[find(u)] = edges.get(find(u), 0) + 1
    return [(size, edges.get(root, 0)) for root, size in verts.items()]


def naive_cyclic_connectivity_at_least(g, k):
    """The definition: no set of fewer than k edges leaves two components
    that each hold a cycle (a component holds one iff edges >= vertices)."""
    for s in range(1, k):
        for subset in combinations(range(g.m), s):
            removed = sum(1 << e for e in subset)
            parts = components(g, removed)
            if sum(1 for size, edges in parts if edges >= size) >= 2:
                return False
    return True


class TestEdgeSet:
    def test_operations(self):
        a = EdgeSet.from_indices(10, [0, 3, 5])
        assert list(a) == [0, 3, 5]
        assert len(a) == 3
        assert 5 in a and 7 not in a

    def test_immutable_and_hashable(self):
        a = EdgeSet.from_indices(6, [1])
        with pytest.raises(AttributeError):
            a.bits = 3
        assert len({a, EdgeSet.from_indices(6, [1])}) == 1

    def test_out_of_range(self):
        with pytest.raises(BadEdgeIndex):
            EdgeSet.from_indices(4, [4])


class TestCubicGraph:
    def test_degrees_and_edge_count(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        for v in range(g.n):
            assert len(g.incidence[v]) == 3
        # sum of degrees = 2m
        assert sum(len(g.incidence[v]) for v in range(g.n)) == 2 * g.m

    def test_canonical_edge_order(self):
        e = [(2, 3), (0, 1), (1, 2), (3, 0), (0, 2), (1, 3)]
        g1 = CubicGraph(4, e)
        g2 = CubicGraph(4, list(reversed(e)))
        assert g1.edges == g2.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in e))

    def test_loop_rejected(self):
        with pytest.raises(NotCubic):
            CubicGraph(2, [(0, 0), (0, 1), (1, 1)])

    def test_wrong_degree_rejected(self):
        with pytest.raises(NotCubic):
            CubicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 3)])

    def test_theta_multigraph(self):
        g = theta()
        assert g.n == 2 and g.m == 3
        assert not g.is_simple()
        assert [g.other_end(e, 0) for e in g.incidence[0]] == [1, 1, 1]

    def test_edge_ids_between_parallels(self):
        assert theta().edge_ids_between(0, 1) == (0, 1, 2)


class TestTwoFactor:
    def test_petersen_spokes_give_two_5_cycles(self):
        g = petersen()
        spokes = g.edge_set(
            e for e, (u, v) in enumerate(g.edges) if (u < 5) != (v < 5)
        )
        tf = two_factor_of(g, spokes)
        assert [len(c) for c in tf.cycles] == [5, 5]
        assert tf.cycles[0] == (0, 1, 2, 3, 4)
        assert tf.cycles[1] == (5, 7, 9, 6, 8)
        assert tf.odd_cycle_ids == (0, 1)

    def test_cube_matching_gives_two_even_squares(self):
        g = prism(4)
        spokes = g.edge_set(
            e for e, (u, v) in enumerate(g.edges) if (u < 4) != (v < 4)
        )
        tf = two_factor_of(g, spokes)
        assert sorted(len(c) for c in tf.cycles) == [4, 4]
        assert tf.even_cycle_ids == (0, 1)

    def test_blanusa_has_nine_nine_factor(self):
        from pmcover.matchings import enumerate_perfect_matchings

        g = blanusa(1)
        shapes = set()
        for pm in enumerate_perfect_matchings(g).matchings:
            tf = two_factor_of(g, pm)
            shapes.add(tuple(sorted(len(c) for c in tf.cycles)))
        assert (9, 9) in shapes

    def test_cycles_partition_vertices_and_edges(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_cubic_any(12, rng)
            from pmcover.matchings import enumerate_perfect_matchings

            cat = enumerate_perfect_matchings(g)
            if not cat.count:
                continue
            pm = cat.matchings[0]
            tf = two_factor_of(g, pm)
            seen = [v for c in tf.cycles for v in c]
            assert sorted(seen) == list(range(g.n))
            bits = 0
            for edges in tf.cycle_edges:
                for e in edges:
                    bits ^= 1 << e
            assert bits == pm.bits ^ ((1 << g.m) - 1)

    def test_rejects_non_matching(self):
        g = petersen()
        with pytest.raises(NotPerfectMatching):
            two_factor_of(g, g.edge_set([0, 1, 2, 3, 4]))

    def test_theta_two_factor_is_digon(self):
        g = theta()
        tf = two_factor_of(g, g.edge_set([0]))
        assert tf.cycles == ((0, 1),)
        assert sorted(tf.cycle_edges[0]) == [1, 2]


class TestBridges:
    def test_three_connected_graphs_have_none(self):
        assert not find_bridges(petersen())
        assert not find_bridges(k33())

    def test_double_k4_bridge(self):
        g = bridged_double_k4()
        bridges = find_bridges(g)
        assert list(bridges) == list(g.edge_ids_between(8, 9))

    def test_parallel_edges_are_never_bridges(self):
        assert not find_bridges(theta())

    def test_against_naive_oracle(self):
        def oracle(g):
            base = len(components(g))
            return g.edge_set(
                e for e in range(g.m) if len(components(g, 1 << e)) > base
            )

        rng = random.Random(99)
        graphs = [random_cubic_any((10, 12, 14, 16)[i % 4], rng) for i in range(60)]
        graphs += [random_cubic_multigraph((2, 4, 6, 8, 10)[i % 5], rng)
                   for i in range(30)]
        graphs += [disjoint_union(random_cubic_any((8, 10)[i % 2], rng),
                                  random_cubic_multigraph((2, 4, 6)[i % 3], rng))
                   for i in range(20)]
        for g in graphs:
            assert find_bridges(g) == oracle(g)


class TestCyclicConnectivity:
    def test_petersen_is_cyclically_4_connected(self):
        assert cyclic_connectivity_at_least(petersen(), 4)

    def test_k4_vacuously_true(self):
        # K4 has no two vertex-disjoint cycles, so no cut separates two
        assert cyclic_connectivity_at_least(k4(), 4)

    def test_two_cut_join_fails_k3(self):
        from pmcover.compositions import two_cut_join

        g = two_cut_join(petersen(), 0, petersen(), 0)
        assert not cyclic_connectivity_at_least(g, 3)
        assert cyclic_connectivity_at_least(g, 2)

    def test_against_naive_oracle(self):
        from pmcover.compositions import (
            tau5odd_example,
            three_cut_join,
            two_cut_join,
        )
        from pmcover.generators import random_bridgeless_cubic

        rng = random.Random(2024)
        graphs = [k4(), theta(), petersen(), bridged_double_k4(), tau5odd_example()]
        graphs += [random_bridgeless_cubic(n, seed)
                   for n in (6, 8, 10, 12, 14) for seed in range(14)]
        graphs += [g for g in (random_cubic_any((8, 10, 12)[i % 3], rng)
                               for i in range(60)) if g.is_connected()]
        graphs += [random_cubic_multigraph((2, 4, 6, 8, 10)[i % 5], rng)
                   for i in range(60)]
        blocks = [k4(), k33(), prism(3), prism(4), theta(), petersen()]
        for g1 in blocks:
            for g2 in blocks:
                graphs.append(two_cut_join(g1, g1.m - 1, g2, 0))
                graphs.append(three_cut_join(g1, 0, g2, g2.n - 1))
        assert len(graphs) >= 200
        outcomes = set()
        for g in graphs:
            for k in (1, 2, 3, 4):
                want = naive_cyclic_connectivity_at_least(g, k)
                assert cyclic_connectivity_at_least(g, k) == want, (g.edges, k)
                outcomes.add((k, want))
        assert outcomes == {(1, True)} | {
            (k, want) for k in (2, 3, 4) for want in (True, False)
        }

    def test_k_out_of_range(self):
        for k in (0, 5):
            with pytest.raises(ValueError):
                cyclic_connectivity_at_least(petersen(), k)

    def test_disconnected_raises(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u + 4, v + 4) for u, v in edges]
        g = CubicGraph(8, edges)
        with pytest.raises(Disconnected):
            cyclic_connectivity_at_least(g, 2)


def test_connectivity_against_brute_force():
    rng = random.Random(12)
    graphs = [random_cubic_multigraph((2, 4, 6, 8, 10, 12)[i % 6], rng)
              for i in range(60)]
    graphs += [disjoint_union(random_cubic_multigraph(a, rng),
                              random_cubic_multigraph(b, rng))
               for a in (2, 4, 6) for b in (2, 4, 6) for _ in range(3)]
    graphs += [disjoint_union(theta(), k33()), disjoint_union(k4(), theta(), theta())]
    outcomes = set()
    for g in graphs:
        assert g.is_connected() == (len(components(g)) == 1)
        outcomes.add(g.is_connected())
    assert outcomes == {True, False}


class TestIsomorphism:
    def test_petersen_vs_doubling_permutation(self):
        from pmcover.generators import permutation_graph

        assert is_isomorphic(petersen(), permutation_graph([0, 2, 4, 1, 3]))

    def test_petersen_vs_prism(self):
        assert not is_isomorphic(petersen(), prism(5))

    def test_blanusa_vs_petersen(self):
        assert not is_isomorphic(blanusa(1), petersen())

    def test_relabeled_graph(self):
        rng = random.Random(3)
        g = random_cubic_any(14, rng)
        perm = list(range(14))
        rng.shuffle(perm)
        h = CubicGraph(14, [(perm[u], perm[v]) for u, v in g.edges])
        assert is_isomorphic(g, h)

    def test_multigraph_counts_matter(self):
        assert is_isomorphic(theta(), theta())
        doubled = CubicGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])
        assert not is_isomorphic(doubled, k4())

    def test_deep_search_is_not_bounded_by_the_recursion_limit(self):
        # prism(600) maps 1200 vertices, past the default limit of 1000
        g = prism(600)
        perm = list(range(g.n))
        random.Random(600).shuffle(perm)
        h = CubicGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert is_isomorphic(g, h)

    def test_relabeled_petersen_vs_prism(self):
        g = petersen()
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        h = CubicGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert is_isomorphic(g, h)
        assert not is_isomorphic(h, prism(5))

    def test_disconnected_graphs(self):
        two_k4 = disjoint_union(k4(), k4())
        perm = [5, 2, 7, 0, 4, 1, 6, 3]
        relabeled = CubicGraph(8, [(perm[u], perm[v]) for u, v in two_k4.edges])
        assert is_isomorphic(two_k4, relabeled)
        assert is_isomorphic(disjoint_union(theta(), k33()),
                             disjoint_union(k33(), theta()))
        assert not is_isomorphic(disjoint_union(prism(3), theta()),
                                 disjoint_union(k33(), theta()))
        assert not is_isomorphic(two_k4, prism(4))
        assert not is_isomorphic(prism(4), two_k4)


class TestPickling:
    def test_composition_graph_and_edge_set_round_trip(self):
        from pmcover.compositions import tau5odd_example

        g = tau5odd_example()
        cut = crossing_edges(g, 0, 9)  # the 3-cut around the first block
        for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            h = copy_of(g)
            assert h == g
            assert h.incidence == g.incidence
            assert h.adjacency_counts() == g.adjacency_counts()
            assert copy_of(cut) == cut and list(copy_of(cut)) == list(cut)


def test_is_perfect_matching_rejects_wrong_sizes():
    g = petersen()
    assert not is_perfect_matching(g, g.edge_set([0]))
    spokes = [e for e, (u, v) in enumerate(g.edges) if (u < 5) != (v < 5)]
    assert is_perfect_matching(g, g.edge_set(spokes))


def test_is_perfect_matching_mask_takes_only_ints_of_the_graph():
    g = petersen()
    spokes = g.edge_set(e for e, (u, v) in enumerate(g.edges) if (u < 5) != (v < 5))
    assert is_perfect_matching_mask(g, spokes.bits)
    # an EdgeSet, a bool, a negative int and a mask past edge m - 1 are not
    for bits in (spokes, True, -spokes.bits, spokes.bits << g.m):
        assert not is_perfect_matching_mask(g, bits)
    # the first three of five edges meet at vertex 0
    assert not is_perfect_matching_mask(g, g.edge_set(range(5)).bits)
    assert not is_perfect_matching(g, EdgeSet(g.m + 1, spokes.bits))


def test_two_factor_orientation_convention_on_random_graphs():
    from pmcover.generators import random_bridgeless_cubic
    from pmcover.matchings import enumerate_perfect_matchings

    for seed in range(12):
        g = random_bridgeless_cubic(12, 300 + seed)
        for pm in enumerate_perfect_matchings(g).matchings[:4]:
            tf = two_factor_of(g, pm)
            starts = [c[0] for c in tf.cycles]
            assert starts == sorted(starts)
            for cyc, edges in zip(tf.cycles, tf.cycle_edges):
                assert cyc[0] == min(cyc)
                # first step goes toward the smaller cycle neighbor
                nbrs = [g.other_end(e, cyc[0]) for e in g.incidence[cyc[0]] if e not in pm]
                assert cyc[1 % len(cyc)] == min(nbrs)
                # edges align with the vertex sequence
                for k, e in enumerate(edges):
                    u, v = g.endpoints(e)
                    assert {u, v} == {cyc[k], cyc[(k + 1) % len(cyc)]}
