import pytest

from pmcover.constructions import (
    check_good_triple,
    find_good_triple,
    four_covering_from_good_pairs,
    pair_odd_cycles,
)
from pmcover.coverings import covering_multiplicities
from pmcover.errors import (
    InvalidCertificate,
    NotOddCycles,
)
from pmcover.generators import (
    blanusa,
    flower_proof_cycles,
    flower_snark,
    goldberg_graph,
    goldberg_proof_cycles,
    petersen,
    prism,
    random_bridgeless_cubic,
    two_factor_from_cycles,
)
from pmcover.graphs import is_perfect_matching, two_factor_of
from pmcover.matchings import enumerate_perfect_matchings


def nine_nine_two_factor(g):
    for pm in enumerate_perfect_matchings(g).matchings:
        tf = two_factor_of(g, pm)
        if sorted(len(c) for c in tf.cycles) == [9, 9]:
            return tf
    raise AssertionError("no 9+9 two-factor found")


def petersen_two_factor(g):
    spokes = g.edge_set(
        e for e, (u, v) in enumerate(g.edges) if (u < 5) != (v < 5)
    )
    return two_factor_of(g, spokes)


# pairable proof 2-factors: (graph, 2-factor) makers
PROOF_TWO_FACTORS = [
    lambda: (flower_snark(5), two_factor_from_cycles(flower_snark(5), flower_proof_cycles(5))),
    lambda: (flower_snark(7), two_factor_from_cycles(flower_snark(7), flower_proof_cycles(7))),
    lambda: (flower_snark(9), two_factor_from_cycles(flower_snark(9), flower_proof_cycles(9))),
    lambda: (goldberg_graph(5), two_factor_from_cycles(goldberg_graph(5), goldberg_proof_cycles(5))),
    lambda: (goldberg_graph(7), two_factor_from_cycles(goldberg_graph(7), goldberg_proof_cycles(7))),
    lambda: (blanusa(1), nine_nine_two_factor(blanusa(1))),
    lambda: (blanusa(2), nine_nine_two_factor(blanusa(2))),
]


class TestGoodTriples:
    def test_blanusa_nine_cycles_have_one(self):
        for which in (1, 2):
            g = blanusa(which)
            tf = nine_nine_two_factor(g)
            cert = find_good_triple(g, tf, 0, 1)
            assert cert is not None
            for arcs, cycle in zip(cert.arcs, (tf.cycles[0], tf.cycles[1])):
                assert sum(arcs) == len(cycle)
                assert all(a % 2 for a in arcs)

    def test_flower_proof_triple(self):
        for k in (5, 7):
            g = flower_snark(k)
            tf = two_factor_from_cycles(g, flower_proof_cycles(k))
            triple = tuple(
                g.edge_ids_between(i, 3 * k + i)[0] for i in range(3)
            )
            cert = check_good_triple(g, tf, 0, 1, triple)
            assert cert is not None and cert.cross_edges == tuple(sorted(triple))

    def test_petersen_five_cycles_have_none(self):
        g = petersen()
        tf = petersen_two_factor(g)
        assert find_good_triple(g, tf, 0, 1) is None

    def test_requires_odd_cycles(self):
        g = prism(4)
        spokes = g.edge_set(
            e for e, (u, v) in enumerate(g.edges) if (u < 4) != (v < 4)
        )
        tf = two_factor_of(g, spokes)
        with pytest.raises(NotOddCycles):
            find_good_triple(g, tf, 0, 1)

    def test_non_cross_edge_rejected(self):
        g = petersen()
        tf = petersen_two_factor(g)
        outer = g.edge_ids_between(0, 1)[0]
        spoke1 = g.edge_ids_between(0, 5)[0]
        spoke2 = g.edge_ids_between(1, 6)[0]
        with pytest.raises(InvalidCertificate):
            check_good_triple(g, tf, 0, 1, (outer, spoke1, spoke2))


class TestPairing:
    def test_petersen_unpairable(self):
        g = petersen()
        assert pair_odd_cycles(g, petersen_two_factor(g)) is None

    def test_goldberg_pairs_c_and_d(self):
        g = goldberg_graph(5)
        tf = two_factor_from_cycles(g, goldberg_proof_cycles(5))
        certs = pair_odd_cycles(g, tf)
        assert [c.cycle_ids for c in certs] == [(0, 1)]
        assert tf.even_cycle_ids == (2,)

    def test_blanusa_pairs_its_two_nine_cycles(self):
        g = blanusa(1)
        tf = nine_nine_two_factor(g)
        assert [c.cycle_ids for c in pair_odd_cycles(g, tf)] == [(0, 1)]

    @pytest.mark.parametrize("make", PROOF_TWO_FACTORS)
    def test_certificates_are_the_first_good_triples(self, make):
        g, tf = make()
        certs = pair_odd_cycles(g, tf)
        assert certs
        for cert in certs:
            assert cert == find_good_triple(g, tf, *cert.cycle_ids)

    def test_all_even_two_factor_pairs_nothing(self):
        g = prism(4)
        spokes = g.edge_set(
            e for e, (u, v) in enumerate(g.edges) if (u < 4) != (v < 4)
        )
        tf = two_factor_of(g, spokes)
        assert pair_odd_cycles(g, tf) == []


class TestFourCovering:
    @pytest.mark.parametrize("make", PROOF_TWO_FACTORS)
    def test_construction_verifies(self, make):
        g, tf = make()
        certs = pair_odd_cycles(g, tf)
        cov = four_covering_from_good_pairs(g, tf, certs)
        report = covering_multiplicities(cov)
        assert set(report.vector) <= {1, 2}
        assert is_perfect_matching(g, report.doubly_covered)

    def test_all_even_cycles_construct_trivially(self):
        g = prism(4)
        spokes = g.edge_set(
            e for e, (u, v) in enumerate(g.edges) if (u < 4) != (v < 4)
        )
        tf = two_factor_of(g, spokes)
        cov = four_covering_from_good_pairs(g, tf, [])
        assert cov.size == 4
        assert min(cov.multiplicities()) >= 1

    def test_incomplete_pairing_rejected(self):
        g = blanusa(1)
        tf = nine_nine_two_factor(g)
        with pytest.raises(InvalidCertificate):
            four_covering_from_good_pairs(g, tf, [])

    def test_cycle_paired_twice_rejected(self):
        g = blanusa(1)
        tf = nine_nine_two_factor(g)
        cert = find_good_triple(g, tf, 0, 1)
        with pytest.raises(InvalidCertificate):
            four_covering_from_good_pairs(g, tf, [cert, cert])

    def test_wrong_cert_rejected(self):
        g = flower_snark(5)
        tf = two_factor_from_cycles(g, flower_proof_cycles(5))
        cert = find_good_triple(g, tf, 0, 1)
        bad = type(cert)(
            cycle_ids=(0, 1),
            cross_edges=cert.cross_edges[:2] + (cert.cross_edges[1],),
            first_endpoints=cert.first_endpoints,
            second_endpoints=cert.second_endpoints,
            arcs=cert.arcs,
        )
        with pytest.raises(InvalidCertificate):
            four_covering_from_good_pairs(g, tf, [bad])

    def test_named_fr_triples_inside_construction(self):
        g = flower_snark(5)
        tf = two_factor_from_cycles(g, flower_proof_cycles(5))
        certs = pair_odd_cycles(g, tf)
        cov = four_covering_from_good_pairs(g, tf, certs)
        masks = [pm.bits for pm in cov.matchings]
        base = masks.index(tf.matching.bits)
        others = [i for i in range(4) if i != base]
        for pair in [(0, 1), (0, 2), (1, 2)]:
            triple = (masks[base], masks[others[pair[0]]], masks[others[pair[1]]])
            assert triple[0] & triple[1] & triple[2] == 0


def test_good_pair_arrangements_certify_4_coverings():
    """Whenever odd cycles arrange into good pairs, the construction
    certifies a 4-covering."""
    built = 0
    for seed in range(500):
        n = (10, 12, 14, 16, 18)[seed % 5]
        g = random_bridgeless_cubic(n, 9000 + seed)
        cat = enumerate_perfect_matchings(g)
        tf = two_factor_of(g, cat.matchings[0])
        certs = pair_odd_cycles(g, tf)
        if certs is None:
            continue
        cov = four_covering_from_good_pairs(g, tf, certs)
        assert min(cov.multiplicities()) >= 1
        built += 1
    assert built >= 80


def _join_through_matching_edges(g1, pm1_cycles, edge1, g2, pm2_cycles, edge2):
    """2-cut join through matching edges, keeping both proof 2-factors.

    Returns the joined graph and the transplanted perfect matching whose
    complement is the union of the two blocks' 2-factors.
    """
    from pmcover.compositions import two_cut_join

    e1 = g1.edge_ids_between(*edge1)[0]
    e2 = g2.edge_ids_between(*edge2)[0]
    joined = two_cut_join(g1, e1, g2, e2)
    matching = []
    for g, cycles, skip, off in (
        (g1, pm1_cycles, edge1, 0),
        (g2, pm2_cycles, edge2, g1.n),
    ):
        base = two_factor_from_cycles(g, cycles).matching
        for idx in base:
            u, v = g.endpoints(idx)
            if (u, v) == skip:
                continue
            matching.append(joined.edge_ids_between(u + off, v + off)[0])
    u1, v1 = edge1
    u2, v2 = edge2
    matching.append(joined.edge_ids_between(u1, u2 + g1.n)[0])
    matching.append(joined.edge_ids_between(v1, v2 + g1.n)[0])
    return joined, joined.edge_set(matching)


def test_two_good_pairs_in_one_two_factor():
    f5 = flower_snark(5)
    cycles = flower_proof_cycles(5)
    g, pm = _join_through_matching_edges(f5, cycles, (0, 15), f5, cycles, (0, 15))
    tf = two_factor_of(g, pm)
    assert sorted(len(c) for c in tf.cycles) == [5, 5, 15, 15]
    certs = pair_odd_cycles(g, tf)
    assert [c.cycle_ids for c in certs] == [(0, 1), (2, 3)]
    cov = four_covering_from_good_pairs(g, tf, certs)
    report = covering_multiplicities(cov)
    assert len(report.doubly_covered) == g.n // 2


def test_two_good_pairs_plus_even_cycle():
    g5 = goldberg_graph(5)
    f5 = flower_snark(5)
    g, pm = _join_through_matching_edges(
        g5, goldberg_proof_cycles(5), (0, 1),
        f5, flower_proof_cycles(5), (0, 15),
    )
    tf = two_factor_of(g, pm)
    assert sorted(len(c) for c in tf.cycles) == [5, 5, 10, 15, 25]
    assert len(tf.even_cycle_ids) == 1
    certs = pair_odd_cycles(g, tf)
    assert [c.cycle_ids for c in certs] == [(0, 1), (3, 4)]
    cov = four_covering_from_good_pairs(g, tf, certs)
    report = covering_multiplicities(cov)
    assert len(report.doubly_covered) == g.n // 2 == 30
