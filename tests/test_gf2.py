"""Oracle tests for the GF(2) layer: the split weight-enumerator kernel, the
tagged row reduction and the Krawtchouk subset counts."""

import hashlib
import random
import time
from itertools import combinations

import pytest

from pmcover.compositions import tau5odd_example
from pmcover.coverings import _time_limit
from pmcover.errors import DeadlineExceeded
from pmcover.generators import (
    blanusa,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from pmcover.gf2 import (
    gf2_all_ones_subset_counts,
    gf2_row_reduction,
    gf2_signed_weights,
    gf2_transpose,
)
from pmcover.matchings import enumerate_perfect_matchings

from test_coverings import gf2_in_span, k4_of, signed_weights_by_subsets
from test_graphs import bridged_double_k4
from test_matchings import matching_free_cubic


def rows_of(columns, rank):
    """The `rank` rows of the matrix whose column i is the pattern columns[i]."""
    return [
        sum(((c >> j) & 1) << i for i, c in enumerate(columns)) for j in range(rank)
    ]


def random_columns(rng, rank, width, distinct):
    """`width` columns drawn from `distinct` random patterns and 0, so that
    some repeat and some are zero."""
    pool = [0] + [rng.getrandbits(rank) for _ in range(distinct)]
    return [rng.choice(pool) for _ in range(width)]


def parent_matrices():
    """300 seeded matrices of rank up to 14 and width up to 200."""
    rng = random.Random(2024)
    for _ in range(300):
        rank = rng.randrange(15)
        width = rng.choice([0, 1, 5, 9, 17, 40, 100, 200])
        distinct = rng.randint(1, max(1, width))
        yield rows_of(random_columns(rng, rank, width, distinct), rank), width


class TestSplitKernel:
    """gf2_signed_weights splits groups of more than 8 distinct patterns on
    their top bit, at the edges of that split here; random columns are in
    test_coverings.py."""

    @pytest.mark.parametrize("rank", [9, 12, 14])
    @pytest.mark.parametrize("side", ["all_set", "all_clear"])
    def test_every_pattern_on_one_side_of_the_top_bit(self, rank, side):
        # |P1| = |P| or |P1| = 0 at the first split
        rng = random.Random(rank)
        top = 1 << (rank - 1)
        columns = random_columns(rng, rank, 200, 60)
        columns = [c | top if side == "all_set" else c & ~top for c in columns]
        rows = rows_of(columns, rank)
        assert gf2_signed_weights(rows, 200) == signed_weights_by_subsets(rows, 200)

    @pytest.mark.parametrize("rank", [6, 10, 14])
    def test_few_patterns_of_high_multiplicity(self, rank):
        # 9 to 12 distinct patterns over 200 columns: one split, then leaves
        # that add each truth table many times
        rng = random.Random(rank)
        columns = random_columns(rng, rank, 200, rng.randint(9, 12))
        rows = rows_of(columns, rank)
        assert gf2_signed_weights(rows, 200) == signed_weights_by_subsets(rows, 200)

    @pytest.mark.parametrize("rank", [1, 2, 3, 8])
    def test_every_pattern_at_once(self, rank):
        # each of the 2^rank patterns, 0 among them, three times over
        columns = [c for c in range(1 << rank) for _ in range(3)]
        rows = rows_of(columns, rank)
        width = len(columns)
        assert gf2_signed_weights(rows, width) == signed_weights_by_subsets(rows, width)

    @pytest.mark.parametrize("rank", [1, 5, 14])
    def test_zero_rows(self, rank):
        # every column is 0, so every sum has weight 0 and the signs cancel
        for width in (0, 1, 200):
            assert gf2_signed_weights([0] * rank, width) == ()
            assert signed_weights_by_subsets([0] * rank, width) == ()

    def test_matches_the_bit_sliced_pass_it_replaced(self):
        # the sha256 of the repr of every output, order included, as the
        # pass that added one truth table per distinct pattern gave it
        digest = hashlib.sha256()
        for rows, width in parent_matrices():
            digest.update(repr(gf2_signed_weights(rows, width)).encode())
        assert digest.hexdigest() == (
            "04cea28fa708b9223ba7ac64a6a0744adeb7ffa9583af0b10f07d96de8c6868a"
        )

    @pytest.fixture(scope="class")
    def large(self):
        """The catalogs of K4(P,P,flower5,K33) and K4(P,P,flower5,prism4)."""
        return [
            enumerate_perfect_matchings(
                k4_of(petersen(), petersen(), flower_snark(5), last)
            )
            for last in (k33(), prism(4))
        ]

    def test_counts_above_the_rank_limit(self, large):
        # N_3 = N_5 = 0 refutes a 4-covering; the counts are the ones the
        # pass that added one truth table per distinct pattern gave
        pins = [(480, 22, 135266304), (720, 23, 1183580160)]
        for cat, (count, rank, n7) in zip(large, pins):
            basis = cat.edge_row_basis
            assert (cat.count, len(basis), cat.all_ones_in_span) == (count, rank, True)
            signed = gf2_signed_weights(basis, cat.count)
            assert gf2_all_ones_subset_counts(signed, rank, count, (3, 5, 7)) == {
                3: 0, 5: 0, 7: n7,
            }

    def test_a_deadline_interrupts_the_pass(self, large):
        # the SIGALRM deadline lands between the big-int steps of a rank-22
        # pass and ends it; nothing is cached.  It expires 10 ms in, or a
        # quarter of the way on hardware where the whole pass is quicker
        cat = large[0]
        assert len(cat.edge_row_basis) == 22
        start = time.monotonic()
        gf2_signed_weights(cat.edge_row_basis, cat.count)
        whole = time.monotonic() - start
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            with _time_limit(start + min(0.01, whole / 4)):
                cat.weight_enumerator
        assert time.monotonic() - start < 0.5
        assert "weight_enumerator" not in vars(cat)


GRAPHS = {
    **{f"random:{n}:{seed}": (lambda n=n, seed=seed: random_bridgeless_cubic(n, seed))
       for n in range(10, 21, 2) for seed in range(4)},
    # b > 0: the span decides odd coverings
    "random:14:226": lambda: random_bridgeless_cubic(14, 226),
    "random:16:98": lambda: random_bridgeless_cubic(16, 98),
    "random:20:947": lambda: random_bridgeless_cubic(20, 947),
    "petersen": petersen,
    "blanusa1": lambda: blanusa(1),
    "blanusa2": lambda: blanusa(2),
    "flower3": lambda: flower_snark(3),
    "flower5": lambda: flower_snark(5),
    "flower7": lambda: flower_snark(7),
    "goldberg3": lambda: goldberg_graph(3),
    "goldberg5": lambda: goldberg_graph(5),
    "gblanusa1-3": lambda: generalized_blanusa(1, 3),
    "gblanusa2-3": lambda: generalized_blanusa(2, 3),
    "tau5odd": tau5odd_example,
    "K4(P,P,P,theta)": lambda: k4_of(petersen(), petersen(), petersen(), theta()),
    "bridged": bridged_double_k4,
    "matching_free": matching_free_cubic,
}


class TestTranspose:
    @pytest.mark.parametrize("width", [0, 1, 7, 64, 200])
    @pytest.mark.parametrize("count", [0, 1, 5, 40])
    def test_matches_a_bit_by_bit_transpose(self, width, count):
        rng = random.Random(1000 * width + count)
        rows = [rng.getrandbits(width) for _ in range(count)]
        columns = tuple(
            sum(((row >> i) & 1) << j for j, row in enumerate(rows))
            for i in range(width)
        )
        assert gf2_transpose(rows, width) == columns

    @pytest.mark.parametrize("make", GRAPHS.values(), ids=GRAPHS.keys())
    def test_edge_rows_are_the_transpose_of_the_masks(self, make):
        g = make()
        cat = enumerate_perfect_matchings(g)
        assert cat.edge_rows == gf2_transpose(cat.masks, g.m)


class TestRowReduction:
    @pytest.mark.parametrize("make", GRAPHS.values(), ids=GRAPHS.keys())
    def test_one_reduction_gives_the_basis_and_the_span(self, make):
        g = make()
        cat = enumerate_perfect_matchings(g)
        rows = cat.edge_rows
        assert cat.all_ones_in_span == gf2_in_span(cat.masks, (1 << g.m) - 1)
        # the basis: each edge row not in the span of the rows before it
        assert cat.edge_row_basis == tuple(
            row for e, row in enumerate(rows) if not gf2_in_span(rows[:e], row)
        )

    def test_an_empty_catalog_spans_nothing(self):
        cat = enumerate_perfect_matchings(matching_free_cubic())
        assert cat.count == 0 and cat.edge_row_basis == ()
        assert cat.all_ones_in_span is False

    def test_an_odd_dependency_puts_all_ones_outside_the_span(self):
        # a, a sum to 0, an even set; a, b, a ^ b and a zero row are odd ones
        assert gf2_row_reduction([0b01, 0b10]) == ((0b01, 0b10), True)
        assert gf2_row_reduction([0b01, 0b10, 0b11]) == ((0b01, 0b10), False)
        assert gf2_row_reduction([0b01, 0b01]) == ((0b01,), True)
        assert gf2_row_reduction([0]) == ((), False)
        assert gf2_row_reduction([]) == ((), True)


class TestSubsetCounts:
    @pytest.mark.parametrize("seed", range(40))
    def test_match_a_count_over_every_subset(self, seed):
        # random columns of `height` bits, with a last column that puts the
        # all-ones vector in their span; sizes run past the width
        rng = random.Random(seed)
        height, width = rng.randint(1, 8), rng.randint(1, 11)
        ones = (1 << height) - 1
        columns = [rng.getrandbits(height) for _ in range(width - 1)]
        picked = [c for c in columns if rng.random() < 0.5]
        last = ones
        for c in picked:
            last ^= c
        columns.append(last)
        independent, in_span = gf2_row_reduction(rows_of(columns, height))
        assert in_span
        signed = gf2_signed_weights(independent, width)
        sizes = range(width + 3)
        counts = gf2_all_ones_subset_counts(signed, len(independent), width, sizes)
        for s in sizes:
            expect = 0
            for sub in combinations(columns, s):
                acc = 0
                for c in sub:
                    acc ^= c
                expect += acc == ones
            assert counts[s] == expect, s

    def test_no_sizes(self):
        assert gf2_all_ones_subset_counts(((0, 1),), 0, 5, ()) == {}
