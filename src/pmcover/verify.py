"""One-shot verification suite reproducing every quantitative target.

Each criterion function returns a list of named pass/fail check results;
``run_all`` concatenates them.  All expected values are exact integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .compositions import tau5odd_example, three_cut_join
from .constructions import (
    check_good_triple,
    find_good_triple,
    four_covering_from_good_pairs,
)
from .coverings import (
    Covering,
    covering_multiplicities,
    covering_number,
    even_covering_from_four_covering,
    fr_structure,
    fulkerson_covering,
    odd_covering_from_four_covering,
    odd_covering_number,
)
from .edge_coloring import three_edge_coloring
from .generators import (
    blanusa,
    flower_proof_cycles,
    flower_snark,
    goldberg_graph,
    goldberg_proof_cycles,
    is_petersen,
    k33,
    k4,
    permutation_graph,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
    two_factor_from_cycles,
)
from .gf2 import gf2_in_span
from .graphs import CubicGraph, EdgeSet, is_perfect_matching, two_factor_of
from .matchings import enumerate_perfect_matchings, pm_pair_stats

# seeds the random graphs of criteria 7 and 8, whose check lines depend on it
SEED = 20260809


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{tag}  {self.name}{suffix}"


class _Suite:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.results: list[CheckResult] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(f"{self.prefix}.{name}", bool(ok), detail))
        return bool(ok)


def criterion_1_petersen() -> list[CheckResult]:
    s = _Suite("petersen")
    g = petersen()
    cat = enumerate_perfect_matchings(g)
    s.check("pm-count-6", cat.count == 6, f"count={cat.count}")
    tau = covering_number(g, cat, cap=6)
    s.check("tau-5", tau.tau == 5, f"tau={tau.tau}")
    fulk = fulkerson_covering(g, cat)
    s.check(
        "six-pms-form-fulkerson",
        fulk is not None and fulk.members == (0, 1, 2, 3, 4, 5)
        and set(fulk.multiplicities()) == {2},
    )
    odd = odd_covering_number(g, cat, cap=7)
    masks = cat.masks
    full = (1 << g.m) - 1
    exhaustive_none = not any(
        _xor(masks, sub) == full
        for size in range(1, 7)
        for sub in combinations(range(6), size)
    )
    s.check(
        "no-odd-covering",
        odd.status == "none_exists"
        and not gf2_in_span(masks, full)
        and exhaustive_none,
    )
    stats = pm_pair_stats(cat)
    s.check("b-equals-1", stats.min_intersection == 1)
    s.check(
        "max-union-9n-over-10",
        stats.max_union == 9 == math.ceil(9 * g.n / 10),
        f"max_union={stats.max_union}",
    )
    return s.results


def _xor(masks: tuple[int, ...], indices) -> int:
    acc = 0
    for i in indices:
        acc ^= masks[i]
    return acc


def _nine_cycle_good_pair(g: CubicGraph):
    """A 2-factor of two 9-cycles admitting a good triple, with its certificate."""
    cat = enumerate_perfect_matchings(g)
    for mask in cat.masks:
        tf = two_factor_of(g, EdgeSet(g.m, mask))
        if sorted(len(c) for c in tf.cycles) != [9, 9]:
            continue
        cert = find_good_triple(g, tf, 0, 1)
        if cert is not None:
            return tf, cert
    return None, None


def criterion_2_blanusa() -> list[CheckResult]:
    s = _Suite("blanusa")
    for which in (1, 2):
        g = blanusa(which)
        cat = enumerate_perfect_matchings(g)
        tau = covering_number(g, cat, cap=6)
        s.check(f"{which}.tau-4", tau.tau == 4, f"tau={tau.tau}")
        tf, cert = _nine_cycle_good_pair(g)
        s.check(f"{which}.two-9-cycles-good-triple", cert is not None)
        if cert is not None:
            cov = four_covering_from_good_pairs(g, tf, [cert])
            report = covering_multiplicities(cov)
            s.check(
                f"{which}.constructed-4-covering",
                cov.size == 4 and is_perfect_matching(g, report.doubly_covered),
            )
        odd = odd_covering_number(g, cat, cap=7)
        s.check(f"{which}.tau-odd-5", odd.size == 5, f"size={odd.size}")
    return s.results


def criterion_3_flower() -> list[CheckResult]:
    s = _Suite("flower")
    for k in (5, 7):
        g = flower_snark(k)
        cat = enumerate_perfect_matchings(g)
        tau = covering_number(g, cat, cap=4)
        s.check(f"f{k}.tau-4", tau.tau == 4, f"tau={tau.tau}")
        tf = two_factor_from_cycles(g, flower_proof_cycles(k))
        triple = tuple(g.edge_ids_between(i, 3 * k + i)[0] for i in range(3))
        cert = check_good_triple(g, tf, 0, 1, triple)
        s.check(f"f{k}.x0t0-x1t1-x2t2-good-triple", cert is not None)
        if cert is not None:
            cov = four_covering_from_good_pairs(g, tf, [cert])
            covering_multiplicities(cov)
            s.check(f"f{k}.constructed-4-covering", cov.size == 4)
    return s.results


def criterion_4_goldberg() -> list[CheckResult]:
    s = _Suite("goldberg")
    g = goldberg_graph(5)
    s.check("g5.no-3-edge-coloring", three_edge_coloring(g) is None)
    cycles = goldberg_proof_cycles(5)
    tf = two_factor_from_cycles(g, cycles)
    s.check(
        "g5.proof-2-factor-valid",
        sorted(len(c) for c in tf.cycles) == [5, 10, 25],
    )
    triple = tuple(g.edge_ids_between(8 * i, 8 * i + 1)[0] for i in range(3))
    cert = check_good_triple(g, tf, 0, 1, triple)
    s.check("g5.a0b0-a1b1-a2b2-good-triple", cert is not None)
    if cert is not None:
        cov = four_covering_from_good_pairs(g, tf, [cert])
        covering_multiplicities(cov)
        s.check("g5.tau-4-by-construction", cov.size == 4)
    return s.results


def criterion_5_example_graph() -> list[CheckResult]:
    s = _Suite("tau5odd-example")
    g = tau5odd_example()
    cat = enumerate_perfect_matchings(g)
    s.check("pm-count-20", cat.count == 20, f"count={cat.count}")
    tau = covering_number(g, cat, cap=6)
    s.check("tau-5", tau.tau == 5, f"tau={tau.tau}")
    odd = odd_covering_number(g, cat, cap=7)
    s.check("tau-odd-7", odd.size == 7, f"size={odd.size}")
    s.check(
        "64-odd-coverings-of-77520-subsets",
        odd.count_minimum == 64 and math.comb(cat.count, 7) == 77520,
        f"count={odd.count_minimum}",
    )
    masks = cat.masks
    full = (1 << g.m) - 1
    no_size_5 = not any(
        _xor(masks, sub) == full for sub in combinations(range(20), 5)
    )
    s.check("tau-odd-not-5-directly", no_size_5)
    return s.results


def criterion_6_petersen_k33() -> list[CheckResult]:
    s = _Suite("petersen-x-k33")
    g = three_cut_join(petersen(), 0, k33(), 0)
    cat = enumerate_perfect_matchings(g)
    tau = covering_number(g, cat, cap=4)
    s.check("no-4-covering", tau.status == "exceeds", f"status={tau.status}")
    odd = odd_covering_number(g, cat, cap=7)
    s.check("no-odd-covering", odd.status == "none_exists")
    return s.results


def _check_tau4_structure(s: _Suite, g: CubicGraph, cat, witness: Covering, tag: str) -> None:
    s.check(f"{tag}.n-at-least-12", g.n >= 12, f"n={g.n}")
    report = covering_multiplicities(witness)
    s.check(
        f"{tag}.doubly-covered-is-pm",
        is_perfect_matching(g, report.doubly_covered),
    )
    members = witness.members
    pairwise = all(cat.masks[a] & cat.masks[b] for a, b in combinations(members, 2))
    s.check(f"{tag}.pairwise-intersections-nonempty", pairwise)
    triples_ok = True
    for sub in combinations(sorted(members), 3):
        if cat.masks[sub[0]] & cat.masks[sub[1]] & cat.masks[sub[2]]:
            triples_ok = False
            break
        structure = fr_structure(g, cat, sub)  # asserts alternation internally
        if any(len(c) % 2 for c in structure.alternating_cycles):
            triples_ok = False
            break
    s.check(f"{tag}.witness-3-subsets-are-fr-triples", triples_ok)
    stats = pm_pair_stats(cat)
    s.check(
        f"{tag}.balanced-matching-at-most-n-over-12",
        stats.min_intersection <= g.n / 12,
        f"b={stats.min_intersection}",
    )
    odd5 = odd_covering_from_four_covering(witness)
    s.check(f"{tag}.derived-odd-5-covering", odd5.size == 5)
    even8 = even_covering_from_four_covering(witness)
    s.check(
        f"{tag}.derived-even-8-covering",
        even8.size == 8 and set(even8.multiplicities()) <= {2, 4},
    )


def criterion_7_property_suites() -> list[CheckResult]:
    s = _Suite("properties")
    sizes = (10, 12, 14, 16)
    tau4_seen = 0
    kkn_ok = True
    odd_found_ok = True
    berge_ok = True
    for i in range(200):
        n = sizes[i % 4]
        g = random_bridgeless_cubic(n, SEED + i)
        cat = enumerate_perfect_matchings(g)
        stats = pm_pair_stats(cat)
        if stats.max_union < math.ceil(9 * n / 10):
            kkn_ok = False
            s.check(f"kkn-union-failed-seed-{SEED + i}", False)
        res = covering_number(g, cat, cap=5)
        if res.status != "ok":  # a bridgeless graph with tau > 5
            berge_ok = False
            s.check(f"berge-failed-seed-{SEED + i}", False)
        if res.tau == 4:
            tau4_seen += 1
            _check_tau4_structure(s, g, cat, res.witness, f"tau4-seed-{SEED + i}")
        if cat.count <= 60:
            odd = odd_covering_number(g, cat, cap=7)
            if odd.status == "ok":
                mults = odd.witness.multiplicities()
                if odd.size % 2 == 0 or any(c % 2 == 0 for c in mults):
                    odd_found_ok = False
    s.check("kkn-bound-on-200-random-graphs", kkn_ok)
    s.check("five-covering-exists-on-all-200", berge_ok)
    s.check("found-odd-coverings-have-odd-size", odd_found_ok)
    s.check("tau4-structure-suite-ran", True, f"tau=4 instances: {tau4_seen}")

    rng = random.Random(SEED)
    petersen_hits = 0
    perm_ok = True
    for i in range(100):
        ring = rng.choice((3, 4, 5, 6, 7, 8))
        sigma = list(range(ring))
        rng.shuffle(sigma)
        g = permutation_graph(sigma)
        cat = enumerate_perfect_matchings(g)
        res = covering_number(g, cat, cap=4)
        if res.status == "exceeds":
            if is_petersen(g):
                petersen_hits += 1
            else:
                perm_ok = False
    s.check(
        "permutation-graphs-tau-at-most-4-or-petersen",
        perm_ok,
        f"petersen hits: {petersen_hits}",
    )
    return s.results


def _brute_force_matchings(g: CubicGraph) -> int:
    """The number of n/2-edge subsets that are perfect matchings, by trying all."""
    # n/2 edges cover all n vertices only when no two share a vertex, so an
    # OR of endpoint masks equal to `full` is the perfect-matching test
    ends = [(1 << u) | (1 << v) for u, v in g.edges]
    full = (1 << g.n) - 1
    count = 0
    for combo in combinations(ends, g.n // 2):
        acc = 0
        for mask in combo:
            acc |= mask
        if acc == full:
            count += 1
    return count


def criterion_8_oracles() -> list[CheckResult]:
    s = _Suite("oracles")
    small = [
        theta(), k4(), k33(), prism(3), prism(4), prism(5), prism(6),
        petersen(), flower_snark(3),
    ] + [random_bridgeless_cubic(n, SEED + n) for n in (10, 12)]
    enum_ok = all(
        enumerate_perfect_matchings(g).count == _brute_force_matchings(g)
        for g in small
    )
    s.check("pm-enumeration-matches-brute-force-n<=12", enum_ok)

    cover_ok = True
    cover_graphs = [
        k4(), k33(), prism(4), petersen(), blanusa(1), tau5odd_example(),
        flower_snark(3),
    ]
    for g in cover_graphs:
        cat = enumerate_perfect_matchings(g)
        if cat.count > 200:
            cover_ok = False
            continue
        masks = cat.masks
        full = (1 << g.m) - 1
        for k in (3, 4):
            exists = any(
                _union(masks, sub) == full
                for size in range(1, k + 1)
                for sub in combinations(range(cat.count), size)
            )
            res = covering_number(g, cat, cap=k)
            if exists != (res.status == "ok" and res.tau <= k):
                cover_ok = False
    s.check("covering-number-matches-k-subset-search", cover_ok)

    odd_ok = True
    odd_graphs = [
        k4(), k33(), prism(4), petersen(), blanusa(2), tau5odd_example(),
        three_cut_join(petersen(), 0, k33(), 0),
    ]
    for g in odd_graphs:
        cat = enumerate_perfect_matchings(g)
        if cat.count > 25:
            odd_ok = False
            continue
        masks = cat.masks
        full = (1 << g.m) - 1
        exhaustive = _subset_xor_reaches(masks, full)
        if exhaustive != gf2_in_span(masks, full):
            odd_ok = False
    s.check("gf2-feasibility-matches-exhaustive-subsets", odd_ok)
    return s.results


def _union(masks: tuple[int, ...], indices) -> int:
    acc = 0
    for i in indices:
        acc |= masks[i]
    return acc


def _subset_xor_reaches(masks: tuple[int, ...], target: int) -> bool:
    """Meet-in-the-middle search over all subsets for XOR == target."""
    half = len(masks) // 2
    left, right = masks[:half], masks[half:]
    acc_all = [0]
    for mask in left:
        acc_all += [a ^ mask for a in acc_all]
    seen = set(acc_all)
    probe = [0]
    for mask in right:
        probe += [a ^ mask for a in probe]
    return any((target ^ p) in seen for p in probe)


def run_all() -> list[CheckResult]:
    results: list[CheckResult] = []
    results += criterion_1_petersen()
    results += criterion_2_blanusa()
    results += criterion_3_flower()
    results += criterion_4_goldberg()
    results += criterion_5_example_graph()
    results += criterion_6_petersen_k33()
    results += criterion_7_property_suites()
    results += criterion_8_oracles()
    return results
