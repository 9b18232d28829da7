"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Iterable, Sequence


def _row_reduce(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """The rows independent of the rows before them, and a basis of their span.

    The basis is row-reduced (distinct leading bits, descending), so reducing
    a vector by it is one ``min`` step per basis row.
    """
    kept: list[int] = []
    basis: list[int] = []
    for row in rows:
        reduced = row
        for b in basis:
            reduced = min(reduced, reduced ^ b)
        if reduced:
            kept.append(row)
            basis.append(reduced)
            basis.sort(reverse=True)
    return kept, basis


def gf2_in_span(rows: Iterable[int], vec: int) -> bool:
    """Whether `vec` lies in the GF(2) span of `rows`."""
    for b in _row_reduce(rows)[1]:
        vec = min(vec, vec ^ b)
    return vec == 0


def gf2_independent_rows(rows: Iterable[int]) -> list[int]:
    """The rows independent of the rows before them: as many as the rank."""
    return _row_reduce(rows)[0]


def gf2_signed_weights(
    independent: Sequence[int], width: int
) -> tuple[tuple[int, int], ...]:
    """The weight enumerator of a row space, signed by the parity of |u|.

    The pairs (w, e_w - o_w), where e_w (o_w) counts the combinations u of
    an even (odd) number of the `independent` rows, each `width` bits wide,
    whose sum has weight w; the weights where the two agree are left out.

    Bit-sliced over the 2^r combinations at once, on 2^r-bit integers whose
    bit u stands for combination u.  Column i of the sum is the parity of
    u & c_i, where bit j of the pattern c_i is bit i of row j.  Each distinct
    pattern's truth table is added, times its multiplicity, into a counter
    whose slice k holds bit k of every weight, and the slices are then split
    into one mask of combinations per weight, depth first.  That is a few
    dozen operations on 2^r-bit integers per column (about 0.07 s at r = 20
    on 240 columns), with about two per slice alive at once and none after
    the call.
    """
    rank = len(independent)
    ones = [(1 << (1 << j)) - 1 for j in range(rank)]

    def truth_table(pattern: int) -> int:
        """Bit u set when u & pattern has odd weight, built by doubling: step
        j appends a copy of the table so far, flipped if bit j is set."""
        table = 0
        for j in range(rank):
            table |= (table ^ ones[j] if (pattern >> j) & 1 else table) << (1 << j)
        return table

    patterns = Counter(
        sum(((row >> i) & 1) << j for j, row in enumerate(independent))
        for i in range(width)
    )
    patterns.pop(0, None)  # a zero column is 0 in every sum
    slices = [0] * width.bit_length()
    for pattern, multiplicity in patterns.items():
        table = truth_table(pattern)
        level = 0
        while multiplicity:
            if multiplicity & 1:
                carry, k = table, level
                while carry:
                    carry, slices[k] = carry & slices[k], carry ^ slices[k]
                    k += 1
            multiplicity >>= 1
            level += 1
    odd = truth_table((1 << rank) - 1)  # bit u set when |u| is odd
    signed = []
    # (mask, weight so far, slices left); the lighter half is popped first
    stack = [((1 << (1 << rank)) - 1, 0, len(slices))]
    while stack:
        mask, weight, k = stack.pop()
        if k == 0:
            if d := mask.bit_count() - 2 * (mask & odd).bit_count():
                signed.append((weight, d))
            continue
        k -= 1
        high = mask & slices[k]
        if high:
            stack.append((high, weight | 1 << k, k))
        if mask ^ high:
            stack.append((mask ^ high, weight, k))
    return tuple(signed)


def gf2_all_ones_subset_counts(
    signed: tuple[tuple[int, int], ...], rank: int, width: int, sizes: Iterable[int]
) -> dict[int, int]:
    """For each s in `sizes`, the number of s-sets of columns summing to all-ones.

    `signed` is ``gf2_signed_weights`` of the r = `rank` independent rows of
    a GF(2) matrix A with `width` columns, and the all-ones vector must lie in
    its column span.  Then Ax = 1 holds iff those r rows give 1, and a
    character sum over the 2^r combinations u of them counts the solutions of
    weight s:  N_s = 2^-r sum_u (-1)^|u| K_s(|u A|), with K_s the Krawtchouk
    polynomial, the y^s coefficient of (1 - y)^w (1 + y)^(width - w)
    (MacWilliams-Sloane).
    """
    counts = {}
    for s in sizes:
        total = sum(
            d * sum((-1) ** j * comb(w, j) * comb(width - w, s - j) for j in range(s + 1))
            for w, d in signed
        )
        assert total % (1 << rank) == 0, "character sum not divisible by 2^r"
        counts[s] = total >> rank
    return counts
