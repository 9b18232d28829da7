"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

from math import comb
from typing import Iterable


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


def gf2_all_ones_subset_counts(
    rows: Iterable[int], width: int, sizes: Iterable[int], max_rank: int
) -> dict[int, int] | None:
    """For each s in `sizes`, the number of s-sets of columns summing to all-ones.

    `rows` are the rows of a GF(2) matrix A with `width` columns (bit j of a
    row is column j), and the all-ones vector must lie in its column span.
    Then Ax = 1 holds iff the r independent rows give 1, and a character sum
    over the 2^r combinations u of those rows counts the solutions of weight
    s:  N_s = 2^-r sum_u (-1)^|u| K_s(|u A|), with K_s the Krawtchouk
    polynomial, the y^s coefficient of (1 - y)^w (1 + y)^(width - w)
    (MacWilliams-Sloane).  The combinations are walked in Gray-code order,
    one XOR and one ``bit_count`` each, into a weight histogram per parity
    of |u|.  Returns None when r exceeds `max_rank`.
    """
    independent = _row_reduce(rows)[0]
    r = len(independent)
    if r > max_rank:
        return None
    # hist[p][w]: the combinations u with |u| = p mod 2 and weight w; the
    # Gray code's t-th word has |u| = t mod 2
    hist = [[0] * (width + 1), [0] * (width + 1)]
    hist[0][0] = 1
    acc = 0
    for t in range(1, 1 << r):
        acc ^= independent[(t & -t).bit_length() - 1]
        hist[t & 1][acc.bit_count()] += 1
    signed = [
        (w, even - odd) for w, (even, odd) in enumerate(zip(*hist)) if even != odd
    ]
    counts = {}
    for s in sizes:
        total = sum(
            d * sum((-1) ** j * comb(w, j) * comb(width - w, s - j) for j in range(s + 1))
            for w, d in signed
        )
        assert total % (1 << r) == 0, "character sum not divisible by 2^r"
        counts[s] = total >> r
    return counts
