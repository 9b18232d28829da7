"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

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
    The 2^r combinations are walked in Gray-code order, one XOR and one
    ``bit_count`` each.
    """
    # hist[p][w]: the combinations u with |u| = p mod 2 and weight w; the
    # Gray code's t-th word has |u| = t mod 2
    hist = [[0] * (width + 1), [0] * (width + 1)]
    hist[0][0] = 1
    acc = 0
    for t in range(1, 1 << len(independent)):
        acc ^= independent[(t & -t).bit_length() - 1]
        hist[t & 1][acc.bit_count()] += 1
    return tuple(
        (w, even - odd) for w, (even, odd) in enumerate(zip(*hist)) if even != odd
    )


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
