"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence


def gf2_transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The columns of the `width`-bit `rows`: bit j of column i is bit i of
    row j, read off one binary string of the rows joined last to first."""
    bits = "".join(format(row, f"0{width}b") for row in reversed(rows))
    return tuple(int(bits[width - 1 - i :: width] or "0", 2) for i in range(width))


def gf2_row_reduction(rows: Iterable[int]) -> tuple[tuple[int, ...], bool]:
    """The rows independent of the rows before them, and whether the all-ones
    vector (one bit per row) lies in the column span.

    The first holds as many rows as the rank.  By the Fredholm alternative
    the second fails iff an odd number of rows sum to 0.  One reduction of
    the tagged rows ``row << 1 | 1`` settles both: a tagged row that does
    not reduce to 0 or 1 is independent, and one that reduces to exactly 1
    sums with an even number of earlier rows to 0, an odd dependency.

    Every tagged row that does not reduce to 0 joins the basis, which is
    kept row-reduced (distinct leading bits, descending), so reducing a
    vector by it is one ``min`` step per basis row.
    """
    basis: list[int] = []
    independent: list[int] = []
    ones_in_span = True
    for row in rows:
        reduced = row << 1 | 1
        for b in basis:
            reduced = min(reduced, reduced ^ b)
        if reduced > 1:
            independent.append(row)
        elif reduced:
            ones_in_span = False
        if reduced:
            basis.append(reduced)
            basis.sort(reverse=True)
    return tuple(independent), ones_in_span


# Groups of at most this many distinct column patterns add up their truth
# tables directly; larger groups split on their top pattern bit.  Leaves of 4
# to 32 patterns timed alike, within the noise, on the K4 compositions of
# rank 20, 22 and 23 (CPU time, Python 3.11, best of 5-9 runs on 2 shared
# cores: about 11-16, 33-37 and 165-170 ms); leaves of 64 were slower at
# ranks 22 and 23.
_LEAF_PATTERNS = 8


def gf2_signed_weights(
    independent: Sequence[int], width: int
) -> tuple[tuple[int, int], ...]:
    """The weight enumerator of a row space, signed by the parity of |u|.

    The pairs (w, e_w - o_w), where e_w (o_w) counts the combinations u of
    an even (odd) number of the `independent` rows, each `width` bits wide,
    whose sum has weight w; the weights where the two agree are left out.

    Bit-sliced over the 2^r combinations at once, on 2^r-bit integers whose
    bit u stands for combination u.  Column i of the sum is the parity of
    u & c_i, where the pattern c_i is column i of ``gf2_transpose``: bit j
    of it is bit i of row j.  The weights W form a counter whose slice k
    holds bit k of every weight.  It is built by
    splitting the distinct nonzero patterns on their top bit into P0 and P1
    (that bit cleared): W(0, u') = W0(u') + W1(u') and W(1, u') = W0(u') +
    |P1| - W1(u'), one bit-sliced add and complement on integers of half
    the width, recursing while a group holds more than ``_LEAF_PATTERNS``
    patterns.  A smaller group adds each pattern's truth table, times its
    multiplicity, into its counter.  The slices are then split into one
    mask of combinations per weight, depth first.  That is about 0.015 s at
    r = 20 on 240 columns and 0.05 s at r = 22 on 480, with a few slices
    alive at once and none after the call.
    """
    rank = len(independent)
    ones = [(1 << (1 << j)) - 1 for j in range(rank + 1)]  # 2^j ones

    def truth_table(pattern: int, depth: int) -> int:
        """Bit u < 2^depth set when u & pattern has odd weight, built by
        doubling: step j appends a copy of the table so far, flipped if bit
        j is set."""
        table = 0
        for j in range(depth):
            table |= (table ^ ones[j] if (pattern >> j) & 1 else table) << (1 << j)
        return table

    def counter(group: list[tuple[int, int]], total: int, depth: int) -> list[int]:
        """The bit-sliced weights of `group`'s (pattern, multiplicity) pairs,
        `total` columns in all, over the 2^depth combinations of the low
        `depth` rows."""
        slices = [0] * total.bit_length()
        if len(group) <= _LEAF_PATTERNS:
            for pattern, multiplicity in group:
                table = truth_table(pattern, depth)
                level = 0
                while multiplicity:
                    if multiplicity & 1:
                        carry, k = table, level
                        while carry:
                            carry, slices[k] = carry & slices[k], carry ^ slices[k]
                            k += 1
                    multiplicity >>= 1
                    level += 1
            return slices
        depth -= 1
        top = 1 << depth  # the top bit, and the combinations of the rows below it
        low = [(p, c) for p, c in group if not p & top]
        high = [(p ^ top, c) for p, c in group if p & top]
        n1 = sum(c for _, c in high)
        w0 = counter(low, total - n1, depth)
        w1 = counter(high, n1, depth)
        w0 += [0] * (len(slices) - len(w0))
        w1 += [0] * (len(slices) - len(w1))
        full = ones[depth]
        carry0 = carry1 = borrow = 0
        for k, (a, b) in enumerate(zip(w0, w1)):
            # bit k of n1 - W1, by subtraction with borrow
            if n1 >> k & 1:
                c, borrow = full ^ b ^ borrow, b & borrow
            else:
                c, borrow = b ^ borrow, b | borrow
            s0, s1 = a ^ b, a ^ c
            slices[k] = s0 ^ carry0 | (s1 ^ carry1) << top
            carry0, carry1 = a & b | carry0 & s0, a & c | carry1 & s1
        return slices

    patterns = Counter(gf2_transpose(independent, width))
    patterns.pop(0, None)  # a zero column is 0 in every sum
    slices = counter(list(patterns.items()), patterns.total(), rank)
    slices += [0] * (width.bit_length() - len(slices))
    odd = truth_table((1 << rank) - 1, rank)  # bit u set when |u| is odd
    signed = []
    # (mask, weight so far, slices left); the lighter half is popped first
    stack = [(ones[rank], 0, len(slices))]
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
    (MacWilliams-Sloane).  At each weight w, K_0..K_s come from the
    three-term recurrence (t + 1) K_{t+1} = (width - 2w) K_t - (width - t +
    1) K_{t-1}, with K_{-1} = 0 and K_0 = 1.
    """
    sizes = tuple(sizes)
    totals = [0] * (max(sizes, default=0) + 1)
    for w, d in signed:
        before, k = 0, 1
        for t in range(len(totals)):
            totals[t] += d * k
            before, k = k, ((width - 2 * w) * k - (width - t + 1) * before) // (t + 1)
    counts = {}
    for s in sizes:
        assert totals[s] % (1 << rank) == 0, "character sum not divisible by 2^r"
        counts[s] = totals[s] >> rank
    return counts
