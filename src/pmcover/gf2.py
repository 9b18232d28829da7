"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

from typing import Iterable


def gf2_in_span(rows: Iterable[int], vec: int) -> bool:
    """Whether `vec` lies in the GF(2) span of `rows`."""
    basis: list[int] = []  # row-reduced: distinct leading bits, descending
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec == 0
