"""Small GF(2) linear algebra helpers on int bitmasks."""

from __future__ import annotations

from typing import Iterable


def gf2_basis(rows: Iterable[int]) -> list[int]:
    """Row-reduced basis (distinct leading bits) of the span of `rows`."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return basis


def gf2_reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def gf2_in_span(rows: Iterable[int], vec: int) -> bool:
    """Whether `vec` lies in the GF(2) span of `rows`."""
    return gf2_reduce(vec, gf2_basis(rows)) == 0
