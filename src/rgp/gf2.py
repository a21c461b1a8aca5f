"""Linear algebra over GF(2) on int bitmask rows: bit j of a row is its
entry in column j."""

from __future__ import annotations

from typing import Iterable


def rank(rows: Iterable[int]) -> int:
    """The rank of the rows, by elimination on their leading bits."""
    pivots: dict = {}     # leading bit -> the one kept row with that lead
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = r
                break
            r ^= pivots[lead]
    return len(pivots)
