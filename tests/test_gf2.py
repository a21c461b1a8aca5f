"""GF(2) rank on int bitmask rows, against the size of the row span."""

import random

from rgp.gf2 import rank


def _span_rank(rows) -> int:
    """log2 of the number of sums of subsets of the rows."""
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span).bit_length() - 1


def test_rank_matches_brute_force():
    assert rank([]) == 0
    assert rank([0, 0]) == 0
    assert rank([0b110, 0b011, 0b101]) == 2
    rng = random.Random(20)
    zero_rows = dependent = 0
    for _ in range(400):
        width = rng.randint(1, 7)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        r = rank(rows)
        assert r == _span_rank(rows), rows
        zero_rows += 0 in rows
        dependent += 0 not in rows and r < len(rows)
    assert zero_rows and dependent
