"""Deterministic rejection sampler for test weights."""

from __future__ import annotations

import random
from math import comb
from typing import Optional

from qblocks.lattice import Weight

# Draws allowed per requested weight before the sampler gives up.
_MAX_TRIES = 1000


def _admissible_count(n: int, lo: int, hi: int) -> int:
    """Number of admissible rank-n weights with entries in lo..hi.

    An admissible weight is a set of n distinct nonzero entries holding at
    most one of each pair +k, -k.  With p pairs in range and s other nonzero
    values, choosing j pairs, a sign for each and n - j others gives
    sum_j C(p, j) 2^j C(s, n - j).
    """
    pairs = max(0, min(hi, -lo))
    nonzero = hi - lo + 1 - (lo <= 0 <= hi)
    singles = nonzero - 2 * pairs
    return sum(comb(pairs, j) * 2**j * comb(singles, n - j) for j in range(n + 1))


def sample_weights(
    n: int,
    count: int,
    seed: int = 0,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> list[Weight]:
    """Distinct strictly decreasing integer weights with no zero pair sums.

    Sorting distinct integers in decreasing order gives an integral dominant
    regular weight; rejecting draws where any two entries (or a doubled
    entry) sum to zero makes it strongly typical as well.  A fixed seed
    yields a reproducible list.
    """
    if count < 0:
        raise ValueError(f"negative sample count: {count}")
    if lo is None:
        lo = -(2 * n + 3)
    if hi is None:
        hi = 2 * n + 3
    population = range(lo, hi + 1)
    if len(population) < n:
        raise ValueError(f"range {lo}..{hi} cannot supply {n} distinct entries")
    available = _admissible_count(n, lo, hi)
    if count > available:
        raise RuntimeError(
            f"range {lo}..{hi} holds only {available} admissible rank-{n} "
            f"weights, {count} requested; widen the range"
        )
    rng = random.Random(seed)
    out: list[Weight] = []
    seen = set()
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > _MAX_TRIES * max(count, 1):
            raise RuntimeError(
                f"sampler kept rejecting; widen the range {lo}..{hi}"
            )
        coords = tuple(sorted(rng.sample(population, n), reverse=True))
        if coords in seen:
            continue
        if any(a + b == 0 for a in coords for b in coords):
            continue
        seen.add(coords)
        out.append(Weight(coords))
    return out
