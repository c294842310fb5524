"""Deterministic rejection sampler for test weights."""

from __future__ import annotations

import random
from typing import Optional

from qblocks.lattice import Weight

# Draws allowed per requested weight before the sampler gives up.
_MAX_TRIES = 1000


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
