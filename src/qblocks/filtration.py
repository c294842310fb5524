"""Verma-filtration multiplicities in both the restriction and induction
directions, the orbit-intersection check that pins them to a single weight
per block, and a greedy flag extractor used as an independent oracle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Callable, Iterable, Mapping, Optional, Union

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    _super_offset_terms,
    _verma_offset_terms,
    k_dim,
    subset_sum_P,
)
from qblocks.lattice import (
    Weight,
    _same_rank,
    classify,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)
from qblocks.weyl import Perm, check_rank, dot_orbit, orbit


class PreconditionError(ValueError):
    """A weight fails the hypotheses an operation needs."""


class FlagExtractionError(ValueError):
    """A character is not a nonnegative flag combination within its region."""


EntriesLike = Union[Mapping[Weight, int], Iterable[tuple[Weight, int]]]


class FlagMultiset:
    """Highest weight -> multiplicity map of a Verma-type filtration."""

    __slots__ = ("_entries",)

    def __init__(self, entries: EntriesLike = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[Weight, int] = {}
        for w, m in items:
            m = int(m)
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at {w}")
            if m:
                acc[w] = acc.get(w, 0) + m
        self._entries = acc

    def get(self, w: Weight, default: int = 0) -> int:
        return self._entries.get(w, default)

    def items(self) -> list[tuple[Weight, int]]:
        return sorted(self._entries.items())

    def total(self) -> int:
        return sum(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlagMultiset) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def to_json_entries(self) -> list[dict[str, object]]:
        return [{"weight": str(w), "mult": m} for w, m in self.items()]

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {m}" for w, m in self.items())
        return f"FlagMultiset({{{body}}})"


def _require(lam: Weight, what: str, strongly_typical: bool = False) -> None:
    rep = classify(lam)
    missing = [
        name
        for name, ok in (
            ("integral", rep.integral),
            ("dominant", rep.dominant),
            ("regular", rep.regular),
        )
        if not ok
    ]
    if strongly_typical and not rep.strongly_typical:
        missing.append("strongly typical")
    if missing:
        raise PreconditionError(
            f"{what} requires an integral dominant regular"
            f"{' strongly typical' if strongly_typical else ''} weight; "
            f"{lam} is not {', '.join(missing)}"
        )


@lru_cache(maxsize=None)
def _support_ints(n: int) -> frozenset[tuple[int, ...]]:
    return frozenset(w.as_integers() for w, _ in subset_sum_P(n, limit=n).items())


@lru_cache(maxsize=512)
def _orbit_ints(lam: Weight) -> frozenset[tuple[int, ...]]:
    return frozenset(w.as_integers() for w in orbit(lam, limit=lam.rank))


@lru_cache(maxsize=512)
def _dot_orbit_ints(lam: Weight) -> frozenset[tuple[int, ...]]:
    return frozenset(w.as_integers() for w in dot_orbit(lam, limit=lam.rank))


@dataclass(frozen=True)
class LinkageReport:
    """Outcome of the two orbit-intersection checks for one (lam, w) pair.

    offset is w(lam) - w.lam, which must be the only point where the shifted
    subset-sum multiset meets either orbit, with coefficient exactly 1.
    """

    lam: Weight
    w: Perm
    intersection_plain: frozenset[Weight]
    intersection_dot: frozenset[Weight]
    offset: Weight
    offset_multiplicity: int
    passed: bool


def linkage_check(lam: Weight, w: Perm, limit: Optional[int] = None) -> LinkageReport:
    """Intersect w.lam + (subset sums) with the plain orbit, and
    w(lam) - (subset sums) with the dot orbit.

    For an integral dominant regular lam both intersections must be the
    singletons {w(lam)} and {w.lam}, and the connecting offset must appear
    in the subset-sum multiset with coefficient 1.
    """
    n = _same_rank(lam, w.act(lam))
    check_rank(n, limit)
    _require(lam, "linkage_check")
    pchar = subset_sum_P(n, limit=n)
    psupp = _support_ints(n)
    wl = w.act(lam)
    wd = w.dot(lam)
    wl_i = wl.as_integers()
    wd_i = wd.as_integers()
    plain = frozenset(
        Weight(v)
        for v in _orbit_ints(lam)
        if tuple(map(sub, v, wd_i)) in psupp
    )
    dot = frozenset(
        Weight(v)
        for v in _dot_orbit_ints(lam)
        if tuple(map(sub, wl_i, v)) in psupp
    )
    offset = wl - wd
    mult = pchar.coefficient(offset)
    passed = plain == frozenset((wl,)) and dot == frozenset((wd,)) and mult == 1
    return LinkageReport(lam, w, plain, dot, offset, mult, passed)


def restriction_flag(lam: Weight, w: Perm, limit: Optional[int] = None) -> FlagMultiset:
    """Verma flag of the even part of a restricted Verma supermodule.

    Entry at nu is k_dim(n) times the subset-sum coefficient of w(lam) - nu,
    computed directly from the subset-sum multiset.
    """
    n = _same_rank(lam, w.act(lam))
    check_rank(n, limit)
    _require(lam, "restriction_flag", strongly_typical=True)
    k = k_dim(n)
    wl = w.act(lam)
    return FlagMultiset((wl - p, k * c) for p, c in subset_sum_P(n, limit=n).items())


def res_block_mult(lam: Weight, w: Perm, limit: Optional[int] = None) -> int:
    """Sum of restriction-flag entries over the dot orbit of lam."""
    flag = restriction_flag(lam, w, limit)
    return sum(flag.get(nu) for nu in dot_orbit(lam, limit=lam.rank))


def induction_flag(lam: Weight, w: Perm, limit: Optional[int] = None) -> FlagMultiset:
    """Super-Verma flag of an induced Verma module.

    Entry at nu is 2^(n-1) / k_dim(n) times the subset-sum coefficient of
    nu - w.lam; the ratio is always the integer 2^ceil((n-1)/2).
    """
    n = _same_rank(lam, w.act(lam))
    check_rank(n, limit)
    _require(lam, "induction_flag", strongly_typical=True)
    factor = 2 ** (n - 1) // k_dim(n)
    wd = w.dot(lam)
    return FlagMultiset((wd + p, factor * c) for p, c in subset_sum_P(n, limit=n).items())


def ind_block_mult(lam: Weight, w: Perm, limit: Optional[int] = None) -> int:
    """Sum of induction-flag entries over the plain orbit of lam (raw count,
    before identifying the two halves of a parity-switched pair)."""
    flag = induction_flag(lam, w, limit)
    return sum(flag.get(nu) for nu in orbit(lam, limit=lam.rank))


def ind_block_mult_split(lam: Weight, w: Perm, limit: Optional[int] = None) -> int:
    """Block multiplicity after parity splitting: the raw count halves when
    n is even and the induced summands come in switched pairs."""
    raw = ind_block_mult(lam, w, limit)
    n = lam.rank
    if n % 2 == 0:
        if raw % 2:
            raise ArithmeticError(f"odd raw multiplicity {raw} cannot split")
        return raw // 2
    return raw


TieBreak = Callable[[list[Weight]], Weight]


def verma_flag_extract(
    char: FormalCharacter,
    trunc: Truncation,
    super_blocks: bool = False,
    tie_break: Optional[TieBreak] = None,
) -> FlagMultiset:
    """Greedily decompose a truncated character into (super-)Verma characters.

    Repeatedly selects a dominance-maximal support weight mu, divides its
    coefficient by the block's top coefficient (1 for plain Verma blocks,
    k_dim(n) for even-part super blocks), records the multiplicity, and
    subtracts that many copies of the block truncated to the remaining
    height budget.  Any failure of divisibility or nonnegativity means the
    input is not a flag character within the region.

    The result does not depend on which maximal weight is chosen at each
    step; tie_break, given the sorted list of maximal weights, may pick any
    of them.  The default takes the lexicographically largest, which is
    always dominance-maximal, so the maximal set is only materialized when a
    tie_break is supplied.
    """
    n = char.rank
    if trunc.base.rank != n:
        raise ValueError(f"rank mismatch: {trunc.base.rank} vs {n}")
    divisor = k_dim(n) if super_blocks else 1
    block_terms = _super_offset_terms if super_blocks else _verma_offset_terms
    base = trunc.base

    # Work on simple-root coefficient vectors of base - weight: dominance
    # between region points becomes the componentwise order, reversed.
    cur: dict[tuple[int, ...], int] = {}
    for wt, c in char.items():
        try:
            coeffs = simple_root_coefficients(base - wt)
        except ValueError:
            coeffs = None
        if coeffs is None or any(x < 0 for x in coeffs) or sum(coeffs) > trunc.bound:
            raise FlagExtractionError(
                f"character term at {wt} lies outside the truncation region"
            )
        cur[coeffs] = c

    found: dict[tuple[int, ...], int] = {}
    while cur:
        if tie_break is None:
            chosen = min(cur)
        else:
            maximal = [
                s
                for s in cur
                if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in cur)
            ]
            weights = sorted(base - weight_from_simple_coefficients(n, s) for s in maximal)
            pick = tie_break(weights)
            chosen = simple_root_coefficients(base - pick)
            if chosen not in cur:
                raise ValueError(f"tie_break returned a non-maximal weight: {pick}")
        coeff = cur[chosen]
        if coeff < 0:
            raise FlagExtractionError(
                "negative coefficient at "
                f"{base - weight_from_simple_coefficients(n, chosen)}"
            )
        mult, rem = divmod(coeff, divisor)
        if rem:
            raise FlagExtractionError(
                f"coefficient {coeff} not divisible by the top coefficient {divisor}"
            )
        found[chosen] = mult
        budget = trunc.bound - sum(chosen)
        # mult copies of the block, which is divisor times its offset table;
        # mult * divisor == coeff after the divisibility check.
        for offs, bc in block_terms(n, budget):
            key = tuple(a + b for a, b in zip(chosen, offs))
            merged = cur.get(key, 0) - coeff * bc
            if merged:
                cur[key] = merged
            else:
                cur.pop(key, None)
    return FlagMultiset(
        (base - weight_from_simple_coefficients(n, s), m) for s, m in found.items()
    )
