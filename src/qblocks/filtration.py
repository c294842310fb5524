"""Verma-filtration multiplicities in both the restriction and induction
directions, the orbit-intersection check that pins them to a single weight
per block, and flag extraction by division by the block generating function,
an independent route to the restriction flag."""

from __future__ import annotations

from functools import lru_cache
from operator import sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Union

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    _Packing,
    _offset_table,
    _packed_offsets,
    k_dim,
    subset_sum_P,
)
from qblocks.kernels._pykernels import binomial_product, geometric_product
from qblocks.lattice import Weight, classify
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
    return frozenset(w.as_integers() for w, _ in subset_sum_P(n).items())


@lru_cache(maxsize=512)
def _orbit_ints(lam: Weight) -> frozenset[tuple[int, ...]]:
    return frozenset(w.as_integers() for w in orbit(lam))


@lru_cache(maxsize=512)
def _dot_orbit_ints(lam: Weight) -> frozenset[tuple[int, ...]]:
    return frozenset(w.as_integers() for w in dot_orbit(lam))


class LinkageReport(NamedTuple):
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


def linkage_check(lam: Weight, w: Perm) -> LinkageReport:
    """Intersect w.lam + (subset sums) with the plain orbit, and
    w(lam) - (subset sums) with the dot orbit.

    For an integral dominant regular lam both intersections must be the
    singletons {w(lam)} and {w.lam}, and the connecting offset must appear
    in the subset-sum multiset with coefficient 1.
    """
    wl = w.act(lam)
    n = lam.rank
    check_rank(n)
    _require(lam, "linkage_check")
    pchar = subset_sum_P(n)
    psupp = _support_ints(n)
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


def restriction_flag(lam: Weight, w: Perm) -> FlagMultiset:
    """Verma flag of the even part of a restricted Verma supermodule.

    Entry at nu is k_dim(n) times the subset-sum coefficient of w(lam) - nu,
    computed directly from the subset-sum multiset.
    """
    wl = w.act(lam)
    n = lam.rank
    check_rank(n)
    _require(lam, "restriction_flag", strongly_typical=True)
    k = k_dim(n)
    return FlagMultiset((wl - p, k * c) for p, c in subset_sum_P(n).items())


def res_block_mult(lam: Weight, w: Perm) -> int:
    """Sum of restriction-flag entries over the dot orbit of lam."""
    flag = restriction_flag(lam, w)
    return sum(flag.get(nu) for nu in dot_orbit(lam))


def induction_flag(lam: Weight, w: Perm) -> FlagMultiset:
    """Super-Verma flag of an induced Verma module.

    Entry at nu is 2^(n-1) / k_dim(n) times the subset-sum coefficient of
    nu - w.lam; the ratio is always the integer 2^ceil((n-1)/2).
    """
    wd = w.dot(lam)
    n = lam.rank
    check_rank(n)
    _require(lam, "induction_flag", strongly_typical=True)
    factor = 2 ** (n - 1) // k_dim(n)
    return FlagMultiset((wd + p, factor * c) for p, c in subset_sum_P(n).items())


def ind_block_mult(lam: Weight, w: Perm) -> int:
    """Sum of induction-flag entries over the plain orbit of lam (raw count,
    before identifying the two halves of a parity-switched pair)."""
    flag = induction_flag(lam, w)
    return sum(flag.get(nu) for nu in orbit(lam))


def ind_block_mult_split(lam: Weight, w: Perm) -> int:
    """Block multiplicity after parity splitting: the raw count halves when
    n is even and the induced summands come in switched pairs."""
    raw = ind_block_mult(lam, w)
    n = lam.rank
    if n % 2 == 0:
        if raw % 2:
            raise ArithmeticError(f"odd raw multiplicity {raw} cannot split")
        return raw // 2
    return raw


def _divide(acc: Mapping[int, int], pk: _Packing, super_blocks: bool) -> dict[int, int]:
    """acc times prod over positive alpha of (1 - x^alpha), and for super
    blocks divided by P = prod (1 + x^alpha), truncated to pk's bound: one
    packed-key sweep per positive root.  The truncated factors commute, so
    any root order gives the same quotient; simple roots go first because
    each of their factors cancels one factor of a Verma block's
    denominator outright, so the support shrinks fastest."""
    roots = sorted(pk.packed_positive_roots())
    acc = binomial_product(acc, roots, pk.bound, pk.hshift, sign=-1)
    if super_blocks:
        acc = geometric_product(acc, roots, pk.bound, pk.hshift, sign=-1)
    return acc


@lru_cache(maxsize=None)
def _table_quotient(
    n: int, bound: int, super_table: bool, super_blocks: bool
) -> Mapping[int, int]:
    """_divide of the offset table _offset_table(n, bound, super_table).
    Regions are translation-invariant, so one quotient serves every base;
    it is shared, so it is handed out read-only."""
    table = _offset_table(n, bound, super_table)
    return MappingProxyType(_divide(table, _Packing(n, bound), super_blocks))


def verma_flag_extract(
    char: FormalCharacter, trunc: Truncation, super_blocks: bool = False
) -> FlagMultiset:
    """Decompose a truncated character into (super-)Verma characters by
    dividing it by the block generating function.

    A Verma block at mu is e^mu / prod over positive alpha of (1 - e^{-alpha});
    an even-part super block is k_dim(n) times that, times P = prod (1 + e^{-alpha}).
    Both are unitriangular in the height grading, so multiplying the
    character by prod (1 - e^{-alpha}), and for super blocks dividing by P,
    gives the flag exactly within the region (times k_dim(n) for super
    blocks).  The products run on packed keys of base - weight, one sweep per
    positive root.  A verma_char or super_verma_char built on trunc itself is
    a scaled offset table; its quotient is divided once per (rank, bound,
    table, block kind), cached, and scaled per call, with no Weight built.
    A negative quotient coefficient, or one not divisible by the block's top
    coefficient, means the input is not a flag character within the region.
    The error raised is the one at the largest such weight in lexicographic
    order, which is the first that the greedy peel in selftest._peel_extract,
    the test oracle, meets.
    """
    n = char.rank
    if trunc.base.rank != n:
        raise ValueError(f"rank mismatch: {trunc.base.rank} vs {n}")
    divisor = k_dim(n) if super_blocks else 1
    base = trunc.base
    pk = _Packing(n, trunc.bound)

    # The products are linear, so a packed character's scale factor is
    # applied to the cached quotient of its table.  Any other character is
    # packed term by term and divided here.
    packed = _packed_offsets(char, trunc)
    if packed is None:
        terms: dict[int, int] = {}
        for wt, c in char.items():
            key = pk.key_below(base, wt)
            if key is None:
                raise FlagExtractionError(
                    f"character term at {wt} lies outside the truncation region"
                )
            terms[key] = c
        acc: Mapping[int, int] = _divide(terms, pk, super_blocks)
    else:
        super_table, factor = packed
        acc = _table_quotient(n, trunc.bound, super_table, super_blocks)
        if factor != 1:
            acc = {k: factor * c for k, c in acc.items()}

    bad = [
        (pk.weight_below(base, k), c) for k, c in acc.items() if c < 0 or c % divisor
    ]
    if bad:
        top, coeff = max(bad)
        if coeff < 0:
            raise FlagExtractionError(f"negative coefficient at {top}")
        raise FlagExtractionError(
            f"coefficient {coeff} not divisible by the top coefficient {divisor}"
        )
    return FlagMultiset(
        (pk.weight_below(base, k), c // divisor) for k, c in acc.items()
    )
