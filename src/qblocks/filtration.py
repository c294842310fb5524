"""Verma-filtration multiplicities in both the restriction and induction
directions, the orbit-intersection check that pins them to a single weight
per block, and flag extraction by division by the block generating function,
an independent route to the restriction flag.

The orbit-intersection check runs on one codec, _Packing's simple-root
digits: every plain and dot orbit point x of a dominant lam lies below lam,
so lam - x has a key.  Only keys are cached, once per lam in ascending
order, and each digit has a guard bit above it that no key of P sets, so the
difference of two keys is a key of P only when it lies in the positive cone.
A case looks up only the keys in its height window and decodes only its
hits (see _orbit_hits); the gate's block multiplicities sum the same hits.

restriction_flag cuts P, cached per rank in height order, by one bisect
before it builds any weight of a flag cut to a truncation region."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    _Packing,
    _offset_table,
    _packed_offsets,
    full_support_height,
    k_dim,
    subset_sum_P,
    super_verma_char,
)
from qblocks.kernels._pykernels import binomial_product, geometric_product
from qblocks.lattice import Weight, classify, height as _height
from qblocks.weyl import Perm, _rho_shift, check_rank, dot_orbit, orbit


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

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlagMultiset) and self._entries == other._entries

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


def _hit_width(lam: Weight) -> int:
    """Digit width of _orbit_hits' keys for a dominant lam: every key they
    pack has height at most 2^width - 2.

    For an orbit point u, the j-th simple-root coefficient of lam - u is the
    sum of the j largest coordinates of lam minus the sum of j others, so at
    most min(j, n - j) times the spread lam_1 - lam_n; the same holds for a
    dot-orbit point with the spread of lam + rho'.  Their heights are
    therefore at most floor(n^2/4) times that spread, and P's at most
    full_support_height(n).
    """
    n, c = lam.rank, lam.coords
    top = max(n * n // 4 * (c[0] - c[-1] + n - 1), full_support_height(n))
    return (top + 1).bit_length()


@lru_cache(maxsize=None)
def _hit_support(n: int, width: int) -> tuple[_Packing, dict[int, int]]:
    """The packing of digit width `width` and P's support re-keyed by it,
    each key mapped to its subset-sum coefficient.  The cached dict is
    shared by every caller and never mutated.

    _Packing(n, 2^width - 2) gives every digit a field of at least
    width + 1 bits, and a digit never exceeds its key's height, so the top
    bit of every digit field, its guard bit, is clear in every key.
    """
    pk = _Packing(n, (1 << width) - 2)
    zero = Weight.zero(n)
    coeffs = {pk.key_below(p, zero): c for p, c in subset_sum_P(n).items()}
    return pk, coeffs


@lru_cache(maxsize=16)
def _orbit_keys(lam: Weight) -> tuple[_Packing, dict[int, int], tuple[int, ...], tuple[int, ...]]:
    """The packing, P's coefficients by key, and the ascending keys of
    lam - x for x in the plain and the dot orbit of a dominant lam; no point
    is kept, _orbit_hits decodes its hits.  A dot point is s(top) - rho' for
    a shuffle s of top = lam + rho', so its key is that of top - s(top)."""
    pk, coeffs = _hit_support(lam.rank, _hit_width(lam))

    def keyed(top: Weight) -> tuple[int, ...]:
        return tuple(sorted(pk.key_below(top, Weight(p)) for p in permutations(top.coords)))

    return pk, coeffs, keyed(lam), keyed(lam + Weight(_rho_shift(lam.rank)))


def _orbit_hits(lam: Weight, w: Perm) -> tuple[dict[Weight, int], dict[Weight, int]]:
    """The plain-orbit points u with u - w.lam in supp P, and the dot-orbit
    points v with w(lam) - v in supp P, each mapped to that P-coefficient,
    for an integral dominant regular lam.

    Both differences are differences of cached keys: u - w.lam is
    (lam - w.lam) - (lam - u), and w(lam) - v is (lam - v) - (lam - w(lam)).
    Subtracting two keys digit by digit gives the key of the difference
    exactly when no digit goes negative.  Otherwise the lowest field that
    borrows wraps to at least 2^(shift - 1), which sets its guard bit, or
    the whole difference goes negative.  No key of P has a guard bit set or
    is negative, so one subtraction and one lookup in P's keys decide each
    point, and only a hit is decoded back to its Weight.

    Only a height window is looked up.  The top digit of a key is its
    height, so keys sorted as ints are sorted by height first, and no key of
    P has a height outside 0..H = full_support_height(n).  So with a and b
    the keys of lam - w.lam and lam - w(lam), a plain key hits only inside
    [a - ((H+1) << hshift), a] and a dot key inside [b, b + ((H+1) << hshift)].
    """
    pk, coeffs, plain_keys, dot_keys = _orbit_keys(lam)
    a = pk.key_below(lam, w.dot(lam))
    b = pk.key_below(lam, w.act(lam))
    span = (full_support_height(lam.rank) + 1) << pk.hshift
    lo, hi = bisect_left(plain_keys, a - span), bisect_right(plain_keys, a)
    plain_hits = {pk.weight_below(lam, k): coeffs[d] for k in plain_keys[lo:hi]
                  if (d := a - k) in coeffs}
    lo, hi = bisect_left(dot_keys, b), bisect_right(dot_keys, b + span)
    dot_hits = {pk.weight_below(lam, k): coeffs[d] for k in dot_keys[lo:hi]
                if (d := k - b) in coeffs}
    return plain_hits, dot_hits


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
    plain_hits, dot_hits = _orbit_hits(lam, w)
    plain, dot = frozenset(plain_hits), frozenset(dot_hits)
    wd = w.dot(lam)
    offset = wl - wd
    # P[w(lam) - w.lam] when w(lam) is a plain hit; else that point lies
    # outside supp P.
    mult = plain_hits.get(wl, 0)
    passed = plain == frozenset((wl,)) and dot == frozenset((wd,)) and mult == 1
    return LinkageReport(lam, w, plain, dot, offset, mult, passed)


@lru_cache(maxsize=None)
def _subset_sums_by_height(n: int) -> list[tuple[int, Weight, int]]:
    """P's entries as (height, p, coefficient), by height; shared, never mutated."""
    entries = ((_height(p), p, c) for p, c in subset_sum_P(n).items())
    return sorted(entries, key=itemgetter(0))


def restriction_flag(lam: Weight, w: Perm, height: Optional[int] = None) -> FlagMultiset:
    """Verma flag of the even part of a restricted Verma supermodule: entry
    at nu is k_dim(n) times the subset-sum coefficient of w(lam) - nu.  With
    a height, only the entries in Truncation(w(lam), height) are built."""
    wl = w.act(lam)
    n = lam.rank
    check_rank(n)
    _require(lam, "restriction_flag", strongly_typical=True)
    entries = _subset_sums_by_height(n)
    if height is not None:
        if height < 0:
            raise ValueError(f"truncation bound must be a nonnegative int: {height!r}")
        entries = entries[: bisect_right(entries, height, key=itemgetter(0))]
    k = k_dim(n)
    return FlagMultiset((wl - p, k * c) for _, p, c in entries)


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


def _block_mults(lam: Weight, w: Perm) -> tuple[int, int]:
    """res_block_mult and the raw ind_block_mult from the orbit hits, with
    no flag built: the restriction flag's entry at a dot-orbit point v is
    k_dim(n) P[w(lam) - v], and the induction flag's at a plain-orbit point
    u is 2^(n-1)/k_dim(n) P[u - w.lam]."""
    n = lam.rank
    check_rank(n)
    _require(lam, "_block_mults", strongly_typical=True)
    plain, dot = _orbit_hits(lam, w)
    k = k_dim(n)
    return k * sum(dot.values()), 2 ** (n - 1) // k * sum(plain.values())


def _parity_split(raw: int, n: int) -> int:
    """The rank-n raw induced count after parity splitting: halved when n is
    even and the induced summands come in switched pairs."""
    if n % 2 == 0:
        if raw % 2:
            raise ArithmeticError(f"odd raw multiplicity {raw} cannot split")
        return raw // 2
    return raw


def ind_block_mult_split(lam: Weight, w: Perm) -> int:
    """Block multiplicity after parity splitting: _parity_split of the raw
    count ind_block_mult(lam, w)."""
    return _parity_split(ind_block_mult(lam, w), lam.rank)


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


def _flag_routes(lam: Weight, w: Perm, height: int) -> tuple[FlagMultiset, FlagMultiset]:
    """The restriction flag cut to Truncation(w(lam), height) by both routes:
    extracted from the even-part super-Verma table, then built directly.
    lam is checked before any table is built, and the direct flag only after
    the division, so it is not held while the table is divided."""
    _require(lam, "restriction_flag", strongly_typical=True)
    wl = w.act(lam)
    trunc = Truncation(wl, height)
    extracted = verma_flag_extract(super_verma_char(wl, trunc, even_only=True), trunc)
    return extracted, restriction_flag(lam, w, height)
