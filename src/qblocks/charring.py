"""Sparse formal characters on the weight lattice.

A FormalCharacter is a finitely supported Weight -> int map with convolution
product.  Terms merge in the constructor: sums, general products and the
transported subset-sum characters hand it their terms, and it adds the
coefficients of equal weights and drops those that cancel.  Only scaling,
translation by a single exponential and the packed characters below, none of
which can merge or cancel a term, build their terms without it.

The heavy builders (subset-sum multisets of positive roots and truncated
Verma and super-Verma offsets) run on packed integer keys through the kernels
in qblocks.kernels._pykernels.  The offset tables are cached as the kernels'
packed dicts.  A Verma or super-Verma character keeps its table packed and
builds its Weight-keyed terms only when something first reads them;
_packed_offsets tells flag extraction which cached table a character scales,
so the division can start from the table itself.  The key format stays behind
_Packing, whose weight_below and key_below convert between a region's keys
and its weights.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from qblocks.kernels._pykernels import binomial_product, geometric_product
from qblocks.lattice import Weight, positive_roots, weight_from_simple_coefficients
from qblocks.weyl import Perm, check_rank

TermsLike = Union[Mapping[Weight, int], Iterable[tuple[Weight, int]]]


class FormalCharacter:
    """Finitely supported integer combination of formal exponentials e^w.

    Instances are immutable and never store zero coefficients.  Addition is
    termwise; multiplication is convolution of supports, so masses (total
    coefficient sums) multiply.
    """

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: TermsLike = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Weight, int] = {}
        for w, c in items:
            if w.rank != rank:
                raise ValueError(f"weight {w} has rank {w.rank}, expected {rank}")
            c = int(c)
            if c:
                merged = acc.get(w, 0) + c
                if merged:
                    acc[w] = merged
                else:
                    del acc[w]
        self.rank = rank
        self._terms = acc

    @classmethod
    def zero(cls, rank: int) -> "FormalCharacter":
        return cls(rank)

    @classmethod
    def delta(cls, w: Weight) -> "FormalCharacter":
        """The single exponential e^w."""
        return cls(w.rank, {w: 1})

    def coefficient(self, w: Weight) -> int:
        return self._terms.get(w, 0)

    def mass(self) -> int:
        return sum(self._terms.values())

    def support(self) -> list[Weight]:
        return sorted(self._terms)

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalCharacter)
            and self.rank == other.rank
            and self._terms == other._terms
        )

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        self._check_compatible(other)
        return FormalCharacter(
            self.rank, itertools.chain(self._terms.items(), other._terms.items())
        )

    def __sub__(self, other: "FormalCharacter") -> "FormalCharacter":
        return self + other.scale(-1)

    def __neg__(self) -> "FormalCharacter":
        return self.scale(-1)

    def scale(self, c: int) -> "FormalCharacter":
        c = int(c)
        if not c:
            return FormalCharacter(self.rank)
        return self._wrap({w: c * v for w, v in self._terms.items()})

    def __rmul__(self, c: int) -> "FormalCharacter":
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: "FormalCharacter") -> "FormalCharacter":
        """Convolution product; the general, unpacked code path, which
        translates when one factor is a single exponential."""
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(b) < len(a):
            a, b = b, a
        if len(a) == 1:
            # e^wa times b is b translated by wa: distinct weights stay
            # distinct and no coefficient vanishes, so nothing merges.
            ((wa, ca),) = a.items()
            sa = wa.coords
            return self._wrap(
                {Weight(map(add, sa, wb.coords)): ca * cb for wb, cb in b.items()}
            )
        return FormalCharacter(
            self.rank,
            ((wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items()),
        )

    def _check_compatible(self, other: "FormalCharacter") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def _wrap(self, terms: dict[Weight, int]) -> "FormalCharacter":
        out = FormalCharacter.__new__(FormalCharacter)
        out.rank = self.rank
        out._terms = terms
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {c}" for w, c in self.sorted_items())
        return f"FormalCharacter({self.rank}, {{{body}}})"


class _Region(NamedTuple):
    base: Weight
    bound: int


class Truncation(_Region):
    """The region {base - nu : nu in the positive cone, height(nu) <= bound}."""

    __slots__ = ()

    def __new__(cls, base: Weight, bound: int):
        if not isinstance(bound, int) or bound < 0:
            raise ValueError(f"truncation bound must be a nonnegative int: {bound!r}")
        return super().__new__(cls, base, bound)

    def admits(self, w: Weight) -> bool:
        return _Packing(self.base.rank, self.bound).key_below(self.base, w) is not None


def full_support_height(n: int) -> int:
    """Height of the sum of all positive roots, the smallest bound whose
    truncation region contains every subset sum."""
    return n * (n - 1) * (n + 1) // 6


def k_dim(n: int) -> int:
    """Dimension 2^floor((n-1)/2) of either parity component of the Clifford
    module attached to a strongly typical highest weight."""
    if n < 1:
        raise ValueError(f"invalid rank: {n!r}")
    return 2 ** ((n - 1) // 2)


def thick_dim(n: int, r: int) -> int:
    """Number of monomials of degree < r in n variables: C(n + r - 1, n)."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n!r}, r={r!r}")
    return math.comb(n + r - 1, n)


class _Packing:
    """Fixed-width digit encoding of simple-root coefficient vectors.

    The top digit carries the height so kernels can truncate with one shift.
    The digit width adapts to the bound; keys are unbounded Python ints.
    """

    __slots__ = ("n", "bound", "shift", "hshift", "mask")

    def __init__(self, n: int, bound: int):
        if bound < 0:
            raise ValueError(f"negative truncation bound: {bound}")
        self.n = n
        self.bound = bound
        self.shift = max(8, (bound + 2).bit_length())
        self.hshift = (n - 1) * self.shift
        self.mask = (1 << self.shift) - 1

    def key_below(self, base: Weight, wt: Weight) -> Optional[int]:
        """Key of base - wt, or None when wt has another rank or base - wt is
        not a nonnegative integer simple-root combination of height <= bound."""
        if base.rank != self.n or wt.rank != self.n:
            return None
        key = height = acc = off = 0
        # The simple-root coefficients are the proper prefix sums.
        for b, w in zip(base.coords[:-1], wt.coords):
            acc += b - w
            if type(acc) is not int:
                if acc.denominator != 1:
                    return None
                acc = acc.numerator
            if acc < 0:
                return None
            height += acc
            key |= acc << off
            off += self.shift
        if height > self.bound or acc + base.coords[-1] != wt.coords[-1]:
            return None
        return key | (height << self.hshift)

    def weight_below(self, base: Weight, key: int) -> Weight:
        """The weight base - offset, where key packs the offset."""
        coords = []
        prev = 0
        for pos, b in enumerate(base.coords[:-1]):
            c = (key >> (pos * self.shift)) & self.mask
            coords.append(b - c + prev)
            prev = c
        coords.append(base.coords[-1] + prev)
        return Weight(coords)

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (pos * self.shift)) & self.mask for pos in range(self.n - 1))

    def packed_positive_roots(self) -> list[int]:
        # e_i - e_j has coefficient 1 on the simple roots i .. j - 1.
        return [
            sum(1 << (pos * self.shift) for pos in range(r.i - 1, r.j - 1))
            | ((r.j - r.i) << self.hshift)
            for r in positive_roots(self.n)
        ]


@lru_cache(maxsize=None)
def _subset_sum_char(n: int) -> FormalCharacter:
    pk = _Packing(n, full_support_height(n))
    raw = binomial_product({0: 1}, pk.packed_positive_roots(), pk.bound, pk.hshift)
    return FormalCharacter(
        n,
        (
            (weight_from_simple_coefficients(n, pk.unpack(k)), c)
            for k, c in raw.items()
        ),
    )


def subset_sum_P(n: int) -> FormalCharacter:
    """Multiset of all subset sums of the positive roots, as a character.

    Equals prod over positive roots of (1 + e^alpha); the mass is
    2^(n(n-1)/2).  Cached per rank, so callers share one instance.
    """
    check_rank(n)
    return _subset_sum_char(n)


def subset_sum_Pw(w: Perm) -> FormalCharacter:
    """Subset sums of the w-image of the positive system, i.e. prod over
    alpha of (1 + e^{w(alpha)}).  Computed by transporting subset_sum_P."""
    P = subset_sum_P(w.rank)
    return FormalCharacter(w.rank, ((w.act(p), c) for p, c in P.items()))


def ext_neg(n: int) -> FormalCharacter:
    """Character of the exterior algebra on the negative roots:
    prod over positive alpha of (1 + e^{-alpha})."""
    return FormalCharacter(n, ((-p, c) for p, c in subset_sum_P(n).items()))


@lru_cache(maxsize=None)
def _offset_table(n: int, bound: int, super_blocks: bool) -> Mapping[int, int]:
    """Packed offsets of the Verma block prod (1 - x^alpha)^-1, or with
    super_blocks of P times it: one geometric pass per positive root, the
    Kostant partition recurrence.  Every caller shares the cached table, so
    it is handed out read-only.

    The truncated factors commute, so the table does not depend on the
    order of the passes.  They run tallest root first: a tall root has few
    multiples below the bound, so the support grows densest only in the
    last passes, over the simple roots."""
    pk = _Packing(n, bound)
    roots = pk.packed_positive_roots()
    start = {0: 1}
    if super_blocks:
        start = binomial_product(start, roots, bound, pk.hshift)
    # The height is a key's top digit, so descending keys put tall roots first.
    tallest_first = sorted(roots, reverse=True)
    return MappingProxyType(geometric_product(start, tallest_first, bound, pk.hshift))


class _PackedCharacter(FormalCharacter):
    """The character factor * sum of c e^(base - offset) over the cached
    offset table _offset_table(rank, trunc.bound, super_table), whose keys
    are _Packing(rank, trunc.bound) keys; trunc must be based at base.

    The _terms slot stays unset until something first reads it; __getattr__
    then builds the Weight-keyed terms once.  len() and bool() answer from
    the table, which has no zero coefficients.
    """

    __slots__ = ("_table", "_base", "_bound", "_super_table", "_factor")

    def __init__(self, base: Weight, trunc: Truncation, super_table: bool, factor: int):
        if trunc.base != base:
            raise ValueError(f"truncation base {trunc.base} does not match {base}")
        self.rank = base.rank
        self._table = _offset_table(base.rank, trunc.bound, super_table)
        self._base = base
        self._bound = trunc.bound
        self._super_table = super_table
        self._factor = factor

    def __getattr__(self, name: str):
        if name != "_terms":
            raise AttributeError(name)
        pk = _Packing(self.rank, self._bound)
        base, factor = self._base, self._factor
        terms = {pk.weight_below(base, k): factor * c for k, c in self._table.items()}
        self._terms = terms
        return terms

    def __len__(self) -> int:
        return len(self._table)

    def __bool__(self) -> bool:
        return bool(self._table)

    def __reduce__(self):
        # The cached table is a read-only proxy, which cannot be pickled.
        return FormalCharacter, (self.rank, self._terms)


def _packed_offsets(
    char: FormalCharacter, trunc: Truncation
) -> Optional[tuple[bool, int]]:
    """(super_table, factor) of a packed character whose base and bound are
    trunc's: the character is factor times _offset_table(rank, trunc.bound,
    super_table), keyed by the _Packing(rank, trunc.bound) keys of
    trunc.base minus its weights.  None for any other character."""
    if (
        isinstance(char, _PackedCharacter)
        and char._base == trunc.base
        and char._bound == trunc.bound
    ):
        return char._super_table, char._factor
    return None


def verma_char(mu: Weight, trunc: Truncation) -> FormalCharacter:
    """Truncated Verma character e^mu * prod over positive alpha of
    (1 + e^{-alpha} + e^{-2 alpha} + ...).

    The coefficient at mu - nu counts the ways to write nu as a nonnegative
    integer combination of positive roots.  The character keeps the cached
    packed offset table and builds its Weight-keyed terms only when they are
    first read; len() and bool() build none.
    """
    return _PackedCharacter(mu, trunc, False, 1)


def super_verma_char(
    mu: Weight, trunc: Truncation, even_only: bool = False
) -> FormalCharacter:
    """Truncated character of a Verma supermodule at a typical weight.

    The full character is 2 * k_dim(n) * e^mu * ext_neg * (Verma denominator);
    with even_only the leading factor drops to k_dim(n), the per-parity
    dimension of the top Clifford module.  As with verma_char, the terms are
    built from the cached packed offset table only when they are first read,
    and filtration.verma_flag_extract divides the table without building them.
    """
    factor = k_dim(mu.rank) if even_only else 2 * k_dim(mu.rank)
    return _PackedCharacter(mu, trunc, True, factor)


def subset_sum_P_by_enumeration(n: int) -> FormalCharacter:
    """Oracle twin of subset_sum_P built by walking all 2^(n(n-1)/2) subsets.

    Only viable for small ranks; kept as an independent route for testing the
    convolution construction.
    """
    check_rank(n)
    roots = [r.as_weight(n) for r in positive_roots(n)]
    acc: dict[Weight, int] = {}
    zero = Weight.zero(n)
    for size in range(len(roots) + 1):
        for subset in itertools.combinations(roots, size):
            total = zero
            for r in subset:
                total = total + r
            acc[total] = acc.get(total, 0) + 1
    return FormalCharacter(n, acc)
