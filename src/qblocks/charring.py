"""Sparse formal characters on the weight lattice.

A FormalCharacter is a finitely supported Weight -> int map with convolution
product.  The heavy builders (subset-sum multisets of positive roots and
truncated Verma and super-Verma offsets) run on packed integer keys through
the kernels in qblocks.kernels._pykernels and only convert to Weight keys
once, at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from qblocks.kernels._pykernels import binomial_product, geometric_product
from qblocks.lattice import (
    Weight,
    positive_roots,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)
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
        out = dict(self._terms)
        for w, c in other._terms.items():
            merged = out.get(w, 0) + c
            if merged:
                out[w] = merged
            else:
                del out[w]
        return self._wrap(out)

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
        """Convolution product; the general, unpacked code path."""
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(b) < len(a):
            a, b = b, a
        out: dict[Weight, int] = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                w = wa + wb
                merged = out.get(w, 0) + ca * cb
                if merged:
                    out[w] = merged
                else:
                    del out[w]
        return self._wrap(out)

    def map_weights(self, fn: Callable[[Weight], Weight]) -> "FormalCharacter":
        """Push the character through a weight map, merging collisions."""
        out: dict[Weight, int] = {}
        for w, c in self._terms.items():
            v = fn(w)
            merged = out.get(v, 0) + c
            if merged:
                out[v] = merged
            else:
                del out[v]
        return self._wrap(out)

    def negate_weights(self) -> "FormalCharacter":
        return self.map_weights(lambda w: -w)

    def to_json_entries(self) -> list[dict[str, str]]:
        """Deterministic serialization: lexicographically sorted weights,
        coefficients as decimal strings."""
        return [
            {"weight": str(w), "coeff": str(c)} for w, c in self.sorted_items()
        ]

    @classmethod
    def from_json_entries(
        cls, rank: int, entries: Iterable[Mapping[str, str]]
    ) -> "FormalCharacter":
        return cls(
            rank,
            ((Weight.parse(e["weight"]), int(e["coeff"])) for e in entries),
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


@dataclass(frozen=True)
class Truncation:
    """The region {base - nu : nu in the positive cone, height(nu) <= bound}."""

    base: Weight
    bound: int

    def __post_init__(self):
        if not isinstance(self.bound, int) or self.bound < 0:
            raise ValueError(f"truncation bound must be a nonnegative int: {self.bound!r}")

    def admits(self, w: Weight) -> bool:
        try:
            coeffs = simple_root_coefficients(self.base - w)
        except ValueError:
            return False
        return all(c >= 0 for c in coeffs) and sum(coeffs) <= self.bound


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

    __slots__ = ("n", "dim", "bound", "shift", "hshift", "mask")

    def __init__(self, n: int, bound: int):
        if bound < 0:
            raise ValueError(f"negative truncation bound: {bound}")
        self.n = n
        self.dim = n - 1
        self.bound = bound
        self.shift = max(8, (bound + 2).bit_length())
        self.hshift = self.dim * self.shift
        self.mask = (1 << self.shift) - 1

    def pack(self, coeffs: Iterable[int]) -> int:
        key = 0
        total = 0
        for pos, c in enumerate(coeffs):
            key |= c << (pos * self.shift)
            total += c
        return key | (total << self.hshift)

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (pos * self.shift)) & self.mask for pos in range(self.dim))

    def packed_positive_roots(self) -> list[int]:
        out = []
        for root in positive_roots(self.n):
            coeffs = [0] * self.dim
            for pos in range(root.i - 1, root.j - 1):
                coeffs[pos] = 1
            out.append(self.pack(coeffs))
        return out


@lru_cache(maxsize=None)
def _subset_sum_char(n: int) -> FormalCharacter:
    pk = _Packing(n, full_support_height(n))
    raw = binomial_product(pk.packed_positive_roots(), pk.bound, pk.hshift)
    return FormalCharacter(
        n,
        (
            (weight_from_simple_coefficients(n, pk.unpack(k)), c)
            for k, c in raw.items()
        ),
    )


def subset_sum_P(n: int, limit: Optional[int] = None) -> FormalCharacter:
    """Multiset of all subset sums of the positive roots, as a character.

    Equals prod over positive roots of (1 + e^alpha); the mass is
    2^(n(n-1)/2).  Cached per rank, so callers share one instance.
    """
    check_rank(n, limit)
    return _subset_sum_char(n)


def subset_sum_Pw(w: Perm, limit: Optional[int] = None) -> FormalCharacter:
    """Subset sums of the w-image of the positive system, i.e. prod over
    alpha of (1 + e^{w(alpha)}).  Computed by transporting subset_sum_P."""
    return subset_sum_P(w.rank, limit).map_weights(w.act)


def ext_neg(n: int, limit: Optional[int] = None) -> FormalCharacter:
    """Character of the exterior algebra on the negative roots:
    prod over positive alpha of (1 + e^{-alpha})."""
    return subset_sum_P(n, limit).negate_weights()


@lru_cache(maxsize=None)
def _verma_offset_terms(n: int, bound: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    pk = _Packing(n, bound)
    raw = geometric_product({0: 1}, pk.packed_positive_roots(), bound, pk.hshift)
    return tuple(sorted((pk.unpack(k), c) for k, c in raw.items()))


@lru_cache(maxsize=None)
def _super_offset_terms(n: int, bound: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # P * prod (1 - x^alpha)^-1: one geometric pass over P per positive root,
    # the Kostant partition recurrence started from the subset sums.
    pk = _Packing(n, bound)
    roots = pk.packed_positive_roots()
    p = binomial_product(roots, bound, pk.hshift)
    raw = geometric_product(p, roots, bound, pk.hshift)
    return tuple(sorted((pk.unpack(k), c) for k, c in raw.items()))


def _offsets_to_char(
    mu: Weight, terms: Iterable[tuple[tuple[int, ...], int]], factor: int = 1
) -> FormalCharacter:
    n = mu.rank
    return FormalCharacter(
        n,
        (
            (mu - weight_from_simple_coefficients(n, coeffs), factor * c)
            for coeffs, c in terms
        ),
    )


def verma_char(mu: Weight, trunc: Truncation) -> FormalCharacter:
    """Truncated Verma character e^mu * prod over positive alpha of
    (1 + e^{-alpha} + e^{-2 alpha} + ...).

    The coefficient at mu - nu counts the ways to write nu as a nonnegative
    integer combination of positive roots.
    """
    if trunc.base != mu:
        raise ValueError(f"truncation base {trunc.base} does not match {mu}")
    return _offsets_to_char(mu, _verma_offset_terms(mu.rank, trunc.bound))


def super_verma_char(
    mu: Weight, trunc: Truncation, even_only: bool = False
) -> FormalCharacter:
    """Truncated character of a Verma supermodule at a typical weight.

    The full character is 2 * k_dim(n) * e^mu * ext_neg * (Verma denominator);
    with even_only the leading factor drops to k_dim(n), the per-parity
    dimension of the top Clifford module.
    """
    if trunc.base != mu:
        raise ValueError(f"truncation base {trunc.base} does not match {mu}")
    n = mu.rank
    factor = k_dim(n) if even_only else 2 * k_dim(n)
    return _offsets_to_char(mu, _super_offset_terms(n, trunc.bound), factor)


def subset_sum_P_by_enumeration(n: int, limit: Optional[int] = None) -> FormalCharacter:
    """Oracle twin of subset_sum_P built by walking all 2^(n(n-1)/2) subsets.

    Only viable for small ranks; kept as an independent route for testing the
    convolution construction.
    """
    check_rank(n, limit)
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
