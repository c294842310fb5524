"""Exact weight-lattice primitives for the general linear Lie algebra.

Weights live in the epsilon basis of the rank-n Cartan subalgebra and carry
exact rational coordinates, so the half-integral Weyl vector and its shifts
never lose precision.  An integral coordinate is stored as a Python ``int``
and any other coordinate as a ``Fraction``, so integral weights do all their
arithmetic, hashing and sorting on ``int``; both kinds compare, hash and
print alike on equal values.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable, Iterator, NamedTuple, Union

Scalar = Union[int, Fraction]

CoordLike = Union[int, str, Fraction]


def _scalar(c: CoordLike) -> Scalar:
    """The exact value of c: an ``int`` when it is an integer, else a ``Fraction``.
    A ``Fraction`` is returned as it is, not copied."""
    q = c if type(c) is Fraction else Fraction(c)
    return q.numerator if q.denominator == 1 else q


class Weight:
    """An exact weight (l1, ..., ln), usable as a dictionary key."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[CoordLike]):
        coords = tuple(coords)
        for c in coords:
            if type(c) is not int:
                coords = tuple(c if type(c) is int else _scalar(c) for c in coords)
                break
        if not coords:
            raise ValueError("a weight needs rank at least 1")
        self.coords = coords

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Read a comma-separated coordinate list such as ``3,1`` or ``1/2,-1/2``."""
        parts = [p.strip() for p in text.split(",")]
        if not all(parts):
            raise ValueError(f"malformed weight text: {text!r}")
        try:
            return cls(parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed weight text: {text!r}") from exc

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls([0] * n)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        _same_rank(self, other)
        return Weight(map(add, self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_rank(self, other)
        return Weight(map(sub, self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(map(neg, self.coords))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __lt__(self, other: "Weight") -> bool:
        _same_rank(self, other)
        return self.coords < other.coords

    def __le__(self, other: "Weight") -> bool:
        _same_rank(self, other)
        return self.coords <= other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self) -> str:
        return f"Weight('{self}')"


def _same_rank(a: Weight, b: Weight) -> int:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    return a.rank


class Root(NamedTuple):
    """The root e_i - e_j in 1-based indices, positive exactly when i < j."""

    i: int
    j: int

    def as_weight(self, n: int) -> Weight:
        if not (1 <= self.i <= n and 1 <= self.j <= n and self.i != self.j):
            raise ValueError(f"root {self} does not live in rank {n}")
        coords = [0] * n
        coords[self.i - 1] = 1
        coords[self.j - 1] = -1
        return Weight(coords)


def _check_rank_value(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"invalid rank: {n!r}")
    return n


def positive_roots(n: int) -> list[Root]:
    """All e_i - e_j with i < j, in lexicographic order of (i, j)."""
    _check_rank_value(n)
    return [Root(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def rho(n: int) -> Weight:
    """Half the sum of the positive roots: coordinates (n + 1 - 2i) / 2."""
    _check_rank_value(n)
    return Weight(Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1))


class ClassifyReport(NamedTuple):
    integral: bool
    dominant: bool
    regular: bool
    typical: bool
    strongly_typical: bool


def classify(lam: Weight) -> ClassifyReport:
    """Evaluate the five standard predicates on a weight.

    Dominance here means integral with non-increasing coordinates.  Regularity
    asks every pairwise difference to be a nonzero integer; typicality asks
    every pairwise sum (distinct indices) to be nonzero, and strong typicality
    additionally forbids zero coordinates (the i = j sums).
    """
    c = lam.coords
    n = len(c)
    integral = lam.is_integral()
    dominant = integral and all(c[i] >= c[i + 1] for i in range(n - 1))
    regular = all(
        (c[i] - c[j]).denominator == 1 and c[i] != c[j]
        for i in range(n)
        for j in range(i + 1, n)
    )
    typical = all(c[i] + c[j] != 0 for i in range(n) for j in range(i + 1, n))
    strongly_typical = typical and all(ci != 0 for ci in c)
    return ClassifyReport(integral, dominant, regular, typical, strongly_typical)


def leq(lam: Weight, mu: Weight) -> bool:
    """Dominance order: is mu - lam a nonnegative integer sum of positive roots?

    Equivalent criterion in type A: the difference has integer entries, total
    sum zero, and every proper prefix sum nonnegative (the prefix sums are the
    simple-root coefficients).
    """
    n = _same_rank(lam, mu)
    acc = 0
    for k in range(n):
        d = mu.coords[k] - lam.coords[k]
        if d.denominator != 1:
            return False
        acc += d
        if acc < 0 and k < n - 1:
            return False
    return acc == 0


def simple_root_coefficients(nu: Weight) -> tuple[int, ...]:
    """Coefficients of a root-lattice element on the simple roots.

    These are the proper prefix sums of the coordinates; the element must be
    integral with total sum zero.
    """
    if not nu.is_integral():
        raise ValueError(f"{nu} is not in the root lattice (non-integral)")
    coords = nu.coords
    prefixes = []
    acc = 0
    for c in coords[:-1]:
        acc += c
        prefixes.append(acc)
    if acc + coords[-1] != 0:
        raise ValueError(f"{nu} is not in the root lattice (nonzero total)")
    return tuple(prefixes)


def weight_from_simple_coefficients(n: int, coeffs: Iterable[int]) -> Weight:
    """Inverse of :func:`simple_root_coefficients` for rank n."""
    _check_rank_value(n)
    cs = tuple(int(c) for c in coeffs)
    if len(cs) != n - 1:
        raise ValueError(f"expected {n - 1} coefficients, got {len(cs)}")
    if n == 1:
        return Weight.zero(1)
    coords = [cs[0]]
    for k in range(1, n - 1):
        coords.append(cs[k] - cs[k - 1])
    coords.append(-cs[-1])
    return Weight(coords)


def height(nu: Weight) -> int:
    """Total simple-root coefficient of an element of the positive root cone."""
    coeffs = simple_root_coefficients(nu)
    if any(c < 0 for c in coeffs):
        raise ValueError(f"{nu} is not a nonnegative combination of positive roots")
    return sum(coeffs)
