"""Symmetric-group machinery: plain and shifted (dot) actions, orbits,
inversion sets, and the rank guard that every exhaustive sweep calls."""

from __future__ import annotations

import itertools
import os
from operator import add, sub
from typing import Iterable, Iterator

from qblocks.lattice import Root, Weight, _same_rank

DEFAULT_MAX_RANK = 8
ENV_MAX_RANK = "QBLOCKS_MAX_RANK"


class GuardError(RuntimeError):
    """A request would enumerate too large a symmetric group."""


def check_rank(n: int, default: int = DEFAULT_MAX_RANK) -> None:
    """Refuse rank n above QBLOCKS_MAX_RANK, or above default when it is unset.

    The environment variable is the only override.  The library guards with
    DEFAULT_MAX_RANK; the CLI passes its own, lower default.
    """
    env = os.environ.get(ENV_MAX_RANK)
    try:
        cap = int(env) if env else default
    except ValueError:
        raise ValueError(
            f"{ENV_MAX_RANK} must be an integer, got {env!r}"
        ) from None
    if n > cap:
        raise GuardError(
            f"rank {n} exceeds the resource guard ({cap}); "
            f"set {ENV_MAX_RANK} to raise it"
        )


def _rho_shift(n: int) -> tuple[int, ...]:
    """The integer shift rho' = (n-1, ..., 1, 0).

    rho' - rho is a constant vector, which every permutation fixes, so
    w(lam + rho') - rho' = w(lam + rho) - rho and rho' - w(rho') = rho - w(rho):
    the dot action and the rho-defect never need the half-integral rho.
    """
    return tuple(range(n - 1, -1, -1))


class Perm:
    """A permutation of {1, ..., n} stored in one-line image notation."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(i) for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs!r}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> "Perm":
        """Read whitespace-separated images, e.g. ``2 1 3``."""
        parts = text.split()
        if not parts:
            raise ValueError("empty permutation text")
        return cls(parts)

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise ValueError(f"index {i} out of range 1..{self.rank}")
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition, self applied after other."""
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return Perm(self.images[other.images[i] - 1] for i in range(self.rank))

    def inverse(self) -> "Perm":
        out = [0] * self.rank
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return Perm(out)

    def act(self, lam: Weight) -> Weight:
        """Plain action: coordinate i of lam moves to coordinate w(i)."""
        if self.rank != lam.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {lam.rank}")
        out = [None] * self.rank
        for i in range(self.rank):
            out[self.images[i] - 1] = lam.coords[i]
        return Weight(out)

    def dot(self, lam: Weight) -> Weight:
        """Shifted action: w . lam = w(lam + rho) - rho.

        Computed as w(lam + rho') - rho' with the integer shift rho' of
        :func:`_rho_shift`, so coordinate w(i) is lam_i + rho'_i - rho'_{w(i)}.
        """
        if self.rank != lam.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {lam.rank}")
        rp = _rho_shift(self.rank)
        out = [None] * self.rank
        for i, img in enumerate(self.images):
            out[img - 1] = lam.coords[i] + rp[i] - rp[img - 1]
        return Weight(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return " ".join(str(i) for i in self.images)

    def __repr__(self) -> str:
        return f"Perm('{self}')"


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations in lexicographic order of their image tuples."""
    check_rank(n)
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)


def orbit(lam: Weight) -> frozenset[Weight]:
    """Distinct images of lam under the plain action (coordinate shuffles)."""
    check_rank(lam.rank)
    return frozenset(Weight(p) for p in itertools.permutations(lam.coords))


def dot_orbit(lam: Weight) -> frozenset[Weight]:
    """Distinct images of lam under the dot action."""
    check_rank(lam.rank)
    rp = _rho_shift(lam.rank)
    shifted = tuple(map(add, lam.coords, rp))
    return frozenset(
        Weight(map(sub, p, rp)) for p in itertools.permutations(shifted)
    )


def inversion_roots(w: Perm) -> frozenset[Root]:
    """Positive roots e_i - e_j (i < j) whose order w reverses."""
    n = w.rank
    return frozenset(
        Root(i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if w(i) > w(j)
    )


def rho_defect(w: Perm) -> Weight:
    """The weight rho - w(rho), as a sum of positive roots.

    With w acting by e_i -> e_{w(i)}, the roots that contribute are the
    inversions of the inverse permutation: rho - w(rho) counts positive
    roots sent out of the positive cone by w^{-1}.  Computed as
    rho' - w(rho') with the integer shift of :func:`_rho_shift`.
    """
    rp = _rho_shift(w.rank)
    coords = [0] * w.rank
    for i, img in enumerate(w.images):
        coords[img - 1] = rp[img - 1] - rp[i]
    return Weight(coords)


def same_block(mu: Weight, nu: Weight) -> bool:
    """Whether two integral weights lie in one dot orbit."""
    _same_rank(mu, nu)
    if not (mu.is_integral() and nu.is_integral()):
        raise ValueError("block membership is defined here for integral weights")
    return nu in dot_orbit(mu)
