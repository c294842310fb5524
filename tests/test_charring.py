"""Sparse character arithmetic, subset-sum multisets, and truncated
highest-weight characters, each checked against naive expansions."""

import itertools
import random

import pytest

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    ext_neg,
    full_support_height,
    k_dim,
    subset_sum_P,
    subset_sum_P_by_enumeration,
    subset_sum_Pw,
    super_verma_char,
    thick_dim,
    verma_char,
)
from qblocks.lattice import Weight, height, leq, positive_roots, rho
from qblocks.weyl import Perm, all_perms


def wt(text):
    return Weight.parse(text)


def test_delta_is_multiplicative_identity():
    x = FormalCharacter(2, {wt("3,1"): 2, wt("0,0"): -1})
    assert FormalCharacter.delta(Weight.zero(2)) * x == x


def test_binomial_square():
    root = wt("1,-1")
    b = FormalCharacter(2, {Weight.zero(2): 1, root: 1})
    sq = b * b
    assert sq.coefficient(root) == 2
    assert sq.coefficient(root + root) == 1
    assert sq.mass() == 4


def test_zero_coefficients_never_stored():
    a = FormalCharacter(2, {wt("1,-1"): 1})
    b = FormalCharacter(2, {wt("1,-1"): -1})
    assert len(a + b) == 0
    assert not (a + b)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        FormalCharacter(2, {wt("1,-1"): 1}) * FormalCharacter(3, {})


def _naive_product(a, b):
    acc = {}
    for u, cu in a.items():
        for v, cv in b.items():
            k = u + v
            acc[k] = acc.get(k, 0) + cu * cv
    return FormalCharacter(a.rank, acc)


def test_product_matches_double_loop_on_random_inputs():
    rng = random.Random(11)
    coords = [wt(f"{i},{j},{-i - j}") for i in range(-2, 3) for j in range(-2, 3)]
    for _ in range(20):
        a = FormalCharacter(3, {v: rng.randint(-3, 3) for v in rng.sample(coords, 6)})
        b = FormalCharacter(3, {v: rng.randint(-3, 3) for v in rng.sample(coords, 6)})
        assert a * b == _naive_product(a, b)
        assert (a * b).mass() == a.mass() * b.mass()


def test_json_entries_sorted_with_string_coefficients():
    x = FormalCharacter(2, {wt("1,3"): 2, wt("0,4"): 10**25})
    entries = x.to_json_entries()
    assert entries == [
        {"weight": "0,4", "coeff": str(10**25)},
        {"weight": "1,3", "coeff": "2"},
    ]
    assert FormalCharacter.from_json_entries(2, entries) == x


def test_subset_sum_n2():
    assert subset_sum_P(2) == FormalCharacter(2, {wt("0,0"): 1, wt("1,-1"): 1})


def test_subset_sum_n3_coefficients():
    P = subset_sum_P(3)
    assert P.mass() == 8
    assert P.coefficient(wt("2,0,-2")) == 1
    # two subsets reach (1,0,-1): the long root alone, or both simple roots
    assert P.coefficient(wt("1,0,-1")) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_subset_sum_mass(n):
    assert subset_sum_P(n).mass() == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize("n", range(1, 5))
def test_subset_sum_matches_enumeration(n):
    assert subset_sum_P(n) == subset_sum_P_by_enumeration(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_subset_sum_complement_symmetry(n):
    # I -> complement of I reverses the multiset around the full root sum.
    P = subset_sum_P(n)
    full = rho(n) + rho(n)
    for v, c in P.items():
        assert P.coefficient(full - v) == c


def test_shifted_subset_sum_identity_is_plain():
    assert subset_sum_Pw(Perm.identity(3)) == subset_sum_P(3)


def test_shifted_subset_sum_swap():
    got = subset_sum_Pw(Perm.parse("2 1"))
    assert got == FormalCharacter(2, {wt("0,0"): 1, wt("-1,1"): 1})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shifted_subset_sum_transport(n):
    # rho + P_w and w(rho) + P agree as multisets for every w.
    P = subset_sum_P(n)
    r = rho(n)
    for w in all_perms(n):
        lhs = FormalCharacter.delta(r) * subset_sum_Pw(w)
        rhs = FormalCharacter.delta(w.act(r)) * P
        assert lhs == rhs, w


def test_shifted_subset_sum_mass():
    for w in all_perms(4):
        assert subset_sum_Pw(w).mass() == 2**6


@pytest.mark.parametrize("n", range(1, 7))
def test_ext_neg_is_negated_subset_sum(n):
    flipped = ext_neg(n)
    P = subset_sum_P(n)
    assert len(flipped) == len(P)
    for v, c in P.items():
        assert flipped.coefficient(-v) == c


def test_k_dim_values():
    assert [k_dim(n) for n in range(1, 9)] == [1, 1, 2, 2, 4, 4, 8, 8]


def test_full_support_height_values():
    assert [full_support_height(n) for n in range(1, 9)] == [
        0, 1, 4, 10, 20, 35, 56, 84,
    ]
    for n in range(2, 9):
        assert full_support_height(n) == height(rho(n) + rho(n))


def test_truncation_region():
    t = Truncation(wt("3,1"), 1)
    assert t.admits(wt("3,1"))
    assert t.admits(wt("2,2"))
    assert not t.admits(wt("1,3"))
    assert not t.admits(wt("4,0"))


def test_truncation_rejects_negative_bound():
    with pytest.raises(ValueError):
        Truncation(wt("0,0"), -1)


def test_verma_single_root_geometric():
    mu = Weight.zero(2)
    ch = verma_char(mu, Truncation(mu, 2))
    assert ch == FormalCharacter(
        2, {wt("0,0"): 1, wt("-1,1"): 1, wt("-2,2"): 1}
    )


def test_verma_n3_height_one():
    mu = Weight.zero(3)
    ch = verma_char(mu, Truncation(mu, 1))
    assert ch == FormalCharacter(
        3, {wt("0,0,0"): 1, wt("-1,1,0"): 1, wt("0,-1,1"): 1}
    )


def test_verma_base_mismatch():
    with pytest.raises(ValueError):
        verma_char(wt("1,0"), Truncation(wt("0,0"), 3))


def _partition_count_n3(x, y):
    """Ways to write x*a1 + y*a2 using the three positive roots of rank 3.

    Pick how many copies of the long root a1+a2 to use; the simple-root
    remainder is then forced, so the count is min(x, y) + 1.
    """
    return min(x, y) + 1


@pytest.mark.parametrize("bound", range(5))
def test_verma_coefficients_count_partitions(bound):
    mu = wt("2,1,-3")
    ch = verma_char(mu, Truncation(mu, bound))
    for x in range(bound + 1):
        for y in range(bound + 1 - x):
            v = mu - Weight((x, y - x, -y))
            assert ch.coefficient(v) == _partition_count_n3(x, y)


def test_super_top_coefficients():
    mu = wt("5,2,1")
    t = Truncation(mu, 3)
    assert super_verma_char(mu, t).coefficient(mu) == 2 * k_dim(3)
    assert super_verma_char(mu, t, even_only=True).coefficient(mu) == k_dim(3)


def test_super_even_part_height_one():
    mu = wt("3,1")
    ch = super_verma_char(mu, Truncation(mu, 1), even_only=True)
    assert ch == FormalCharacter(2, {wt("3,1"): 1, wt("2,2"): 2})


def _naive_truncated_super(mu, bound, even_only):
    """Multiply the factor list term by term over plain Weight dicts."""
    n = mu.rank
    zero = Weight.zero(n)
    acc = {zero: k_dim(n) if even_only else 2 * k_dim(n)}
    for r in positive_roots(n):
        a = r.as_weight(n)
        acc = _dict_mul(acc, {zero: 1, -a: 1}, bound)
        geometric = {}
        step = zero
        while height(zero - step) <= bound:
            geometric[step] = 1
            step = step - a
        acc = _dict_mul(acc, geometric, bound)
    return FormalCharacter(n, {mu + v: c for v, c in acc.items()})


def _dict_mul(a, b, bound):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            k = u + v
            zero = Weight.zero(k.rank)
            if not leq(k, zero) or height(zero - k) > bound:
                continue
            out[k] = out.get(k, 0) + cu * cv
    return out


@pytest.mark.parametrize(
    "coords,bound", [("3,1", 4), ("4,1", 3), ("5,2,1", 3), ("7,4,2,1", 10)]
)
@pytest.mark.parametrize("even_only", [False, True])
def test_super_matches_naive_expansion(coords, bound, even_only):
    mu = wt(coords)
    got = super_verma_char(mu, Truncation(mu, bound), even_only=even_only)
    want = _naive_truncated_super(mu, bound, even_only)
    assert got == want


def test_thick_dim_values():
    for n in range(1, 6):
        assert thick_dim(n, 1) == 1
    for r in range(1, 8):
        assert thick_dim(1, r) == r
    assert thick_dim(2, 3) == 6


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", range(1, 6))
def test_thick_dim_counts_monomials(n, r):
    count = sum(
        1
        for degrees in itertools.product(range(r), repeat=n)
        if sum(degrees) < r
    )
    assert thick_dim(n, r) == count
