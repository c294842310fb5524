"""Sparse character arithmetic, subset-sum multisets, and truncated
highest-weight characters, each checked against naive expansions."""

import collections
import functools
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from qblocks.charring import (
    FormalCharacter,
    Truncation,
    _offset_table,
    _Packing,
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
from qblocks.lattice import (
    Weight,
    height,
    leq,
    positive_roots,
    rho,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)
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


def _no_zero_coefficient(x):
    return all(c for _, c in x.items())


def test_constructor_merges_duplicate_terms_and_drops_cancelled():
    x, y = wt("2,0"), wt("1,1")
    got = FormalCharacter(2, [(x, 3), (y, 1), (x, -3), (y, 0)])
    assert got == FormalCharacter.delta(y) and len(got) == 1
    assert got.coefficient(x) == 0 and got.support() == [y]
    assert not FormalCharacter(2, [(x, 2), (x, -2), (y, 0)])
    with pytest.raises(ValueError, match=r"^weight 1,0,-1 has rank 3, expected 2$"):
        FormalCharacter(2, [(x, 1), (wt("1,0,-1"), 1)])


def test_sum_with_its_negative_is_empty():
    mu = wt("5,2,1")
    for a in (
        FormalCharacter(2, {wt("3,1"): 2, wt("0,0"): -1, wt("1,-1"): 7}),
        subset_sum_P(4),
        verma_char(mu, Truncation(mu, 3)),
    ):
        total = a + (-1) * a
        assert total == FormalCharacter.zero(a.rank)
        assert len(total) == 0 and not total and total.support() == []
        assert a - a == total
    half = FormalCharacter(2, {wt("3,1"): 2, wt("0,0"): -1})
    rest = FormalCharacter(2, {wt("3,1"): -2, wt("2,2"): 4})
    assert half + rest == FormalCharacter(2, {wt("0,0"): -1, wt("2,2"): 4})
    assert len(half + rest) == 2 and _no_zero_coefficient(half + rest)
    with pytest.raises(ValueError, match="^rank mismatch: 2 vs 3$"):
        half + FormalCharacter(3, {})


def test_general_product_drops_cancelled_cross_terms():
    x, y = wt("2,0"), wt("1,1")
    diff = FormalCharacter(2, {x: 1, y: -1})
    plus = FormalCharacter(2, {x: 1, y: 1})
    want = FormalCharacter(2, {x + x: 1, y + y: -1})
    for a, b in ((diff, plus), (plus, diff)):
        got = a * b
        assert got == want and len(got) == 2
        assert got.coefficient(x + y) == 0 and x + y not in got.support()
        assert _no_zero_coefficient(got)
    with pytest.raises(ValueError, match="^rank mismatch: 2 vs 3$"):
        diff * FormalCharacter(3, {wt("1,0,-1"): 1, wt("0,0,0"): 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subset_sum_Pw_is_P_transported_term_by_term(n):
    P = subset_sum_P(n)
    for w in all_perms(n):
        want = {w.act(p): c for p, c in P.items()}
        got = subset_sum_Pw(w)
        assert dict(got.items()) == want and _no_zero_coefficient(got)
        assert got - FormalCharacter(n, want) == FormalCharacter.zero(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ext_neg_is_P_negated(n):
    P = subset_sum_P(n)
    want = {-p: c for p, c in P.items()}
    got = ext_neg(n)
    assert dict(got.items()) == want and _no_zero_coefficient(got)
    assert got - FormalCharacter(n, want) == FormalCharacter.zero(n)
    # prod (1 + e^-alpha) = e^(-2 rho) prod (1 + e^alpha)
    two_rho = rho(n) + rho(n)
    assert FormalCharacter.delta(-two_rho) * P == got


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


def _translation_cases():
    rng = random.Random(12)
    ints = [wt(f"{i},{j},{-i - j}") for i in range(-2, 3) for j in range(-2, 3)]
    for _ in range(10):
        one = FormalCharacter(3, {rng.choice(ints): rng.choice((-3, -1, 1, 2, 5))})
        many = FormalCharacter(3, {v: rng.randint(-4, 4) for v in rng.sample(ints, 7)})
        yield one, many
    # Half-integral translations: rho and its images at n = 4, against P.
    r = rho(4)
    for w in list(all_perms(4))[::5]:
        yield FormalCharacter(4, {w.act(r): -2}), subset_sum_Pw(w)
    yield FormalCharacter(4, {r: 3}), ext_neg(4)
    mu = wt("5,2,1")
    yield FormalCharacter(3, {wt("1/2,-1/2,0"): 7}), verma_char(mu, Truncation(mu, 4))


def test_single_term_product_is_the_convolution():
    for one, many in _translation_cases():
        assert len(one) == 1
        want = _naive_product(one, many)
        assert one * many == want
        assert many * one == want
        got = one * many
        assert all(w.rank == one.rank for w, _ in got.items())
        # Coordinates are normalised as Weight stores them: integral sums
        # as int, any other as Fraction.
        assert [w.coords for w in got.support()] == [
            Weight(w.coords).coords for w in want.support()
        ]
        assert all(
            type(c) is (int if c.denominator == 1 else Fraction)
            for w, _ in got.items()
            for c in w.coords
        )


def test_single_term_product_rejects_rank_mismatch():
    one = FormalCharacter.delta(wt("1,-1"))
    other = FormalCharacter(3, {wt("1,0,-1"): 2, wt("0,0,0"): 1})
    for a, b in ((one, other), (other, one)):
        with pytest.raises(ValueError, match="^rank mismatch: "):
            a * b


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


@functools.lru_cache(maxsize=None)
def _gelfand_tsetlin_weights(top):
    """Number of Gelfand-Tsetlin patterns with top row `top`, by weight.

    A pattern is a triangle of rows, each interlacing the one above it;
    coordinate k of its weight is the sum of row k minus that of row k - 1.
    The count at weight mu is the Kostka number K_{top, mu}, found here with
    no reference to roots or subsets."""
    if len(top) == 1:
        return collections.Counter({top: 1})
    counts = collections.Counter()
    between = [range(low, high + 1) for high, low in zip(top, top[1:])]
    for row in itertools.product(*between):
        last = sum(top) - sum(row)
        for mu, c in _gelfand_tsetlin_weights(row).items():
            counts[mu + (last,)] += c
    return counts


@pytest.mark.parametrize("n", range(1, 7))
def test_subset_sum_matches_kostka_numbers(n):
    # prod over alpha > 0 of (e^{alpha/2} + e^{-alpha/2}) is ch V(rho), so
    # P[nu] = K_{rho', rho' - nu} with rho' = (n-1, ..., 1, 0).
    top = tuple(range(n - 1, -1, -1))
    kostka = _gelfand_tsetlin_weights(top)
    P = subset_sum_P(n)
    for nu, c in P.items():
        assert kostka[tuple(t - int(x) for t, x in zip(top, nu.coords))] == c
    # dim V(rho') equals the mass of P, so no weight of V(rho') lies outside
    # rho' - supp P.
    assert sum(kostka.values()) == P.mass() == 2 ** (n * (n - 1) // 2)


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


def _admits_oracle(t, w):
    if w.rank != t.base.rank:
        return False
    try:
        coeffs = simple_root_coefficients(t.base - w)
    except ValueError:
        return False
    return all(c >= 0 for c in coeffs) and sum(coeffs) <= t.bound


HALF = Fraction(1, 2)


def _region_probes(base):
    """Weights near base: integral and half-integral shifts, shifts with a
    nonzero total, shifts far below base, and weights of other ranks."""
    n = base.rank
    for d in itertools.product(range(-1, 3), repeat=n):
        v = base - Weight(d)
        yield v
        yield v + Weight([HALF] * n)
        yield v + Weight([HALF] + [0] * (n - 1))
        yield base - Weight([4 * x for x in d])
        # A coordinate too many or too few; the rest may agree with v.
        yield Weight(list(v) + [v.coords[-1]])
        if n > 1:
            yield Weight(list(v)[:-1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_admits_matches_coefficient_oracle(n):
    bases = (
        Weight(range(2 * n, 0, -2)),
        Weight(Fraction(2 * (n - i) - 1, 2) for i in range(n)),
    )
    outcomes = set()
    for base in bases:
        for bound in (0, 1, 3, full_support_height(n)):
            t = Truncation(base, bound)
            for w in _region_probes(base):
                want = _admits_oracle(t, w)
                assert t.admits(w) == want, (base, bound, w)
                outcomes.add((w.rank == n, want))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_admits_rejects_other_rank():
    t = Truncation(wt("3,1,0"), 5)
    assert not t.admits(wt("3,1"))
    assert not t.admits(wt("3,1,0,0"))


@pytest.mark.parametrize("super_blocks", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_offset_codec_round_trip(n, super_blocks):
    bound = full_support_height(n)
    pk = _Packing(n, bound)
    table = _offset_table(n, bound, super_blocks)
    bases = (
        Weight(range(n, 0, -1)),
        Weight(Fraction(2 * (n - i) - 1, 2) for i in range(n)),
    )
    for base in bases:
        for k in table:
            w = pk.weight_below(base, k)
            assert pk.key_below(base, w) == k
            assert w == base - weight_from_simple_coefficients(n, pk.unpack(k))


def test_truncation_rejects_negative_bound():
    with pytest.raises(ValueError):
        Truncation(wt("0,0"), -1)
    with pytest.raises(ValueError, match="nonnegative int: 1.5"):
        Truncation(wt("0,0"), 1.5)


def test_truncation_is_an_immutable_hashable_value():
    t = Truncation(wt("3,1"), 2)
    assert repr(t) == "Truncation(base=Weight('3,1'), bound=2)"
    assert t == Truncation(wt("3,1"), 2) != Truncation(wt("3,1"), 3)
    assert len({t, Truncation(wt("3,1"), 2)}) == 1
    with pytest.raises(AttributeError):
        t.bound = 5
    with pytest.raises(AttributeError):
        t.extra = 5
    assert pickle.loads(pickle.dumps(t)) == t


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


PACKED_BUILDERS = {
    "verma": verma_char,
    "super": super_verma_char,
    "super-even": lambda mu, t: super_verma_char(mu, t, even_only=True),
}


@pytest.fixture
def weight_inits(monkeypatch):
    """A one-item list counting Weight constructions during the test."""
    count = [0]
    init = Weight.__init__

    def counting_init(self, coords):
        count[0] += 1
        init(self, coords)

    monkeypatch.setattr(Weight, "__init__", counting_init)
    return count


@pytest.mark.parametrize("build", PACKED_BUILDERS.values(), ids=PACKED_BUILDERS)
@pytest.mark.parametrize("coords,bound", [("5,2,1", 4), ("7/2,3/2,-1/2,-5/2", 3)])
def test_packed_character_matches_eager_copy(build, coords, bound):
    # Each read starts from a fresh packed character, so each one is the
    # first to need the terms.
    mu = wt(coords)
    n = mu.rank
    t = Truncation(mu, bound)

    def fresh():
        return build(mu, t)

    eager = FormalCharacter(n, fresh().items())
    probe = FormalCharacter(n, {Weight.zero(n): 2, -mu: -1})
    assert fresh() == eager and eager == fresh() and fresh() == fresh()
    assert fresh() != eager.scale(2)
    assert sorted(fresh().items()) == sorted(eager.items())
    assert fresh().sorted_items() == eager.sorted_items()
    for w, c in eager.items():
        assert fresh().coefficient(w) == c
    assert fresh().coefficient(mu + mu) == 0
    assert fresh().scale(3) == eager.scale(3) and fresh().scale(0) == eager.scale(0)
    assert fresh() + eager == eager + fresh() == eager.scale(2) == fresh() + fresh()
    assert fresh() - eager == FormalCharacter.zero(n)
    assert fresh() * probe == eager * probe == probe * fresh()
    assert repr(fresh()) == repr(eager)
    assert fresh().mass() == eager.mass() and fresh().support() == eager.support()
    assert len(fresh()) == len(eager) and bool(fresh()) and bool(eager)
    assert pickle.loads(pickle.dumps(fresh())) == eager


@pytest.mark.parametrize("build", PACKED_BUILDERS.values(), ids=PACKED_BUILDERS)
def test_packed_character_builds_terms_once_on_first_read(build, weight_inits):
    mu = wt("7,4,2,1")
    ch = build(mu, Truncation(mu, 6))
    weight_inits[0] = 0
    size = len(ch)
    assert size > 1 and bool(ch)
    assert weight_inits[0] == 0
    first = ch.sorted_items()
    assert weight_inits[0] == size == len(first)
    for _ in range(3):
        assert ch.sorted_items() == first
        assert dict(ch.items()) == dict(first)
        assert ch.coefficient(mu) == dict(first)[mu]
        assert len(ch) == size
    assert weight_inits[0] == size
