"""Linkage reports against the tuple-set scan, filtration multiplicities in
both directions, and flag extraction by division against the greedy peel
oracle."""

import functools
import random
from operator import le, sub

import pytest

import qblocks.filtration as filtration
from qblocks.charring import (
    FormalCharacter,
    Truncation,
    ext_neg,
    full_support_height,
    k_dim,
    subset_sum_P,
    super_verma_char,
    verma_char,
)
from qblocks.filtration import (
    FlagExtractionError,
    _block_mults,
    _hit_support,
    _hit_width,
    _orbit_hits,
    _orbit_keys,
    _parity_split,
    _table_quotient,
    FlagMultiset,
    LinkageReport,
    PreconditionError,
    ind_block_mult,
    ind_block_mult_split,
    induction_flag,
    linkage_check,
    res_block_mult,
    restriction_flag,
    verma_flag_extract,
)
from qblocks.lattice import (
    Weight,
    rho,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)
from qblocks.sampling import sample_weights
from qblocks.selftest import _minimal, _peel_extract
from qblocks.weyl import Perm, all_perms, dot_orbit, orbit, rho_defect


def wt(text):
    return Weight.parse(text)


def test_flag_multiset_basics():
    f = FlagMultiset([(wt("3,1"), 1), (wt("2,2"), 2)])
    assert f.get(wt("2,2")) == 2
    assert f.get(wt("9,9")) == 0
    assert sum(m for _, m in f.items()) == 3
    assert len(f) == 2


def test_flag_multiset_drops_zero_keeps_positive():
    f = FlagMultiset([(wt("3,1"), 0)])
    assert len(f) == 0
    with pytest.raises(ValueError):
        FlagMultiset([(wt("3,1"), -1)])


def test_flag_multiset_json():
    f = FlagMultiset([(wt("3,1"), 1), (wt("2,2"), 2)])
    assert f.to_json_entries() == [
        {"weight": "2,2", "mult": 2},
        {"weight": "3,1", "mult": 1},
    ]


def test_linkage_worked_example():
    rep = linkage_check(wt("3,1"), Perm.parse("2 1"))
    assert rep.intersection_plain == {wt("1,3")}
    assert rep.intersection_dot == {wt("0,4")}
    assert rep.offset == wt("1,-1")
    assert rep.offset_multiplicity == 1
    assert rep.passed


def test_linkage_identity_offset_zero():
    rep = linkage_check(wt("5,2,1"), Perm.identity(3))
    assert rep.offset == Weight.zero(3)
    assert rep.offset_multiplicity == 1
    assert rep.passed


def test_linkage_all_w_rank3():
    for w in all_perms(3):
        assert linkage_check(wt("5,2,1"), w).passed


def test_linkage_offset_is_rho_defect():
    for w in all_perms(3):
        assert linkage_check(wt("5,2,1"), w).offset == rho_defect(w)


def test_linkage_multiplicity_independent_of_lambda():
    P = subset_sum_P(3)
    for w in all_perms(3):
        expected = P.coefficient(rho_defect(w))
        for coords in ("5,2,1", "9,4,-1", "3,2,0"):
            rep = linkage_check(wt(coords), w)
            assert rep.offset_multiplicity == expected


def test_linkage_requires_regular():
    with pytest.raises(PreconditionError):
        linkage_check(wt("1,1,0"), Perm.identity(3))


def test_linkage_accepts_merely_typical():
    # Dominance, regularity, and integrality carry the argument; a zero
    # coordinate is fine here even though the flag operations reject it.
    assert linkage_check(wt("2,0"), Perm.parse("2 1")).passed


@functools.lru_cache(maxsize=None)
def _support_tuples(n):
    return frozenset(p.coords for p, _ in subset_sum_P(n).items())


@functools.lru_cache(maxsize=4)
def _orbit_tuples(lam):
    return (
        frozenset(u.coords for u in orbit(lam)),
        frozenset(v.coords for v in dot_orbit(lam)),
    )


def _linkage_by_scan(lam, w):
    """The oracle for linkage_check: the difference tuple of every plain
    and dot orbit point, tested against P's support as integer tuples."""
    n = lam.rank
    pchar = subset_sum_P(n)
    psupp = _support_tuples(n)
    plain_orbit, dot_orbit_ = _orbit_tuples(lam)
    wl, wd = w.act(lam), w.dot(lam)
    wl_i, wd_i = wl.coords, wd.coords
    plain = frozenset(
        Weight(u) for u in plain_orbit if tuple(map(sub, u, wd_i)) in psupp
    )
    dot = frozenset(
        Weight(v) for v in dot_orbit_ if tuple(map(sub, wl_i, v)) in psupp
    )
    offset = wl - wd
    mult = pchar.coefficient(offset)
    passed = plain == {wl} and dot == {wd} and mult == 1
    return LinkageReport(lam, w, plain, dot, offset, mult, passed)


def _assert_linkage_matches_scan(lam):
    for w in all_perms(lam.rank):
        assert linkage_check(lam, w) == _linkage_by_scan(lam, w), (lam, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linkage_matches_scan_on_sampled_weights(n):
    for lam in sample_weights(n, 3, seed=50 + n):
        _assert_linkage_matches_scan(lam)


def test_linkage_matches_scan_at_rank_6():
    _assert_linkage_matches_scan(wt("13,9,6,2,-1,-10"))


@pytest.mark.parametrize(
    "coords", ["4", "-3", "2,0", "5,0,-3", "3,2,1,0", "1000000,5,-1000000"]
)
def test_linkage_matches_scan_on_edge_weights(coords):
    # Rank 1, merely typical weights with a zero coordinate, and a weight
    # whose keys need digits far wider than the packing's minimum.
    _assert_linkage_matches_scan(wt(coords))


def _largest_digit(lam):
    return max(
        max(simple_root_coefficients(lam - x), default=0)
        for x in orbit(lam) | dot_orbit(lam)
    )


@pytest.mark.parametrize("k", [3, 6, 7, 8, 12])
@pytest.mark.parametrize("top", [-1, 0])
def test_linkage_matches_scan_where_digits_cross_a_power_of_two(k, top):
    # The largest digit of any lam - x is 2^k - 1 or 2^k: at rank 2 it is
    # lam_1 - lam_2 + 1, at rank 3 lam_1 - lam_3 + 2.
    d = (1 << k) + top
    for lam in (Weight([d - 1, 0]), Weight([d - 2, d // 2 - 1, 0])):
        assert _largest_digit(lam) == d
        pk, coeffs = _hit_support(lam.rank, _hit_width(lam))
        # Each field's top bit, its guard, sits above every digit the keys
        # hold, and no key of P sets one, so a borrow never looks up a key.
        assert d < 1 << (pk.shift - 1)
        guard = sum(1 << (pos * pk.shift + pk.shift - 1) for pos in range(lam.rank - 1))
        assert not any(key & guard for key in coeffs)
        _assert_linkage_matches_scan(lam)


@pytest.mark.parametrize(
    "coords,missing",
    [
        ("0,0", "regular"),
        ("1,2", "dominant"),
        ("5/2,1/2", "integral, dominant"),
        ("3,1/2", "integral, dominant, regular"),
    ],
)
def test_linkage_refusal_names_what_is_missing(coords, missing):
    with pytest.raises(PreconditionError) as info:
        linkage_check(wt(coords), Perm.identity(len(coords.split(","))))
    assert str(info.value) == (
        "linkage_check requires an integral dominant regular weight; "
        f"{coords} is not {missing}"
    )


@functools.lru_cache(maxsize=4)
def _every_key(lam):
    pk, coeffs = _hit_support(lam.rank, _hit_width(lam))
    plain = {u: pk.key_below(lam, u) for u in orbit(lam)}
    dot = {v: pk.key_below(lam, v) for v in dot_orbit(lam)}
    return coeffs, plain, dot


def _orbit_hits_by_full_scan(lam, w):
    """_orbit_hits with no height window: every key of both orbits is looked up."""
    coeffs, plain, dot = _every_key(lam)
    a, b = dot[w.dot(lam)], plain[w.act(lam)]
    plain_hits = {u: coeffs[d] for u, k in plain.items() if (d := a - k) in coeffs}
    dot_hits = {v: coeffs[d] for v, k in dot.items() if (d := k - b) in coeffs}
    return plain_hits, dot_hits


@pytest.mark.parametrize("lam", [
    *(lam for n in range(2, 7) for lam in sample_weights(n, 1, seed=60 + n)),
    *(Weight(range(n - 1, -1, -1)) for n in range(2, 7)),
    wt("4,3,2,1,-1,-2,-3"),
], ids=str)
def test_orbit_keys_are_the_keys_of_weyls_orbits(lam):
    # The cache holds the packing, P's coefficients and two sorted tuples of
    # ints: the keys of lam - x over weyl's plain and dot orbits.  The dot
    # keys are made below lam + rho', so this checks that identity too, and
    # every key decodes back to its point.
    pk, coeffs, *cached = _orbit_keys(lam)
    assert (pk, coeffs) == _hit_support(lam.rank, _hit_width(lam))
    assert len(cached) == 2
    for keys, points in zip(cached, (orbit(lam), dot_orbit(lam))):
        assert type(keys) is tuple and all(type(k) is int for k in keys)
        assert list(keys) == sorted(pk.key_below(lam, x) for x in points)
        assert {pk.weight_below(lam, k) for k in keys} == points


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_hit_window_matches_the_full_scan_for_every_w(n):
    # Sampled weights, and n-1,...,1,0, the tightest integral regular
    # dominant weight, whose orbit keys crowd into the fewest heights.
    for lam in sample_weights(n, 2, seed=80 + n) + [Weight(range(n - 1, -1, -1))]:
        for w in all_perms(n):
            assert _orbit_hits(lam, w) == _orbit_hits_by_full_scan(lam, w), (lam, w)


@pytest.mark.parametrize("coords", [
    "13,9,6,2,-1,-10", "6,4,3,1,-2,-5", "13,9,6,4,2,-7,-11", "4,3,2,1,-1,-2,-3",
])
def test_orbit_hit_window_matches_the_full_scan_at_ranks_6_and_7(coords):
    # The n = 7 contract weight, and a tight one whose window still holds
    # most of the orbit.  The identity and the longest element are among the
    # sampled w.
    lam = wt(coords)
    n = lam.rank
    perms = list(all_perms(n))
    for w in perms[:1] + perms[-1:] + random.Random(n).sample(perms, 10):
        assert _orbit_hits(lam, w) == _orbit_hits_by_full_scan(lam, w), w


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_hit_coefficients_give_the_block_multiplicities(n):
    # res_block_mult sums k_dim(n) P[w(lam) - v] over the dot orbit, and
    # ind_block_mult sums 2^(n-1) / k_dim(n) P[u - w.lam] over the plain
    # orbit: _block_mults takes both from _orbit_hits.  Every w up to
    # n = 5, 12 sampled at n = 6.
    (lam,) = sample_weights(n, 1, seed=70 + n)
    perms = list(all_perms(n))
    for w in perms if n < 6 else random.Random(76).sample(perms, 12):
        assert _block_mults(lam, w) == (res_block_mult(lam, w), ind_block_mult(lam, w))


def test_block_mults_refuse_a_weight_that_is_not_strongly_typical():
    # 3,-3 passes linkage_check's hypotheses but not strong typicality.
    lam, w = wt("3,-3"), Perm.parse("2 1")
    assert linkage_check(lam, w).passed
    with pytest.raises(PreconditionError) as info:
        _block_mults(lam, w)
    assert str(info.value) == (
        "_block_mults requires an integral dominant regular strongly typical "
        "weight; 3,-3 is not strongly typical"
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_is_parity_split_of_raw(n):
    (lam,) = sample_weights(n, 1, seed=90 + n)
    for w in all_perms(n):
        raw = ind_block_mult(lam, w)
        assert ind_block_mult_split(lam, w) == _parity_split(raw, n)


def test_odd_raw_multiplicity_at_even_rank_cannot_split(monkeypatch):
    with pytest.raises(ArithmeticError, match="odd raw multiplicity 3 cannot split"):
        _parity_split(3, 2)
    assert _parity_split(3, 3) == 3
    monkeypatch.setattr(filtration, "ind_block_mult", lambda lam, w: 5)
    with pytest.raises(ArithmeticError, match="odd raw multiplicity 5"):
        ind_block_mult_split(wt("7,5,3,1"), Perm.identity(4))


def test_restriction_flag_rank2_identity():
    flag = restriction_flag(wt("3,1"), Perm.identity(2))
    assert flag == FlagMultiset([(wt("3,1"), 1), (wt("2,2"), 1)])
    assert sum(m for _, m in flag.items()) == 2


def test_restriction_flag_rank3_entries():
    flag = restriction_flag(wt("5,2,1"), Perm.identity(3))
    assert flag.get(wt("5,2,1")) == 2
    assert flag.get(wt("4,3,1")) == 2
    assert sum(m for _, m in flag.items()) == k_dim(3) * 2**3


def test_restriction_flag_requires_strong_typicality():
    with pytest.raises(PreconditionError, match="strongly typical"):
        restriction_flag(wt("2,0"), Perm.identity(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_restriction_flag_cut_matches_admits_filter(n):
    # The flag cut by height against Truncation.admits on every entry of the
    # full flag at base w(lam): every w and height 0..H + 1 up to n = 4, six
    # sampled w at n = 5.
    (lam,) = sample_weights(n, 1, seed=110 + n)
    perms = list(all_perms(n))
    for w in perms if n < 5 else random.Random(115).sample(perms, 6):
        flag = restriction_flag(lam, w)
        for height in range(full_support_height(n) + 2):
            trunc = Truncation(w.act(lam), height)
            want = FlagMultiset((v, m) for v, m in flag.items() if trunc.admits(v))
            assert restriction_flag(lam, w, height) == want, (lam, w, height)
        assert restriction_flag(lam, w, full_support_height(n)) == flag


def test_restriction_flag_refuses_a_negative_height():
    lam, w = wt("5,2,1"), Perm.identity(3)
    with pytest.raises(ValueError) as want:
        Truncation(w.act(lam), -1)
    with pytest.raises(ValueError) as got:
        restriction_flag(lam, w, -1)
    assert str(got.value) == str(want.value)


def test_res_block_mult_examples():
    assert res_block_mult(wt("3,1"), Perm.identity(2)) == 1
    assert res_block_mult(wt("5,2,1"), Perm.parse("3 1 2")) == 2
    assert res_block_mult(wt("9,7,5,3,1"), Perm.identity(5)) == 4


def test_induction_flag_examples():
    flag = induction_flag(wt("3,1"), Perm.parse("2 1"))
    assert flag.get(wt("1,3")) == 2
    n = 3
    flag = induction_flag(wt("5,2,1"), Perm.identity(n))
    assert flag.get(wt("5,2,1")) == 2 ** ((n - 1) - (n - 1) // 2)


def test_induction_block_mult_examples():
    assert ind_block_mult(wt("5,2,1"), Perm.identity(3)) == 2
    assert ind_block_mult_split(wt("5,2,1"), Perm.identity(3)) == 2
    assert ind_block_mult(wt("3,1"), Perm.identity(2)) == 2
    assert ind_block_mult_split(wt("3,1"), Perm.identity(2)) == 1
    assert ind_block_mult(wt("7,5,3,1"), Perm.identity(4)) == 4
    assert ind_block_mult_split(wt("7,5,3,1"), Perm.identity(4)) == 2


@pytest.mark.parametrize("n,coords", [(2, "3,1"), (3, "5,2,1"), (4, "7,5,3,1")])
def test_split_induction_matches_restriction(n, coords):
    lam = wt(coords)
    for w in all_perms(n):
        assert ind_block_mult_split(lam, w) == res_block_mult(lam, w)


def test_extract_single_verma():
    mu = wt("4,1,-2")
    t = Truncation(mu, 5)
    got = verma_flag_extract(verma_char(mu, t), t)
    assert got == FlagMultiset([(mu, 1)])


def test_extract_nested_pair():
    # two summands whose highest weights are comparable: the lower one's
    # coefficient sits inside the top block's character
    base = wt("4,0")
    t = Truncation(base, 4)
    a = wt("3,1")
    ch = verma_char(base, t) + verma_char(a, Truncation(a, t.bound - 1))
    got = verma_flag_extract(ch, t)
    assert got == FlagMultiset([(base, 1), (a, 1)])


def test_extract_incomparable_pair():
    # Rank 3: (1,-1,0) and (0,1,-1) sit at incomparable positions under
    # the dominance order.
    base = wt("1,1,1")
    t = Truncation(base, 6)
    a = base - wt("1,-1,0")
    b = base - wt("0,1,-1")
    ch = (
        verma_char(a, Truncation(a, 5))
        + verma_char(b, Truncation(b, 5))
    )
    got = verma_flag_extract(ch, t)
    assert got == FlagMultiset([(a, 1), (b, 1)])


def test_extract_even_super_matches_direct_route():
    lam = wt("3,1")
    H = full_support_height(2)
    for w in all_perms(2):
        wl = w.act(lam)
        t = Truncation(wl, H)
        got = verma_flag_extract(super_verma_char(wl, t, even_only=True), t)
        assert got == restriction_flag(lam, w)


def test_extract_super_blocks_matches_induction_flag():
    # Even half of the induced character: 2^(n-1) copies of the product of
    # the shifted subset sums over positive and negative roots, times the
    # denominator.  Its flag under even super blocks is the induction table.
    for n, coords in ((2, "3,1"), (3, "5,2,1")):
        lam = wt(coords)
        H = full_support_height(n)
        for w in all_perms(n):
            top = w.dot(lam)
            base = top + rho(n) + rho(n)
            t = Truncation(base, H)
            full = (
                FormalCharacter.delta(top)
                * subset_sum_P(n)
                * ext_neg(n)
                * _denominator(n, H)
            )
            ch = 2 ** (n - 1) * _region_filtered(full, t)
            got = verma_flag_extract(ch, t, super_blocks=True)
            assert got == induction_flag(lam, w)


def _region_filtered(ch, t):
    return FormalCharacter(
        ch.rank, {v: c for v, c in ch.items() if t.admits(v)}
    )


def _denominator(n, bound):
    mu = Weight.zero(n)
    return verma_char(mu, Truncation(mu, bound))


def test_extract_rejects_non_flag_input():
    mu = wt("2,0,-1")
    t = Truncation(mu, 3)
    bad = verma_char(mu, t) - 2 * FormalCharacter.delta(mu - wt("1,-1,0"))
    with pytest.raises(FlagExtractionError):
        verma_flag_extract(bad, t)


def test_extract_rejects_support_outside_region():
    mu = wt("2,0")
    t = Truncation(mu, 1)
    stray = FormalCharacter.delta(wt("5,5"))
    with pytest.raises(FlagExtractionError):
        verma_flag_extract(verma_char(mu, t) + stray, t)


def test_extract_rejects_indivisible_super_top():
    mu = wt("5,2,1")
    t = Truncation(mu, 2)
    # one plain Verma cannot be a sum of super blocks: top coefficient 1 < k
    with pytest.raises(FlagExtractionError):
        verma_flag_extract(verma_char(mu, t), t, super_blocks=True)


def test_extract_tie_break_choice_is_irrelevant():
    base = wt("1,1,1")
    t = Truncation(base, 6)
    a = base - wt("1,-1,0")
    b = base - wt("0,1,-1")
    ch = verma_char(a, Truncation(a, 5)) + verma_char(b, Truncation(b, 5))
    first = _peel_extract(ch, t, tie_break=lambda xs: xs[0])
    last = _peel_extract(ch, t, tie_break=lambda xs: xs[-1])
    assert first == last == verma_flag_extract(ch, t) == FlagMultiset([(a, 1), (b, 1)])


def test_peel_rejects_non_maximal_tie_break():
    # mu - alpha is in the support but below mu: refused at the first pick.
    mu = wt("4,0")
    t = Truncation(mu, 2)
    offered = []

    def below_top(xs):
        offered.append(xs)
        return mu - wt("1,-1")

    with pytest.raises(ValueError, match="non-maximal"):
        _peel_extract(verma_char(mu, t), t, tie_break=below_top)
    assert offered == [[mu]]


def _outcome(extract, ch, t, super_blocks):
    try:
        return extract(ch, t, super_blocks=super_blocks)
    except FlagExtractionError as exc:
        return type(exc), str(exc)


DIFFERENTIAL_LAMBDAS = {2: "3,1", 3: "5,2,1", 4: "7,5,3,1"}


def test_division_matches_peel_oracle():
    # Flags and non-flags, plain and super blocks: the division and the
    # greedy peel must return the same multiset or fail the same way.  The
    # peel's default pick is the largest maximal weight.
    last = functools.partial(_peel_extract, tie_break=lambda xs: xs[-1])
    cases = 0
    errors = set()
    for n, coords in DIFFERENTIAL_LAMBDAS.items():
        H = full_support_height(n)
        k = k_dim(n)
        lam = wt(coords)
        for w in all_perms(n):
            wl = w.act(lam)
            for bound in sorted({0, 1, H // 2, H}):
                t = Truncation(wl, bound)
                low = wl - weight_from_simple_coefficients(n, (bound,) + (0,) * (n - 2))
                chars = (
                    super_verma_char(wl, t, even_only=True),
                    3 * super_verma_char(wl, t) + 2 * k * verma_char(wl, t),
                    verma_char(wl, t) - 2 * FormalCharacter.delta(low),
                )
                for ch in chars:
                    for super_blocks in (False, True):
                        got = _outcome(verma_flag_extract, ch, t, super_blocks)
                        want = _outcome(_peel_extract, ch, t, super_blocks)
                        assert got == want, (n, w, bound, super_blocks)
                        assert _outcome(last, ch, t, super_blocks) == want
                        if isinstance(want, tuple):
                            errors.add(want[1].split(" ")[0])
                        cases += 1
    # 32 (n, w) pairs, 4 heights (only 2 distinct at n = 2, where H = 1),
    # 3 characters, plain and super blocks.
    assert cases == 744
    assert errors == {"negative", "coefficient"}


def test_minimal_scan_matches_pairwise_definition():
    rng = random.Random(11)
    for _ in range(500):
        length = rng.randint(1, 4)
        tuples = {
            tuple(rng.randint(0, 4) for _ in range(length))
            for _ in range(rng.randint(1, 40))
        }
        pairwise = sorted(
            s
            for s in tuples
            if not any(t != s and all(map(le, t, s)) for t in tuples)
        )
        assert _minimal(tuples) == pairwise


def _terms_built(ch):
    # object.__getattribute__ reads the slot without the lazy fill.
    try:
        object.__getattribute__(ch, "_terms")
    except AttributeError:
        return False
    return True


PACKED_LAMBDAS = {1: "2", **DIFFERENTIAL_LAMBDAS}


def test_packed_route_matches_eager_copy():
    # verma_char and super_verma_char hand extraction their packed offset
    # table; an eager copy of the same terms takes the key_below route.
    # Both must give the same multiset or fail with the same message.
    cases = 0
    errors = set()
    for n, coords in PACKED_LAMBDAS.items():
        H = full_support_height(n)
        lam = wt(coords)
        for w in all_perms(n):
            wl = w.act(lam)
            for bound in sorted({0, 1, H, H + 2}):
                t = Truncation(wl, bound)
                for build in (
                    lambda: super_verma_char(wl, t, even_only=True),
                    lambda: verma_char(wl, t),
                ):
                    for super_blocks in (False, True):
                        ch = build()
                        got = _outcome(verma_flag_extract, ch, t, super_blocks)
                        assert not _terms_built(ch), (n, w, bound, super_blocks)
                        eager = FormalCharacter(n, ch.items())
                        want = _outcome(verma_flag_extract, eager, t, super_blocks)
                        assert got == want, (n, w, bound, super_blocks)
                        if isinstance(want, tuple):
                            errors.add(want[1].split(" ")[0])
                        cases += 1
    # 33 (n, w) pairs: the rank-1 pair has 3 distinct heights, every other
    # pair 4 except at n = 2 (H = 1, so 3); 2 characters, plain and super.
    assert cases == 4 * (1 * 3 + 2 * 3 + 6 * 4 + 24 * 4)
    # A plain Verma character divided by P fails both ways.
    assert errors == {"negative", "coefficient"}


def test_cached_quotient_matches_eager_route():
    # A packed character's table is divided once per (n, bound, table kind,
    # block kind); every later call, at any base and with any scale factor,
    # reuses that quotient and must still match the eager route, errors
    # included.
    builds = (
        lambda mu, t: super_verma_char(mu, t, even_only=True),
        super_verma_char,
        verma_char,
    )
    _table_quotient.cache_clear()
    problems = set()
    outcomes = set()
    for n, coords in PACKED_LAMBDAS.items():
        H = full_support_height(n)
        lam = wt(coords)
        for bound in sorted({0, 1, H}):
            for w in all_perms(n):
                wl = w.act(lam)
                t = Truncation(wl, bound)
                for build in builds:
                    for super_blocks in (False, True):
                        for _ in range(2):
                            ch = build(wl, t)
                            got = _outcome(verma_flag_extract, ch, t, super_blocks)
                            eager = FormalCharacter(n, ch.items())
                            want = _outcome(verma_flag_extract, eager, t, super_blocks)
                            assert got == want, (n, w, bound, super_blocks)
                            if isinstance(want, tuple):
                                outcomes.add(want[1].split(" ")[0])
                            else:
                                outcomes.add("flag")
                            problems.add((n, bound, build is verma_char, super_blocks))
    info = _table_quotient.cache_info()
    assert info.misses == len(problems) == info.currsize
    assert info.hits > 10 * info.misses
    # Flags, negative coefficients and indivisible ones all came up.
    assert outcomes == {"flag", "negative", "coefficient"}


@pytest.mark.parametrize("n,coords", sorted(DIFFERENTIAL_LAMBDAS.items()))
def test_packed_character_on_another_region_takes_key_below_route(n, coords):
    # Another base or bound than the character's own: its terms are packed
    # one by one, and those outside the region raise the region error.
    lam = wt(coords)
    H = full_support_height(n)
    step = weight_from_simple_coefficients(n, (1,) + (0,) * (n - 2))
    regions = (
        Truncation(lam, H - 1),
        Truncation(lam + step, H),
        Truncation(lam - step, H),
    )
    for build in (super_verma_char, verma_char):
        for t in regions:
            ch = build(lam, Truncation(lam, H))
            got = _outcome(verma_flag_extract, ch, t, False)
            eager = FormalCharacter(n, ch.items())
            assert got == _outcome(verma_flag_extract, eager, t, False)
            assert "outside the truncation region" in got[1]
