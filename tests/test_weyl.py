"""Symmetric-group actions, orbits, inversions, and the rank guard."""

from fractions import Fraction

import pytest

from qblocks.charring import (
    ext_neg,
    subset_sum_P,
    subset_sum_P_by_enumeration,
    subset_sum_Pw,
)
from qblocks.filtration import (
    ind_block_mult,
    ind_block_mult_split,
    induction_flag,
    linkage_check,
    res_block_mult,
    restriction_flag,
)
from qblocks.lattice import Weight, rho
from qblocks.weyl import (
    ENV_MAX_RANK,
    GuardError,
    Perm,
    all_perms,
    check_rank,
    dot_orbit,
    inversion_roots,
    orbit,
    rho_defect,
    same_block,
)


def test_parse_and_str():
    w = Perm.parse("2 1 3")
    assert str(w) == "2 1 3"
    assert w(1) == 2 and w(2) == 1 and w(3) == 3


def test_parse_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm.parse("1 1 3")
    with pytest.raises(ValueError):
        Perm.parse("0 1")


def test_identity_and_inverse():
    e = Perm.identity(4)
    w = Perm.parse("2 3 1 4")
    assert w * w.inverse() == e
    assert w.inverse() * w == e
    assert e * w == w


def test_composition_order():
    # (u * v)(i) = u(v(i)): v first, then u.
    u = Perm.parse("2 1 3")
    v = Perm.parse("1 3 2")
    uv = u * v
    assert [uv(i) for i in (1, 2, 3)] == [u(v(i)) for i in (1, 2, 3)]


def test_act_places_coordinates():
    # Basis convention: w sends slot i to slot w(i).
    w = Perm.parse("2 3 1")
    assert w.act(Weight.parse("5,2,1")) == Weight.parse("1,5,2")


def test_act_identity():
    lam = Weight.parse("7,3,-2")
    assert Perm.identity(3).act(lam) == lam


def test_dot_example():
    w = Perm.parse("2 1")
    assert w.dot(Weight.parse("3,1")) == Weight.parse("0,4")


def test_dot_identity():
    lam = Weight.parse("3,1")
    assert Perm.identity(2).dot(lam) == lam


def test_action_rank_mismatch():
    with pytest.raises(ValueError):
        Perm.parse("2 1").act(Weight.parse("1,2,3"))
    with pytest.raises(ValueError):
        Perm.parse("2 1").dot(Weight.parse("1,2,3"))


def _literal_dot(w, lam):
    """w(lam + rho) - rho on Fraction tuples, with the half-integral rho."""
    n = w.rank
    r = [Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1)]
    moved = [None] * n
    for i in range(n):
        moved[w(i + 1) - 1] = Fraction(lam.coords[i]) + r[i]
    return tuple(m - ri for m, ri in zip(moved, r))


DIFFERENTIAL_WEIGHTS = [
    "0", "-3", "5/2",
    "3,1", "2,2", "1/2,-3/2", "7/2,7/2",
    "5,2,-1", "1,1,-4", "5/2,1/2,-7/2", "3/2,-1/2,-1/2",
    "4,0,-3,2", "6,3,1,-2", "2,2,0,0", "1/2,-3/2,5/2,7/2", "9/2,1/2,1/2,-5/2",
]


@pytest.mark.parametrize("text", DIFFERENTIAL_WEIGHTS)
def test_dot_matches_literal_rho_shift(text):
    # The integer shift route must agree with w(lam + rho) - rho computed
    # with Fractions, for every w, on integral and half-integral weights.
    lam = Weight.parse(text)
    n = lam.rank
    r = rho(n)
    literal_points = set()
    for w in all_perms(n):
        want = _literal_dot(w, lam)
        literal_points.add(want)
        got = w.dot(lam)
        assert got.coords == want, (text, str(w))
        assert got == w.act(lam + r) - r
        if lam.is_integral():
            assert all(type(c) is int for c in got.coords)
    assert {x.coords for x in dot_orbit(lam)} == literal_points


def test_orbit_small():
    assert orbit(Weight.parse("3,1")) == {Weight.parse("3,1"), Weight.parse("1,3")}
    assert orbit(Weight.parse("0,0")) == {Weight.parse("0,0")}


def test_dot_orbit_small():
    assert dot_orbit(Weight.parse("3,1")) == {
        Weight.parse("3,1"),
        Weight.parse("0,4"),
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_regular_orbits_are_free(n):
    lam = Weight(tuple(range(2 * n, 0, -2)))
    import math

    assert len(orbit(lam)) == math.factorial(n)
    assert len(dot_orbit(lam)) == math.factorial(n)


def test_all_perms_count_and_order():
    perms = list(all_perms(3))
    assert len(perms) == 6
    assert perms == sorted(perms)
    assert perms[0] == Perm.identity(3)


def test_inversions_identity_empty():
    assert inversion_roots(Perm.identity(3)) == frozenset()


def test_inversions_simple_swap():
    assert {(r.i, r.j) for r in inversion_roots(Perm.parse("2 1"))} == {(1, 2)}


def test_inversions_reversal_all():
    assert len(inversion_roots(Perm.parse("3 2 1"))) == 3


def test_rho_defect_examples():
    assert rho_defect(Perm.identity(3)) == Weight.zero(3)
    assert rho_defect(Perm.parse("2 1")) == Weight.parse("1,-1")
    assert rho_defect(Perm.parse("3 2 1")) == Weight.parse("2,0,-2")


@pytest.mark.parametrize("n", range(1, 7))
def test_rho_defect_is_rho_minus_w_rho(n):
    r = rho(n)
    for w in all_perms(n):
        assert rho_defect(w) == r - w.act(r)


def test_same_block_examples():
    a = Weight.parse("3,1")
    assert same_block(a, Weight.parse("0,4"))
    assert not same_block(a, Weight.parse("1,3"))
    assert same_block(a, a)


def test_same_block_rejects_non_integral():
    with pytest.raises(ValueError):
        same_block(Weight.parse("1/2,-1/2"), Weight.parse("1/2,-1/2"))


def test_guard_blocks_large_rank():
    lam = Weight(tuple(range(9, 0, -1)))
    with pytest.raises(GuardError):
        orbit(lam)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv(ENV_MAX_RANK, "3")
    with pytest.raises(GuardError):
        orbit(Weight.parse("4,3,2,1"))
    monkeypatch.setenv(ENV_MAX_RANK, "9")
    lam = Weight(tuple(range(9, 0, -1)))
    assert len(orbit(lam)) == 362880


@pytest.mark.parametrize("value", ["abc", "3.5", " "])
def test_guard_env_malformed_names_variable(monkeypatch, value):
    monkeypatch.setenv(ENV_MAX_RANK, value)
    with pytest.raises(ValueError) as info:
        check_rank(3)
    assert ENV_MAX_RANK in str(info.value)
    assert repr(value) in str(info.value)


LAM3 = Weight.parse("5,2,1")
W3 = Perm.parse("2 1 3")
GUARDED = {
    "all_perms": lambda: list(all_perms(3)),
    "orbit": lambda: orbit(LAM3),
    "dot_orbit": lambda: dot_orbit(LAM3),
    "same_block": lambda: same_block(LAM3, LAM3),
    "subset_sum_P": lambda: subset_sum_P(3),
    "subset_sum_Pw": lambda: subset_sum_Pw(W3),
    "ext_neg": lambda: ext_neg(3),
    "subset_sum_P_by_enumeration": lambda: subset_sum_P_by_enumeration(3),
    "linkage_check": lambda: linkage_check(LAM3, W3),
    "restriction_flag": lambda: restriction_flag(LAM3, W3),
    "res_block_mult": lambda: res_block_mult(LAM3, W3),
    "induction_flag": lambda: induction_flag(LAM3, W3),
    "ind_block_mult": lambda: ind_block_mult(LAM3, W3),
    "ind_block_mult_split": lambda: ind_block_mult_split(LAM3, W3),
}


@pytest.mark.parametrize("call", GUARDED.values(), ids=GUARDED.keys())
def test_every_sweep_guards_its_own_rank(monkeypatch, call):
    # The environment variable is the only override, so each public function
    # that enumerates S_n or the subset sums must refuse by itself.
    monkeypatch.setenv(ENV_MAX_RANK, "2")
    with pytest.raises(GuardError):
        call()
