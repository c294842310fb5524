"""Weight arithmetic, predicates, and the root-cone partial order."""

import itertools
from fractions import Fraction

import pytest

from qblocks.lattice import (
    Root,
    Weight,
    classify,
    height,
    leq,
    positive_roots,
    rho,
    simple_root_coefficients,
    weight_from_simple_coefficients,
)


def test_parse_round_trip():
    for text in ("3,1", "1/2,-1/2", "0,0,0", "-7/3,2,5"):
        assert str(Weight.parse(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Weight.parse("")
    with pytest.raises(ValueError, match="malformed"):
        Weight.parse("1,two")
    with pytest.raises(ValueError, match="malformed"):
        Weight.parse("1/0")


def test_coords_are_exact_rationals():
    w = Weight.parse("1/2,-1/2")
    assert w.coords == (Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("value", [3, "3", "4/2", Fraction(6, 2)])
def test_integral_coordinates_are_stored_as_int(value):
    (c,) = Weight([value]).coords
    assert type(c) is int
    assert c == Fraction(value)


def test_non_integral_coordinate_stays_fraction():
    (c,) = Weight(["1/2"]).coords
    assert type(c) is Fraction
    assert c == Fraction(1, 2)


def test_fraction_coordinates_are_kept_not_copied():
    half, three = Fraction(1, 2), Fraction(6, 2)
    w = Weight([half, three, Fraction(-7, 3), 4])
    assert w.coords[0] is half
    assert [type(c) for c in w.coords] == [Fraction, int, Fraction, int]
    assert w.coords == (Fraction(1, 2), 3, Fraction(-7, 3), 4)
    assert w == Weight.parse("1/2,3,-7/3,4")
    assert hash(w) == hash(Weight.parse("1/2,3,-7/3,4"))
    assert str(w) == "1/2,3,-7/3,4"


def test_half_integral_sum_collapses_to_int():
    total = Weight.parse("1/2") + Weight.parse("1/2")
    (c,) = total.coords
    assert type(c) is int and c == 1
    assert total == Weight([1])
    assert hash(total) == hash(Weight([1]))
    assert {total: "x"}[Weight([1])] == "x"


def test_mixed_int_and_fraction_str_and_order():
    w = Weight([3, Fraction(-1, 2), 0])
    assert [type(c) for c in w.coords] == [int, Fraction, int]
    assert str(w) == "3,-1/2,0"
    assert repr(w) == "Weight('3,-1/2,0')"
    weights = [Weight.parse(t) for t in ("1,1/2", "1/2,3", "1,-1/2", "-1/2,7")]
    want = sorted(weights, key=lambda x: tuple(Fraction(c) for c in x.coords))
    assert sorted(weights) == want
    assert [str(x) for x in want] == ["-1/2,7", "1/2,3", "1,-1/2", "1,1/2"]
    assert Weight.parse("1/2,3") < Weight.parse("1,-1/2")
    assert Weight.parse("1,-1/2") <= Weight([1, Fraction(-1, 2)])


def test_arithmetic():
    a = Weight.parse("3,1")
    b = Weight.parse("1,-1")
    assert a + b == Weight.parse("4,0")
    assert a - b == Weight.parse("2,2")
    assert -b == Weight.parse("-1,1")
    assert a - a == Weight.zero(2)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        Weight.parse("1,2") + Weight.parse("1,2,3")


def test_weights_hash_by_value():
    seen = {Weight.parse("2/4,-1/2"): "x"}
    assert seen[Weight.parse("1/2,-2/4")] == "x"


def test_positive_roots_n3():
    assert [(r.i, r.j) for r in positive_roots(3)] == [(1, 2), (1, 3), (2, 3)]


def test_positive_roots_n1_empty():
    assert positive_roots(1) == []


def test_root_as_weight():
    assert Root(1, 3).as_weight(3) == Weight.parse("1,0,-1")


def test_rho_values():
    assert rho(2) == Weight.parse("1/2,-1/2")
    assert rho(3) == Weight.parse("1,0,-1")
    assert rho(1) == Weight.parse("0")


@pytest.mark.parametrize("n", range(1, 9))
def test_rho_is_half_root_sum(n):
    total = Weight.zero(n)
    for r in positive_roots(n):
        total = total + r.as_weight(n)
    assert rho(n) + rho(n) == total


def test_classify_all_true():
    rep = classify(Weight.parse("3,1"))
    assert (rep.integral, rep.dominant, rep.regular, rep.typical,
            rep.strongly_typical) == (True, True, True, True, True)


def test_classify_zero_coordinate_breaks_strong_typicality():
    rep = classify(Weight.parse("2,0"))
    assert rep.typical
    assert not rep.strongly_typical


def test_classify_repeated_coordinate_not_regular():
    rep = classify(Weight.parse("1,1,0"))
    assert not rep.regular


def test_classify_half_integers():
    # Integer differences are not enough: integrality is coordinate-wise.
    rep = classify(Weight.parse("1/2,-1/2"))
    assert not rep.integral
    assert not rep.dominant
    assert rep.regular
    assert not rep.typical


def test_classify_implications():
    for coords in ((3, 1), (2, 0), (1, 1, 0), (0, 0), (5, 2, 1), (-1, -2)):
        rep = classify(Weight(coords))
        assert not rep.strongly_typical or rep.typical
        assert not rep.dominant or rep.integral


def test_leq_single_root():
    zero = Weight.zero(2)
    assert leq(zero, Weight.parse("1,-1"))
    assert not leq(zero, Weight.parse("-1,1"))


def test_leq_across_orbit():
    assert leq(Weight.parse("0,4"), Weight.parse("3,1"))


def test_leq_rejects_non_integer_difference():
    assert not leq(Weight.parse("0,0"), Weight.parse("1/2,-1/2"))


def _cone_points(n, bound):
    """All nonnegative root combinations with coefficients <= bound."""
    roots = [r.as_weight(n) for r in positive_roots(n)]
    points = set()
    for combo in itertools.product(range(bound + 1), repeat=len(roots)):
        total = Weight.zero(n)
        for c, r in zip(combo, roots):
            for _ in range(c):
                total = total + r
        points.add(total)
    return points


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leq_matches_brute_force(n):
    # Coefficient bound 5 covers every difference with coordinates in
    # [-2,2]: prefix sums there never exceed min(2k, 2(n-k)) <= 4.
    cone = _cone_points(n, 5)
    lam = Weight.zero(n)
    for coords in itertools.product(range(-2, 3), repeat=n):
        mu = Weight(coords)
        assert leq(lam, mu) == ((mu - lam) in cone), mu


def test_simple_root_coefficients():
    assert simple_root_coefficients(Weight.parse("1,-1")) == (1,)
    assert simple_root_coefficients(Weight.parse("1,0,-1")) == (1, 1)
    assert simple_root_coefficients(Weight.parse("2,0,-2")) == (2, 2)
    # the whole root lattice decomposes, not only the positive cone
    assert simple_root_coefficients(Weight.parse("-1,1")) == (-1,)


def test_simple_root_coefficients_rejects_non_lattice_input():
    with pytest.raises(ValueError):
        simple_root_coefficients(Weight.parse("1,0"))
    with pytest.raises(ValueError):
        simple_root_coefficients(Weight.parse("1/2,-1/2"))


def test_coefficients_round_trip():
    v = Weight.parse("3,-1,-2")
    assert weight_from_simple_coefficients(3, simple_root_coefficients(v)) == v


def test_height_values():
    assert height(Weight.parse("1,-1")) == 1
    assert height(Weight.parse("1,0,-1")) == 2
    assert height(Weight.parse("2,0,-2")) == 4


def test_height_additive():
    a = Weight.parse("1,0,-1")
    b = Weight.parse("1,-1,0")
    assert height(a + b) == height(a) + height(b)


def test_height_rejects_outside_cone():
    with pytest.raises(ValueError):
        height(Weight.parse("-1,1"))
