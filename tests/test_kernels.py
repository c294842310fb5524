"""The packed-key kernels against their earlier form, which ran every
product in lexicographic root order and re-sorted a set of the whole
support on each geometric pass.  Truncated products commute, so the root
order must not change any table or quotient."""

import random

import pytest

from qblocks.charring import _offset_table, _Packing, full_support_height
from qblocks.kernels._pykernels import binomial_product, geometric_product


def _binomial_oracle(acc, vecs, bound, hshift, sign=1):
    for v in vecs:
        hv = v >> hshift
        out = dict(acc)
        for k, c in acc.items():
            if (k >> hshift) + hv <= bound:
                out[k + v] = out.get(k + v, 0) + sign * c
        acc = {k: c for k, c in out.items() if c}
    return acc


def _geometric_oracle(acc, vecs, bound, hshift, sign=1):
    for v in vecs:
        hv = v >> hshift
        keys = set(acc)
        frontier = list(acc)
        while frontier:
            grown = []
            for k in frontier:
                if (k >> hshift) + hv <= bound and k + v not in keys:
                    keys.add(k + v)
                    grown.append(k + v)
            frontier = grown
        out = {}
        for k in sorted(keys):
            c = acc.get(k, 0) + sign * out.get(k - v, 0)
            if c:
                out[k] = c
        acc = out
    return acc


def _lex_table(n, bound, super_blocks):
    pk = _Packing(n, bound)
    roots = pk.packed_positive_roots()  # lexicographic in (i, j)
    start = {0: 1}
    if super_blocks:
        start = _binomial_oracle(start, roots, bound, pk.hshift)
    return _geometric_oracle(start, roots, bound, pk.hshift)


def _bounds(n):
    return sorted({0, 1, 3, full_support_height(n)})


@pytest.mark.parametrize("super_blocks", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_offset_table_matches_lex_order_oracle(n, super_blocks):
    for bound in _bounds(n):
        table = _offset_table(n, bound, super_blocks)
        assert dict(table) == _lex_table(n, bound, super_blocks), bound


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_division_sweeps_in_shuffled_orders_agree(n):
    # The division's two sweeps with sign -1, on both table kinds: the
    # Verma table divided by P has mixed signs, so cancellation is covered.
    rng = random.Random(n)
    for bound in _bounds(n):
        pk = _Packing(n, bound)
        roots = pk.packed_positive_roots()
        for super_table in (False, True):
            table = _offset_table(n, bound, super_table)
            times_denominator = _binomial_oracle(table, roots, bound, pk.hshift, -1)
            quotient = _geometric_oracle(
                times_denominator, roots, bound, pk.hshift, -1
            )
            for _ in range(3):
                order = rng.sample(roots, len(roots))
                got = binomial_product(table, order, bound, pk.hshift, sign=-1)
                assert got == times_denominator, (bound, super_table, order)
                order = rng.sample(roots, len(roots))
                got = geometric_product(got, order, bound, pk.hshift, sign=-1)
                assert got == quotient, (bound, super_table, order)


@pytest.mark.parametrize("sign", [1, -1])
def test_kernels_from_an_unsorted_mixed_sign_start(sign):
    n, bound = 4, 8
    pk = _Packing(n, bound)
    roots = pk.packed_positive_roots()
    rng = random.Random(sign)
    keys = list(_offset_table(n, bound, True))
    for _ in range(20):
        start = {k: rng.choice((-2, -1, 1, 3)) for k in rng.sample(keys, 30)}
        assert list(start) != sorted(start)
        order = rng.sample(roots, len(roots))
        want = _geometric_oracle(start, roots, bound, pk.hshift, sign)
        assert geometric_product(start, order, bound, pk.hshift, sign) == want
        want = _binomial_oracle(start, roots, bound, pk.hshift, sign)
        got = binomial_product(start, order, bound, pk.hshift, sign)
        assert got == want
        assert all(got.values())
