"""Rejection sampler for admissible weights."""

import itertools
import types

import pytest

import qblocks.sampling as sampling
from qblocks.lattice import classify
from qblocks.sampling import _admissible_count, sample_weights


def test_sampler_is_deterministic():
    a = sample_weights(4, 5, seed=123)
    b = sample_weights(4, 5, seed=123)
    assert a == b


def test_sampler_seeds_differ():
    assert sample_weights(4, 5, seed=1) != sample_weights(4, 5, seed=2)


def test_samples_satisfy_every_predicate():
    for n in range(2, 7):
        for lam in sample_weights(n, 8, seed=n):
            rep = classify(lam)
            assert rep.integral and rep.dominant and rep.regular
            assert rep.strongly_typical


def test_samples_are_distinct():
    got = sample_weights(3, 10, seed=0)
    assert len(set(got)) == 10


def test_sample_bounds_respected():
    for lam in sample_weights(3, 6, seed=9, lo=-4, hi=4):
        assert all(-4 <= c <= 4 for c in lam.coords)


def test_too_small_population_raises():
    with pytest.raises(ValueError):
        sample_weights(5, 1, seed=0, lo=-1, hi=1)


def test_unsatisfiable_range_raises():
    # every 2-subset of {-1,0,1} has a zero pair sum, so nothing survives
    with pytest.raises(RuntimeError):
        sample_weights(2, 1, seed=0, lo=-1, hi=1)


def test_admissible_count_matches_enumeration():
    for n in range(1, 6):
        for lo in range(-5, 4):
            for hi in range(lo, lo + 9):
                values = range(lo, hi + 1)
                want = sum(
                    1
                    for c in itertools.combinations(values, n)
                    if not any(a + b == 0 for a in c for b in c)
                )
                assert _admissible_count(n, lo, hi) == want, (n, lo, hi)


def test_impossible_count_raises_before_drawing(monkeypatch):
    # The default rank-2 range -7..7 holds exactly 84 admissible weights.
    def never(seed):
        raise AssertionError("sampler drew before refusing")

    monkeypatch.setattr(sampling, "random", types.SimpleNamespace(Random=never))
    with pytest.raises(RuntimeError, match="only 84 admissible"):
        sample_weights(2, 85)


def test_every_admissible_weight_can_be_drawn():
    got = sample_weights(2, 84)
    assert len(set(got)) == 84
