"""Red criteria: a failing case is reported, every case still runs, and the
selftest command and run_all see the failure."""

import collections
import os

import pytest

import qblocks.selftest as selftest
from qblocks.charring import k_dim
from qblocks.cli import main


def _res_block_mult_wrong_on(monkeypatch, calls):
    """Make res_block_mult off by one on the given 1-based calls and return
    the list of arguments it is called with."""
    orig = selftest.res_block_mult
    seen = []

    def patched(lam, w):
        seen.append((lam, w))
        got = orig(lam, w)
        return got + 1 if len(seen) in calls else got

    monkeypatch.setattr(selftest, "res_block_mult", patched)
    return seen


def test_red_criterion_counts_every_case_and_reports_the_first(monkeypatch):
    green = selftest.check_restriction_mult(max_n=3)
    assert green.passed and green.cases == 24
    seen = _res_block_mult_wrong_on(monkeypatch, {5, 9})
    red = selftest.check_restriction_mult(max_n=3)
    assert not red.passed
    assert red.cases == green.cases == len(seen)
    lam, w = seen[4]
    n = lam.rank
    assert red.detail == f"n={n} lambda={lam} w={w}: {k_dim(n) + 1} != {k_dim(n)}"
    assert red.line().startswith("FAIL criterion 2: restriction block multiplicity")


def test_red_criterion_fails_the_selftest_command(monkeypatch, capsys):
    _res_block_mult_wrong_on(monkeypatch, {5, 9})
    code = main(["selftest", "--max-n", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[1].startswith("FAIL criterion 2:")
    assert sum(line.startswith("PASS") for line in lines) == 8
    assert lines[-1] == "FAILED: 8/9 criteria passed"


def test_run_all_looks_criteria_up_at_call_time(monkeypatch):
    # A wrapper installed on the module attribute must see the call.
    stub = selftest.CriterionResult(8, "stub", True, 0, 0.0, "stub")
    monkeypatch.setattr(selftest, "check_thick_dim", lambda max_n=None: stub)
    assert selftest.run_all(max_n=2)[7] is stub


def test_wrong_raw_induction_multiplicity_turns_criterion_3_red(monkeypatch):
    green = selftest.check_induction_mult(max_n=3)
    assert green.passed and green.cases == 24
    orig = selftest.ind_block_mult
    monkeypatch.setattr(selftest, "ind_block_mult", lambda lam, w: 2 * orig(lam, w))
    red = selftest.check_induction_mult(max_n=3)
    assert not red.passed and red.cases == green.cases
    # The first case is n = 2, where the raw count 2 doubles to 4 and the
    # split follows it to 2.
    assert red.detail.endswith("raw=4 (want 2) split=2 (want 1)")
    assert red.line().startswith("FAIL criterion 3:")


def test_broken_parity_split_turns_criterion_3_red(monkeypatch):
    # No halving at even rank: the raw count passes, the split does not.
    monkeypatch.setattr(selftest, "_parity_split", lambda raw, n: raw)
    red = selftest.check_induction_mult(max_n=3)
    assert not red.passed and red.cases == 24
    assert red.detail.startswith("n=2 ")
    assert red.detail.endswith("raw=2 (want 2) split=2 (want 1)")


def test_odd_raw_multiplicity_at_even_rank_stops_criterion_3(monkeypatch):
    monkeypatch.setattr(selftest, "ind_block_mult", lambda lam, w: 3)
    with pytest.raises(ArithmeticError, match="odd raw multiplicity 3 cannot split"):
        selftest.check_induction_mult(max_n=2)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: count)


def test_criterion_1_splits_by_weight(monkeypatch):
    # The caller builds the orbit keys of the weights it runs, so it must run
    # every case of a weight or none of them, and half the weights of a rank.
    _cpus(monkeypatch, 2)
    caller = os.getpid()
    orig = selftest._linkage_case
    here = []

    def recording(case):
        if os.getpid() == caller:
            here.append(case)
        return orig(case)

    monkeypatch.setattr(selftest, "_linkage_case", recording)
    res = selftest.check_linkage(max_n=4)
    assert res.passed and res.cases == 320
    seen = collections.Counter(lam for _, lam, _ in here)
    per_rank = collections.Counter(lam.rank for lam in seen)
    sweep = selftest._sweep(6, 4, 10, selftest.DEFAULT_SEED, 1)
    total = collections.Counter(lam for _, lam, _ in sweep)
    assert all(seen[lam] == total[lam] for lam in seen)
    assert per_rank == {2: 5, 3: 5, 4: 5}


# The gate at --max-n 5: (passed, cases, detail) for criteria 1 to 9.
GATE_AT_5 = [
    (True, 1520, "all singletons"),
    (True, 456, "all equal k_dim(n)"),
    (True, 456, "all equal"),
    (True, 96, "routes agree"),
    (True, 306, "identity holds"),
    (True, 9, "masses and supports agree"),
    (True, 456, "all below"),
    (True, 18, "all counts agree"),
    (True, 4000, "no failures"),
]


def test_gate_at_rank_5_on_one_and_two_cpus(monkeypatch):
    results = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        results.append(
            [(r.passed, r.cases, r.detail) for r in selftest.run_all(seed=0, max_n=5)]
        )
    assert results[0] == results[1] == GATE_AT_5


def test_property_suite_passes_at_twenty_seeds():
    for seed in range(20):
        res = selftest.check_property_suite(seed=seed, cases_each=50)
        assert (res.passed, res.cases, res.detail) == (True, 200, "no failures"), seed
