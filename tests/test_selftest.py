"""Red criteria: a failing case is reported, every case still runs, and the
selftest command and run_all see the failure."""

import collections

import pytest

import qblocks._fork as _fork
import qblocks.filtration as filtration
import qblocks.selftest as selftest
from qblocks.charring import full_support_height, k_dim
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
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: count)


def test_criterion_4_cycles_through_every_height(monkeypatch):
    # Each rank's cases cycle through the heights 0..H: 2 + 5 + 11 = 18
    # (rank, height) pairs up to n = 4, each rank's full height among them.
    orig = selftest.verma_flag_extract
    seen = collections.Counter()

    def recording(char, trunc, super_blocks=False):
        seen[trunc.base.rank, trunc.bound] += 1
        return orig(char, trunc, super_blocks)

    monkeypatch.setattr(selftest, "verma_flag_extract", recording)
    res = selftest.check_flag_oracle()
    assert res.passed and res.cases == 96 == sum(seen.values())
    assert set(seen) == {
        (n, h) for n in (2, 3, 4) for h in range(full_support_height(n) + 1)
    }


def test_wrong_quotient_below_full_height_turns_criterion_4_red(monkeypatch):
    # Doubling the cached quotient below full height keeps it nonnegative and
    # divisible, so extraction returns twice the flag without raising.  A
    # criterion run at full height only would never reach the mutation.
    orig = filtration._table_quotient

    def doubled_below_full_height(n, bound, super_table, super_blocks):
        q = orig(n, bound, super_table, super_blocks)
        return q if bound == full_support_height(n) else {k: 2 * c for k, c in q.items()}

    monkeypatch.setattr(filtration, "_table_quotient", doubled_below_full_height)
    red = selftest.check_flag_oracle(max_n=3)
    assert not red.passed and red.cases == 24
    assert red.detail.startswith("n=2 ") and " height=0: " in red.detail


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
