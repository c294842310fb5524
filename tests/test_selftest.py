"""Red criteria: a failing case is reported, every case still runs, and the
selftest command and run_all see the failure."""

import collections
import json
import os
import random

import pytest

import qblocks._fork as _fork
import qblocks.filtration as filtration
import qblocks.selftest as selftest
from qblocks.charring import full_support_height, k_dim
from qblocks.cli import main


def _res_block_mult_wrong_on(monkeypatch, calls):
    """Make the restriction multiplicity of filtration._block_mults off by
    one on the given 1-based calls and return the list of arguments it is
    called with."""
    orig = filtration._block_mults
    seen = []

    def patched(lam, w):
        seen.append((lam, w))
        res, raw = orig(lam, w)
        return res + 1 if len(seen) in calls else res, raw

    monkeypatch.setattr(filtration, "_block_mults", patched)
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
    orig = filtration._block_mults

    def doubled_raw(lam, w):
        res, raw = orig(lam, w)
        return res, 2 * raw

    monkeypatch.setattr(filtration, "_block_mults", doubled_raw)
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
    monkeypatch.setattr(filtration, "_block_mults", lambda lam, w: (1, 3))
    with pytest.raises(ArithmeticError, match="odd raw multiplicity 3 cannot split"):
        selftest.check_induction_mult(max_n=2)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: count)


def test_criterion_4_cycles_through_every_height(monkeypatch):
    # Each rank's cases cycle through the heights 0..H: 2 + 5 + 11 = 18
    # (rank, height) pairs up to n = 4, each rank's full height among them.
    orig = filtration.verma_flag_extract
    seen = collections.Counter()

    def recording(char, trunc, super_blocks=False):
        seen[trunc.base.rank, trunc.bound] += 1
        return orig(char, trunc, super_blocks)

    monkeypatch.setattr(filtration, "verma_flag_extract", recording)
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


def _record_routes(monkeypatch):
    """Log the start and the return of each flag route, in order."""
    log = []
    for name in ("verma_flag_extract", "restriction_flag"):
        orig = getattr(filtration, name)

        def recording(*args, orig=orig, name=name):
            log.append(f"{name} starts")
            got = orig(*args)
            log.append(f"{name} returns")
            return got

        monkeypatch.setattr(filtration, name, recording)
    return log


_ROUTES_IN_ORDER = [
    "verma_flag_extract starts", "verma_flag_extract returns",
    "restriction_flag starts", "restriction_flag returns",
]


def test_the_division_returns_before_the_direct_flag_starts(monkeypatch, capsys):
    log = _record_routes(monkeypatch)
    assert main(["flag", "--lambda", "5,2,1", "--w", "2 1 3"]) == 0
    capsys.readouterr()
    assert log == _ROUTES_IN_ORDER
    del log[:]
    res = selftest.check_flag_oracle(max_n=2)
    assert res.passed and res.cases == 6
    assert log == 6 * _ROUTES_IN_ORDER


def test_flag_and_criterion_4_share_one_routine(monkeypatch, capsys):
    # Routes that disagree, patched once, turn both a flag row and a
    # criterion 4 case red.
    def disagreeing(lam, w, height):
        return filtration.FlagMultiset({lam: 1}), filtration.FlagMultiset()

    monkeypatch.setattr(filtration, "_flag_routes", disagreeing)
    assert main(["flag", "--lambda", "3,1", "--w", "2 1"]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["match"] is False
    assert (row["extracted"], row["direct"]) == ([{"weight": "3,1", "mult": 1}], [])
    red = selftest.check_flag_oracle(max_n=2)
    assert not red.passed and red.cases == 6
    assert red.detail.startswith("n=2 ") and red.detail.endswith("FlagMultiset({})")


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
    # Every way to ask for the CPU count raises, so a report that matches
    # cannot depend on it: one run stands for one CPU and for two.
    def no_count(*args):
        raise AssertionError("the gate asked for the CPU count")

    monkeypatch.setattr(_fork, "_usable_cpus", no_count)
    monkeypatch.setattr(os, "sched_getaffinity", no_count, raising=False)
    monkeypatch.setattr(os, "cpu_count", no_count)
    results = selftest.run_all(seed=0, max_n=5)
    assert [(r.passed, r.cases, r.detail) for r in results] == GATE_AT_5


def test_gate_makes_no_fork_on_two_cpus(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    results = selftest.run_all(max_n=4)
    assert [r.number for r in results if r.passed] == list(range(1, 10))
    assert not forks


def test_property_families_walk_one_generator_in_order(monkeypatch):
    # Each family records its name and one draw; the suite must take them
    # from one generator seeded once, family by family.
    families = ["_property_leq", "_property_actions", "_property_defect",
                "_property_extraction"]
    drawn = []
    for name in families:
        monkeypatch.setattr(
            selftest, name, lambda rng, name=name: drawn.append((name, rng.random()))
        )
    res = selftest.check_property_suite(seed=5, cases_each=3)
    assert (res.passed, res.cases) == (True, 12)
    rng = random.Random(5)
    assert drawn == [(name, rng.random()) for name in families for _ in range(3)]


def test_property_suite_passes_at_twenty_seeds():
    for seed in range(20):
        res = selftest.check_property_suite(seed=seed, cases_each=50)
        assert (res.passed, res.cases, res.detail) == (True, 200, "no failures"), seed
