"""Red criteria: a failing case is reported, every case still runs, and the
selftest command and run_all see the failure."""

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
