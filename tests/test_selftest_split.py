"""The criteria's fork-join split: the same results as one process, the
serial exception order, and no child left behind."""

import os
import signal
import threading
import time

import pytest

import qblocks.selftest as selftest
from qblocks.charring import k_dim


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the forks made while the test runs."""
    made = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def _cpus(monkeypatch, count):
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: count)


def _result(res):
    return res.passed, res.cases, res.detail


SPLIT_CRITERIA = [
    (selftest.check_linkage, {"max_n": 4}),
    (selftest.check_restriction_mult, {"max_n": 4}),
    (selftest.check_induction_mult, {"max_n": 4}),
    (selftest.check_flag_oracle, {"max_n": 4}),
    # Its shift identity has 33 cases up to n = 4, too few to split.
    (selftest.check_multiset_identity, {"max_n": 5}),
    (selftest.check_orbit_maximality, {"max_n": 4}),
    (selftest.check_property_suite, {"cases_each": 20}),
]


@pytest.mark.parametrize(
    "check, kwargs", SPLIT_CRITERIA, ids=[c.__name__ for c, _ in SPLIT_CRITERIA]
)
def test_split_and_serial_criteria_agree(monkeypatch, forks, check, kwargs):
    _cpus(monkeypatch, 1)
    serial = check(**kwargs)
    assert not forks
    _cpus(monkeypatch, 2)
    split = check(**kwargs)
    assert len(forks) == 1
    assert _result(split) == _result(serial)
    assert split.passed


def test_property_families_draw_the_serial_values(monkeypatch, forks):
    # Every case reports the next value its family's generator draws, so the
    # merged lists show that each generator runs in case order on its side.
    families = ["_property_leq", "_property_actions", "_property_defect",
                "_property_extraction"]
    for name in families:
        monkeypatch.setattr(selftest, name, lambda rng, name=name: f"{rng.random()}")
    merged = []
    fork_join = selftest._fork_join

    def recording(*args, **kwargs):
        merged.append(fork_join(*args, **kwargs))
        return merged[-1]

    monkeypatch.setattr(selftest, "_fork_join", recording)
    _cpus(monkeypatch, 1)
    selftest.check_property_suite(cases_each=20)
    _cpus(monkeypatch, 2)
    selftest.check_property_suite(cases_each=20)
    assert len(forks) == 1
    serial, split = merged
    assert split == serial and len(set(serial)) == 80


def test_small_criteria_stay_in_one_process(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    assert selftest.check_restriction_mult(max_n=3).cases == 24
    assert selftest.check_property_suite(cases_each=10).cases == 40
    assert not forks


def test_no_fork_while_another_thread_runs(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        res = selftest.check_restriction_mult(max_n=4)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert res.passed and res.cases == 96
    assert not forks


def test_wrong_multiplicity_on_the_child_side_is_reported(monkeypatch, forks):
    cases = selftest._sweep(5, 4, 3, selftest.DEFAULT_SEED, 10)
    assert len(cases) == 96
    # 41 and 77 are odd, so the forked process evaluates them; 41 comes first.
    _, bad_lam, bad_w = cases[41]
    wrong = {(lam, w) for _, lam, w in (cases[41], cases[50], cases[77])}
    orig = selftest.res_block_mult

    def wrong_on_three(lam, w):
        got = orig(lam, w)
        return got + 1 if (lam, w) in wrong else got

    monkeypatch.setattr(selftest, "res_block_mult", wrong_on_three)
    _cpus(monkeypatch, 1)
    serial = selftest.check_restriction_mult(max_n=4)
    _cpus(monkeypatch, 2)
    split = selftest.check_restriction_mult(max_n=4)
    assert len(forks) == 1
    assert _result(split) == _result(serial)
    n = bad_lam.rank
    assert split.cases == 96 and not split.passed
    assert split.detail == (
        f"n={n} lambda={bad_lam} w={bad_w}: {k_dim(n) + 1} != {k_dim(n)}"
    )


def _raising_at(errors):
    """A case function over range(100) that raises errors[i] at case i."""

    def case(i):
        if i in errors:
            raise errors[i]
        return None

    return case


@pytest.mark.parametrize(
    "errors, want",
    [
        # Child side (odd) first, then this process's side (even).
        ({7: ArithmeticError("seven"), 10: ValueError("ten")}, ArithmeticError),
        ({4: ValueError("four"), 7: ArithmeticError("seven")}, ValueError),
        ({91: ArithmeticError("ninety-one")}, ArithmeticError),
        ({2: KeyError("two")}, KeyError),
    ],
)
def test_lowest_raising_case_wins(monkeypatch, forks, errors, want):
    _cpus(monkeypatch, 2)
    first = errors[min(errors)]
    with pytest.raises(want) as got:
        selftest._fork_join(_raising_at(errors), range(100))
    assert type(got.value) is want and got.value.args == first.args
    assert len(forks) == 1


@pytest.mark.parametrize(
    "die, status",
    [
        (lambda: os._exit(5), "5"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"-{int(signal.SIGKILL)}"),
    ],
    ids=["exit", "killed"],
)
def test_child_that_dies_without_a_result_names_its_status(
    monkeypatch, forks, die, status
):
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def case(i):
        if i == 9 and os.getpid() != caller:
            die()
        return None

    with pytest.raises(
        RuntimeError, match=f"exited with status {status} before reporting"
    ):
        selftest._fork_join(case, range(100))
    assert len(forks) == 1


class _TwoArgumentError(Exception):
    def __init__(self, what, where):
        super().__init__(what)  # args lose `where`: unpickling fails


def test_exception_that_does_not_survive_pickling(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^case 9 raised _TwoArgumentError"):
        selftest._fork_join(_raising_at({9: _TwoArgumentError("x", "y")}), range(100))
    assert len(forks) == 1


class _Interrupt(BaseException):
    pass


def test_child_is_killed_when_the_caller_is_interrupted(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    caller = os.getpid()

    def case(i):
        if os.getpid() != caller:
            time.sleep(60)  # the child is still busy when the caller stops
        if i == 4:
            raise _Interrupt
        return None

    start = time.monotonic()
    with pytest.raises(_Interrupt):
        selftest._fork_join(case, range(100))
    assert time.monotonic() - start < 30  # not the child's 60 s
    assert len(forks) == 1


def test_calling_process_does_part_of_criterion_1(monkeypatch):
    _cpus(monkeypatch, 2)
    orig = selftest.linkage_check
    here = []

    def counting(lam, w):
        here.append((lam, w))
        return orig(lam, w)

    monkeypatch.setattr(selftest, "linkage_check", counting)
    res = selftest.check_linkage(max_n=3)
    assert res.passed and res.cases == 80
    assert 0 < len(here) < res.cases
