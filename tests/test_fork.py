"""The fork-join split of the sweeps' --workers, _fork.fork_map: the same
results as one process, the serial exception order, and no child left
behind."""

import os
import signal
import threading
import time

import pytest

import qblocks._fork as _fork
from qblocks._fork import fork_map


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: count)


def test_no_fork_while_another_thread_runs(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = fork_map(lambda i: i * i, range(100), 2)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == [i * i for i in range(100)]
    assert not forks


def _raising_at(errors):
    """A case function over range(100) that raises errors[i] at case i."""

    def case(i):
        if i in errors:
            raise errors[i]
        return None

    return case


# Every test below runs fork_map at 2 and at 3 processes.
PROCS = (2, 3)


@pytest.mark.parametrize(
    "errors, want",
    [
        # A child's side first, then this process's side first: 6 and 12
        # are 0 mod 2 and mod 3, 7 is not.
        ({7: ArithmeticError("seven"), 12: ValueError("twelve")}, ArithmeticError),
        ({6: ValueError("six"), 7: ArithmeticError("seven")}, ValueError),
        ({91: ArithmeticError("ninety-one")}, ArithmeticError),
        ({2: KeyError("two")}, KeyError),
    ],
)
def test_lowest_raising_case_wins(monkeypatch, forks, errors, want):
    _cpus(monkeypatch, 3)
    first = errors[min(errors)]
    for procs in PROCS:
        with pytest.raises(want) as got:
            fork_map(_raising_at(errors), range(100), procs)
        assert type(got.value) is want and got.value.args == first.args
    assert len(forks) == sum(p - 1 for p in PROCS)


def test_first_item_runs_here_before_any_fork(monkeypatch, forks):
    _cpus(monkeypatch, 3)
    caller = os.getpid()
    cache = []

    def item(i):
        if i == 0:
            cache.append(i)  # what the children inherit
        return os.getpid() == caller, len(forks), len(cache)

    for procs in PROCS:
        del forks[:], cache[:]
        got = fork_map(item, range(10), procs)
        assert got[0] == (True, 0, 1)
        # Forked after item 0, each child still sees its cache entry.
        assert all(n == 1 for _, _, n in got)
        assert [here for here, _, _ in got] == [i % procs == 0 for i in range(10)]
        assert len(forks) == procs - 1


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
    _cpus(monkeypatch, 3)
    caller = os.getpid()

    def case(i):
        if os.getpid() != caller:
            die()
        return None

    for procs in PROCS:
        with pytest.raises(
            RuntimeError, match=f"exited with status {status} before reporting"
        ):
            fork_map(case, range(100), procs)
    assert len(forks) == sum(p - 1 for p in PROCS)


class _TwoArgumentError(Exception):
    def __init__(self, what, where):
        super().__init__(what)  # args lose `where`: unpickling fails


def test_exception_that_does_not_survive_pickling(monkeypatch, forks):
    _cpus(monkeypatch, 3)
    # 7 falls to a child at 2 and at 3 processes.
    for procs in PROCS:
        with pytest.raises(RuntimeError, match="^item 7 raised _TwoArgumentError"):
            fork_map(_raising_at({7: _TwoArgumentError("x", "y")}), range(100), procs)
    assert len(forks) == sum(p - 1 for p in PROCS)


class _Interrupt(BaseException):
    pass


def test_child_is_killed_when_the_caller_is_interrupted(monkeypatch, forks):
    _cpus(monkeypatch, 3)
    caller = os.getpid()

    def case(i):
        if os.getpid() != caller:
            # Still busy when the caller stops; exiting afterwards bounds the
            # wait if nothing kills them.
            time.sleep(60)
            os._exit(0)
        if i == 6:
            raise _Interrupt
        return None

    start = time.monotonic()
    for procs in PROCS:
        with pytest.raises(_Interrupt):
            fork_map(case, range(100), procs)
    assert time.monotonic() - start < 30  # not the children's 60 s
    assert len(forks) == sum(p - 1 for p in PROCS)
