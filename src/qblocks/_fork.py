"""fork_map, the one way the package splits independent work over processes,
used by the sweeps' --workers alone; the acceptance gate runs in one process.
Where os.fork is missing (Windows) everything runs in the calling process.
"""

from __future__ import annotations

import os
import threading
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

_Outcome = tuple[int, object, Optional[Exception]]


def _usable_cpus() -> int:
    """The CPUs this process may run on, which taskset may set below cpu_count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate(fn: Callable, items: Sequence, share: Iterable[int]) -> list[_Outcome]:
    """(i, fn(items[i]), None) for the indices i of the share, in order,
    ending with (i, None, exception) at the first item that raises."""
    outcomes: list[_Outcome] = []
    for i in share:
        try:
            outcomes.append((i, fn(items[i]), None))
        except Exception as exc:
            outcomes.append((i, None, exc))
            break
    return outcomes


def _report(fn: Callable, items: Sequence, share: range, write_fd: int) -> None:
    """In a forked child: pickle the share's outcomes into the pipe, then exit 0."""
    import pickle

    status = 1
    try:
        devnull = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(devnull, fd)
        outcomes = _evaluate(fn, items, share)
        try:
            data = pickle.dumps(outcomes)
            pickle.loads(data)
        except Exception:
            i, _, exc = outcomes[-1]
            outcomes[-1] = (i, None, RuntimeError(f"item {i} raised {exc!r}"))
            data = pickle.dumps(outcomes)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn: Callable, items: Sequence, procs: int) -> list:
    """[fn(item) for item in items] over at most procs processes, no more
    than the items or the usable CPUs.

    This process runs item 0, so the children inherit its caches, then
    forks procs - 1; process k (this one is 0) takes the indices k mod
    procs.  It runs alone if one process is left, os.fork is missing or
    another thread runs, whose locks would stay held in a child.  Each
    process stops at its first exception, so the merge raises the
    lowest-indexed one, as a serial run would.  A child that exits without
    reporting raises RuntimeError; if this process raises, every child is
    killed and reaped.
    """
    procs = min(procs, len(items))
    if procs > 1:
        procs = min(procs, _usable_cpus())
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    # Imported here so that serial runs never load them.
    import pickle
    import signal

    outcomes: list[_Outcome] = [(0, fn(items[0]), None)]
    children = []  # (pid, read end of its pipe) until reaped
    try:
        for k in range(1, procs):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _report(fn, items, range(k, len(items), procs), write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        outcomes += _evaluate(fn, items, range(procs, len(items), procs))
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status:
                raise RuntimeError(f"a forked process exited with status {status} "
                                   "before reporting")
            outcomes += pickle.loads(data)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes.sort(key=itemgetter(0))
    for _, _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for _, result, _ in outcomes]
