import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Count the forks made while the test runs, and check afterwards that
    every child was reaped."""
    made = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
