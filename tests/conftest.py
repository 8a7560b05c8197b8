import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Every process a test starts, directly or through cetsim, is reaped by
    the time it ends: a running child or an unreaped zombie fails it."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave ({pid}, {status})")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` makes during the test."""
    pids = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids
