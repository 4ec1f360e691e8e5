import faulthandler
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# far above the slowest test (a few seconds), so only a hang reaches it
HANG_SECONDS = 60
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # taken before any test runs: while one runs, fd 2 is pytest's capture file
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """A test still running after HANG_SECONDS writes every thread's traceback
    to standard error and ends the run with a failing exit code, instead of
    hanging it."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
