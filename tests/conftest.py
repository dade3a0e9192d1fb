import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the slowest test takes a few seconds; a test that runs this long hangs
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that neither the test nor Hypothesis, which
    would rerun a failing example to shrink it, can catch it."""


def _overrun(signum, frame):
    raise TimeLimitExceeded(f"the test ran past its limit of {TIME_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs longer than TIME_LIMIT_S, where SIGALRM
    exists, instead of letting it hang the suite."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
