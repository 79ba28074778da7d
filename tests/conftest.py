"""Test-wide settings: property tests draw the same examples on every run,
and a test that runs for 300 s fails instead of hanging the run."""

import signal

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def time_limit():
    """A SIGALRM guard on every test.  The elimination engine's helper
    process (pfhaf.fraction_free._HELPER) serves every test in this
    process, so a deadlock in the order of its messages could otherwise
    hang any test that reaches a helper threshold."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def hung(signum, frame):
        raise TimeoutError("the test ran for 300 s: a message-order deadlock?")

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(300)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)
