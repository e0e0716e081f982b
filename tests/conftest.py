import contextlib
import signal

import pytest


class CallTimeout(BaseException):
    """Raised by SIGALRM in a call that ran past its limit; a BaseException,
    so no ``except Exception`` in the package swallows it."""


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails the test once the block runs longer."""

    @contextlib.contextmanager
    def limit(seconds):
        def on_alarm(signum, frame):
            raise CallTimeout(f"call ran past {seconds} s")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return limit
