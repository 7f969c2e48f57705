"""A per-test time limit, and broken ruling-set constructions that the
locality oracle must reject."""

import dataclasses
import signal

import pytest

from linemeet.ruling import EsColState

# seconds one test may run; a stalled loop fails its test instead of
# hanging the suite (tier-1 takes about half a minute in all)
TEST_TIME_LIMIT = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT``.

    Not an ``Exception``, and not pytest's failure either: Hypothesis
    catches both and replays the example to shrink it, which stalls again
    with no alarm left.  pytest reports this one as the test's failure.
    """


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def leaky_records(monkeypatch):
    """Records that change once the processed window reaches below -150.

    Such a record depends on labels outside its own termination radius.
    """
    honest = EsColState.output_for

    def leaky(self, position):
        out = honest(self, position)
        if self.coords[0] < -150:
            out = dataclasses.replace(out, label=out.label + 1)
        return out

    monkeypatch.setattr(EsColState, "output_for", leaky)


@pytest.fixture
def peeking_construction(monkeypatch):
    """A construction that colors every member by the label at its window's
    right end, which lies outside the ball of every node it certifies."""
    honest = EsColState._run

    def peeking(self, debug):
        honest(self, debug)
        self.member_colors[:] = self.labels[-1] % 17 + 1

    monkeypatch.setattr(EsColState, "_run", peeking)
