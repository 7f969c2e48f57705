"""A per-test time limit, a checker of the ruling-set stage invariants, and
broken ruling-set constructions that the locality oracle must reject."""

import contextlib
import dataclasses
import signal

import numpy as np
import pytest

from linemeet import ruling
from linemeet.ruling import EsColState, verify_limited_ruling_set

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

    def peeking(self):
        honest(self)
        self.member_colors[:] = self.labels[-1] % 17 + 1

    monkeypatch.setattr(EsColState, "_run", peeking)


@dataclasses.dataclass
class InvariantChecks:
    """How many doubling stages and greedy extensions were checked."""

    stages: int = 0
    extensions: int = 0


@contextlib.contextmanager
def _checked_ruling_builds():
    """Check every doubling stage and greedy extension the ruling-set
    builders run inside the block with the replay oracle, failing on a
    breach; yields the running counts.

    A stage's output is a (reach + 1, reach) ruling set of its input.  An
    extension's input set covers its universe within ``cap - 1``, and its
    output keeps spacing R and covers the universe within R - 1.  The sets
    an extension sees may hold members of earlier classes outside its
    universe, so the oracle's universe is the union of both.
    """
    seen = InvariantChecks()
    stage, extend = ruling._stage, ruling._greedy_extend

    def checked_stage(s, labels, reach, palette, base):
        kept, kept_labels = stage(s, labels, reach, palette, base)
        check = verify_limited_ruling_set(s, kept, reach + 1, reach)
        assert check, (f"doubling stage at reach {reach}", check.failure,
                       check.witness)
        seen.stages += 1
        return kept, kept_labels

    def check_extension(coords, members, R, covering, when):
        check = verify_limited_ruling_set(np.union1d(coords, members),
                                          members, R, covering)
        assert check, (f"greedy extension {when}", check.failure,
                       check.witness)

    def checked_extend(coords, labels, committed, R, iterations, cap):
        check_extension(coords, committed, R, cap - 1, "start")
        grown = extend(coords, labels, committed, R, iterations, cap)
        check_extension(coords, grown, R, R - 1, "end")
        seen.extensions += 1
        return grown

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ruling, "_stage", checked_stage)
        mp.setattr(ruling, "_greedy_extend", checked_extend)
        yield seen


@pytest.fixture(scope="session")
def ruling_invariants():
    """A context manager that checks the ruling-set stage invariants within
    its block (see :func:`_checked_ruling_builds`).  Session-scoped, so
    Hypothesis tests may take it and enter it once per example."""
    return _checked_ruling_builds
