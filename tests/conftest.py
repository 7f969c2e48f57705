"""A per-test time limit, checkers of the ruling-set stage invariants and of
the list coloring's taint, broken ruling-set constructions that the
locality oracle must reject, and the planted-label scheme that test
modules import."""

import contextlib
import dataclasses
import signal

import numpy as np
import pytest

from linemeet import ruling
from linemeet.localengine import _merge_schedule_cost, three_color_rounds
from linemeet.logstar import ceil_log2
from linemeet.ruling import EsColState, verify_limited_ruling_set
from linemeet.world import LabelScheme, parse_scheme, zigzag_array

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


class PlantedScheme(LabelScheme):
    """Random labels up to 1e9 with small labels planted at coordinates.

    ``plants`` maps coordinates to distinct labels; a random label equal to
    a planted one moves above 1e9.  A plant keeps the landmark search
    affordable: without one every window is top-class.  A custom scheme
    object: runs on it are cached by object identity.
    """

    name = "planted"

    def __init__(self, seed: int, plants: dict[int, int]):
        self._base = parse_scheme(f"random-injective:{seed}:1000000000")
        self._coords = np.array(list(plants), dtype=np.int64)
        self._values = np.array(list(plants.values()), dtype=np.int64)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        out = self._base.labels_at(coords)
        out = np.where(np.isin(out, self._values),
                       10**9 + zigzag_array(coords) + 1, out)
        for coord, value in zip(self._coords, self._values):
            out = np.where(coords == coord, value, out)
        return out


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


def _three_color_loop(labels, pairs, init, palette, taint):
    """Member-by-member 3-coloring of one rank-difference class, whose
    neighbor ranks are ``pairs`` (-1 for none), with each member's taint:
    a squared round reads both neighbors, ordered by label, and a folding
    sub-round the neighbors of the members at its offset."""
    c, t, m = list(init), list(taint), palette
    big = 2**63 - 1
    while m > 3:
        width = 2 * max(1, ceil_log2(max(m, 2)))
        if width * width < m:
            def entry(x, j):
                if j < 0:
                    return x & 1
                d = x ^ c[j]
                k = 62 if d == 0 else min((d & -d).bit_length() - 1, 62)
                return 2 * k + ((x >> k) & 1)

            new = []
            for i, (a, b) in enumerate(pairs):
                ea, eb = entry(c[i], a), entry(c[i], b)
                la = labels[a] if a >= 0 else big
                lb = labels[b] if b >= 0 else big
                new.append(ea * width + eb if la <= lb else eb * width + ea)
            t = [t[i] or any(t[j] for j in pair if j >= 0)
                 for i, pair in enumerate(pairs)]
            c, m = new, width * width
            continue
        for offset in (5, 4, 3):
            before, tb = list(c), list(t)
            for i, pair in enumerate(pairs):
                if before[i] % 6 != offset:
                    continue
                near = {before[j] for j in pair if j >= 0}
                pick = before[i] - offset
                while pick in near:
                    pick += 1
                c[i] = pick
                t[i] = tb[i] or any(tb[j] for j in pair if j >= 0)
        c = [x // 6 * 3 + x % 6 for x in c]
        m = 3 * ((m + 5) // 6)
    return c, t


def _sweep_loop(keys, colors, taint, values, rows, lists):
    """The members whose key is each of ``values`` in turn, reading the
    colors (None for none yet) and taint as they stood before their class,
    take the smallest color of their list that no neighbor holds, and the
    taint of every neighbor."""
    c, t = list(colors), list(taint)
    for value in values:
        before, tb = list(c), list(t)
        for i, row in enumerate(rows):
            if keys[i] == value:
                held = {before[j] for j in row}
                c[i] = next(x for x in lists[i] if x not in held)
                t[i] = tb[i] or any(tb[j] for j in row)
    return c, t


def list_color_loop(members, labels, power, allowed, palette, base, taint):
    """Member-by-member reference of :func:`linemeet.localengine.list_color`
    with a taint flag per member: (colors, taint) as lists."""
    m = len(members)
    # members are sorted, so a member's neighbors are a run of ranks
    lo = np.searchsorted(members, np.subtract(members, power)).tolist()
    hi = np.searchsorted(members, np.add(members, power), "right").tolist()
    near = [[j for j in range(lo[i], hi[i]) if j != i] for i in range(m)]
    dd = max((abs(i - j) for i in range(m) for j in near[i]), default=0)
    if dd == 0:
        return [int(np.argmax(row)) for row in allowed], list(taint)
    # the class-d neighbors of member i are ranks i - d and i + d
    pairs = [[tuple(j if j in near[i] else -1 for j in (i - d, i + d))
              for i in range(m)] for d in range(1, dd + 1)]
    init = [int(x) - base for x in labels]
    if palette <= three_color_rounds(palette) + _merge_schedule_cost(dd):
        work, work_palette, work_taint = init, palette, list(taint)
    else:
        # (colors, palette, classes, taint) of each partial coloring
        parts = [(*_three_color_loop(labels, p, init, palette, taint), d)
                 for d, p in enumerate(pairs)]
        parts = [(c, 3, [d], t) for c, t, d in parts]
        while len(parts) > 1:
            nxt = []
            for a in range(0, len(parts) - 1, 2):
                (c1, p1, d1, t1), (c2, p2, d2, t2) = parts[a], parts[a + 1]
                prod = [x * p2 + y for x, y in zip(c1, c2)]
                flags = [x or y for x, y in zip(t1, t2)]
                ds, pp = d1 + d2, p1 * p2
                if len(parts) > 2:
                    rows = [[j for d in ds for j in pairs[d][i] if j >= 0]
                            for i in range(m)]
                    pp = 2 * len(ds) + 1
                    prod, flags = _sweep_loop(
                        prod, [x if x < pp else None for x in prod], flags,
                        range(p1 * p2 - 1, pp - 1, -1), rows, [range(pp)] * m)
                nxt.append((prod, pp, ds, flags))
            if len(parts) % 2:
                nxt.append(parts[-1])
            parts = nxt
        work, work_palette, _, work_taint = parts[0]
    lists = [np.flatnonzero(row).tolist() for row in allowed]
    return _sweep_loop(work, [None] * m, work_taint, range(work_palette),
                       near, lists)


@contextlib.contextmanager
def _checked_color_taint():
    """Check every list coloring that the ruling builders run with a taint
    inside the block against :func:`list_color_loop`, colors and taint
    alike; yields the list of checked calls, each as its members and their
    taint on entry."""
    checked = []
    honest = ruling.list_color

    def checking(sub, allowed, palette, base, taint=None):
        if taint is None:
            return honest(sub, allowed, palette, base)
        start = taint.tolist()
        colors, rounds = honest(sub, allowed, palette, base, taint)
        want, want_taint = list_color_loop(
            sub.members.tolist(), sub.labels.tolist(), sub.power, allowed,
            palette, base, start)
        assert colors.tolist() == want
        assert taint.tolist() == want_taint
        checked.append((sub.members, np.array(start)))
        return colors, rounds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ruling, "list_color", checking)
        yield checked


@pytest.fixture(scope="session")
def color_taint_checks():
    """A context manager that checks the taint of the ruling builders'
    list colorings within its block (see :func:`_checked_color_taint`)."""
    return _checked_color_taint


@pytest.fixture(scope="session")
def list_color_reference():
    """:func:`list_color_loop`, the member-by-member list coloring."""
    return list_color_loop
