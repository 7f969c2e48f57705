"""Agent programs for rendezvous on labeled lines.

A program is a deterministic generator: it receives one observation per
round (label and degree of the current node, the entry port if the agent
just crossed, and its private round count) and yields the next move.  Both
agents run the same program; everything they do is a function of what they
have seen.

The two layers here are the move gadgets (the 4-round careful crossing, the
interval sweep, the color-scheduled search) and the doubling main loop that
composes them, planning each iteration from the interval of labels the
agent has discovered so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generator, Iterable

import numpy as np

from .logstar import CLASS_COUNT, label_classes
from .ruling import EsColState, phase_end_round


class AgentError(ValueError):
    """A move gadget was invoked outside its stated preconditions."""


@dataclass(frozen=True)
class Move:
    """Stay put (port None) or cross through port 0 or 1."""

    port: int | None = None

    def __post_init__(self):
        if self.port not in (None, 0, 1):
            raise AgentError(f"port must be 0 or 1, got {self.port}")

    @property
    def is_stay(self) -> bool:
        return self.port is None


STAY = Move(None)
PORTS = (Move(0), Move(1))


@dataclass(frozen=True)
class Observation:
    """What an agent perceives at the start of a round."""

    current_label: int
    current_degree: int
    entry_port: int | None
    rounds_since_wakeup: int


@dataclass(frozen=True)
class AgentProgram:
    """A named deterministic observation-to-move procedure.

    ``factory`` takes the wake-up observation and an optional annotation
    sink and returns a move generator; ``send`` it each subsequent
    observation.
    """

    name: str
    factory: Callable[..., Generator[Move, Observation, None]]

    def start(self, wake_obs: Observation, sink=None):
        gen = self.factory(wake_obs, sink)
        first = gen.send(None)
        return gen, first


# -- move gadgets --------------------------------------------------------------


def careful_walk_moves(direction_port: int, label_here: int, label_there: int,
                       return_port: int) -> list[Move]:
    """The 4-round crossing gadget: wait, cross, then settle.

    Crossing toward the larger label waits out the two remaining rounds on
    the far side; toward the smaller label it bounces back once and
    recrosses.  Either way the agent stands on the far endpoint after round
    4, and two agents crossing the same edge in opposite directions are
    guaranteed to co-occupy the larger-label endpoint then.
    """
    if label_here == label_there:
        raise AgentError("endpoint labels must differ")
    head = [STAY, Move(direction_port)]
    if label_there > label_here:
        return head + [STAY, STAY]
    return head + [Move(return_port), Move(direction_port)]


def careful_walk_occupancy(label_here: int, label_there: int) -> str:
    """Occupancy string over rounds 0..4; 0 = smaller-label endpoint."""
    here, there = ("0", "1") if label_there > label_here else ("1", "0")
    moves = careful_walk_moves(0, label_here, label_there, 0)
    out, at_here = [here], True
    for mv in moves:
        if not mv.is_stay:
            at_here = not at_here
        out.append(here if at_here else there)
    return "".join(out)


def care_transform(program: AgentProgram) -> AgentProgram:
    """Replace each crossing with a careful walk and each stay with 4 stays.

    The transformed program needs no crossing detection and takes exactly 4
    rounds per original round; its position at round 4t is the original's
    position at round t.
    """

    def factory(wake_obs: Observation, sink=None):
        def gen():
            inner = program.factory(
                Observation(wake_obs.current_label, wake_obs.current_degree,
                            None, 0), sink)
            move = inner.send(None)
            t = 0
            here_label = wake_obs.current_label
            while True:
                if move.is_stay:
                    for _ in range(4):
                        obs = yield STAY
                    inner_obs = Observation(obs.current_label,
                                            obs.current_degree, None, t + 1)
                else:
                    yield STAY
                    across = yield move
                    if across.current_label > here_label:
                        yield STAY
                        obs = yield STAY
                        entry = across.entry_port
                    else:
                        yield Move(across.entry_port)
                        obs = yield move
                        entry = obs.entry_port
                    inner_obs = Observation(across.current_label,
                                            across.current_degree, entry, t + 1)
                t += 1
                here_label = inner_obs.current_label
                move = inner.send(inner_obs)

        g = gen()
        return g

    return AgentProgram(name=f"care({program.name})", factory=factory)


def z_walk_segments(L: int, first_direction: int = 1) -> list[tuple[int, int]]:
    """(duration, slope) runs of the radius-L sweep: out, across, back."""
    if L < 1:
        raise AgentError(f"sweep radius must be >= 1, got {L}")
    f = 1 if first_direction >= 0 else -1
    return [(L, f), (2 * L, -f), (L, f)]


def z_walk(L: int, first_direction: int = 1) -> list[int]:
    """Per-round steps (+1/-1) of the radius-L sweep; 4L crossings total."""
    steps: list[int] = []
    for dur, slope in z_walk_segments(L, first_direction):
        steps.extend([slope] * dur)
    return steps


def color_bits(color: int) -> tuple[int, int, int, int, int]:
    """Big-endian 5-bit encoding of (color - 1)."""
    if not 1 <= color <= 32:
        raise AgentError(f"color out of range: {color}")
    v = color - 1
    return tuple((v >> (4 - i)) & 1 for i in range(5))


def searching_walk_segments(R: int, L: int, r_offset: int,
                            bits: Iterable[int],
                            sweep_direction: int = 1) -> list[tuple[int, int]]:
    """(duration, slope) runs of the color-scheduled search; 24L rounds.

    Walk to the landmark, wait out the approach budget, sweep its radius-8R
    interval once, then per color bit either sweep twice (bit 1) or hold
    still for the same 64R rounds (bit 0), pad, and walk home.
    """
    if L < 16 * R:
        raise AgentError(f"search needs L >= 16R, got L={L}, R={R}")
    bits = tuple(int(b) for b in bits)
    if len(bits) != 5 or any(b not in (0, 1) for b in bits):
        raise AgentError(f"need 5 color bits, got {bits!r}")
    delta = abs(int(r_offset))
    if delta > 2 * R - 1:
        raise AgentError(
            f"landmark offset {r_offset} exceeds 2R-1 = {2 * R - 1}")
    step = 1 if r_offset > 0 else -1
    segs: list[tuple[int, int]] = [(delta, step), (L - delta, 0)]
    segs += z_walk_segments(8 * R, sweep_direction)
    for b in bits:
        if b:
            segs += z_walk_segments(8 * R, sweep_direction) * 2
        else:
            segs.append((64 * R, 0))
    segs += [(11 * (2 * L - 32 * R), 0), (L - delta, 0), (delta, -step)]
    return [(dur, slope) for dur, slope in segs if dur > 0]


def searching_walk(R: int, L: int, r_offset: int, bits: Iterable[int],
                   sweep_direction: int = 1) -> list[int]:
    """Per-round steps (-1/0/+1) of the search schedule; length exactly 24L."""
    steps: list[int] = []
    for dur, slope in searching_walk_segments(R, L, r_offset, bits,
                                              sweep_direction):
        steps.extend([slope] * dur)
    return steps


def iteration_start_round(L: int) -> int:
    """Round at which the iteration with sweep radius L begins: 28(L-1)."""
    return 28 * (L - 1)


def iteration_decision_round(L: int) -> int:
    """Round at which the iteration with sweep radius L ends its 4L-round
    discovery sweep and decides: 28(L-1) + 4L."""
    return iteration_start_round(L) + 4 * L


# -- per-iteration planning ----------------------------------------------------


@dataclass(frozen=True)
class SearchPlan:
    """One iteration's search decision, in the caller's coordinate frame."""

    R: int
    r: int
    color: int
    bits: tuple[int, int, int, int, int]
    sweep_direction: int
    members: tuple


def spacing_grid(L: int) -> list[int]:
    """Powers of 4 up to L/16, largest first."""
    grid = []
    R = 1
    while R <= L // 16:
        grid.append(R)
        R *= 4
    grid.reverse()
    return grid


def label_reach(L: int) -> int:
    """How far from the center :func:`plan_iteration` with a lookup reads
    labels at sweep radius L: 2 R_top for the largest spacing R_top, or -1,
    no label at all, below L = 16."""
    grid = spacing_grid(L)
    return 2 * grid[0] if grid else -1


def plan_iteration(labels: np.ndarray, lo: int, center: int, L: int,
                   es_lookup=None) -> SearchPlan | None:
    """Choose the search landmark from an interval of discovered labels.

    ``labels[i]`` is the label at coordinate lo + i.  Tries each spacing R
    (powers of 4, at most L/16) from the largest, R_top, down: a node u
    within R of the center activates R when its whole termination-radius
    ball lies within the sweep radius L.  For the largest activated
    spacing, the ruling-set members those nodes know are pooled, and the
    member nearest to the center (ties to the smaller label) becomes the
    landmark.  A node knows itself when it is a member, and the members
    within R - 1 of it whose class is no higher than its own.

    The labels read are the candidates within R of the center, the known
    members, within 2R - 1 of it, and the landmark's two neighbours, so
    with a lookup the interval must cover [center - 2 R_top, center +
    2 R_top] (see :func:`label_reach`); for L < 16 nothing is read.  The
    records come from ``es_lookup(center - need, center + need, R)``,
    where ``need`` is the largest |u - center| + termination radius over
    the activated nodes u, so the window holds exactly the balls the
    records depend on, and it must hold every node within 2R - 1 of the
    center.  Without a lookup the records are built over the whole sweep
    window [center - L, center + L], which the interval must then cover;
    only the reference engine's agent program plans that way, which keeps
    it an independent oracle for the fast engine's ball-sized windows.

    Returns None when no spacing activates, in which case the iteration
    just waits out its search budget.
    """
    labels = np.asarray(labels, dtype=np.int64)
    half = L if es_lookup is None else label_reach(L)
    if half >= 0 and (lo > center - half
                      or lo + labels.size - 1 < center + half):
        raise AgentError("known interval does not cover the labels the "
                         "plan reads")
    grid = spacing_grid(L)
    if not grid:
        return None
    top = grid[0]
    # one class pass over the largest spacing's candidates; each R slices it
    near = slice(center - top - lo, center + top + 1 - lo)
    top_classes = label_classes(labels[near])
    top_dist = np.abs(np.arange(-top, top + 1, dtype=np.int64))
    for R in grid:
        cut = slice(top - R, top + R + 1)
        classes = top_classes[cut]
        reach = top_dist[cut] + _radius_by_class(R)[classes - 1]
        ok = reach <= L
        if not ok.any():
            continue
        if es_lookup is not None:
            need = int(reach[ok].max())
            state = es_lookup(center - need, center + need, R)
        else:
            state = EsColState(labels[center - L - lo:center + L + 1 - lo],
                               center - L, R)
        return _landmark_plan(state, labels, lo, center,
                              np.where(ok, classes, 0))
    return None


_CLASS_COLUMN = np.arange(1, CLASS_COUNT + 1)[:, None]


def _landmark_plan(state: EsColState, labels: np.ndarray, lo: int,
                   center: int, active: np.ndarray) -> SearchPlan:
    """The plan for the members that the activated nodes know.

    ``active[k]`` is the class of the node at center - R + k when it is
    activated, else 0.  A member is known when an activated node of no
    lower class lies within R - 1 of it, itself included, so only the
    state's members within 2R - 1 of the center are read, all at once.
    """
    R = state.R
    a, b = center - 2 * R + 1, center + 2 * R - 1
    if state.lo > a or state.hi < b:
        raise AgentError(f"ruling state does not cover [{a}, {b}]")
    i, j = np.searchsorted(state.member_coords, (a, b + 1))
    members = state.member_coords[i:j]
    member_classes = state.member_classes[i:j]
    # at_least[k - 1, x]: activated nodes of class >= k among the first x
    at_least = np.zeros((CLASS_COUNT, active.size + 1), dtype=np.int64)
    np.cumsum(active >= _CLASS_COLUMN, axis=1, out=at_least[:, 1:])
    # activated nodes within R - 1 of member w: offsets [w - c + 1, w - c + 2R)
    first = np.maximum(members - center + 1, 0)
    stop = np.minimum(members - center + 2 * R, active.size)
    row = member_classes - 1
    known = at_least[row, stop] > at_least[row, first]
    if not known.any():
        raise AgentError("the activated nodes know no ruling-set member")
    members = members[known]
    colors = state.member_colors[i:j][known]
    k = np.lexsort((labels[members - lo], np.abs(members - center)))[0]
    r, color = int(members[k]), int(colors[k])
    sweep = 1 if labels[r + 1 - lo] > labels[r - 1 - lo] else -1
    return SearchPlan(R=R, r=r, color=color, bits=color_bits(color),
                      sweep_direction=sweep,
                      members=tuple(zip(members.tolist(), colors.tolist())))


@lru_cache(maxsize=None)
def _radius_by_class(R: int) -> np.ndarray:
    """Termination radius per label class 1..CLASS_COUNT at spacing R."""
    table = np.array([phase_end_round(R, i) for i in range(1, CLASS_COUNT + 1)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


# -- the agents' discovered world ----------------------------------------------


class KnownLine:
    """The contiguous interval an agent has visited, in its own frame.

    Coordinate 0 is the wake-up node; +1 is where the first-ever crossing
    (port 0 by convention) leads.  Tracks labels and the port toward each
    neighbor, and notices when some label shows up at two distinct
    coordinates, which pins the world as a cycle of that period.
    """

    def __init__(self, wake_obs: Observation):
        self.position = 0
        self.labels: dict[int, int] = {0: wake_obs.current_label}
        self.ports: dict[int, dict[int, int]] = {}
        if wake_obs.current_degree == 1:
            self.ports[0] = {1: 0}
        else:
            self.ports[0] = {1: 0, -1: 1}
        self._label_pos: dict[int, int] = {wake_obs.current_label: 0}
        self.cycle_period: int | None = None

    @property
    def low(self) -> int:
        return min(self.labels)

    @property
    def high(self) -> int:
        return max(self.labels)

    def move_toward(self, direction: int) -> Move:
        port = self.ports[self.position].get(direction)
        if port is None:
            raise AgentError(
                f"no known port toward {direction:+d} at {self.position}")
        return Move(port)

    def arrive(self, obs: Observation, direction: int) -> None:
        self.position += direction
        p = self.position
        self.labels[p] = obs.current_label
        entry = obs.entry_port
        slots = self.ports.setdefault(p, {})
        slots[-direction] = entry
        if obs.current_degree == 2:
            slots[direction] = 1 - entry
        seen = self._label_pos.get(obs.current_label)
        if seen is None:
            self._label_pos[obs.current_label] = p
        elif seen != p and self.cycle_period is None:
            self.cycle_period = abs(p - seen)

    def label_array(self) -> tuple[np.ndarray, int]:
        lo, hi = self.low, self.high
        arr = np.array([self.labels[c] for c in range(lo, hi + 1)],
                       dtype=np.int64)
        return arr, lo

    def label_at(self, coord: int) -> int:
        if coord in self.labels:
            return self.labels[coord]
        if self.cycle_period:
            n = self.cycle_period
            lo = self.low
            return self.labels[lo + ((coord - lo) % n)]
        raise AgentError(f"coordinate {coord} not yet visited")

    def sweep_direction(self, around: int = 0) -> int:
        """Toward the larger-label neighbor; +1 if either side is unknown."""
        try:
            return 1 if self.label_at(around + 1) > self.label_at(around - 1) else -1
        except (AgentError, KeyError):
            return 1


# -- programs ------------------------------------------------------------------


def _emit(sink, **event):
    if sink is not None:
        sink(dict(event))


def _straight_walker(known: KnownLine, direction: int):
    """Walk straight forever, reversing at each degree-1 node."""
    d = direction
    while True:
        obs = yield known.move_toward(d)
        known.arrive(obs, d)
        if obs.current_degree == 1:
            d = -d


def _cycle_settler(known: KnownLine, sink):
    """Walk to the nearest copy of the global minimum label; wait forever."""
    n = known.cycle_period
    lo = known.low
    period_labels = [known.labels[lo + k] for k in range(n)]
    smallest = min(period_labels)
    anchor = lo + period_labels.index(smallest)
    here = known.position
    k = round((here - anchor) / n)
    targets = sorted({anchor + (k + s) * n for s in (-1, 0, 1)},
                     key=lambda t: abs(t - here))
    target = targets[0]
    if len(targets) > 1 and abs(targets[0] - here) == abs(targets[1] - here):
        d = known.sweep_direction(here)
        target = targets[0] if (targets[0] - here) * d > 0 else targets[1]
    _emit(sink, phase="settle", target=target - here, period=n,
          min_label=smallest)
    while known.position != target:
        d = 1 if target > known.position else -1
        obs = yield known.move_toward(d)
        known.arrive(obs, d)
    while True:
        yield STAY


def _doubling_factory(wake_obs: Observation, sink=None):
    def gen():
        known = KnownLine(wake_obs)
        if wake_obs.current_degree == 1:
            _emit(sink, phase="endpoint", L=0)
            yield from _straight_walker(known, 1)
            return
        L = 1
        while True:
            zdir = known.sweep_direction()
            _emit(sink, phase="discovery", L=L, direction=zdir)
            for step in z_walk(L, zdir):
                obs = yield known.move_toward(step)
                known.arrive(obs, step)
                if obs.current_degree == 1:
                    _emit(sink, phase="endpoint", L=L)
                    away = -step
                    yield from _straight_walker(known, away)
                    return
                if known.cycle_period is not None:
                    yield from _cycle_settler(known, sink)
                    return
            labels, lo = known.label_array()
            plan = plan_iteration(labels, lo, 0, L)
            if plan is None:
                _emit(sink, phase="wait", L=L)
                for _ in range(24 * L):
                    yield STAY
            else:
                _emit(sink, phase="searching", L=L, R=plan.R, r=plan.r,
                      color=plan.color)
                for step in searching_walk(plan.R, L, plan.r, plan.bits,
                                           plan.sweep_direction):
                    if step == 0:
                        yield STAY
                    else:
                        obs = yield known.move_toward(step)
                        known.arrive(obs, step)
            L *= 2

    return gen()


def main_program() -> AgentProgram:
    """The doubling loop: sweep radius L, then search 24L rounds; 28L per
    iteration, so iteration L starts at round 28(L-1).  On finite hosts it
    walks straight ping-pong after sighting a degree-1 node, and settles on
    the minimum label once a repeated label reveals a cycle."""
    return AgentProgram(name="doubling-search", factory=_doubling_factory)
