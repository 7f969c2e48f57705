"""The reference engine: the agent program run move by move.

A program is a generator function of the wake-up observation and an
optional annotation sink: it receives one observation per round (label and
degree of the current node, the entry port if the agent just crossed, and
its private round count) and yields the next move.  Both agents run the
same program; everything they do is a function of what they have seen.

This module holds the move gadgets (the 4-round careful crossing and the
per-round walks), the agent's own view of the line it has visited, the
doubling program and its care transform, and :func:`run_reference`, which
steps two agents round by round with real port navigation.  It is the
oracle for the fast engine of :mod:`linemeet.sim` and imports nothing from
it: it plans through :func:`~linemeet.agent.plan_iteration` over the whole
sweep window, without a ruling-state lookup, and shares with the fast
engine only the schedule, walk segments, planner and ``Timeline`` of
:mod:`linemeet.agent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .agent import (
    AgentError,
    IterationNote,
    Timeline,
    iteration_decision_round,
    iteration_start_round,
    plan_iteration,
    searching_walk_segments,
    z_walk_segments,
)
from .world import World


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


@dataclass(frozen=True)
class Observation:
    """What an agent perceives at the start of a round."""

    current_label: int
    current_degree: int
    entry_port: int | None
    rounds_since_wakeup: int


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


def care_transform(program):
    """Replace each crossing with a careful walk and each stay with 4 stays.

    The transformed program needs no crossing detection and takes exactly 4
    rounds per original round; its position at round 4t is the original's
    position at round t.  A crossing's last two moves are the tail of
    :func:`careful_walk_moves`, chosen once the far label is seen; a bounce
    recrosses the same edge in the same direction, so the entry port the
    program observes is the first crossing's.
    """

    def careful(wake_obs: Observation, sink=None):
        inner = program(wake_obs, sink)
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
                for tail in careful_walk_moves(
                        move.port, here_label, across.current_label,
                        across.entry_port)[2:]:
                    yield tail
                inner_obs = Observation(across.current_label,
                                        across.current_degree,
                                        across.entry_port, t + 1)
            t += 1
            here_label = inner_obs.current_label
            move = inner.send(inner_obs)

    return careful


def _steps(segments: Iterable[tuple[int, int]]) -> list[int]:
    steps: list[int] = []
    for dur, slope in segments:
        steps.extend([slope] * dur)
    return steps


def z_walk(L: int, first_direction: int = 1) -> list[int]:
    """Per-round steps (+1/-1) of the radius-L sweep; 4L crossings total."""
    return _steps(z_walk_segments(L, first_direction))


def searching_walk(R: int, L: int, r_offset: int, bits: Iterable[int],
                   sweep_direction: int = 1) -> list[int]:
    """Per-round steps (-1/0/+1) of the search schedule; length exactly 24L."""
    return _steps(searching_walk_segments(R, L, r_offset, bits,
                                          sweep_direction))


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


def main_program(wake_obs: Observation, sink=None):
    """The doubling loop: sweep radius L, then search 24L rounds; 28L per
    iteration, so iteration L starts at round 28(L-1).  On finite hosts it
    walks straight ping-pong after sighting a degree-1 node, and settles on
    the minimum label once a repeated label reveals a cycle."""
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


# -- the engine ----------------------------------------------------------------


def run_reference(config, world: World, cap: int):
    """Lock-step generator execution with real port navigation.

    ``config`` is the run's :class:`~linemeet.sim.SimConfig`.  Returns the
    meeting (round, event, alpha's node) or None, and one ``Timeline`` per
    agent, recorded as the run goes: every round's move as a leg (unwrapped
    on a cycle), the program's decisions as notes and its finite-host
    takeover as the tail.  A decision off the doubling schedule, which the
    timelines' phase queries assume, raises ``RuntimeError``.
    """
    prog = care_transform(main_program) if config.care else main_program
    scale = 4 if config.care else 1
    wrap = world.n if config.topology == "cycle" else None
    tails = {"endpoint": "endpoint-walk", "settle": "settle"}

    def record(tl, event):
        """Note one program annotation, made at the timeline's last round."""
        t, phase = tl.cur_t // scale, event["phase"]
        if phase in tails:
            tl.tail = (tails[phase], t)
            return
        L = event["L"]
        due = (iteration_start_round(L) if phase == "discovery"
               else iteration_decision_round(L))
        if t != due:
            raise RuntimeError(f"{phase} of iteration L={L} at local round "
                               f"{t}, scheduled for {due}")
        if phase != "discovery":
            r = event.get("r")
            if r is not None:
                # the program's frame points +1 through port 0
                r = tl.start + (r if world.port_bit(tl.start) == 0 else -r)
            tl.notes.append(IterationNote(L, phase, event.get("R"), r,
                                          event.get("color")))

    def wake(tl):
        obs = Observation(world.label(tl.start), world.degree(tl.start), None, 0)
        gen = prog(obs, lambda event: record(tl, event))
        return gen, gen.send(None)

    def step(tl, gen, x, move):
        """Make one move, then observe; returns (position, next move)."""
        entry, d = None, 0
        if not move.is_stay:
            y, entry = world.step(x, move.port)
            d, x = y - x, y
        tl._append(1, (d + 1) % wrap - 1 if wrap else d)
        return x, gen.send(Observation(world.label(x), world.degree(x), entry,
                                       tl.cur_t))

    def same(p, q):
        return (p - q) % wrap == 0 if wrap else p == q

    def adjacent(p, q):
        d = abs(p - q)
        return d == 1 or (wrap is not None and d == wrap - 1)

    tl_a, tl_b = Timeline(config.va), Timeline(config.vb)
    xa, xb = config.va, config.vb
    gen_a, mv_a = wake(tl_a)
    gen_b = mv_b = None
    prev = None
    meet = None
    for t in range(cap + 1):
        if t == config.tau:
            gen_b, mv_b = wake(tl_b)
        if same(xa, xb):
            meet = (t, "node", xa)
            break
        if (config.detection == "node-or-crossing" and prev is not None
                and same(xa, prev[1]) and same(xb, prev[0])
                and adjacent(xa, prev[0])):
            meet = (t, "crossing", xa)
            break
        if t == cap:
            break
        prev = (xa, xb)
        xa, mv_a = step(tl_a, gen_a, xa, mv_a)
        if gen_b is not None:
            xb, mv_b = step(tl_b, gen_b, xb, mv_b)
    return meet, tl_a, tl_b
