"""What both engines share: the iteration schedule, walk segments, landmark
planning and the timeline each engine fills.

Both agents run one deterministic program: a doubling loop whose iteration
with sweep radius L sweeps [start - L, start + L] in 4L rounds and then
searches, or waits, for 24L.  This module holds that schedule, the
iteration's walks as (duration, slope) runs, the planner that picks the
search landmark from the labels discovered so far, and the ``Timeline`` of
legs, iteration notes and finite-host tail that records a trajectory.  The
fast engine (:mod:`linemeet.sim`) plans timelines from these pieces; the
reference engine (:mod:`linemeet.reference`) runs the program move by move
and records one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .logstar import CLASS_COUNT, label_classes
from .ruling import EsColState, phase_end_round


class AgentError(ValueError):
    """A walk, gadget or planner was invoked outside its stated preconditions."""


# -- walks ---------------------------------------------------------------------


def z_walk_segments(L: int, first_direction: int = 1) -> list[tuple[int, int]]:
    """(duration, slope) runs of the radius-L sweep: out, across, back."""
    if L < 1:
        raise AgentError(f"sweep radius must be >= 1, got {L}")
    f = 1 if first_direction >= 0 else -1
    return [(L, f), (2 * L, -f), (L, f)]


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
    state's members within 2R - 1 of the center are read, all at once, and
    only those of classes up to the highest activated one, which the state
    must have built; the state must serve that member window (see
    :class:`EsColState`).
    """
    R = state.R
    a, b = center - 2 * R + 1, center + 2 * R - 1
    if state.serves[0] > a or state.serves[1] < b:
        raise AgentError(f"ruling state does not cover [{a}, {b}] in the "
                         f"region it serves")
    if active.max() > state.top_class:
        raise AgentError(f"an activated node is of class {active.max()}, "
                         f"past the state's classes 1..{state.top_class}")
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


# -- timelines -----------------------------------------------------------------


@dataclass(frozen=True)
class IterationNote:
    """What doubling iteration L decided: its phase after discovery and,
    when it searches, the spacing R, the landmark r and its color."""

    L: int
    phase: str
    R: int | None = None
    r: int | None = None
    color: int | None = None


def _iteration_index(t: int) -> int:
    """Index i of the iteration (L = 2^i) containing plain local round t."""
    return (t // 28 + 1).bit_length() - 1


class Timeline:
    """One agent's trajectory and decisions in its own local rounds.

    Legs are maximal straight runs (t0, x0, slope): a leg with the slope of
    the last one extends it, so consecutive legs always differ in slope.
    Past the legs the agent stays put, or follows ``terminal``, a closed
    form for endpoint ping-pong or a hold.  ``notes`` hold the decision of
    each iteration whose discovery sweep is done, and ``tail`` = (phase,
    start) is the endpoint walk or cycle settling that ends the doubling
    loop.  Positions are in the unbounded frame; cycle positions wrap only
    when rendered.  Notes and the tail count plain-program rounds; the legs
    of a care reference run count gadget rounds.
    """

    def __init__(self, start: int):
        self.start = int(start)
        self.t0s: list[int] = []
        self.x0s: list[int] = []
        self.slopes: list[int] = []
        self.notes: list[IterationNote] = []
        self.cur_t = 0
        self.cur_x = self.start
        self.terminal: tuple | None = None
        self.tail: tuple[str, int] | None = None

    def _append(self, dur: int, slope: int) -> None:
        if dur <= 0:
            return
        if not self.slopes or self.slopes[-1] != slope:
            self.t0s.append(self.cur_t)
            self.x0s.append(self.cur_x)
            self.slopes.append(slope)
        self.cur_t += dur
        self.cur_x += slope * dur

    def ensure(self, t: int) -> None:
        """Make the trajectory through local round t known; a recorded
        timeline already holds all of it."""

    # -- phases ------------------------------------------------------------

    def decision_at(self, t: int) -> tuple[str, IterationNote | None]:
        """(phase, note) at local round t >= 0.  The note is the decision of
        t's iteration once its discovery sweep is done and before any tail,
        else None."""
        self.ensure(t + 1)
        if self.tail is not None and t >= self.tail[1]:
            return self.tail[0], None
        i = _iteration_index(t)
        if i < len(self.notes) and t >= iteration_decision_round(1 << i):
            return self.notes[i].phase, self.notes[i]
        return "discovery", None
