"""Round-synchronous two-agent simulation, detection, and parameter sweeps.

Both agents run the same deterministic program; the second wakes after a
delay tau but occupies its start node (and is findable there) from round 0.
The detection mode chooses the program.  With ``node-or-crossing`` the plain
program runs and a simultaneous opposite crossing of one edge also counts as
a meeting; with ``node-only`` the care-transformed program runs, whose
crossing gadget turns every such crossing into a node meeting.  The other
two pairings have no meeting guarantee, and :class:`SimConfig` rejects them.

Two engines produce identical results.  ``reference``
(:func:`linemeet.reference.run_reference`, the one name taken from that
module) executes the move generators round by round with real port
navigation and is the oracle for ``fast``, which lives here.  Both fill one
:class:`~linemeet.agent.Timeline` per agent, of maximal straight legs,
iteration notes and a finite-host tail, so they agree on trajectories and
phases, not only on the meeting.  ``fast`` plans the plain program's
trajectory as linear segments of slope -1, 0 or +1 and finds the meeting
exactly: it merges both agents' breakpoints and solves each stretch where
both move linearly in closed form (mod n on a cycle), from the first round
at which their sweep radii allow contact, planning one doubling iteration
at a time and no further than the meeting.  Endpoint ping-pong
and cycle settling are periodic tails, so one period decides whether the
agents ever meet.  With ``care`` set it solves the same plain segments for
the windows where the two plain positions come within two nodes and expands
the 4-round crossing gadget only inside them.

Detection reports the meeting round, its event and the node where the
agents meet, read off alpha's trajectory where the meeting is found, so a
trace needs no second position lookup.  One leg cursor, ``_Track``, turns
legs into positions for detection, traces, position queries and the care
gadget expansion alike.

Runs on the same world share one ``World`` object, and with it every label
computed so far, one trajectory plan per start and each start pair's label
extremes.  A plan reads only the O(R) labels it needs through the world's
store and asks only for the balls its records depend on.  Each sweep is
checked for distinct labels (:meth:`World.cover`).  For the sequential,
random and uniform-class schemes, bijections by construction, that only
means staying inside the scheme's span; an explicit or custom scheme's
sweep is labelled into the store and checked against it.  Worlds with one
scheme, whatever their topology, share one store of ruling states over
windows snapped to a tile of the class ladder's rung, so plans from nearby
starts that read the same classes share a window whatever their sweep;
delays only shift a plan in global time.  A state on the rung of class c
builds classes 1..c only, the classes its queries read, and class c only
on the cone around the member windows its queries read; the store keys it
by (R, window, c, served region).  Only a cycle window across the seam is
built per query; a query wider than the ladder's top rung raises
:class:`SimError`.
The states of a store keep at most ``STATE_BYTES`` bytes, or the store
holds its newest state alone.
Worlds are keyed by topology, size, seed and scheme: a string scheme by its
spec, a ``LabelScheme`` object by identity, so such objects must be
deterministic.  Only the ``WORLD_SLOTS`` most recently used worlds are kept.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
import csv
from dataclasses import dataclass, field
import json
import math

import numpy as np

from .agent import (
    IterationNote,
    Timeline,
    _iteration_index,
    iteration_start_round,
    label_reach,
    plan_iteration,
    searching_walk_segments,
    z_walk_segments,
)
from .logstar import CLASS_COUNT, log_star
from .reference import run_reference
from .ruling import EsColState, phase_end_round
from .world import LabelScheme, World, make_world

DETECTION_MODES = ("node-only", "node-or-crossing")

ENGINES = ("fast", "reference")

# smallest label within this multiple of D around each start enters the bound
LMIN_WINDOW_FACTOR = 1

# generous multiple of the proven bound; an expired cap indicates a bug
ROUND_CAP_FACTOR = 10**5

CSV_COLUMNS = ("topology", "n", "D", "tau", "scheme", "lmin", "logstar_lmin",
               "t_rdv", "ratio", "case_tag", "seed")

CASE_TAGS = ("out-of-sync", "mismatched-R", "same-node",
             "distinct-nodes-colored", "discovery-collision", "other")


class SimError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation instance; the distance D is derived, not stored."""

    topology: str = "infinite"
    scheme: str | LabelScheme = "sequential"
    n: int | None = None
    seed: int = 0
    va: int = 0
    vb: int = 1
    tau: int = 0
    detection: str = "node-or-crossing"
    care: bool = False
    round_cap: int | None = None
    engine: str = "fast"

    def world(self) -> World:
        return make_world(self.topology, self.scheme, n=self.n, seed=self.seed)

    def validate(self, world: World) -> None:
        if self.detection not in DETECTION_MODES:
            raise SimError(f"unknown detection mode {self.detection!r}")
        if self.engine not in ENGINES:
            raise SimError(f"unknown engine {self.engine!r}")
        if self.tau < 0:
            raise SimError("wake-up delay must be nonnegative")
        if self.round_cap is not None and self.round_cap < 0:
            raise SimError("round cap must be nonnegative")
        for v in (self.va, self.vb):
            if not world.valid(v):
                raise SimError(f"start {v} invalid on this topology")
        if self.va == self.vb:
            raise SimError("the two starts must differ")
        if self.care != (self.detection == "node-only"):
            raise SimError(
                "node-only detection pairs with the care-transformed program "
                "and node-or-crossing with the plain one")


# -- bound bookkeeping ---------------------------------------------------------


def lmin_stats(world: World, va: int, vb: int) -> tuple[int, int]:
    """(smallest, largest) label within LMIN_WINDOW_FACTOR*D of either start.

    The two balls overlap, since their radius is at least D, so one interval
    holds both; on a cycle vb is first moved next to va by the signed
    shortest offset.
    """
    D = world.distance(va, vb)
    rad = LMIN_WINDOW_FACTOR * max(D, 1)
    n = world.n
    if world.topology == "cycle":
        vb = va + (vb - va + n // 2) % n - n // 2
    lo, hi = min(va, vb) - rad, max(va, vb) + rad
    if world.topology == "path":
        lo, hi = max(lo, 0), min(hi, n - 1)
    coords = np.arange(lo, hi + 1)
    if world.topology == "cycle":
        coords = np.arange(n) if hi - lo + 1 >= n else coords % n
    labels = world.labels_at(coords)
    return int(labels.min()), int(labels.max())


def _round_cap(D: int, biggest: int) -> int:
    return ROUND_CAP_FACTOR * max(D, 1) * log_star(biggest)


# -- analytic trajectory plans -------------------------------------------------


def _window_labels(world: World, lo: int, hi: int) -> np.ndarray:
    """The labels of nodes lo..hi, wrapped mod n on a cycle, read through
    the world's store."""
    coords = np.arange(lo, hi + 1)
    if world.topology == "cycle":
        coords %= world.n
    return world.labels_at(coords)


class AgentPlan(Timeline):
    """The plain program's timeline from one start, planned lazily.

    Iterations are appended one doubling step at a time; a finite-topology
    takeover (endpoint ping-pong or cycle settling) sets the tail and ends
    the legs with a closed-form terminal.  Each iteration's sweep window
    [start - L, start + L] goes through :meth:`World.cover`, which checks
    that the sweep visits distinct labels and stores the window only for an
    explicit or custom scheme.  The plan reads only the labels
    :func:`plan_iteration` reads, those within :func:`label_reach` of the
    start: 2 R_top for the largest spacing R_top, and none below L = 16.
    Its ruling-set records come from ``es_lookup``; without one the plan
    gets a private :class:`_StateStore`.
    """

    def __init__(self, world: World, start: int, es_lookup=None):
        super().__init__(start)
        self.world = world
        self.es_lookup = es_lookup or _StateStore().lookup(world)
        self.L_next = 1
        self._ext = (self.start, self.start)
        if world.topology == "path" and start in (0, world.n - 1):
            away = 1 if start == 0 else -1
            self._begin_ping_pong(start, away)

    def _begin_ping_pong(self, endpoint: int, away: int) -> None:
        self.tail = ("endpoint-walk", self.cur_t)
        self.terminal = ("pingpong", self.cur_t, endpoint, away, self.world.n - 1)

    def _walk_leg(self, dur: int, slope: int) -> bool:
        """Append one sweep leg, honoring finite takeovers; True if taken over."""
        w = self.world
        if w.topology == "path":
            end = self.cur_x + slope * dur
            if slope > 0 and end >= w.n - 1:
                self._append((w.n - 1) - self.cur_x, slope)
                self._begin_ping_pong(w.n - 1, -1)
                return True
            if slope < 0 and end <= 0:
                self._append(self.cur_x, slope)
                self._begin_ping_pong(0, 1)
                return True
        elif w.topology == "cycle":
            lo, hi = self._ext
            end = self.cur_x + slope * dur
            if slope > 0 and end >= lo + w.n:
                self._append(lo + w.n - self.cur_x, slope)
                self._settle()
                return True
            if slope < 0 and end <= hi - w.n:
                self._append(self.cur_x - (hi - w.n), slope)
                self._settle()
                return True
            self._ext = (min(lo, min(self.cur_x, end)),
                         max(hi, max(self.cur_x, end)))
        self._append(dur, slope)
        return False

    def _settle(self) -> None:
        """Having recognised the cycle, walk to the nearest copy of the
        minimum label and hold there."""
        self.tail = ("settle", self.cur_t)
        w = self.world
        labels = w.labels_at(np.arange(w.n))
        phys = int(np.argmin(labels))
        x = self.cur_x
        below = x - ((x - phys) % w.n)
        above = below + w.n
        if x - below < above - x:
            target = below
        elif above - x < x - below:
            target = above
        else:
            up = int(labels[(x + 1) % w.n]) > int(labels[(x - 1) % w.n])
            target = above if up else below
        if target != x:
            self._append(abs(target - x), 1 if target > x else -1)
        self.terminal = ("hold", self.cur_t)

    def _sweep_direction(self, L: int) -> int:
        w, v = self.world, self.start
        if L == 1:
            # first-ever crossing takes port 0, which fixes the frame
            return 1 if w.port_bit(v) == 0 else -1
        if w.topology == "cycle":
            plus, minus = (v + 1) % w.n, (v - 1) % w.n
        else:
            plus, minus = v + 1, v - 1
        return 1 if w.label(plus) > w.label(minus) else -1

    def _extend_once(self) -> None:
        """Plan the next doubling iteration.  Raises :class:`SimError` if
        its legs leave [start - L, start + L] before a finite takeover,
        which :func:`_first_contact` relies on."""
        L = self.L_next
        first = max(len(self.x0s) - 1, 0)
        for dur, slope in z_walk_segments(L, self._sweep_direction(L)):
            if self._walk_leg(dur, slope):
                return
        v = self.start
        self.world.cover(v - L, v + L)
        half = label_reach(L)
        plan = plan_iteration(_window_labels(self.world, v - half, v + half),
                              v - half, v, L, es_lookup=self.es_lookup)
        if plan is None:
            self._append(24 * L, 0)
            self.notes.append(IterationNote(L, "wait"))
        else:
            for dur, slope in searching_walk_segments(
                    plan.R, L, plan.r - self.start, plan.bits,
                    plan.sweep_direction):
                self._append(dur, slope)
            self.notes.append(IterationNote(L, "searching", plan.R, plan.r,
                                            plan.color))
        # legs are straight, so their ends are the iteration's extremes
        if any(abs(x - v) > L for x in (*self.x0s[first:], self.cur_x)):
            raise SimError(f"iteration L={L} leaves [{v - L}, {v + L}]")
        self.L_next *= 2

    def ensure(self, t: int) -> None:
        """Plan until the position at local round t is known."""
        while self.terminal is None and self.cur_t < t:
            self._extend_once()


# -- reading trajectories ------------------------------------------------------


class _Track:
    """One agent's trajectory on a shared clock, read left to right.

    The agent rests at its start before ``shift`` and then follows ``plan``
    shifted by ``shift``: its legs, then the terminal or, on a timeline
    without one, its last position.  This is the only reader that turns legs
    into positions.  ``piece`` must be asked nondecreasing times; detection
    asks only times below ``end()``.
    """

    def __init__(self, plan: Timeline, shift: int):
        self.plan = plan
        self.shift = shift
        self._i = 0

    def end(self) -> float:
        """First time whose linear piece is not planned yet."""
        plan = self.plan
        return math.inf if plan.terminal else self.shift + plan.cur_t

    def tail_start(self) -> int:
        return self.shift + self.plan.terminal[1]

    def piece(self, t: int) -> tuple[int, int, float]:
        """(position at t, slope, end of the linear piece holding t).

        Callers hold a piece until its end and read the next one there.  A
        piece that ends at ``end()`` is read again only after the plan is
        extended, which may continue its segment.  The cursor steps to the
        next leg, or seeks by bisection when t lies further on, as it does
        when detection starts at the first contact round.
        """
        plan = self.plan
        if t < self.shift:
            return plan.start, 0, self.shift
        u = t - self.shift
        if u < plan.cur_t:
            t0s, i = plan.t0s, self._i
            last = len(t0s) - 1
            if i < last and t0s[i + 1] <= u:
                i += 1
                if i < last and t0s[i + 1] <= u:
                    i = bisect_right(t0s, u, i) - 1
                self._i = i
            end = t0s[i + 1] if i < last else plan.cur_t
            slope = plan.slopes[i]
            return plan.x0s[i] + slope * (u - t0s[i]), slope, self.shift + end
        if plan.terminal is None or plan.terminal[0] == "hold":
            return plan.cur_x, 0, math.inf
        _, th, e, d, m = plan.terminal
        v = (u - th) % (2 * m)
        if v < m:
            return e + d * v, d, t + m - v
        return e + d * (2 * m - v), -d, t + 2 * m - v

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """Positions at times lo..hi, planned through hi, piece by piece
        from the cursor reset to the first leg, which the first piece read
        seeks from."""
        plan = self.plan
        plan.ensure(hi - self.shift)
        self._i = 0
        out = np.empty(max(hi - lo + 1, 0), dtype=np.int64)
        t = lo
        while t <= hi:
            x, slope, end = self.piece(t)
            stop = min(end, hi + 1)
            out[t - lo:stop - lo] = x + slope * np.arange(stop - t)
            t = stop
        return out


def _care_positions(plan: AgentPlan, lo: int, hi: int) -> np.ndarray:
    """Care-frame positions for local rounds lo..hi via 4x gadget expansion;
    rounds before 0 stand at the start."""
    t0, t1 = lo // 4, hi // 4 + 1
    x = _Track(plan, 0).positions(t0, t1)
    phys = x % plan.world.n if plan.world.topology == "cycle" else x
    uniq, inv = np.unique(phys, return_inverse=True)
    labs = plan.world.labels_at(uniq)[inv]
    a, b = x[:-1], x[1:]
    moved = a != b
    toward_lower = moved & (labs[1:] < labs[:-1])
    stay_or_there = np.where(moved, b, a)
    quads = np.stack([a, stay_or_there, np.where(toward_lower, a, stay_or_there),
                      stay_or_there], axis=1).reshape(-1)
    full = np.concatenate([x[:1], quads])
    return full[lo - 4 * t0: hi - 4 * t0 + 1]


# -- meeting detection ---------------------------------------------------------


def _first_root(c: int, slope: int, wrap: int | None) -> int | None:
    """Smallest k >= 0 with c + slope*k == 0, modulo wrap on a cycle."""
    if wrap is None:
        if slope == 0:
            return 0 if c == 0 else None
        k, rem = divmod(-c, slope)
        return k if rem == 0 and k >= 0 else None
    c %= wrap
    if c == 0:
        return 0
    g = math.gcd(slope, wrap)
    if slope == 0 or c % g:
        return None
    n = wrap // g
    return (-(c // g) * pow(slope // g, -1, n)) % n


def _zero(v, wrap: int | None):
    return v % wrap == 0 if wrap else v == 0


def _plain_solver(wrap: int | None):
    """Exact meetings of two linear pieces over rounds u0 <= t < u1.

    Node meetings solve xa - xb = 0; a crossing at round u + 1 needs opposite
    unit slopes (mod wrap) and xa - xb = -sa at u.  Alpha's piece gives the
    meeting node.
    """

    def solve(u0, u1, xa, sa, xb, sb):
        d, ds = xa - xb, sa - sb
        k = _first_root(d, ds, wrap)
        node = ((u0 + k, "node", xa + sa * k)
                if k is not None and u0 + k < u1 else None)
        if sa and _zero(sa + sb, wrap):
            k = _first_root(d + sa, ds, wrap)
            if k is not None and u0 + k < u1:
                cross = (u0 + k + 1, "crossing", xa + sa * (k + 1))
                return min(node, cross) if node else cross
        return node

    return solve


def _care_solver(tau: int, wrap: int | None, plan_a: AgentPlan,
                 plan_b: AgentPlan):
    """Care-mode node meetings over the gadget rounds of plain steps
    k0 <= k < k1.

    Care round 4k + j stands on plain position x(k) or x(k + 1), and the
    partner's on x'(k - 1), x'(k) or x'(k + 1) of its plain clock shifted by
    tau // 4.  A meeting therefore needs the plain positions within 2 at
    step k.  Only those windows are expanded into gadget rounds.  Where both
    agents stand still, every gadget round after the stretch's first step
    repeats the plain positions, so only that step is expanded.
    """

    def near(d):
        return min(d % wrap, -d % wrap) <= 2 if wrap else abs(d) <= 2

    def expand(ks, ke):
        lo, hi = 4 * ks, 4 * ke - 1
        xa = _care_positions(plan_a, lo, hi)
        hits = np.flatnonzero(
            _zero(xa - _care_positions(plan_b, lo - tau, hi - tau), wrap))
        if hits.size == 0:
            return None
        i = int(hits[0])
        return lo + i, "node", int(xa[i])

    def solve(k0, k1, xa, sa, xb, sb):
        d, ds = xa - xb, sa - sb
        if ds == 0:
            if not near(d):
                return None
            return expand(k0, k1 if sa else k0 + 1)
        k = k0
        while k < k1:
            dk = d + ds * (k - k0)
            offs = [o for o in (_first_root(dk - c, ds, wrap)
                                for c in range(-2, 3))
                    if o is not None]
            if not offs or k + min(offs) >= k1:
                return None
            # |ds| >= 1, so the distance leaves the window within 5 steps
            ks = k + min(offs)
            k = min(ks + 5, k1)
            found = expand(ks, k)
            if found:
                return found
        return None

    return solve


def _covering_radius(world: World, v: int) -> float:
    """Sweep radius from which an agent starting at v counts as covering
    its whole host: the first iteration whose sweep reaches a path end,
    L >= min(v, n - 1 - v), or wraps the cycle, 2L >= n, takes over with
    an endpoint ping-pong or a settle walk that can go anywhere.  Every
    iteration has L >= 1, so a start on a path end covers from its wake."""
    if world.topology == "path":
        return max(min(v, world.n - 1 - v), 1)
    if world.topology == "cycle":
        return (world.n + 1) // 2
    return math.inf


def _first_contact(config: SimConfig, world: World, D: int) -> int:
    """First global round from which the agents can meet.

    Iteration L of the doubling loop runs over local rounds [28(L - 1),
    28(2L - 1)) and never leaves [start - L, start + L], so at local round
    u >= 0 an agent is within L(u) = 2^_iteration_index(u) of its start,
    or anywhere once L(u) reaches :func:`_covering_radius`; before it
    wakes it stands at its start.  With D the host distance, a node
    meeting at round t needs the two radii at t to sum to D, and a
    crossing at t needs them to sum to D - 1 at t - 1.  So before the
    first round c at which they sum to at least D - 1 the agents stay at
    least two nodes apart: no node meeting comes before c, no crossing
    before c + 1, and the stretch walk from c finds both.

    Care runs count in plain steps k, with beta's plan shifted by tau // 4
    as its detection track is.  Gadget rounds 4k..4k + 3 stand on alpha's
    plain steps k and k + 1 and on beta's track steps k - 1..k + 1, so a
    meeting in them needs the radii to sum to D - 1 at step k + 1.  With c
    that first step in the track frame, the walk starts one step earlier,
    at care round 4(c - 1).
    """
    scale = 4 if config.care else 1
    shift = config.tau // scale
    need = D - 1
    cover_a = _covering_radius(world, config.va)
    cover_b = _covering_radius(world, config.vb)
    # the radii at round t and the rounds where they next grow; beta's is
    # 0 until it wakes at `shift`
    t, ra, na, rb, nb = 0, 1, iteration_start_round(2), 0, shift
    while ra < cover_a and rb < cover_b and ra + rb < need:
        if na <= nb:
            t, ra = na, 2 * ra
            na = iteration_start_round(2 * ra)
        else:
            t, rb = nb, 2 * rb or 1
            nb = shift + iteration_start_round(2 * rb)
    return t if scale == 1 else 4 * max(t - 1, 0)


def _detect(config: SimConfig, world: World, plan_a: AgentPlan,
            plan_b: AgentPlan, cap: int, D: int) -> tuple[int, str, int] | None:
    """First meeting at a global round <= cap as (round, event, x), or None.

    ``x`` is alpha's position at that round in the unbounded frame, so on a
    cycle it still has to be wrapped mod n.

    Walks the merged breakpoints of both plain trajectories from the first
    contact round (:func:`_first_contact`), before which the agents cannot
    meet, solving each stretch where both are linear, and extends only the
    plan that covers the shorter stretch, one doubling iteration at a time.
    Plans still grow from round 0, so they are the same wherever the walk
    starts, and each track seeks its first piece there.  Each track keeps its
    current piece and advances it arithmetically, so a track is looked up
    once per breakpoint of its own; the track just extended stands at its
    old end and so is read again.  Care runs work in plain steps of 4
    rounds and expand gadget windows through :func:`_care_positions`, as
    traces do.  Once both plans are in their terminal tails, one period of
    the joint motion decides whether they ever meet.
    """
    scale = 4 if config.care else 1
    wrap = world.n if world.topology == "cycle" else None
    ta = _Track(plan_a, 0)
    tb = _Track(plan_b, config.tau // scale)
    solve = (_care_solver(config.tau, wrap, plan_a, plan_b) if config.care
             else _plain_solver(wrap))
    limit = cap // scale + 1
    t, found = _first_contact(config, world, D) // scale, None
    # each track's held piece; one that ends by t is read afresh
    xa = sa = ea = xb = sb = eb = 0
    while True:
        if plan_a.terminal and plan_b.terminal:
            # one period past both tail starts, plus the gadget's lookaround
            period = 1 if plan_a.terminal[0] == "hold" else 2 * (world.n - 1)
            limit = min(limit,
                        max(ta.tail_start(), tb.tail_start()) + period + 3)
        hi = min(ta.end(), tb.end(), limit)
        while t < hi:
            if found and found[0] < t * scale:
                break
            if ea <= t:
                xa, sa, ea = ta.piece(t)
            if eb <= t:
                xb, sb, eb = tb.piece(t)
            u1 = ea if ea < eb else eb
            if hi < u1:
                u1 = hi
            event = solve(t, u1, xa, sa, xb, sb)
            if event and (found is None or event < found):
                found = event
            xa += sa * (u1 - t)
            xb += sb * (u1 - t)
            t = u1
        if t >= limit or (found and found[0] < t * scale):
            break
        (ta if ta.end() <= tb.end() else tb).plan._extend_once()
    return found if found and found[0] <= cap else None


# -- traces --------------------------------------------------------------------


# rounds rendered per batch when writing a per-round trace
_JSONL_BATCH = 1 << 15


class SimTrace:
    """Outcome of one run plus phase/iteration queries in global rounds.

    ``D`` is the host distance of the starts, and ``lmin`` and ``lmax``
    are the smallest and largest label within the bound's window around
    them (see :func:`lmin_stats`).
    """

    def __init__(self, config: SimConfig, world: World, D: int, cap: int,
                 extremes: tuple[int, int], meet: tuple[int, str, int] | None,
                 timeline_a: Timeline, timeline_b: Timeline):
        self.config = config
        self.world = world
        self.D = D
        self.round_cap = cap
        self.lmin, self.lmax = extremes
        self.t_rdv, self.event, self.meet_position = meet or (None, None, None)
        if meet and world.topology == "cycle":
            self.meet_position %= world.n
        self._ta = timeline_a
        self._tb = timeline_b

    def _decision(self, agent: str, t: int) -> tuple[str, IterationNote | None]:
        """(phase, note) of the agent at global round t."""
        if agent == "beta":
            t -= self.config.tau
        if t < 0:
            return "asleep", None
        timeline = self._ta if agent == "alpha" else self._tb
        return timeline.decision_at(t // (4 if self.config.care else 1))

    def phase_of(self, agent: str, t: int) -> str:
        return self._decision(agent, t)[0]

    def note_of(self, agent: str, t: int) -> IterationNote | None:
        return self._decision(agent, t)[1]

    def positions_at(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Both agents' positions at global rounds lo..hi; one that has not
        woken yet stands at its start."""
        if lo < 0:
            raise SimError("rounds start at 0")
        tau = self.config.tau
        if self.config.care and self.config.engine == "fast":
            # a fast care run holds plain plans, which gadget rounds expand
            xa = _care_positions(self._ta, lo, hi)
            xb = _care_positions(self._tb, lo - tau, hi - tau)
        else:
            xa = _Track(self._ta, 0).positions(lo, hi)
            xb = _Track(self._tb, tau).positions(lo, hi)
        if self.world.topology == "cycle":
            xa, xb = xa % self.world.n, xb % self.world.n
        return xa, xb

    def to_jsonl(self, path, runspec: dict | None = None) -> None:
        end = self.t_rdv if self.t_rdv is not None else self.round_cap
        with open(path, "w") as fh:
            if runspec is not None:
                fh.write(json.dumps({"runspec": runspec}, sort_keys=True) + "\n")
            for lo in range(0, end + 1, _JSONL_BATCH):
                hi = min(lo + _JSONL_BATCH - 1, end)
                xa, xb = self.positions_at(lo, hi)
                for k, t in enumerate(range(lo, hi + 1)):
                    event = self.event if t == self.t_rdv else None
                    fh.write(json.dumps({
                        "round": t, "xa": int(xa[k]), "xb": int(xb[k]),
                        "phase_a": self.phase_of("alpha", t),
                        "phase_b": self.phase_of("beta", t),
                        "event": event}) + "\n")


# -- the front door ------------------------------------------------------------


# bytes that the states of one store keep at most, unless its newest state
# alone keeps more (EsColState.nbytes): a stored state keeps its labels and
# its members, which on a random-label rung-6 window come to 13 B per node
# at R = 1, where every class-6 node of the cone is a member, and 8.3 B at
# R = 16, so 15 MiB hold about 1.2M R = 1 nodes
STATE_BYTES = 15 << 20

# tiles per class rung: a stored window's center snaps to multiples of its
# rung // _RUNG_TILES
_RUNG_TILES = 8


def _snapped_window(lo: int, hi: int, R: int,
                    bounds: tuple | None) -> tuple[int, int, int, int, int]:
    """(wlo, whi, c, slo, shi): the window [wlo, whi] whose ruling state
    serves the query [lo, hi], the class c of its rung, and the region S =
    [slo, shi] whose records the state must hold; the state holds classes
    1..c, and class c only around S.

    A node's record only depends on labels within its termination-radius
    ball, so any window holding the balls the planner reads gives the same
    records.  The planner asks for [center - need, center + need], and a
    node of class c within R of the center has its ball within R +
    phase_end_round(R, c) of it, so ``need`` is at most the rung of that
    ladder for the latest class read.  With ``reach`` the smallest rung >=
    need, the center is snapped to a tile of reach // ``_RUNG_TILES`` and
    the window reaches reach + tile // 2 + 1 either side of the snapped
    center, so it holds [lo, hi]; queries of one rung from nearby centers,
    whatever their sweep, share it.  ``bounds`` is the host's extent, which
    the window is clipped to; None leaves it unclipped.  A ``need`` past
    the top rung, R + phase_end_round(R, CLASS_COUNT), raises
    :class:`SimError`.

    Classes 1..c are all the query reads.  With c* the highest activated
    class, ``need`` lies in [phase_end_round(R, c*), R +
    phase_end_round(R, c*)]: the class-c* node is within R of the center,
    and a lower class ends its phase no later.  A class phase lasts longer
    than R, so the rung below c*'s, R + phase_end_round(R, c* - 1), lies
    under phase_end_round(R, c*), and the query's rung is c*'s.  The build
    commits classes in order, and class i reads only its own nodes and the
    set committed before it, so a record of class <= c never depends on a
    later class; and the planner reads a member only when an activated node
    of no lower class knows it, so never one of a class above c*.  A
    clipped window can be the same for two rungs, so its state is stored
    by its class as well.

    The planner reads only the members within 2R - 1 of the center, so S
    is the union of those member windows over every center snapped to
    ``snap``, clipped like the window; it lies inside the window, as the
    rung exceeds 2R.  The state builds class c only on the cone around S
    that :class:`~linemeet.ruling.EsColState` derives from the schedule,
    and is exact on S.  Clipped windows from two snaps can be the same
    while their S differ, so S is part of the store key as well.
    """
    need = (hi - lo) // 2
    top = next((c for c in range(1, CLASS_COUNT + 1)
                if R + phase_end_round(R, c) >= need), None)
    if top is None:
        raise SimError(f"a query of half-width {need} passes the top rung "
                       f"at R={R}")
    reach = R + phase_end_round(R, top)
    tile = max(1, reach // _RUNG_TILES)
    snap = ((lo + hi) // 2 + tile // 2) // tile * tile
    h = reach + tile // 2 + 1
    # the centers snapped here, [first, first + tile - 1], read members
    # within 2R - 1 of them
    first = snap - tile // 2
    box = (snap - h, snap + h, first - 2 * R + 1, first + tile + 2 * R - 2)
    if bounds is not None:
        box = tuple(min(max(x, bounds[0]), bounds[1]) for x in box)
    return box[0], box[1], top, box[2], box[3]


class _StateStore:
    """Ruling states over windows of one scheme's labels, by (R, wlo, whi,
    c, slo, shi).

    A query is served the state of its snapped window (see
    :func:`_snapped_window`), clipped to the host: [0, n - 1] on a path or
    cycle, the scheme's ``span()`` on the infinite line.  The state holds
    classes 1..c, c being the class of the window's rung, which is all the
    query reads, and class c only on the cone around the region [slo, shi]
    the window serves.  Such a window holds the scheme's own labels on every
    topology, so worlds with one scheme share one store and each window is
    built once for all of them.  A cycle window across the seam holds
    labels that depend on n, so it is built exactly, per query, with every
    class, and never looked up.  The newest state is always stored, and
    the least recently used are dropped while its states keep more than
    ``STATE_BYTES`` bytes (:attr:`EsColState.nbytes`) and it holds more
    than one.  States hold labels and no host, so the store
    keeps no ``World`` alive.
    """

    def __init__(self):
        self.states: OrderedDict[tuple[int, int, int, int, int, int],
                                 EsColState] = OrderedDict()
        self.nbytes = 0

    def lookup(self, world: World):
        """The ruling-set lookup of plans on ``world``; a miss builds on
        the window's labels from :meth:`World.window_labels`."""
        n = world.n
        bounds = world.scheme.span() if n is None else (0, n - 1)

        def build(lo: int, hi: int, R: int, top_class: int,
                  serves: tuple[int, int] | None) -> EsColState:
            return EsColState(world.window_labels(lo, hi), lo, R,
                              top_class=top_class, serves=serves)

        def lookup(lo: int, hi: int, R: int) -> EsColState:
            if n is not None and (lo < 0 or hi >= n):
                return build(lo, hi, R, CLASS_COUNT, None)
            key = (R, *_snapped_window(lo, hi, R, bounds))
            state = self.states.get(key)
            if state is not None:
                self.states.move_to_end(key)
                return state
            wlo, whi, top, slo, shi = key[1:]
            state = self.states[key] = build(wlo, whi, R, top, (slo, shi))
            self.nbytes += state.nbytes
            while self.nbytes > STATE_BYTES and len(self.states) > 1:
                _, old = self.states.popitem(last=False)
                self.nbytes -= old.nbytes
            return state

        return lookup


@dataclass
class _WorldWork:
    """One world and the work runs on it reuse: plans by start, label
    extremes by (va, vb) and the :class:`_StateStore` it shares with every
    other world of its scheme."""

    world: World
    plans: dict[int, AgentPlan] = field(default_factory=dict)
    extremes: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict)
    states: _StateStore = field(default_factory=_StateStore)


# worlds by key, least recently used first; the slots hold every world of one
# benchmark sweep through its warm pass (the finite grid visits 24 worlds,
# the planted care trials 50), and each world holds its scheme object, which
# pins the id in an object scheme's key; ruling states count apart, against
# STATE_BYTES
WORLD_SLOTS = 64
_WORLDS: OrderedDict[tuple, _WorldWork] = OrderedDict()


def _world_work(config: SimConfig) -> _WorldWork:
    """The configured world with its reused work, once the config validates.

    A string scheme counts by its spec, a scheme object by identity.  Stored
    worlds with one spec share one parsed scheme and one ruling-state store,
    so each lives as long as the last of them.  A rejected config leaves the
    store as it was.  Otherwise the world becomes the most recently used
    one, and the least recently used beyond ``WORLD_SLOTS`` are dropped with
    all they hold.
    """
    scheme = config.scheme
    key = (config.topology, config.n,
           scheme if isinstance(scheme, str) else id(scheme), config.seed)
    work = _WORLDS.get(key)
    if work is None:
        # a stored world with the same scheme lends its parsed scheme, which
        # for random labels holds 256 KiB of Feistel tables, and its states
        peer = next((w for k, w in _WORLDS.items() if k[2] == key[2]), None)
        world = make_world(config.topology,
                           scheme if peer is None else peer.world.scheme,
                           n=config.n, seed=config.seed)
        work = (_WorldWork(world) if peer is None
                else _WorldWork(world, states=peer.states))
    config.validate(work.world)
    _WORLDS[key] = work
    _WORLDS.move_to_end(key)
    while len(_WORLDS) > WORLD_SLOTS:
        _WORLDS.popitem(last=False)
    return work


def _cached_plan(work: _WorldWork, start: int) -> AgentPlan:
    plan = work.plans.get(start)
    if plan is None:
        world = work.world
        plan = work.plans[start] = AgentPlan(world, start,
                                             work.states.lookup(world))
    return plan


def run(config: SimConfig) -> SimTrace:
    """Simulate one instance to rendezvous or the round cap."""
    work = _world_work(config)
    world = work.world
    pair = (config.va, config.vb)
    extremes = work.extremes.get(pair)
    if extremes is None:
        extremes = work.extremes[pair] = lmin_stats(world, *pair)
    D = world.distance(*pair)
    cap = (config.round_cap if config.round_cap is not None
           else _round_cap(D, extremes[1]))
    if config.engine == "reference":
        meet, tl_a, tl_b = run_reference(config, world, cap)
    else:
        tl_a = _cached_plan(work, config.va)
        tl_b = _cached_plan(work, config.vb)
        meet = _detect(config, world, tl_a, tl_b, cap, D)
    return SimTrace(config, world, D, cap, extremes, meet, tl_a, tl_b)


def case_classifier(trace: SimTrace) -> str:
    """Tag the rendezvous with the proof case its iteration exercised."""
    t = trace.t_rdv
    if t is None:
        return "other"
    cfg = trace.config
    if t <= cfg.tau:
        return "out-of-sync"
    scale = 4 if cfg.care else 1
    note_a = trace.note_of("alpha", t)
    L = note_a.L if note_a else 1 << _iteration_index(t // scale)
    if 2 * cfg.tau >= 5 * L * scale:
        return "out-of-sync"
    pa, pb = trace.phase_of("alpha", t), trace.phase_of("beta", t)
    if "discovery" in (pa, pb):
        return "discovery-collision"
    nb = trace.note_of("beta", t)
    if (note_a is None or nb is None
            or note_a.phase != "searching" or nb.phase != "searching"):
        return "other"
    if note_a.R != nb.R:
        return "mismatched-R"
    if note_a.r == nb.r:
        return "same-node"
    return "distinct-nodes-colored"


# -- sweeps --------------------------------------------------------------------


def run_row(config: SimConfig) -> dict:
    """Run one cell and flatten it into a results row."""
    return trace_row(run(config))


def trace_row(trace: SimTrace) -> dict:
    """Flatten one run into a results row."""
    config = trace.config
    D, lmin = trace.D, trace.lmin
    logstar_lmin = log_star(lmin)
    denom = max(D, 1) * logstar_lmin
    return {
        "topology": config.topology,
        "n": config.n if config.n is not None else "",
        "D": D,
        "tau": config.tau,
        "scheme": (config.scheme if isinstance(config.scheme, str)
                   else config.scheme.spec()),
        "lmin": lmin,
        "logstar_lmin": logstar_lmin,
        "t_rdv": trace.t_rdv if trace.t_rdv is not None else "",
        "ratio": (f"{trace.t_rdv / denom:.6f}"
                  if trace.t_rdv is not None else ""),
        "case_tag": (case_classifier(trace) if trace.t_rdv is not None
                     else "bound-violation"),
        "seed": config.seed,
    }


def sweep(configs: list[SimConfig]) -> list[dict]:
    """One row per config, in input order; cells are independent."""
    return [run_row(c) for c in configs]


def grid_configs(topology: str = "infinite", n: int | None = None,
                 schemes=("sequential",), d_values=(1,), taus=(0,),
                 seed: int = 0, detection: str = "node-or-crossing",
                 round_cap: int | None = None) -> list[SimConfig]:
    """Cartesian sweep grid with starts straddling the scheme's center, each
    running the program its detection mode pairs with.

    Placing the pair symmetrically around the origin (or the middle of a
    finite host) keeps small-label neighborhoods between the agents rather
    than under one of them, which is the placement that exercises every
    meeting case; starts at 0 and D can never hand both agents the same
    landmark.
    """
    care = detection == "node-only"
    out = []
    for scheme in schemes:
        for d in d_values:
            if d < 1:
                raise SimError(f"start distance {d} is below 1")
            va = -(d // 2) if n is None else (n - d) // 2
            for tau in taus:
                out.append(SimConfig(
                    topology=topology, n=n, scheme=scheme, seed=seed,
                    va=va, vb=va + d, tau=tau, detection=detection, care=care,
                    round_cap=round_cap))
    return out


BENCHMARK_SCHEMES = ("sequential", "random-injective:0:1000000000",
                     "uniform-logstar-class:4", "uniform-logstar-class:5")


def benchmark_grid() -> list[SimConfig]:
    """The standard infinite-line stress grid.

    Four schemes, distances 1..64, and a delay band per distance that spans
    in-phase starts, small offsets, and far-out-of-sync wakes.
    """
    out = []
    for d in range(1, 65):
        taus = sorted({0, 1, 3, d, 3 * d, 10 * d, 10 * d + 7})
        out.extend(grid_configs(schemes=BENCHMARK_SCHEMES, d_values=(d,),
                                taus=taus))
    return out


def finite_benchmark_grid() -> list[SimConfig]:
    """Paths and cycles across sizes, with zero and wrap-scale delays."""
    out = []
    for topology in ("path", "cycle"):
        for n in (8, 32, 128, 512):
            ds = sorted({1, 2, n // 8, n // 4, n // 2})
            out.extend(grid_configs(
                topology=topology, n=n,
                schemes=("sequential", "random-injective:0:1000000000"),
                d_values=tuple(ds), taus=(0, n)))
    return out


def write_csv(rows: list[dict], path, runspec: dict | None = None) -> None:
    """Fixed-column CSV; the generating spec rides in a leading comment, and
    a cell holding a comma or a quote, such as an explicit scheme, is
    quoted."""
    with open(path, "w") as fh:
        if runspec is not None:
            fh.write("# runspec=" + json.dumps(runspec, sort_keys=True) + "\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_COLUMNS)
        out.writerows([row[c] for c in CSV_COLUMNS] for row in rows)
