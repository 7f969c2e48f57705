"""Round-synchronous two-agent simulation, detection, and parameter sweeps.

Both agents run the same deterministic program; the second wakes after a
delay tau but occupies its start node (and is findable there) from round 0.
Rendezvous is detected either by node co-occupancy alone or additionally by
a simultaneous opposite crossing of one edge.

Two engines produce identical results.  ``reference`` executes the move
generators round by round with real port navigation and is the oracle for
``fast``.  ``fast`` plans the plain program's trajectory as linear segments
of slope -1, 0 or +1 and finds the meeting exactly: it merges both agents'
breakpoints and solves each stretch where both move linearly in closed form
(mod n on a cycle), planning one doubling iteration at a time and no further
than the meeting.  Endpoint ping-pong and cycle settling are periodic tails,
so one period decides whether the agents ever meet.  With ``care`` set it
solves the same plain segments for the windows where the two plain positions
come within two nodes (three with crossing detection) and expands the
4-round crossing gadget only inside them.

Runs on the same world share one ``World`` object, and with it every label
computed so far, one trajectory plan per start, and on the infinite line one
ruling-set window per (R, radius); delays only shift a plan in global time.
Worlds are keyed by topology, size, seed and scheme: a string scheme by its
spec, a ``LabelScheme`` object by identity, so such objects must be
deterministic.  Only the ``WORLD_SLOTS`` most recently used worlds are kept.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import json
import math

import numpy as np

from .agent import (
    Observation,
    care_transform,
    main_program,
    plan_iteration,
    searching_walk_segments,
    z_walk_segments,
)
from .logstar import log_star
from .ruling import EsColState
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
    allow_mispairing: bool = False
    allow_same_start: bool = False

    def world(self) -> World:
        return make_world(self.topology, self.scheme, n=self.n, seed=self.seed)

    def validate(self, world: World) -> None:
        if self.detection not in DETECTION_MODES:
            raise SimError(f"unknown detection mode {self.detection!r}")
        if self.engine not in ENGINES:
            raise SimError(f"unknown engine {self.engine!r}")
        if self.tau < 0:
            raise SimError("wake-up delay must be nonnegative")
        for v in (self.va, self.vb):
            if not world.valid(v):
                raise SimError(f"start {v} invalid on this topology")
        if self.va == self.vb and not self.allow_same_start:
            raise SimError("identical starts need allow_same_start")
        care_needed = self.detection == "node-only"
        if self.care != care_needed and not self.allow_mispairing:
            raise SimError(
                "node-only detection pairs with the care-transformed program "
                "and node-or-crossing with the plain one; set allow_mispairing "
                "to run the unsound combination anyway")


# -- bound bookkeeping ---------------------------------------------------------


def lmin_stats(world: World, va: int, vb: int) -> tuple[int, int]:
    """(smallest, largest) label within LMIN_WINDOW_FACTOR*D of either start."""
    D = world.distance(va, vb)
    rad = LMIN_WINDOW_FACTOR * max(D, 1)
    if world.topology == "cycle":
        offs = np.arange(-rad, rad + 1)
        coords = np.unique(np.concatenate([va + offs, vb + offs]) % world.n)
    else:
        lo, hi = min(va, vb) - rad, max(va, vb) + rad
        if world.topology == "path":
            lo, hi = max(lo, 0), min(hi, world.n - 1)
        coords = np.arange(lo, hi + 1)
    labels = world.labels_at(coords)
    return int(labels.min()), int(labels.max())


def _round_cap(D: int, biggest: int) -> int:
    return ROUND_CAP_FACTOR * max(D, 1) * log_star(biggest)


def default_round_cap(world: World, va: int, vb: int) -> int:
    _, biggest = lmin_stats(world, va, vb)
    return _round_cap(world.distance(va, vb), biggest)


# -- analytic trajectory plans -------------------------------------------------


@dataclass(frozen=True)
class IterationNote:
    """What one doubling iteration decided, in plain-program local rounds."""

    L: int
    t0: int
    phase: str
    R: int | None = None
    r: int | None = None
    color: int | None = None


def _iteration_index(t: int) -> int:
    """Index i of the iteration (L = 2^i) containing plain local round t."""
    return (t // 28 + 1).bit_length() - 1


class AgentPlan:
    """Piecewise-linear trajectory of the plain program from one start.

    Iterations are appended lazily; a finite-topology takeover (endpoint
    ping-pong or cycle settling) replaces the tail with a closed form.
    Positions are in the unbounded frame; cycle positions wrap only when
    rendered.
    """

    def __init__(self, world: World, start: int, es_lookup=None):
        self.world = world
        self.start = int(start)
        self.es_lookup = es_lookup
        self.t0s: list[int] = []
        self.x0s: list[int] = []
        self.slopes: list[int] = []
        self.notes: list[IterationNote] = []
        self.cur_t = 0
        self.cur_x = self.start
        self.L_next = 1
        self.terminal: tuple | None = None
        self._arrays: tuple | None = None
        self._ext = (self.start, self.start)
        if world.topology == "path" and start in (0, world.n - 1):
            away = 1 if start == 0 else -1
            self._begin_ping_pong(start, away)

    # -- construction ------------------------------------------------------

    def _append(self, dur: int, slope: int) -> None:
        if dur <= 0:
            return
        self.t0s.append(self.cur_t)
        self.x0s.append(self.cur_x)
        self.slopes.append(slope)
        self.cur_t += dur
        self.cur_x += slope * dur
        self._arrays = None

    def _begin_ping_pong(self, endpoint: int, away: int) -> None:
        self.terminal = ("pingpong", self.cur_t, endpoint, away, self.world.n - 1)

    def _begin_hold(self, x: int) -> None:
        self.terminal = ("hold", self.cur_t, x)

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
        """Walk to the nearest copy of the minimum label and hold there."""
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
        self._begin_hold(target)

    def _window_labels(self, L: int) -> np.ndarray:
        coords = np.arange(self.start - L, self.start + L + 1)
        if self.world.topology == "cycle":
            coords = coords % self.world.n
        return self.world.labels_at(coords)

    def _sweep_direction(self, L: int) -> int:
        w, v = self.world, self.start
        if L == 1:
            # first-ever crossing takes port 0, which fixes the frame
            return 1 if int(w.port_bits_at(np.array([v]))[0]) == 0 else -1
        if w.topology == "cycle":
            plus, minus = (v + 1) % w.n, (v - 1) % w.n
        else:
            plus, minus = v + 1, v - 1
        return 1 if w.label(plus) > w.label(minus) else -1

    def _extend_once(self) -> None:
        L = self.L_next
        for dur, slope in z_walk_segments(L, self._sweep_direction(L)):
            if self._walk_leg(dur, slope):
                return
        plan = plan_iteration(self._window_labels(L), self.start - L,
                              self.start, L, es_lookup=self.es_lookup)
        t0 = 28 * (L - 1)
        if plan is None:
            self._append(24 * L, 0)
            self.notes.append(IterationNote(L, t0, "wait"))
        else:
            for dur, slope in searching_walk_segments(
                    plan.R, L, plan.r - self.start, plan.bits,
                    plan.sweep_direction):
                self._append(dur, slope)
            self.notes.append(IterationNote(L, t0, "searching", plan.R,
                                            plan.r, plan.color))
        self.L_next *= 2

    def ensure(self, t: int) -> None:
        """Plan until the position at local round t is known."""
        while self.terminal is None and self.cur_t < t:
            self._extend_once()

    # -- evaluation --------------------------------------------------------

    def _segment_arrays(self):
        if self._arrays is None:
            self._arrays = (np.array(self.t0s, dtype=np.int64),
                            np.array(self.x0s, dtype=np.int64),
                            np.array(self.slopes, dtype=np.int64))
        return self._arrays

    def positions(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.int64)
        if ts.size == 0:
            return ts.copy()
        if np.any(ts < 0):
            raise SimError("local rounds start at 0")
        self.ensure(int(ts.max()))
        out = np.full(ts.shape, self.cur_x, dtype=np.int64)
        t0a, x0a, sla = self._segment_arrays()
        if t0a.size:
            inside = ts < self.cur_t
            idx = np.searchsorted(t0a, ts[inside], side="right") - 1
            out[inside] = x0a[idx] + sla[idx] * (ts[inside] - t0a[idx])
        if self.terminal is not None:
            kind = self.terminal[0]
            late = ts >= self.terminal[1]
            if kind == "pingpong":
                _, th, e, d, m = self.terminal
                u = (ts[late] - th) % (2 * m)
                out[late] = e + d * np.where(u <= m, u, 2 * m - u)
            else:
                _, _, x = self.terminal
                out[late] = x
        return out

    # -- timeline ----------------------------------------------------------

    def phase_at(self, t: int) -> str:
        if t < 0:
            return "asleep"
        self.ensure(t + 1)
        if self.terminal is not None and t >= self.terminal[1]:
            return "endpoint-walk" if self.terminal[0] == "pingpong" else "settle"
        i = _iteration_index(t)
        L = 1 << i
        if t - 28 * (L - 1) < 4 * L:
            return "discovery"
        return self.notes[i].phase

    def note_at(self, t: int) -> IterationNote | None:
        if t < 0:
            return None
        self.ensure(t + 1)
        if self.terminal is not None and t >= self.terminal[1]:
            return None
        i = _iteration_index(t)
        return self.notes[i] if i < len(self.notes) else None

    def phase_boundaries(self, upto: int) -> list[int]:
        """Local rounds where the phase can change, ascending from 0."""
        self.ensure(upto + 1)
        cut = self.terminal[1] if self.terminal is not None else None
        pts = {0}
        i = 0
        while True:
            L = 1 << i
            s = 28 * (L - 1)
            if s > upto or (cut is not None and s >= cut):
                break
            pts.add(s)
            mid = s + 4 * L
            if mid <= upto and (cut is None or mid < cut) and i < len(self.notes):
                pts.add(mid)
            i += 1
        if cut is not None and cut <= upto:
            pts.add(cut)
        return sorted(pts)


class EventTimeline:
    """Phase/iteration queries over a reference run's annotation stream."""

    _PHASES = {"discovery": "discovery", "searching": "searching",
               "wait": "wait", "endpoint": "endpoint-walk", "settle": "settle"}

    def __init__(self, events: list[dict]):
        self.events = events
        self.ts = [e["t"] for e in events]

    def _last(self, t: int) -> dict | None:
        i = bisect_right(self.ts, t) - 1
        return self.events[i] if i >= 0 else None

    def phase_at(self, t: int) -> str:
        e = self._last(t)
        return self._PHASES[e["phase"]] if e else "asleep"

    def note_at(self, t: int) -> IterationNote | None:
        e = self._last(t)
        if e is None or e["phase"] not in ("searching", "wait"):
            return None
        L = e["L"]
        return IterationNote(L, 28 * (L - 1), e["phase"], e.get("R"),
                             e.get("r"), e.get("color"))

    def phase_boundaries(self, upto: int) -> list[int]:
        return sorted({0, *(t for t in self.ts if t <= upto)})


# -- engines -------------------------------------------------------------------


def _care_positions(plan: AgentPlan, lo: int, hi: int) -> np.ndarray:
    """Care-frame positions for local rounds lo..hi via 4x gadget expansion."""
    t0, t1 = lo // 4, hi // 4 + 1
    x = plan.positions(np.arange(t0, t1 + 1))
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


def _plan_position_fns(config: SimConfig, plan_a: AgentPlan, plan_b: AgentPlan):
    tau, vb = config.tau, config.vb

    if config.care:
        def pos_a(lo, hi):
            return _care_positions(plan_a, lo, hi)

        def pos_b(lo, hi):
            ts = np.arange(lo, hi + 1)
            out = np.full(ts.shape, vb, dtype=np.int64)
            awake = ts >= tau
            if awake.any():
                first = int(ts[awake][0]) - tau
                out[awake] = _care_positions(plan_b, first,
                                             first + int(awake.sum()) - 1)
            return out
    else:
        def pos_a(lo, hi):
            return plan_a.positions(np.arange(lo, hi + 1))

        def pos_b(lo, hi):
            ts = np.arange(lo, hi + 1)
            return np.where(ts < tau, vb,
                            plan_b.positions(np.maximum(ts - tau, 0)))
    return pos_a, pos_b


# -- meeting detection ---------------------------------------------------------


class _Track:
    """One agent's plain trajectory on a shared clock, read left to right.

    The agent rests at ``rest`` before ``shift`` and then follows ``plan``
    shifted by ``shift``.  ``piece`` must be asked nondecreasing times below
    ``end()``.
    """

    def __init__(self, plan: AgentPlan, shift: int, rest: int):
        self.plan = plan
        self.shift = shift
        self.rest = rest
        self._i = 0

    def end(self) -> float:
        """First time whose linear piece is not planned yet."""
        plan = self.plan
        return math.inf if plan.terminal else self.shift + plan.cur_t

    def tail_start(self) -> int:
        return self.shift + self.plan.terminal[1]

    def piece(self, t: int) -> tuple[int, int, float]:
        """(position at t, slope, end of the linear piece holding t)."""
        if t < self.shift:
            return self.rest, 0, self.shift
        plan = self.plan
        u = t - self.shift
        if u < plan.cur_t:
            t0s, i = plan.t0s, self._i
            last = len(t0s) - 1
            while i < last and t0s[i + 1] <= u:
                i += 1
            self._i = i
            end = t0s[i + 1] if i < last else plan.cur_t
            slope = plan.slopes[i]
            return plan.x0s[i] + slope * (u - t0s[i]), slope, self.shift + end
        if plan.terminal[0] == "hold":
            return plan.terminal[2], 0, math.inf
        _, th, e, d, m = plan.terminal
        v = (u - th) % (2 * m)
        if v < m:
            return e + d * v, d, t + m - v
        return e + d * (2 * m - v), -d, t + 2 * m - v


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


def _first_event(xa: np.ndarray, xb: np.ndarray, base: int, first: int,
                 mode: str, wrap: int | None) -> tuple[int, str] | None:
    """First meeting at a round >= first among rounds base.. of two arrays."""
    skip = first - base
    hits = np.flatnonzero(_zero(xa[skip:] - xb[skip:], wrap))
    found = [(first + int(hits[0]), "node")] if hits.size else []
    if mode == "node-or-crossing":
        # swap[i] is a crossing at round base + i + 1
        swap = (_zero(xa[1:] - xb[:-1], wrap) & _zero(xb[1:] - xa[:-1], wrap)
                & (np.abs(np.diff(xa)) == 1))
        lead = max(skip - 1, 0)
        j = np.flatnonzero(swap[lead:])
        if j.size:
            found.append((base + lead + int(j[0]) + 1, "crossing"))
    return min(found) if found else None


def _plain_solver(mode: str, wrap: int | None):
    """Exact meetings of two linear pieces over rounds u0 <= t < u1.

    Node meetings solve xa - xb = 0; a crossing at round u + 1 needs opposite
    unit slopes (mod wrap) and xa - xb = -sa at u.
    """
    crossings = mode == "node-or-crossing"

    def solve(u0, u1, xa, sa, xb, sb):
        d, ds = xa - xb, sa - sb
        k = _first_root(d, ds, wrap)
        node = (u0 + k, "node") if k is not None and u0 + k < u1 else None
        if crossings and sa and _zero(sa + sb, wrap):
            k = _first_root(d + sa, ds, wrap)
            if k is not None and u0 + k < u1:
                cross = (u0 + k + 1, "crossing")
                return min(node, cross) if node else cross
        return node

    return solve


def _care_solver(mode: str, wrap: int | None, pos_a, pos_b):
    """Care-mode meetings over the gadget rounds of plain steps k0 <= k < k1.

    Care round 4k + j stands on plain position x(k) or x(k + 1), and the
    partner's on x'(k - 1), x'(k) or x'(k + 1) of its plain clock shifted by
    tau // 4.  A node meeting therefore needs the plain positions within 2
    at step k, and a crossing within 3.  Only those windows are expanded into
    gadget rounds.  Where both agents stand still, every gadget round after
    the stretch's first step repeats the plain positions, so only that step
    is expanded.
    """
    reach = 3 if mode == "node-or-crossing" else 2

    def near(d):
        return min(d % wrap, -d % wrap) <= reach if wrap else abs(d) <= reach

    def expand(ks, ke):
        lo, hi = max(4 * ks - 1, 0), 4 * ke - 1
        return _first_event(pos_a(lo, hi), pos_b(lo, hi), lo, 4 * ks, mode,
                            wrap)

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
                                for c in range(-reach, reach + 1))
                    if o is not None]
            if not offs or k + min(offs) >= k1:
                return None
            # |ds| >= 1, so the distance leaves the window within 2*reach+1
            ks = k + min(offs)
            k = min(ks + 2 * reach + 1, k1)
            found = expand(ks, k)
            if found:
                return found
        return None

    return solve


def _detect(config: SimConfig, world: World, plan_a: AgentPlan,
            plan_b: AgentPlan, cap: int, fns) -> tuple[int, str] | None:
    """First meeting at a global round <= cap, or None.

    Walks the merged breakpoints of both plain trajectories, solving each
    stretch where both are linear, and extends only the plan that covers the
    shorter stretch, one doubling iteration at a time.  Care runs work in
    plain steps of 4 rounds.  Once both plans are in their terminal tails,
    one period of the joint motion decides whether they ever meet.
    """
    scale = 4 if config.care else 1
    wrap = world.n if world.topology == "cycle" else None
    ta = _Track(plan_a, 0, config.va)
    tb = _Track(plan_b, config.tau // scale, config.vb)
    solve = (_care_solver(config.detection, wrap, *fns) if config.care
             else _plain_solver(config.detection, wrap))
    limit = cap // scale + 1
    t, found = 0, None
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
            xa, sa, ea = ta.piece(t)
            xb, sb, eb = tb.piece(t)
            u1 = min(ea, eb, hi)
            event = solve(t, u1, xa, sa, xb, sb)
            if event and (found is None or event < found):
                found = event
            t = u1
        if t >= limit or (found and found[0] < t * scale):
            break
        (ta if ta.end() <= tb.end() else tb).plan._extend_once()
    return found if found and found[0] <= cap else None


def _run_reference(config: SimConfig, world: World, cap: int):
    """Lock-step generator execution; returns meet, event lists, trails."""
    base = main_program()
    prog = care_transform(base) if config.care else base
    scale = 4 if config.care else 1

    def wake(start, buf):
        obs = Observation(world.label(start), world.degree(start), None, 0)
        return prog.start(obs, buf.append)

    def stamp(buf, events, start, local_t):
        o = 1 if int(world.port_bits_at(np.array([start]))[0]) == 0 else -1
        for e in buf:
            e["t"] = local_t // scale
            if e.get("r") is not None:
                e["r"] = start + o * e["r"]
            events.append(e)
        buf.clear()

    events_a: list[dict] = []
    events_b: list[dict] = []
    pending_a: list[dict] = []
    pending_b: list[dict] = []
    xa, xb = config.va, config.vb
    trail_a, trail_b = [xa], [xb]
    gen_a, mv_a = wake(xa, pending_a)
    stamp(pending_a, events_a, config.va, 0)
    gen_b = mv_b = None
    prev = None
    meet = None
    wrap = world.n if config.topology == "cycle" else None

    def same(p, q):
        return (p - q) % wrap == 0 if wrap else p == q

    def adjacent(p, q):
        d = abs(p - q)
        return d == 1 or (wrap is not None and d == wrap - 1)

    for t in range(cap + 1):
        if t == config.tau:
            gen_b, mv_b = wake(xb, pending_b)
            stamp(pending_b, events_b, config.vb, 0)
        if same(xa, xb):
            meet = (t, "node")
            break
        if (config.detection == "node-or-crossing" and prev is not None
                and same(xa, prev[1]) and same(xb, prev[0])
                and adjacent(xa, prev[0])):
            meet = (t, "crossing")
            break
        if t == cap:
            break
        prev = (xa, xb)
        entry_a = None
        if not mv_a.is_stay:
            xa, entry_a = world.step(xa, mv_a.port)
        entry_b = None
        if mv_b is not None and not mv_b.is_stay:
            xb, entry_b = world.step(xb, mv_b.port)
        trail_a.append(xa)
        trail_b.append(xb)
        mv_a = gen_a.send(Observation(world.label(xa), world.degree(xa),
                                      entry_a, t + 1))
        stamp(pending_a, events_a, config.va, t + 1)
        if gen_b is not None:
            mv_b = gen_b.send(Observation(world.label(xb), world.degree(xb),
                                          entry_b, t + 1 - config.tau))
            stamp(pending_b, events_b, config.vb, t + 1 - config.tau)
    return meet, events_a, events_b, trail_a, trail_b


def _trail_position_fns(trail_a: list[int], trail_b: list[int]):
    arr_a = np.array(trail_a, dtype=np.int64)
    arr_b = np.array(trail_b, dtype=np.int64)

    def make(arr):
        def fn(lo, hi):
            idx = np.minimum(np.arange(lo, hi + 1), arr.size - 1)
            return arr[idx]
        return fn
    return make(arr_a), make(arr_b)


# -- traces --------------------------------------------------------------------


# rounds rendered per batch when writing a per-round trace
_JSONL_BATCH = 1 << 15


class SimTrace:
    """Outcome of one run plus phase/iteration queries in global rounds.

    ``lmin`` and ``lmax`` are the smallest and largest label within the
    bound's window around the starts (see :func:`lmin_stats`).
    """

    def __init__(self, config: SimConfig, world: World, cap: int,
                 extremes: tuple[int, int], meet: tuple[int, str] | None,
                 timeline_a, timeline_b, position_fns):
        self.config = config
        self.world = world
        self.round_cap = cap
        self.lmin, self.lmax = extremes
        self.t_rdv = meet[0] if meet else None
        self.event = meet[1] if meet else None
        self._ta = timeline_a
        self._tb = timeline_b
        self._pos = position_fns
        if self.t_rdv is not None:
            p = int(self._pos[0](self.t_rdv, self.t_rdv)[0])
            self.meet_position = p % world.n if world.topology == "cycle" else p
        else:
            self.meet_position = None

    def _local(self, agent: str, t: int) -> int:
        t = t if agent == "alpha" else t - self.config.tau
        return t // (4 if self.config.care else 1)

    def phase_of(self, agent: str, t: int) -> str:
        if agent == "beta" and t < self.config.tau:
            return "asleep"
        timeline = self._ta if agent == "alpha" else self._tb
        return timeline.phase_at(self._local(agent, t))

    def note_of(self, agent: str, t: int) -> IterationNote | None:
        if agent == "beta" and t < self.config.tau:
            return None
        timeline = self._ta if agent == "alpha" else self._tb
        return timeline.note_at(self._local(agent, t))

    def positions_at(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        xa, xb = self._pos[0](lo, hi), self._pos[1](lo, hi)
        if self.world.topology == "cycle":
            xa, xb = xa % self.world.n, xb % self.world.n
        return xa, xb

    def phase_counts(self, upto: int | None = None) -> dict[str, dict[str, int]]:
        """Exact rounds spent per phase per agent over global rounds 0..end."""
        if upto is not None:
            end = upto
        elif self.t_rdv is not None:
            end = self.t_rdv
        else:
            end = self.round_cap
        scale = 4 if self.config.care else 1
        out: dict[str, dict[str, int]] = {}
        for agent, timeline in (("alpha", self._ta), ("beta", self._tb)):
            wake = 0 if agent == "alpha" else self.config.tau
            counts: dict[str, int] = {}
            out[agent] = counts
            if wake > 0:
                counts["asleep"] = min(wake, end + 1)
            if end < wake:
                continue
            bounds = timeline.phase_boundaries((end - wake) // scale)
            for k, b in enumerate(bounds):
                g0 = wake + b * scale
                g1 = (wake + bounds[k + 1] * scale - 1
                      if k + 1 < len(bounds) else end)
                g1 = min(g1, end)
                if g1 >= g0:
                    phase = timeline.phase_at(b)
                    counts[phase] = counts.get(phase, 0) + (g1 - g0 + 1)
        return out

    def to_jsonl(self, path, limit: int | None = None,
                 runspec: dict | None = None) -> None:
        end = self.t_rdv if self.t_rdv is not None else self.round_cap
        if limit is not None:
            end = min(end, limit)
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


@dataclass
class _WorldWork:
    """One world and the work runs on it reuse: plans by start and, on the
    infinite line, ruling states by (R, radius)."""

    world: World
    plans: dict[int, AgentPlan] = field(default_factory=dict)
    states: dict[tuple, EsColState] = field(default_factory=dict)


# worlds by key, least recently used first; the slots hold every world of one
# benchmark sweep through its warm pass (the finite grid visits 24 worlds,
# the planted care trials 50), and each world holds its scheme object, which
# pins the id in an object scheme's key
WORLD_SLOTS = 64
_WORLDS: OrderedDict[tuple, _WorldWork] = OrderedDict()

# canonical ruling-set windows absorb starts this far from the origin
_ES_MARGIN = 64


def _world_work(config: SimConfig) -> _WorldWork:
    """The configured world with its reused work, once the config validates.

    A string scheme counts by its spec, a scheme object by identity.  Stored
    worlds with one spec share one parsed scheme, so it lives as long as the
    last of them.  A rejected config leaves the store as it was.  Otherwise
    the world becomes the most recently used one, and the least recently used
    beyond ``WORLD_SLOTS`` are dropped with their plans and ruling states.
    """
    scheme = config.scheme
    key = (config.topology, config.n,
           scheme if isinstance(scheme, str) else id(scheme), config.seed)
    work = _WORLDS.get(key)
    if work is None:
        if isinstance(scheme, str):
            # a stored world with the same spec lends its parsed scheme,
            # which for random labels holds 1 MiB of Feistel tables
            scheme = next((w.world.scheme for k, w in _WORLDS.items()
                           if k[2] == scheme), scheme)
        work = _WorldWork(make_world(config.topology, scheme, n=config.n,
                                     seed=config.seed))
    config.validate(work.world)
    _WORLDS[key] = work
    _WORLDS.move_to_end(key)
    while len(_WORLDS) > WORLD_SLOTS:
        _WORLDS.popitem(last=False)
    return work


def _shared_es(world: World, states: dict[tuple, EsColState]):
    """Ruling-set lookup that reuses one canonical window per (R, radius).

    A node's record only depends on labels within its termination-radius
    ball, and the planner only reads records whose ball fits inside the
    queried window, so any window containing the queried one returns the
    same records.  Centering the canonical window at the origin lets every
    nearby start share it.
    """

    def lookup(lo: int, hi: int, R: int) -> EsColState:
        radius = (hi - lo) // 2 + _ES_MARGIN
        if -radius <= lo and hi <= radius:
            state = states.get((R, radius))
            if state is None:
                coords = np.arange(-radius, radius + 1)
                state = states[(R, radius)] = EsColState(world, coords, R)
            return state
        return EsColState(world, np.arange(lo, hi + 1), R)

    return lookup


def _cached_plan(work: _WorldWork, start: int) -> AgentPlan:
    plan = work.plans.get(start)
    if plan is None:
        world = work.world
        es_lookup = (_shared_es(world, work.states)
                     if world.topology == "infinite" else None)
        plan = work.plans[start] = AgentPlan(world, start, es_lookup)
    return plan


def run(config: SimConfig) -> SimTrace:
    """Simulate one instance to rendezvous or the round cap."""
    work = _world_work(config)
    world = work.world
    extremes = lmin_stats(world, config.va, config.vb)
    cap = (config.round_cap if config.round_cap is not None
           else _round_cap(world.distance(config.va, config.vb), extremes[1]))
    if config.engine == "reference":
        meet, events_a, events_b, trail_a, trail_b = _run_reference(
            config, world, cap)
        fns = _trail_position_fns(trail_a, trail_b)
        return SimTrace(config, world, cap, extremes, meet,
                        EventTimeline(events_a), EventTimeline(events_b), fns)
    plan_a = _cached_plan(work, config.va)
    plan_b = _cached_plan(work, config.vb)
    fns = _plan_position_fns(config, plan_a, plan_b)
    meet = _detect(config, world, plan_a, plan_b, cap, fns)
    return SimTrace(config, world, cap, extremes, meet, plan_a, plan_b, fns)


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
    trace = run(config)
    D = trace.world.distance(config.va, config.vb)
    lmin = trace.lmin
    denom = max(D, 1) * log_star(lmin)
    row = {
        "topology": config.topology,
        "n": config.n if config.n is not None else "",
        "D": D,
        "tau": config.tau,
        "scheme": str(config.scheme),
        "lmin": lmin,
        "logstar_lmin": log_star(lmin),
        "t_rdv": trace.t_rdv if trace.t_rdv is not None else "",
        "ratio": (f"{trace.t_rdv / denom:.6f}"
                  if trace.t_rdv is not None else ""),
        "case_tag": (case_classifier(trace) if trace.t_rdv is not None
                     else "bound-violation"),
        "seed": config.seed,
    }
    return row


def _rows_for(configs: list[SimConfig]) -> list[dict]:
    return [run_row(c) for c in configs]


def sweep(configs: list[SimConfig], jobs: int = 1) -> list[dict]:
    """One row per config, in input order; cells are independent."""
    if jobs <= 1 or len(configs) < 2:
        return _rows_for(configs)
    shards = [configs[i::jobs] for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_rows_for, shards))
    merged: list[dict] = []
    iters = [iter(r) for r in results]
    for i in range(len(configs)):
        merged.append(next(iters[i % jobs]))
    return merged


def grid_configs(topology: str = "infinite", n: int | None = None,
                 schemes=("sequential",), d_values=(1,), taus=(0,),
                 seed: int = 0, detection: str = "node-or-crossing",
                 care: bool = False, round_cap: int | None = None,
                 base_config: SimConfig | None = None) -> list[SimConfig]:
    """Cartesian sweep grid with starts straddling the scheme's center.

    Placing the pair symmetrically around the origin (or the middle of a
    finite host) keeps small-label neighborhoods between the agents rather
    than under one of them, which is the placement that exercises every
    meeting case; starts at 0 and D can never hand both agents the same
    landmark.
    """
    base = base_config or SimConfig()
    out = []
    for scheme in schemes:
        for d in d_values:
            va = -(d // 2) if n is None else (n - d) // 2
            for tau in taus:
                out.append(replace(
                    base, topology=topology, n=n, scheme=scheme, seed=seed,
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
    """Fixed-column CSV; the generating spec rides in a leading comment."""
    with open(path, "w") as fh:
        if runspec is not None:
            fh.write("# runspec=" + json.dumps(runspec, sort_keys=True) + "\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")
