"""Two-agent simulation: engines, detection, delays, sweeps, and case tags."""

import ast
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linemeet import reference, ruling, sim
from linemeet.sim import (
    CASE_TAGS,
    CSV_COLUMNS,
    AgentPlan,
    SimConfig,
    SimError,
    case_classifier,
    grid_configs,
    lmin_stats,
    run,
    run_row,
    sweep,
    write_csv,
)
from linemeet.agent import (
    color_bits,
    iteration_decision_round,
    iteration_start_round,
    plan_iteration,
    spacing_grid,
)
from linemeet.logstar import (CLASS_COUNT, CLASS_HI, CLASS_LO, label_classes,
                              log_star)
from linemeet.reference import searching_walk, z_walk
from linemeet.ruling import (EsColState, class_phase_rounds, phase_end_round,
                             ruling_stage_rounds, termination_radius)
from linemeet.world import (
    ExplicitScheme,
    LabelScheme,
    RandomInjectiveScheme,
    SequentialScheme,
    World,
    WorldError,
    make_world,
    parse_scheme,
    zigzag,
    zigzag_array,
)

RAND = "random-injective:0:1000000000"
RAND3 = "random-injective:3"
CLASS4 = "uniform-logstar-class:4"
CLASS5 = "uniform-logstar-class:5"


def both_engines(cfg):
    return run(cfg), run(replace(cfg, engine="reference"))


def scan_for_meeting(trace, cap, chunk=1 << 12):
    """Round-by-round oracle: the first meeting in global rounds 0..cap.

    Reads both agents' positions in chunks through ``trace.positions_at`` and
    checks every round for a shared node and, with crossing detection, every
    pair of consecutive rounds for an exchange across one edge.  Ties in one
    round go to the node meeting.
    """
    world = trace.world
    wrap = world.n if world.topology == "cycle" else None

    def zero(v):
        return v % wrap == 0 if wrap else v == 0

    prev = None
    g = 0
    while g <= cap:
        hi = min(g + chunk - 1, cap)
        xa, xb = trace.positions_at(g, hi)
        base = g
        if prev is not None:
            xa = np.concatenate([[prev[0]], xa])
            xb = np.concatenate([[prev[1]], xb])
            base = g - 1
        hits = np.flatnonzero(zero(xa - xb))
        found = [(base + int(hits[0]), "node")] if hits.size else []
        if trace.config.detection == "node-or-crossing" and xa.size > 1:
            swap = (zero(xa[1:] - xb[:-1]) & zero(xb[1:] - xa[:-1])
                    & ~zero(np.diff(xa)))
            j = np.flatnonzero(swap)
            if j.size:
                found.append((base + 1 + int(j[0]), "crossing"))
        if found:
            return min(found)
        prev = (int(xa[-1]), int(xb[-1]))
        g = hi + 1
    return None


def outcome(trace):
    return (trace.t_rdv, trace.event, trace.meet_position)


def legs(timeline, upto):
    """(t0, x0, slope) of the legs a timeline starts before round upto."""
    return [leg for leg in zip(timeline.t0s, timeline.x0s, timeline.slopes)
            if leg[0] < upto]


def plain_positions(plan, hi):
    """Positions of an awake agent following ``plan`` at rounds 0..hi."""
    return sim._Track(plan, 0).positions(0, hi)


def local_round(trace, agent, g):
    """An agent's timeline and its plain-program local round at global round
    g, negative while it sleeps."""
    wake = trace.config.tau if agent == "beta" else 0
    timeline = trace._ta if agent == "alpha" else trace._tb
    return timeline, (g - wake) // (4 if trace.config.care else 1)


def decisions(trace, agent, end):
    """The notes of the iterations an agent decides by global round end, and
    its tail if that starts by then: the data its phases follow from."""
    timeline, t = local_round(trace, agent, end)
    if t < 0:
        return [], None
    timeline.ensure(t + 1)
    tail = timeline.tail
    return ([note for note in timeline.notes
             if iteration_decision_round(note.L) <= t],
            tail if tail is not None and tail[1] <= t else None)


def assert_engines_agree(fast, ref):
    """Fast and reference runs agree on the meeting, on both trajectories
    through it, on the notes and tails decided by it and, in plain mode, on
    every leg both timelines hold."""
    assert outcome(fast) == outcome(ref)
    end = fast.t_rdv if fast.t_rdv is not None else fast.round_cap
    for xf, xr in zip(fast.positions_at(0, end), ref.positions_at(0, end)):
        assert np.array_equal(xf, xr)
    for agent in ("alpha", "beta"):
        assert decisions(fast, agent, end) == decisions(ref, agent, end)
    if not fast.config.care:
        for plan, recorded in ((fast._ta, ref._ta), (fast._tb, ref._tb)):
            upto = min(plan.cur_t, recorded.cur_t)
            assert legs(plan, upto) == legs(recorded, upto)


def scanned_outcome(trace, cap):
    meet = scan_for_meeting(trace, cap)
    if meet is None:
        return (None, None, None)
    xa, _ = trace.positions_at(meet[0], meet[0])
    return (*meet, int(xa[0]))


class TestConfigValidation:
    def test_unknown_detection(self):
        with pytest.raises(SimError, match="detection"):
            run(SimConfig(detection="telepathy"))

    def test_negative_delay(self):
        with pytest.raises(SimError, match="nonnegative"):
            run(SimConfig(tau=-1))

    def test_start_off_the_path(self):
        with pytest.raises(SimError, match="invalid"):
            run(SimConfig(topology="path", n=5, va=0, vb=9))

    @pytest.mark.parametrize("engine", sim.ENGINES)
    def test_negative_round_cap(self, engine):
        with pytest.raises(SimError, match="round cap"):
            run(SimConfig(round_cap=-5, engine=engine))

    def test_identical_starts_guarded(self):
        with pytest.raises(SimError, match="starts must differ"):
            run(SimConfig(va=2, vb=2))

    # the two pairings without a meeting guarantee are rejected on both
    # engines, with the pairing named
    PAIRING = "node-only detection pairs with the care-transformed program"

    def test_node_only_requires_care(self):
        for engine in sim.ENGINES:
            with pytest.raises(SimError, match=self.PAIRING):
                run(SimConfig(detection="node-only", engine=engine))

    def test_care_requires_node_only(self):
        for engine in sim.ENGINES:
            with pytest.raises(SimError, match=self.PAIRING):
                run(SimConfig(care=True, engine=engine))

    def test_unknown_engine(self):
        with pytest.raises(SimError, match="engine"):
            run(SimConfig(engine="warp"))

    def test_fast_engine_follows_care_flag(self):
        for engine in ("auto", "fast-care"):
            with pytest.raises(SimError, match="engine"):
                run(SimConfig(engine=engine))
        plain = SimConfig(va=0, vb=3, tau=5)
        care = replace(plain, detection="node-only", care=True)
        for cfg in (plain, care):
            fast, ref = both_engines(cfg)
            assert fast.config.engine == "fast"
            assert (fast.t_rdv, fast.event) == (ref.t_rdv, ref.event)
        assert run(care).t_rdv != run(plain).t_rdv


# Times cross-checked against the reference engine before being frozen here.
PINNED = [
    (SimConfig(va=0, vb=3), 503, "node", "other"),
    (SimConfig(va=0, vb=3, tau=5), 87, "node", "discovery-collision"),
    (SimConfig(va=0, vb=3, tau=37), 87, "node", "out-of-sync"),
    (SimConfig(scheme=CLASS4, va=0, vb=9, tau=5),
     34992, "node", "distinct-nodes-colored"),
    (SimConfig(scheme=CLASS5, va=0, vb=9, tau=5),
     270377, "crossing", "distinct-nodes-colored"),
    (SimConfig(scheme=CLASS4, va=-11, vb=11), 131057, "node", "same-node"),
    (SimConfig(scheme=CLASS4, va=-21, vb=22), 135160, "node", "mismatched-R"),
    (SimConfig(scheme=RAND, va=-1, vb=1, tau=1),
     135255, "node", "distinct-nodes-colored"),
    (SimConfig(topology="path", n=2, va=0, vb=1), 1, "crossing", "other"),
    (SimConfig(topology="path", n=5, va=0, vb=4, tau=3),
     4, "crossing", "out-of-sync"),
    (SimConfig(topology="path", n=9, va=6, vb=8, tau=3),
     5, "node", "out-of-sync"),
    (SimConfig(topology="cycle", n=12, va=0, vb=4),
     34, "node", "discovery-collision"),
    (SimConfig(topology="cycle", n=8, va=0, vb=5, tau=6),
     87, "node", "discovery-collision"),
    (SimConfig(topology="cycle", n=3, va=0, vb=2, tau=4),
     3, "node", "out-of-sync"),
]


class TestPinnedOutcomes:
    @pytest.mark.parametrize("cfg,t,event,tag", PINNED)
    def test_outcome(self, cfg, t, event, tag):
        trace = run(cfg)
        assert trace.t_rdv == t
        assert trace.event == event
        assert case_classifier(trace) == tag

    def test_every_tag_is_catalogued(self):
        seen = {tag for _, _, _, tag in PINNED}
        assert seen <= set(CASE_TAGS)
        assert {"same-node", "mismatched-R", "distinct-nodes-colored",
                "out-of-sync"} <= seen


class TestEngineAgreement:
    CASES = [
        SimConfig(va=0, vb=3),
        SimConfig(va=0, vb=3, tau=5),
        SimConfig(va=0, vb=3, tau=37),
        SimConfig(va=-2, vb=2, tau=7),
        SimConfig(scheme="random-injective:7", va=0, vb=2, tau=2),
        SimConfig(topology="path", n=9, va=6, vb=8, tau=3),
        SimConfig(topology="path", n=5, va=0, vb=4, tau=3),
        SimConfig(topology="cycle", n=12, va=0, vb=4),
        SimConfig(topology="cycle", n=8, va=0, vb=5, tau=6),
        SimConfig(va=0, vb=3, care=True, detection="node-only"),
        SimConfig(va=0, vb=3, tau=5, care=True, detection="node-only"),
        SimConfig(topology="cycle", n=12, va=0, vb=4, tau=2, care=True,
                  detection="node-only"),
        SimConfig(topology="path", n=9, va=2, vb=7, tau=1, care=True,
                  detection="node-only"),
        # met across the seam: the unbounded frames differ by a lap
        SimConfig(topology="cycle", n=5, va=0, vb=3),
        SimConfig(topology="cycle", n=8, va=0, vb=5, tau=2),
        # alpha ping-pongs from its endpoint start, beta from round 3, and
        # they meet by crossing an edge in round 4
        SimConfig(topology="path", n=5, va=0, vb=3, tau=2, round_cap=300),
        SimConfig(topology="path", n=12, va=0, vb=11, round_cap=4),
        # care pairs that meet while walking in step within two nodes
        SimConfig(topology="cycle", n=4, va=3, vb=0, care=True,
                  detection="node-only"),
        SimConfig(topology="cycle", n=19, va=4, vb=6, tau=3, care=True,
                  detection="node-only"),
        # the late agent reaches its settled partner inside the gadget of
        # the first plain step in which both stand still
        SimConfig(topology="cycle", n=22, va=11, vb=4, tau=7, care=True,
                  detection="node-only"),
        # both agents search at the meeting, with different spacings R
        SimConfig(scheme=CLASS4, va=-21, vb=22),
    ]

    @pytest.mark.parametrize("cfg", CASES)
    def test_fast_matches_reference(self, cfg):
        assert_engines_agree(*both_engines(cfg))

    @pytest.mark.parametrize("topology,meet", [
        ("path", (118755, "node", 7679)), ("cycle", (127460, "node", 0))])
    def test_fast_matches_reference_on_a_searching_cell(self, topology, meet):
        # both agents search at L = 2048 before the meeting, the fast engine
        # on ball windows and the reference on whole sweep windows
        cfg = SimConfig(topology=topology, n=8192, scheme="sequential",
                        va=3584, vb=4608)
        fast, ref = both_engines(cfg)
        assert outcome(fast) == meet
        assert_engines_agree(fast, ref)
        for plan, recorded in ((fast._ta, ref._ta), (fast._tb, ref._tb)):
            assert plan.notes[:len(recorded.notes)] == recorded.notes
            assert [note for note in recorded.notes
                    if note.phase == "searching"] == [sim.IterationNote(
                        2048, "searching", 1, recorded.start, 2)]

    @settings(max_examples=20, deadline=None)
    @given(va=st.integers(-2, 2), d=st.integers(1, 6),
           tau=st.integers(0, 12))
    def test_fast_matches_reference_randomized(self, va, d, tau):
        assert_engines_agree(*both_engines(SimConfig(va=va, vb=va + d,
                                                     tau=tau)))

    def test_settle_begins_when_the_cycle_is_recognised(self):
        # alpha sees a label again at round 204, then walks to the minimum
        # until 210, where beta already holds and they meet
        cfg = SimConfig(topology="cycle", n=12, scheme="random-injective:3",
                        va=0, vb=6)
        fast, ref = both_engines(cfg)
        assert fast._ta.tail == ref._ta.tail == ("settle", 204)
        assert fast._ta.terminal[1] == fast.t_rdv == 210
        for trace in (fast, ref):
            assert trace.phase_of("alpha", 203) == "discovery"
            assert trace.phase_of("alpha", 204) == "settle"
            assert trace.phase_of("alpha", 210) == "settle"

    def test_no_note_before_the_iteration_decides(self):
        fast, ref = both_engines(SimConfig(topology="cycle", n=12, va=0,
                                           vb=5))
        for trace in (fast, ref):
            assert trace.note_of("alpha", 0) is None
            assert trace.note_of("alpha", 3) is None
            assert trace.note_of("alpha", 4) == sim.IterationNote(1, "wait")

    def test_reference_trace_answers_position_queries(self):
        trace = run(SimConfig(va=0, vb=3, tau=5, engine="reference"))
        xa, xb = trace.positions_at(0, trace.t_rdv)
        assert xa[0] == 0 and xb[0] == 3
        assert xa[-1] == xb[-1]


def imported_names(module):
    """Every linemeet module a module imports, and each name it takes from
    one, as dotted paths."""
    imported = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            base = (("linemeet." if node.level else "")
                    + (node.module or "")).rstrip(".")
            imported += [base] + [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    return imported


def test_the_reference_engine_uses_nothing_of_the_fast_engine():
    # the reference stays an independent oracle for the fast engine only
    # while it plans, tracks and detects without the fast engine's code,
    # and the fast engine takes nothing of the reference but its entry
    ref = imported_names(reference)
    assert "linemeet.agent.Timeline" in ref
    assert not [m for m in ref if m.startswith("linemeet.sim")]
    fast = [m for m in imported_names(sim)
            if m.startswith("linemeet.reference")]
    assert fast == ["linemeet.reference", "linemeet.reference.run_reference"]


@st.composite
def detection_configs(draw):
    """Small runs on every topology, each with the program its detection
    mode pairs with."""
    topology = draw(st.sampled_from(["infinite", "path", "cycle"]))
    scheme = draw(st.sampled_from(
        ["sequential", "random-injective:2", "random-injective:5"]))
    if topology == "infinite":
        n = None
        va = draw(st.integers(-3, 3))
        vb = va + draw(st.integers(1, 6))
    else:
        n = draw(st.integers(2 if topology == "path" else 3, 12))
        va, vb = draw(st.permutations(range(n)))[:2]
    care = draw(st.booleans())
    return SimConfig(topology=topology, scheme=scheme, n=n, va=va, vb=vb,
                     tau=draw(st.integers(0, 40)), care=care,
                     detection="node-only" if care else "node-or-crossing")


class TestDetectionOracle:
    """The segment detector against a round-by-round scan and the reference.

    Each case runs to a horizon, then again under a cap drawn from 0 to a
    little past the meeting (or the horizon when there is none).
    """

    HORIZON = 6000

    @settings(max_examples=60, deadline=None)
    @given(cfg=detection_configs(), data=st.data())
    @example(cfg=SimConfig(topology="path", n=2, va=1, vb=0, tau=3),
             data=None)
    @example(cfg=SimConfig(topology="cycle", n=3, va=2, vb=0, tau=5,
                           care=True, detection="node-only"), data=None)
    @example(cfg=SimConfig(va=-1, vb=2, tau=7, care=True,
                           detection="node-only"), data=None)
    def test_matches_scan_and_reference(self, cfg, data):
        full = run(replace(cfg, round_cap=self.HORIZON))
        assert outcome(full) == scanned_outcome(full, self.HORIZON)
        top = self.HORIZON if full.t_rdv is None else full.t_rdv
        caps = [0, top, top + 3] if data is None else [
            data.draw(st.integers(0, top + 8), label="round_cap")]
        for cap in caps:
            capped = replace(cfg, round_cap=cap)
            fast = run(capped)
            ref = run(replace(capped, engine="reference"))
            assert outcome(fast) == scanned_outcome(fast, cap)
            assert_engines_agree(fast, ref)


@st.composite
def contact_configs(draw):
    """Runs on every topology, plain and care, with D up to 64 and delays up
    to 10D + 7, as in the benchmark grid."""
    topology = draw(st.sampled_from(["infinite", "path", "cycle"]))
    d = draw(st.integers(1, 64))
    n = None
    if topology == "infinite":
        va = draw(st.integers(-8, 8))
        vb = va + d
    else:
        n = draw(st.integers(max(2 * d, 3), 2 * d + 24))
        va = draw(st.integers(0, n - 1 - d if topology == "path" else n - 1))
        vb = (va + d) % n
    if draw(st.booleans()):
        va, vb = vb, va
    care = draw(st.booleans())
    return SimConfig(topology=topology, n=n, va=va, vb=vb,
                     scheme=draw(st.sampled_from(["sequential", RAND3])),
                     tau=draw(st.integers(0, 10 * d + 7)), care=care,
                     detection="node-only" if care else "node-or-crossing",
                     round_cap=TestFirstContact.CAP)


def sweep_extent(plan, u, seen):
    """How far from its start an agent gets in the doubling iteration that
    holds its local plain round u, read off its positions: 0 before it
    wakes, unbounded from the iteration in which a path or cycle tail
    begins.  ``seen`` keeps the extents by iteration."""
    if u < 0:
        return 0
    L = 1
    while iteration_start_round(2 * L) <= u:
        L *= 2
    if L not in seen:
        end = iteration_start_round(2 * L) - 1
        xs = sim._Track(plan, 0).positions(iteration_start_round(L), end)
        seen[L] = (math.inf if plan.tail is not None and plan.tail[1] <= end
                   else int(np.abs(xs - plan.start).max()))
    return seen[L]


class TestFirstContact:
    """Detection starts where the agents can first meet.

    Before the round ``_first_contact`` returns, the agents stay at least
    two nodes apart, and detection from there finds the scan's meeting.
    The round is the first at which the extents of both agents' current
    iterations, read off fresh plans, sum to D - 1; a care run starts one
    plain step before the step where they do.
    """

    CAP = 40_000

    @settings(max_examples=100, deadline=None)
    @given(cfg=contact_configs())
    # contact 84, meeting 88: both agents sweep L = 4 toward each other
    @example(cfg=SimConfig(scheme=RAND3, va=3, vb=-5, round_cap=CAP))
    # contact 27, where beta wakes; meeting 30
    @example(cfg=SimConfig(va=2, vb=5, tau=27, round_cap=CAP))
    # contact 84, meeting 87
    @example(cfg=SimConfig(scheme=RAND3, va=6, vb=1, tau=57, round_cap=CAP))
    # beta starts on the path's end, so it covers the path once it wakes:
    # contact 2, meeting 5
    @example(cfg=SimConfig(topology="path", n=13, va=9, vb=12, tau=2,
                           round_cap=CAP))
    # contact 84, meeting 88
    @example(cfg=SimConfig(topology="cycle", n=13, scheme=RAND3, va=0, vb=7,
                           tau=58, round_cap=CAP))
    # contact 108 (plain step 27, one before the step where the extents
    # reach D - 1), meeting 118
    @example(cfg=SimConfig(topology="cycle", n=21, scheme=RAND3, va=20, vb=16,
                           care=True, detection="node-only", round_cap=CAP))
    # contact 108, meeting 118
    @example(cfg=SimConfig(topology="path", n=15, scheme=RAND3, va=2, vb=6,
                           care=True, detection="node-only", round_cap=CAP))
    # contact 28, meeting 87; the agents are one node apart at round 30,
    # before beta wakes at 31, where the radii first sum to D
    @example(cfg=SimConfig(scheme=RAND3, va=-2, vb=1, tau=31, round_cap=CAP))
    def test_agents_meet_no_earlier_than_the_contact_round(self, cfg):
        trace = run(cfg)
        world = trace.world
        first = sim._first_contact(cfg, world, trace.D)
        if first:
            xa, xb = trace.positions_at(0, first - 1)
            gap = np.abs(xa - xb)
            if world.topology == "cycle":
                gap = np.minimum(gap, world.n - gap)
            assert gap.min() >= 2
        assert outcome(trace) == scanned_outcome(trace, self.CAP)
        fresh = cfg.world()
        plans = AgentPlan(fresh, cfg.va), AgentPlan(fresh, cfg.vb)
        seen = {}, {}
        scale = 4 if cfg.care else 1
        need = world.distance(cfg.va, cfg.vb) - 1
        g = 0
        while (sweep_extent(plans[0], g // scale, seen[0])
               + sweep_extent(plans[1], (g - cfg.tau) // scale, seen[1])
               < need):
            g += 1
        assert first == (g if scale == 1 else 4 * max(g // 4 - 1, 0))


@pytest.mark.parametrize("over", [0, 1])
def test_an_iteration_leaving_its_sweep_window_raises(monkeypatch, over):
    # a 24L-round search that walks `over` nodes past start + L, and back
    monkeypatch.setattr(
        sim, "searching_walk_segments",
        lambda R, L, *rest: [(L + over, 1), (L + over, -1),
                             (22 * L - 2 * over, 0)])
    plan = AgentPlan(make_world("infinite", "sequential"), 0)
    if over:
        with pytest.raises(SimError, match=r"L=16 leaves \[-16, 16\]"):
            plan.ensure(iteration_start_round(32))
    else:
        plan.ensure(iteration_start_round(32))
        assert plan.notes[-1].phase == "searching"


def detect(cfg, plan_a, plan_b, cap):
    """``(t_rdv, event, meet_position)`` of ``sim._detect`` on given plans.

    The position ``_detect`` reports must be alpha's unwrapped position at
    the meeting round, as the position reader gives it.
    """
    world = plan_a.world
    meet = sim._detect(cfg, world, plan_a, plan_b, cap,
                       world.distance(cfg.va, cfg.vb))
    if meet is None:
        return None
    t, event, x = meet
    xs = (sim._care_positions(plan_a, t, t) if cfg.care
          else sim._Track(plan_a, 0).positions(t, t))
    assert x == int(xs[0]), (meet, cfg)
    return (t, event, x % world.n if world.topology == "cycle" else x)


def refine(plan, data):
    """Cut drawn segments of ``plan``, each at a drawn interior round, or
    every segment at its middle when there is no ``data``.

    The trajectory is unchanged; it only runs through more, collinear
    pieces, which the detector must cross as it crosses real breakpoints.
    """
    ends = [*plan.t0s[1:], plan.cur_t][:len(plan.t0s)]
    offs = ([(end - t0) // 2 - 1 for t0, end in zip(plan.t0s, ends)]
            if data is None else
            data.draw(st.lists(st.none() | st.integers(0, 10**6),
                               min_size=len(ends), max_size=len(ends))))
    cuts = {t0 + 1 + off % (end - t0 - 1)
            for t0, end, off in zip(plan.t0s, ends, offs)
            if off is not None and end - t0 > 1}
    t0s, x0s, slopes = [], [], []
    for t0, x0, slope, end in zip(plan.t0s, plan.x0s, plan.slopes, ends):
        for u in [t0, *sorted(c for c in cuts if t0 < c < end)]:
            t0s.append(u)
            x0s.append(x0 + slope * (u - t0))
            slopes.append(slope)
    plan.t0s, plan.x0s, plan.slopes = t0s, x0s, slopes
    return len(cuts)


class TestPartitionInvariance:
    """Detection depends on the trajectories, not on how they are cut."""

    CAP = 6000

    @settings(max_examples=50, deadline=None)
    @given(cfg=detection_configs(), data=st.data())
    @example(cfg=SimConfig(va=0, vb=6, tau=3), data=None)
    @example(cfg=SimConfig(topology="cycle", n=7, va=1, vb=5), data=None)
    @example(cfg=SimConfig(topology="path", n=9, va=0, vb=3, tau=3, care=True,
                           detection="node-only"), data=None)
    def test_refined_plans_meet_identically(self, cfg, data):
        world = cfg.world()  # uncached, so the plans are this test's own
        plans = AgentPlan(world, cfg.va), AgentPlan(world, cfg.vb)
        meet = detect(cfg, *plans, self.CAP)
        before = [plain_positions(p, p.cur_t - 1) for p in plans]
        cuts = [refine(plan, data) for plan in plans]
        for plan, xs in zip(plans, before):
            assert np.array_equal(plain_positions(plan, plan.cur_t - 1), xs)
        assert detect(cfg, *plans, self.CAP) == meet, cuts


def seam_cycle(n, seed, plants, va, vb, tau, care):
    """A cycle with distinct random labels above 3, ``plants`` on top."""
    rng = np.random.default_rng(seed)
    labels = 4 + rng.choice(10**9, size=n, replace=False)
    scheme = ExplicitScheme({**dict(enumerate(labels.tolist())), **plants})
    return SimConfig(topology="cycle", n=n, scheme=scheme, va=va, vb=vb,
                     tau=tau, care=care,
                     detection="node-only" if care else "node-or-crossing")


def seam_searches(trace):
    """(agent, L) of every search begun by the meeting whose window
    [start - L, start + L] wraps across the cycle's seam."""
    cfg = trace.config
    scale = 4 if cfg.care else 1
    found = set()
    for agent, start, wake in (("alpha", cfg.va, 0), ("beta", cfg.vb, cfg.tau)):
        L = 1
        # iteration L searches from local round 28(L-1) + 4L on
        while wake + scale * (32 * L - 28) <= trace.t_rdv:
            note = trace.note_of(agent, wake + scale * (32 * L - 28))
            if note is None:  # settled
                break
            if note.phase == "searching" and not L <= start < cfg.n - L:
                found.add((agent, L))
            L *= 2
    return found


@st.composite
def seam_cycles(draw):
    """Cycles of 33-131 nodes, n not a power of two, with label 1 (and
    maybe 2 and 3) planted on the seam nodes n-2, n-1, 0 and 1, and one
    start often next to them."""
    n = draw(st.integers(33, 131).filter(lambda n: n & (n - 1)))
    seam = draw(st.permutations([n - 2, n - 1, 0, 1]))
    plants = {p: i + 1 for i, p in enumerate(seam[:draw(st.integers(1, 3))])}
    vb = draw(st.one_of(st.sampled_from(seam), st.integers(0, n - 1)))
    va = draw(st.integers(0, n - 1).filter(lambda v: v != vb))
    return seam_cycle(n, draw(st.integers(0, 999)), plants, va, vb,
                      draw(st.sampled_from([0, 1, 3, n])), draw(st.booleans()))


class TestSeamOracle:
    """Fast against reference on cycles whose smallest labels sit on the
    seam, where a plan's window [start - L, start + L] wraps around it."""

    # (n, seed, plants, va, vb, tau, care, seam-crossing searches); the
    # first two search windows of 2L + 1 = n nodes
    PINNED = [
        (33, 1, {1: 1}, 1, 11, 3, False, {("alpha", 16)}),
        (65, 0, {1: 1}, 0, 22, 3, True, {("alpha", 32)}),
        (65, 0, {0: 1}, 0, 22, 3, False, {("alpha", 16), ("alpha", 32)}),
        (131, 25, {129: 1, 130: 2, 0: 3}, 71, 0, 3, False, {("beta", 64)}),
        (97, 303, {95: 1, 96: 2, 1: 3}, 62, 95, 0, False, {("beta", 16)}),
    ]

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_searches_cross_the_seam(self, case):
        *spec, crossing = case
        fast, ref = both_engines(seam_cycle(*spec))
        assert_engines_agree(fast, ref)
        assert seam_searches(fast) == crossing

    @settings(max_examples=40, deadline=None)
    @given(seam_cycles())
    def test_fast_matches_reference_across_the_seam(self, cfg):
        assert_engines_agree(*both_engines(cfg))


class TestPlansStopAtTheMeeting:
    """Detection plans no iteration that starts after an agent's meeting."""

    @staticmethod
    def last_iteration_start(plan):
        return 28 * (plan.L_next // 2 - 1) if plan.L_next > 1 else None

    @pytest.mark.parametrize("care", [False, True])
    @pytest.mark.parametrize("seed,d,tau", [(10, 2, 1), (4, 7, 20)])
    def test_last_iteration_starts_by_the_meeting(self, seed, d, tau, care):
        # a fresh scheme object, so no other run has planned on this world;
        # these pairs meet in a search iteration (TestCustomSchemeReuse)
        if not care:
            tau = -(-tau // 4)
        trace = run(SimConfig(scheme=PlantedScheme(seed, {0: 3}), va=0, vb=d,
                              tau=tau, care=care,
                              detection="node-only" if care
                              else "node-or-crossing"))
        for plan, local in ((trace._ta, trace.t_rdv),
                            (trace._tb, trace.t_rdv - tau)):
            last = local // 4 + 1 if care else local
            start = self.last_iteration_start(plan)
            assert start is not None and start <= last, (start, last)


def walked_steps(plan):
    """Per-round steps of the plan's completed iterations, rebuilt from the
    sweeps and the notes' decisions."""
    world, steps = plan.world, []
    for note in plan.notes:
        steps += z_walk(note.L, plan._sweep_direction(note.L))
        if note.phase == "wait":
            steps += [0] * (24 * note.L)
            continue
        near = np.array([note.r + 1, note.r - 1])
        if world.topology == "cycle":
            near %= world.n
        up, down = world.labels_at(near)
        steps += searching_walk(note.R, note.L, note.r - plan.start,
                                color_bits(note.color), 1 if up > down else -1)
    return steps


class TestPlanShapeAndCost:
    """Plans hold maximal straight legs, and detection looks a piece up
    about once per segment planned."""

    # fresh scheme objects, so each run plans from scratch; every case has
    # a searching iteration, and the finite ones end in a terminal tail
    CASES = {
        "line": lambda: SimConfig(scheme=PlantedScheme(10, {0: 3}), va=0,
                                  vb=2, tau=1),
        "line-care": lambda: SimConfig(scheme=PlantedScheme(10, {0: 3}),
                                       va=0, vb=2, tau=1, care=True,
                                       detection="node-only"),
        "path": lambda: SimConfig(topology="path", n=120,
                                  scheme=PlantedScheme(5, {60: 1}), va=12,
                                  vb=60, tau=3),
        "path-care": lambda: SimConfig(topology="path", n=120,
                                       scheme=PlantedScheme(5, {60: 1}),
                                       va=12, vb=60, tau=12, care=True,
                                       detection="node-only"),
        "cycle": lambda: seam_cycle(33, 1, {1: 1}, 1, 11, 3, False),
        "cycle-care": lambda: seam_cycle(65, 0, {1: 1}, 0, 22, 3, True),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_legs_are_maximal_and_lookups_few(self, case, monkeypatch):
        # pieces read by gadget expansion count apart from detection's
        calls = {"piece": 0, "expand": 0, "extend": 0}
        piece, positions = sim._Track.piece, sim._Track.positions
        extend = AgentPlan._extend_once
        reading = []

        def counted_piece(track, t):
            calls["expand" if reading else "piece"] += 1
            return piece(track, t)

        def counted_positions(track, lo, hi):
            reading.append(track)
            try:
                return positions(track, lo, hi)
            finally:
                reading.pop()

        def counted_extend(plan):
            calls["extend"] += 1
            extend(plan)

        monkeypatch.setattr(sim._Track, "piece", counted_piece)
        monkeypatch.setattr(sim._Track, "positions", counted_positions)
        monkeypatch.setattr(AgentPlan, "_extend_once", counted_extend)
        trace = run(self.CASES[case]())
        assert trace.t_rdv is not None
        plans = (trace._ta, trace._tb)
        assert any(note.phase == "searching"
                   for plan in plans for note in plan.notes)
        if case.startswith(("path", "cycle")):
            assert any(plan.terminal for plan in plans)
        assert (calls["expand"] > 0) == case.endswith("care"), calls
        for plan in plans:
            assert all(a != b for a, b in zip(plan.slopes, plan.slopes[1:]))
            # through the last iteration the plan completed, ahead of any
            # finite takeover
            steps = walked_steps(plan)
            assert len(steps) == 28 * (plan.L_next - 1)
            assert np.array_equal(plain_positions(plan, len(steps)),
                                  np.cumsum([plan.start, *steps]))
        budget = sum(len(plan.t0s) for plan in plans) + 2 * calls["extend"]
        assert calls["piece"] <= budget + 8, (calls, budget)


class TestPositionWindows:
    """A position query reads the same positions whatever its window."""

    CAP = 2000

    @settings(max_examples=40, deadline=None)
    @given(cfg=detection_configs(), engine=st.sampled_from(sim.ENGINES),
           window=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    # beta asleep, a ping-pong tail, hold tails plain and care, a care wake
    @example(cfg=SimConfig(va=0, vb=3, tau=40), engine="fast",
             window=(5, 60))
    @example(cfg=SimConfig(topology="path", n=12, va=4, vb=8),
             engine="fast", window=(88, 97))
    @example(cfg=SimConfig(topology="cycle", n=12, va=4, vb=7,
                           scheme="random-injective:7:1000000"),
             engine="reference", window=(208, 210))
    @example(cfg=SimConfig(topology="cycle", n=8, va=2, vb=6,
                           scheme="random-injective:5", tau=8, care=True,
                           detection="node-only"),
             engine="fast", window=(393, 398))
    @example(cfg=SimConfig(va=-1, vb=2, tau=7, care=True,
                           detection="node-only"),
             engine="fast", window=(3, 30))
    def test_windows_read_slices_of_one_read(self, cfg, engine, window):
        trace = run(replace(cfg, engine=engine, round_cap=self.CAP))
        end = trace.t_rdv if trace.t_rdv is not None else self.CAP
        lo, hi = sorted(w % (end + 1) for w in window)
        whole = trace.positions_at(0, end)
        for part, xs in zip(trace.positions_at(lo, hi), whole):
            assert np.array_equal(part, xs[lo:hi + 1])

    @pytest.mark.parametrize("engine", sim.ENGINES)
    @pytest.mark.parametrize("care", [False, True])
    def test_negative_rounds_raise(self, engine, care):
        trace = run(SimConfig(va=0, vb=3, tau=2, engine=engine, care=care,
                              detection="node-only" if care
                              else "node-or-crossing"))
        with pytest.raises(SimError, match="start at 0"):
            trace.positions_at(-1, 3)


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("cfg", [
        SimConfig(va=0, vb=3, tau=5),
        SimConfig(scheme=RAND, va=-1, vb=1, tau=1),
        SimConfig(topology="path", n=9, va=6, vb=8, tau=3),
        SimConfig(va=0, vb=3, tau=5, care=True, detection="node-only"),
    ])
    def test_unit_steps_only(self, cfg):
        trace = run(cfg)
        xa, xb = trace.positions_at(0, trace.t_rdv)
        for x in (xa, xb):
            assert np.abs(np.diff(x)).max() <= 1

    def test_unit_steps_only_cycle(self):
        trace = run(SimConfig(topology="cycle", n=12, va=0, vb=4))
        xa, xb = trace.positions_at(0, trace.t_rdv)
        for x in (xa, xb):
            steps = np.diff(x) % 12
            assert set(np.unique(steps)) <= {0, 1, 11}

    def test_cycle_positions_stay_on_the_ring(self):
        trace = run(SimConfig(topology="cycle", n=8, va=0, vb=5, tau=6))
        xa, xb = trace.positions_at(0, trace.t_rdv)
        assert xa.min() >= 0 and xa.max() < 8
        assert xb.min() >= 0 and xb.max() < 8

    def test_sleeper_is_pinned_until_wake(self):
        trace = run(SimConfig(va=0, vb=3, tau=9))
        _, xb = trace.positions_at(0, 8)
        assert (xb == 3).all()

    def test_delay_shifts_the_sleeper_in_time(self):
        late = run(SimConfig(va=0, vb=3, tau=5))
        base = run(SimConfig(va=0, vb=3))
        _, xb_late = late.positions_at(5, 90)
        _, xb_base = base.positions_at(0, 85)
        assert (xb_late == xb_base).all()

    def test_care_mode_lands_on_plain_positions_every_fourth_round(self):
        care = run(SimConfig(va=0, vb=3, care=True, detection="node-only"))
        plain = run(SimConfig(va=0, vb=3))
        xa_care, _ = care.positions_at(0, 400)
        xa_plain, _ = plain.positions_at(0, 100)
        assert (xa_care[::4] == xa_plain).all()

    def test_care_meets_within_four_times_plain(self):
        # a care delay of 4k aligns the crossing gadgets with the plain
        # run at delay k; misaligned delays can miss lucky early collisions
        for tau in (0, 5, 9):
            care = run(SimConfig(va=0, vb=3, tau=4 * tau, care=True,
                                 detection="node-only"))
            plain = run(SimConfig(va=0, vb=3, tau=tau))
            assert care.t_rdv <= 4 * plain.t_rdv + 3

    def test_sleeping_target_is_found_without_waking(self):
        trace = run(SimConfig(va=0, vb=1, tau=10**6))
        assert trace.t_rdv == 1
        assert case_classifier(trace) == "out-of-sync"


def scheduled_phase(trace, agent, g):
    """The phase of an agent at global round g as the doubling schedule
    gives it from the agent's notes and tail: iteration L starts at
    28(L - 1) with 4L discovery rounds, then follows its note."""
    timeline, t = local_round(trace, agent, g)
    if t < 0:
        return "asleep"
    timeline.ensure(t + 1)
    if timeline.tail is not None and t >= timeline.tail[1]:
        return timeline.tail[0]
    L = 1
    while iteration_start_round(2 * L) <= t:
        L *= 2
    if t < iteration_start_round(L) + 4 * L:
        return "discovery"
    return next(note.phase for note in timeline.notes if note.L == L)


class TestPhaseAccounting:
    def test_counts_match_hand_tally(self):
        # alpha: 16 discovery and 72 wait rounds through the meeting at 87;
        # beta: 5 asleep, 12 discovery and 71 wait rounds
        trace = run(SimConfig(va=0, vb=3, tau=5))
        assert trace.t_rdv == 87
        schedule = {
            "alpha": [(0, "discovery"), (3, "discovery"), (4, "wait"),
                      (27, "wait"), (28, "discovery"), (35, "discovery"),
                      (36, "wait"), (83, "wait"), (84, "discovery"),
                      (87, "discovery")],
            "beta": [(0, "asleep"), (4, "asleep"), (5, "discovery"),
                     (8, "discovery"), (9, "wait"), (32, "wait"),
                     (33, "discovery"), (40, "discovery"), (41, "wait"),
                     (87, "wait")],
        }
        for agent, phases in schedule.items():
            assert [trace.phase_of(agent, t) for t, _ in phases] == \
                [phase for _, phase in phases]

    @pytest.mark.parametrize("cfg", [
        SimConfig(va=0, vb=3, tau=5),
        SimConfig(va=0, vb=3, tau=5, care=True, detection="node-only"),
        SimConfig(topology="cycle", n=12, va=0, vb=4),
        SimConfig(topology="path", n=9, va=6, vb=8, tau=3),
        SimConfig(scheme=CLASS4, va=-11, vb=11),
    ])
    def test_counts_cover_every_round_exactly_once(self, cfg):
        # each round through the meeting counts once, under the phase the
        # schedule gives it from the notes and tail
        trace = run(cfg)
        for agent in ("alpha", "beta"):
            rounds = range(trace.t_rdv + 1)
            assert [trace.phase_of(agent, g) for g in rounds] == \
                [scheduled_phase(trace, agent, g) for g in rounds]

    def test_sleeper_phase_before_wake(self):
        trace = run(SimConfig(va=0, vb=3, tau=5))
        assert trace.phase_of("beta", 0) == "asleep"
        assert trace.phase_of("beta", 4) == "asleep"
        assert trace.phase_of("beta", 5) != "asleep"
        assert trace.note_of("beta", 2) is None

    def test_shared_landmark_is_visible_in_the_notes(self):
        trace = run(SimConfig(scheme=CLASS4, va=-11, vb=11))
        na = trace.note_of("alpha", trace.t_rdv)
        nb = trace.note_of("beta", trace.t_rdv)
        assert na.phase == nb.phase == "searching"
        assert na.R == nb.R
        assert na.r == nb.r

    def test_distinct_landmarks_in_the_mixed_spacing_cell(self):
        trace = run(SimConfig(scheme=CLASS4, va=-21, vb=22))
        na = trace.note_of("alpha", trace.t_rdv)
        nb = trace.note_of("beta", trace.t_rdv)
        assert na.R != nb.R


class TestBoundBookkeeping:
    def brute_window(self, world, va, vb):
        D = world.distance(va, vb)
        rad = max(D, 1)
        coords = set()
        for v in (va, vb):
            for off in range(-rad, rad + 1):
                c = v + off
                if world.topology == "cycle":
                    coords.add(c % world.n)
                elif world.valid(c):
                    coords.add(c)
        labels = [world.label(c) for c in coords]
        return min(labels), max(labels)

    @pytest.mark.parametrize("topology,n,va,vb", [
        ("infinite", None, -3, 4),
        ("path", 9, 0, 2),
        ("path", 9, 6, 8),
        ("cycle", 8, 0, 4),
        ("cycle", 12, 10, 1),
    ])
    def test_window_extremes_match_brute_force(self, topology, n, va, vb):
        world = make_world(topology, "random-injective:3", n=n)
        assert lmin_stats(world, va, vb) == self.brute_window(world, va, vb)

    def test_cycle_window_wraps_to_the_global_minimum(self):
        world = make_world("cycle", "random-injective:3", n=8)
        lmin, _ = lmin_stats(world, 0, 4)
        assert lmin == min(world.label(v) for v in range(8))

    def test_default_cap_formula(self):
        # labels past D of the starts are class 6; the largest within it,
        # 65536 at -1, is class 5 and sets the cap
        labels = {c: 70000 + zigzag(c) for c in range(-300, 301)}
        labels.update({0: 40, 1: 7, 2: 90, 3: 11, 4: 2, -1: 65536, -2: 13,
                       -3: 5, -4: 260})
        trace = run(SimConfig(scheme=ExplicitScheme(labels), va=-1, vb=1))
        assert trace.t_rdv is not None
        assert trace.round_cap == 10**5 * 2 * log_star(65536)

    def test_expired_cap_reports_no_meeting(self):
        trace = run(SimConfig(va=0, vb=3, round_cap=10))
        assert trace.t_rdv is None
        assert trace.event is None
        assert trace.meet_position is None

    @pytest.mark.parametrize("cfg", [
        SimConfig(scheme=RAND, va=-5, vb=9),
        SimConfig(topology="cycle", n=12, scheme=RAND, va=10, vb=1,
                  round_cap=500),
        SimConfig(scheme=CLASS4, va=2, vb=3, engine="reference",
                  round_cap=50),
    ])
    def test_trace_carries_window_extremes(self, cfg):
        trace = run(cfg)
        fresh = cfg.world()
        assert (trace.lmin, trace.lmax) == lmin_stats(fresh, cfg.va, cfg.vb)
        if cfg.round_cap is None:
            D = fresh.distance(cfg.va, cfg.vb)
            assert trace.round_cap == \
                sim.ROUND_CAP_FACTOR * D * log_star(trace.lmax)


class TestOneWorldPerKey:
    def test_runs_on_one_world_share_it_with_their_plans(self):
        first = SimConfig(scheme=RAND, va=-3, vb=4)
        second = replace(first, vb=9, tau=7)
        a, b = run(first), run(second)
        assert a.world is b.world
        plans = sim._world_work(first).plans
        for trace, cfg in ((a, first), (b, second)):
            assert plans[cfg.va].world is trace.world
            assert plans[cfg.vb].world is trace.world
        other = run(replace(first, seed=1)).world
        assert other is not a.world and other.scheme is a.world.scheme
        assert run(replace(first, topology="path", n=40, va=3)).world \
            is not a.world

    def test_label_extremes_computed_once_per_start_pair(self, monkeypatch):
        calls = []

        def counted(world, va, vb):
            calls.append((va, vb))
            return lmin_stats(world, va, vb)

        monkeypatch.setattr(sim, "lmin_stats", counted)
        # a fresh scheme object keys a world no other test has run on
        base = SimConfig(topology="cycle", n=24, scheme=parse_scheme(RAND),
                         va=3)
        configs = [replace(base, vb=vb, tau=tau)
                   for vb in (9, 15, 22) for tau in (0, 5, 24)]
        configs += [replace(c, va=c.vb, vb=c.va) for c in configs]
        for cfg in configs:
            trace = run(cfg)
            assert (trace.lmin, trace.lmax) == \
                lmin_stats(cfg.world(), cfg.va, cfg.vb)
        pairs = {(cfg.va, cfg.vb) for cfg in configs}
        assert len(pairs) == 6 and sorted(calls) == sorted(pairs)
        extremes = sim._world_work(base).extremes
        assert set(extremes) == pairs
        with pytest.raises(SimError, match="invalid"):
            run(replace(base, vb=30))
        assert set(extremes) == pairs and len(calls) == len(pairs)

    def test_rejected_config_leaves_store_alone(self):
        for seed in range(sim.WORLD_SLOTS):
            run(SimConfig(topology="path", n=8, seed=seed, va=3, vb=4))
        before = list(sim._WORLDS.items())
        for scheme in ("sequential", SequentialScheme()):
            with pytest.raises(SimError, match="invalid"):
                run(SimConfig(topology="cycle", n=8, scheme=scheme,
                              va=-3, vb=1))
            assert list(sim._WORLDS.items()) == before

    def test_store_stays_bounded_over_many_worlds(self):
        worlds = []
        for k in range(1000):
            scheme = "sequential" if k % 2 else SequentialScheme()
            trace = run(SimConfig(topology="path", n=8, scheme=scheme,
                                  seed=k, va=3, vb=4))
            worlds.append(weakref.ref(trace.world))
            del trace
            assert len(sim._WORLDS) <= sim.WORLD_SLOTS
        gc.collect()
        held = {id(w) for w in (ref() for ref in worlds) if w is not None}
        assert len(held) == sim.WORLD_SLOTS
        assert held == {id(work.world) for work in sim._WORLDS.values()}


class TestRowsAndSweeps:
    def test_row_columns(self):
        row = run_row(SimConfig(va=0, vb=3, tau=5))
        assert set(row) == set(CSV_COLUMNS)
        assert row["topology"] == "infinite"
        assert row["n"] == ""
        assert row["D"] == 3
        assert row["tau"] == 5
        assert row["t_rdv"] == 87
        assert row["case_tag"] == "discovery-collision"

    def test_row_ratio_formula(self):
        row = run_row(SimConfig(va=0, vb=3, tau=5))
        denom = row["D"] * row["logstar_lmin"]
        assert row["ratio"] == f"{87 / denom:.6f}"
        assert row["lmin"] == 1
        assert row["logstar_lmin"] == log_star(1)

    def test_row_flags_cap_expiry(self):
        row = run_row(SimConfig(va=0, vb=3, round_cap=10))
        assert row["t_rdv"] == ""
        assert row["ratio"] == ""
        assert row["case_tag"] == "bound-violation"

    def test_sweep_preserves_input_order(self):
        configs = grid_configs(d_values=(1, 2, 3), taus=(0, 5))
        rows = sweep(configs)
        assert [(r["D"], r["tau"]) for r in rows] == \
            [(1, 0), (1, 5), (2, 0), (2, 5), (3, 0), (3, 5)]

    def test_csv_round_trip_is_deterministic(self, tmp_path):
        configs = grid_configs(d_values=(2, 3), taus=(0, 5))
        spec = {"purpose": "unit", "cells": len(configs)}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sweep(configs), p1, runspec=spec)
        write_csv(sweep(configs), p2, runspec=spec)
        text = p1.read_text()
        assert text == p2.read_text()
        lines = text.splitlines()
        assert json.loads(lines[0].removeprefix("# runspec=")) == spec
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + len(configs)

    def test_scheme_object_rows_carry_its_spec(self):
        # a built-in object's cell is its spec string's; a custom scheme
        # without a spec of its own gets its class name, never an address
        by_object = run_row(SimConfig(scheme=RandomInjectiveScheme(0), va=0,
                                      vb=3))
        by_string = run_row(SimConfig(scheme=RAND, va=0, vb=3))
        assert by_object == by_string
        assert by_object["scheme"] == RAND

        class Shifted(LabelScheme):
            def labels_at(self, coords):
                return zigzag_array(coords) + 7

        cells = {run_row(SimConfig(scheme=Shifted(), va=0, vb=3))["scheme"]
                 for _ in range(2)}
        assert cells == {"Shifted"}


class TestGridConfigs:
    def test_straddle_starts_on_the_line(self):
        cfgs = grid_configs(d_values=(5, 6), taus=(0,))
        assert [(c.va, c.vb) for c in cfgs] == [(-2, 3), (-3, 3)]

    def test_finite_starts_stay_in_range(self):
        for n in (8, 9):
            for d in range(1, n):
                cfg, = grid_configs(topology="path", n=n, d_values=(d,),
                                    taus=(0,))
                assert 0 <= cfg.va < n and 0 <= cfg.vb < n
                assert cfg.vb - cfg.va == d

    def test_cartesian_size(self):
        cfgs = grid_configs(schemes=("sequential", RAND),
                            d_values=(1, 2, 3), taus=(0, 1, 2, 3))
        assert len(cfgs) == 2 * 3 * 4

    def test_detection_mode_chooses_the_program(self):
        for detection, care in (("node-or-crossing", False),
                                ("node-only", True)):
            cfgs = grid_configs(d_values=(1, 2), detection=detection)
            assert {(c.detection, c.care) for c in cfgs} == {(detection, care)}
        with pytest.raises(TypeError):
            grid_configs(care=True)


class TestTraceExport:
    def test_jsonl_rows(self, tmp_path):
        trace = run(SimConfig(va=0, vb=3, tau=5))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == trace.t_rdv + 1
        assert rows[0] == {"round": 0, "xa": 0, "xb": 3,
                           "phase_a": "discovery", "phase_b": "asleep",
                           "event": None}
        assert rows[-1]["event"] == "node"
        assert rows[-1]["xa"] == rows[-1]["xb"]
        assert all(r["event"] is None for r in rows[:-1])


# (sweep radius L, spacing R) pairs whose plans read classes 1-5
LADDER_SWEEPS = [(40, 1), (200, 1), (200, 4), (1200, 1), (1200, 4), (1200, 16)]


@st.composite
def window_layouts(draw):
    """(L, scheme, plants): a uniform-class scheme spec, or the seed of
    random labels with 1-3 labels of classes 1-5 planted within 2R of the
    center, keyed by offset."""
    L, R = draw(st.sampled_from(LADDER_SWEEPS))
    uniform = draw(st.sampled_from([None, CLASS4, CLASS5]))
    if uniform is not None:
        return L, uniform, {}
    small = st.one_of(*[st.integers(CLASS_LO[c], CLASS_HI[c])
                        for c in range(CLASS_COUNT - 1)])
    plants = draw(st.lists(st.tuples(st.integers(-2 * R, 2 * R), small),
                           min_size=1, max_size=3,
                           unique_by=(lambda p: p[0], lambda p: p[1])))
    return L, draw(st.integers(0, 99)), dict(plants)


@st.composite
def snap_queries(draw):
    """(lo, hi, R, bounds): a query no wider than the top rung of the class
    ladder, often exactly a rung, centered up to 1e7 from the origin, and
    the host's extent around it, or None."""
    R = draw(st.sampled_from([1, 4, 16, 64, 256, 1024]))
    rungs = [R + phase_end_round(R, c) for c in range(1, CLASS_COUNT + 1)]
    need = draw(st.one_of(st.sampled_from(rungs), st.integers(0, rungs[-1])))
    tile = max(1, min(r for r in rungs if r >= need) // 8)
    # centers up to a half tile from a multiple of it, where the snap moves
    # furthest
    half = tile // 2
    center = (draw(st.integers(-10**7 // tile, 10**7 // tile)) * tile
              + draw(st.one_of(st.sampled_from([-half, half]),
                               st.integers(-half, half))))
    lo = center - need
    hi = center + need + draw(st.integers(0, 1))
    bounds = draw(st.one_of(
        st.none(), st.just((-math.inf, math.inf)),
        st.tuples(st.integers(lo - 3 * rungs[-1], lo),
                  st.integers(hi, hi + 3 * rungs[-1]))))
    return lo, hi, R, bounds


class TestSharedRulingWindows:
    def test_snapped_windows_do_not_change_the_plan(self):
        cfg = SimConfig(scheme=CLASS4, va=-11, vb=11)
        cached = run(cfg)
        bare = AgentPlan(cfg.world(), -11)
        bare.ensure(cached.t_rdv)
        xa, _ = cached.positions_at(0, cached.t_rdv)
        assert (plain_positions(bare, cached.t_rdv) == xa).all()

    # (labels, L, activated R): random labels are class 6 and sweep past the
    # termination ball, R + phase_end_round(R, CLASS_COUNT), except at
    # L = 2184; a small label planted next to the center activates R at
    # sweeps within the ball
    CASES = [("random", 2184, 1), ("random", 2190, 1), ("random", 9900, 4),
             ("random", 40400, 16), ("planted", 40, 1), ("planted", 300, 4),
             ("planted", 1200, 16)]

    @pytest.mark.parametrize("kind,L,R", CASES)
    def test_ball_sized_windows_give_the_sweep_window_plan(self, kind, L, R):
        store = sim._StateStore()
        for center in (0, 64, -64, 65, -65, 10**6):
            world = make_world("infinite", RAND if kind == "random"
                               else PlantedScheme(center, {center + 1: 2}))
            if kind == "planted":
                store = sim._StateStore()  # each center has its own world
            asked, served = [], []

            def lookup(lo, hi, R, shared=store.lookup(world)):
                asked.append((lo, hi, R))
                served.append(shared(lo, hi, R))
                return served[-1]

            lo = center - L
            labels = world.labels_at(np.arange(lo, center + L + 1))
            plan = plan_iteration(labels, lo, center, L, es_lookup=lookup)
            assert plan is not None and plan.R == R
            assert plan == plan_iteration(labels, lo, center, L)
            # the served window is the query's snapped window, and it holds
            # the termination ball of every node the planner reads, which is
            # what makes its records exact
            (state,) = served
            (query,) = asked
            window = sim._snapped_window(*query, world.scheme.span())
            assert np.array_equal(state.coords,
                                  np.arange(window[0], window[1] + 1))
            assert state is store.states[(R, *window)]
            coords = state.coords
            for u in range(center - R, center + R + 1):
                radius = termination_radius(world.label(u), R)
                if abs(u - center) + radius <= L:
                    assert coords[0] <= u - radius
                    assert u + radius <= coords[-1]

    @staticmethod
    def check_tight_window(world, store, center, L):
        """Plan at one center through the shared store; returns (R, rung,
        tile, state), or None when no spacing activates."""
        lo = center - L
        labels = world.labels_at(np.arange(lo, center + L + 1))
        calls, served = [], []
        shared = store.lookup(world)

        def lookup(win_lo, win_hi, R):
            calls.append((win_lo, win_hi, R))
            served.append(shared(win_lo, win_hi, R))
            return served[-1]

        plan = plan_iteration(labels, lo, center, L, es_lookup=lookup)
        # the full sweep window of the uncached path is the oracle
        assert plan == plan_iteration(labels, lo, center, L)
        if plan is None:
            assert calls == []
            return None
        R = plan.R
        reach = {u: abs(u - center) + termination_radius(world.label(u), R)
                 for u in range(center - R, center + R + 1)}
        read = [u for u, r in reach.items() if r <= L]
        need = max(reach[u] for u in read)
        assert calls == [(center - need, center + need, R)]
        top = next(c for c in range(1, CLASS_COUNT + 1)
                   if R + phase_end_round(R, c) >= need)
        rung = R + phase_end_round(R, top)
        # the rung is that of the highest class read, and the state holds
        # the classes up to it
        assert top == max(log_star(world.label(u)) for u in read)
        # the window depends on the rung, not on the need: it is centered
        # on the multiple of the tile nearest the center, ties upward
        tile = max(1, rung // 8)
        (state,) = served
        wlo, whi = int(state.coords[0]), int(state.coords[-1])
        assert state is store.states[(R, wlo, whi, top, *state.serves)]
        assert state.top_class == top
        assert np.array_equal(state.coords, np.arange(wlo, whi + 1))
        mid = (wlo + whi) // 2
        assert mid % tile == 0 and tile // 2 - tile < mid - center <= tile // 2
        assert whi - mid == mid - wlo == rung + tile // 2 + 1
        # it serves the member windows of every center snapped to mid
        first = mid - tile // 2
        assert state.serves == (first - 2 * R + 1, first + tile + 2 * R - 2)
        for u in read:
            ball = termination_radius(world.label(u), R)
            assert state.coords[0] <= u - ball
            assert u + ball <= state.coords[-1]
        return R, rung, tile, state

    @given(window_layouts())
    @example((1200, 7, {0: 40000}))  # class 5 at the center, R = 1
    @example((1200, 3, {1: 2, -3: 9}))  # classes 2 and 4, R = 4
    @example((1200, 5, {-5: 1, 20: 30}))  # class 1, R = 16
    @example((200, CLASS4, {}))
    @example((1200, CLASS5, {}))
    @settings(deadline=None, max_examples=25)
    def test_tight_windows_follow_the_class_ladder(self, layout):
        L, scheme, plants = layout
        shared = None if isinstance(scheme, int) else make_world("infinite",
                                                                 scheme)
        store = sim._StateStore()

        def at(center):
            if shared is not None:
                return self.check_tight_window(shared, store, center, L)
            world = make_world("infinite", PlantedScheme(
                scheme, {center + off: v for off, v in plants.items()}))
            return self.check_tight_window(world, sim._StateStore(), center,
                                           L)

        first = at(0)
        if first is not None:
            # the last center snapped to the origin shares its window when
            # it reads the same rung, and the next one is snapped a tile on
            R, rung, tile, state = first
            last = tile - tile // 2 - 1
            for center, same in ((last, True), (last + 1, False)):
                again = at(center)
                if shared is not None and again is not None \
                        and again[:2] == (R, rung):
                    assert (again[3] is state) == same
        at(10**6)

    def test_an_over_wide_query_raises_and_stores_nothing(self):
        # the top rung at R = 1 is 2185, which no plan's need passes, so
        # this query has no snapped window
        assert 1 + phase_end_round(1, CLASS_COUNT) == 2185
        store = sim._StateStore()
        lookup = store.lookup(make_world("infinite", RAND))
        with pytest.raises(SimError, match="top rung"):
            lookup(-3000, 3000, 1)
        assert not store.states and store.nbytes == 0
        assert lookup(-2185, 2185, 1).coords[0] <= -2185

    @given(snap_queries())
    # an odd tile of 7 at the class-3 rung 57, the snap a half tile below
    # the center and the query one node past need: the window ends at hi
    @example((-54, 61, 1, None))
    @settings(deadline=None, max_examples=300)
    def test_snapped_windows_hold_the_query_within_the_host(self, query):
        lo, hi, R, bounds = query
        wlo, whi, top, slo, shi = sim._snapped_window(lo, hi, R, bounds)
        assert wlo <= lo and hi <= whi
        # the served region lies in the window and holds the center's
        # member window, as far as the host reaches
        center = (lo + hi) // 2
        ends = (-math.inf, math.inf) if bounds is None else bounds
        assert wlo <= slo <= shi <= whi
        assert slo <= max(center - 2 * R + 1, ends[0])
        assert min(center + 2 * R - 1, ends[1]) <= shi
        # the class of the smallest rung that holds the query's need
        need = (hi - lo) // 2
        assert R + phase_end_round(R, top) >= need
        assert top == 1 or R + phase_end_round(R, top - 1) < need
        if bounds is not None:
            assert bounds[0] <= wlo and whi <= bounds[1]


def class2_at(start, n):
    """Labels of an n-node host: class 2 at start, class 5 elsewhere.

    The start's termination ball at R = 1 is 32 nodes, so the planner at
    start asks at L = 32 for the window [start - 32, start + 32].
    """
    return ExplicitScheme({c: 2 if c == start else 1000 + c
                           for c in range(n)})


class TestFiniteBallWindows:
    """Finite hosts ask for exactly the ball window of each iteration and
    are served its snapped window, clipped to [0, n - 1], or, across a
    cycle's seam, exactly the window; the sweep window is the oracle."""

    CASES = [
        ("path", "sequential", 8192, 3584),
        # the ball window [-1069, 1269] wraps the seam
        ("cycle", "sequential", 8192, 100),
        # the ball window [1, 65] stops one node short of the end
        ("path", class2_at(33, 200), 200, 33),
        ("cycle", class2_at(10, 200), 200, 10),
    ]

    @pytest.mark.parametrize("topology,scheme,n,start", CASES)
    def test_ball_windows_give_the_sweep_window_plan(self, topology, scheme,
                                                     n, start):
        world = make_world(topology, scheme, n=n)
        asked, served = [], []
        store = sim._StateStore().lookup(world)

        def lookup(lo, hi, R):
            asked.append((lo, hi, R))
            served.append(store(lo, hi, R))
            return served[-1]

        plan = AgentPlan(world, start, lookup)
        plan.ensure(iteration_start_round(4096))
        expected = []
        for note in plan.notes:
            L = note.L
            lo = start - L
            coords = np.arange(lo, start + L + 1)
            labels = world.labels_at(coords % n if topology == "cycle"
                                     else coords)
            oracle = plan_iteration(labels, lo, start, L)
            if oracle is None:
                assert note.phase == "wait"
                continue
            assert (note.R, note.r, note.color) == (oracle.R, oracle.r,
                                                    oracle.color)
            R = oracle.R
            reach = {u: abs(u - start)
                     + termination_radius(int(labels[u - lo]), R)
                     for u in range(start - R, start + R + 1)}
            need = max(r for r in reach.values() if r <= L)
            expected.append((start - need, start + need, R))
            # the served window holds the ball of every node the plan read
            state = served[len(expected) - 1]
            for u, r in reach.items():
                if r <= L:
                    ball = r - abs(u - start)
                    assert state.coords[0] <= u - ball
                    assert u + ball <= state.coords[-1]
        assert expected and asked == expected
        for (lo, hi, R), state in zip(asked, served):
            window = ((lo, hi) if lo < 0 or hi >= n
                      else sim._snapped_window(lo, hi, R, (0, n - 1)))
            assert np.array_equal(state.coords,
                                  np.arange(window[0], window[1] + 1))
        if topology == "cycle":
            assert any(win_lo < 0 <= win_hi for win_lo, win_hi, _ in asked)


def records(state):
    """What a ruling state keeps, and the record of every node of its built
    classes, in coordinate order."""
    built = [state.output_for(int(u))
             for u, label in zip(state.coords, state.labels)
             if log_star(int(label)) <= state.top_class]
    return (state.top_class, state.labels.tolist(),
            state.member_coords.tolist(), state.member_classes.tolist(),
            state.member_colors.tolist(), built)


def served_records(state, region=None):
    """The members of a ruling state in ``region``, by default the region
    it serves, with their classes and colors."""
    slo, shi = state.serves if region is None else region
    i, j = np.searchsorted(state.member_coords, (slo, shi + 1))
    return (state.member_coords[i:j].tolist(),
            state.member_classes[i:j].tolist(),
            state.member_colors[i:j].tolist())


@st.composite
def cone_cases(draw):
    """(topology, scheme, n, center, L): random, uniform-class-4 or -5
    labels, or random labels with 1-3 small explicit labels within R of the
    center, on the line or on a path or cycle whose end may clip the
    windows, and the smallest sweep radius, plus up to R, at which a
    spacing R in {1, 4, 16} activates at the center (R = 16 only when a
    label below class 6 lies within R of it, to keep windows small)."""
    kind = draw(st.sampled_from(["random", "class4", "class5", "explicit"]))
    R = draw(st.sampled_from([1, 4] if kind == "random" else [1, 4, 16]))
    topology = draw(st.sampled_from(["infinite", "path", "cycle"]))
    seed = draw(st.integers(0, 99))
    small = st.one_of(*[st.integers(CLASS_LO[c], CLASS_HI[c])
                        for c in range(CLASS_COUNT - 1)])
    plants = draw(st.lists(st.tuples(st.integers(-R, R), small),
                           min_size=1, max_size=3,
                           unique_by=(lambda p: p[0], lambda p: p[1])))

    def at(center):
        if kind == "explicit":
            scheme = PlantedScheme(seed, {center + off: label
                                          for off, label in plants})
        else:
            scheme = {"random": f"random-injective:{seed}", "class4": CLASS4,
                      "class5": CLASS5}[kind]
        near = make_world("infinite", scheme).labels_at(
            np.arange(center - R, center + R + 1))
        return scheme, max(16 * R, min(
            abs(u) + termination_radius(int(label), R)
            for u, label in zip(range(-R, R + 1), near)))

    center, extra = draw(st.integers(0, 1 << 13)), draw(st.integers(0, R))
    scheme, L = at(center)
    if topology != "infinite" and center < L + extra:
        # the sweep must lie on the host, whose nodes are 0..n - 1
        center += L + extra
        scheme, L = at(center)
    L += extra
    assume(topology == "infinite" or center >= L)
    n = None if topology == "infinite" else \
        center + L + 1 + draw(st.integers(0, 2 * L))
    return topology, scheme, n, center, L


@given(cone_cases())
@settings(deadline=None, max_examples=25)
def test_cone_states_are_the_full_build_in_the_region_they_serve(case):
    topology, scheme, n, center, L = case
    world = make_world(topology, scheme, n=n)
    coords = np.arange(center - L, center + L + 1)
    labels = world.labels_at(coords % n if topology == "cycle" else coords)
    store = sim._StateStore()
    universes = []
    honest = ruling._class_members

    def recording(vi, labels, committed, R, class_index, debug):
        universes.append((class_index, vi))
        return honest(vi, labels, committed, R, class_index, debug)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ruling, "_class_members", recording)
        plan = plan_iteration(labels, center - L, center, L,
                              es_lookup=store.lookup(world))
    # the full sweep window's plan is the oracle
    assert plan is not None
    assert plan == plan_iteration(labels, center - L, center, L)
    ((key, state),) = store.states.items()
    R, wlo, whi, top, slo, shi = key
    assert slo <= center - 2 * R + 1 and center + 2 * R - 1 <= shi
    full = EsColState(state.labels, wlo, R, top_class=top)
    assert served_records(state) == served_records(full, (slo, shi))
    for p in range(slo, shi + 1, max(1, (shi - slo) // 16)):
        if log_star(int(state.labels[p - wlo])) <= top:
            assert state.output_for(p) == full.output_for(p)
    # the top class ran first on its nodes within the cone of the served
    # region, and on the rest of the window only when that cone's coloring
    # could be narrower
    cone = class_phase_rounds(R, top) + ruling_stage_rounds(R, top) + 2 * R
    nodes = np.flatnonzero(label_classes(state.labels) == top) + wlo
    ran = [vi for cls, vi in universes if cls == top]
    assert np.array_equal(ran[0], nodes[(nodes >= slo - cone)
                                        & (nodes <= shi + cone)])
    assert len(ran) <= 3


class TestFiniteStateStore:
    """Worlds with one scheme, on any topology, build each snapped window
    once, within a node budget; a window across a cycle's seam is their
    own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """A fresh world store, and the windows built through it."""
        monkeypatch.setattr(sim, "_WORLDS", OrderedDict())
        built = []
        honest = sim.EsColState

        def recording(labels, lo, R, top_class, serves):
            built.append((lo, lo + labels.size - 1, R, top_class, serves))
            return honest(labels, lo, R, top_class=top_class, serves=serves)

        monkeypatch.setattr(sim, "EsColState", recording)
        return built

    def test_a_path_and_a_cycle_share_their_windows(self, builds):
        # both agents search at L = 2048 on either host, each on one window
        for topology, meet in (("path", (118755, "node", 7679)),
                               ("cycle", (127460, "node", 0))):
            assert outcome(run(SimConfig(topology=topology, n=8192,
                                         va=3584, vb=4608))) == meet
        assert len(builds) == 2, builds
        assert all(0 <= lo and hi < 8192 for lo, hi, *_ in builds)
        (store,) = {work.states for work in sim._WORLDS.values()}
        # the stored states outlive the worlds that built them
        worlds = [weakref.ref(work.world) for work in sim._WORLDS.values()]
        sim._WORLDS.clear()
        gc.collect()
        assert len(store.states) == 2
        assert [ref() for ref in worlds] == [None, None]

    def test_the_line_and_a_path_share_their_windows(self, builds):
        # planned through L = 2048, the line builds on itself the windows
        # that both agents search on, and the path finds them stored
        line = SimConfig(va=3584, vb=4608,
                         round_cap=iteration_start_round(4096))
        assert run(line).t_rdv is None
        on_line = list(builds)
        assert outcome(run(replace(line, topology="path", n=8192,
                                   round_cap=None))) == (118755, "node", 7679)
        assert len(on_line) == 2 and builds == on_line
        (store,) = {work.states for work in sim._WORLDS.values()}
        assert [key[0] for key in store.states] == [1, 1]
        worlds = [weakref.ref(work.world) for work in sim._WORLDS.values()]
        sim._WORLDS.clear()
        gc.collect()
        assert len(store.states) == 2
        assert [ref() for ref in worlds] == [None, None]

    @pytest.mark.parametrize("first", [8192, 6000])
    def test_seam_windows_hold_their_own_labels(self, builds, first):
        # the second cycle plans after the first on the same scheme, so a
        # stored seam window would hand it the first one's labels
        for n in (first, 14192 - first):
            work = sim._world_work(SimConfig(topology="cycle", n=n, va=100,
                                             vb=101))
            plan = sim._cached_plan(work, 100)
            served = []

            def lookup(lo, hi, R, shared=plan.es_lookup, served=served):
                served.append(shared(lo, hi, R))
                return served[-1]

            plan.es_lookup = lookup
            plan.ensure(iteration_start_round(4096))
            (state,) = served
            assert (state.R, state.coords[0], state.coords[-1]) == \
                (1, -1069, 1269)
            assert np.array_equal(state.labels,
                                  work.world.labels_at(state.coords % n))
            for note in plan.notes:
                L = note.L
                labels = work.world.labels_at(
                    np.arange(100 - L, 100 + L + 1) % n)
                oracle = plan_iteration(labels, 100 - L, 100, L)
                assert (note.R, note.r, note.color) == (
                    (None, None, None) if oracle is None
                    else (oracle.R, oracle.r, oracle.color))
        # a seam window holds every class over the whole window
        assert builds.count((-1069, 1269, 1, CLASS_COUNT, None)) == 2

    def test_a_seam_window_is_not_served_a_path_window(self, builds):
        # the path stores a window over [4655, 6993]; on a cycle of 6000 the
        # same query crosses the seam, where the labels are the cycle's own
        path = SimConfig(topology="path", n=8192, va=4800, vb=5824)
        run(path)
        work = sim._world_work(replace(path, topology="cycle", n=6000))
        assert work.states is sim._world_work(path).states
        assert any(lo <= 4655 and 6993 <= hi for lo, hi, *_ in builds)
        state = work.states.lookup(work.world)(4655, 6993, 1)
        assert np.array_equal(state.coords, np.arange(4655, 6994))
        assert np.array_equal(state.labels,
                              work.world.labels_at(state.coords % 6000))

    def test_the_store_keeps_within_its_budget(self, monkeypatch):
        # the windows below lie on the class-1 rung and hold no class-1
        # label, so they keep their labels alone: an R = 1 window of 39
        # nodes keeps 312 B, an R = 4 one of 249 nodes 1,992 B, and two of
        # the first and one of the second go past this
        monkeypatch.setattr(sim, "STATE_BYTES", 2600)
        world = make_world("path", CLASS4, n=4096)
        store = sim._StateStore()
        lookup = store.lookup(world)
        # R = 1 queries of need <= 17 share the rung 17 and R = 4 ones of
        # need <= 116 the rung 116: windows of 39 and 249 nodes
        queries = [(41 * k - need, 41 * k + need, R)
                   for k, (need, R) in enumerate([(9, 1), (17, 1), (60, 4)]
                                                 * 4, start=3)]
        first = lookup(*queries[0])
        before = records(first)
        for k, query in enumerate(queries):
            state = lookup(*query)
            key = (query[2], int(state.coords[0]), int(state.coords[-1]),
                   state.top_class, *state.serves)
            assert lookup(*query) is state
            assert list(store.states.items())[-1] == (key, state)
            assert store.nbytes == sum(s.nbytes
                                       for s in store.states.values())
            assert 0 < store.nbytes <= sim.STATE_BYTES, k
        center = queries[0][0] + 9
        assert lookup(center - 17, center + 17, 1) is lookup(center - 2,
                                                              center + 2, 1)
        assert all(np.array_equal(s.coords, np.arange(lo, hi + 1))
                   for (_, lo, hi, *_), s in store.states.items())
        assert first not in store.states.values()
        # a state past the budget is the newest, so it is stored alone
        big = lookup(300, 700, 4)
        assert big.coords.size == 487 and store.nbytes == big.nbytes
        assert big.nbytes > sim.STATE_BYTES
        assert list(store.states.values()) == [big]
        # the window at the end of the path stops at its last node
        end = lookup(4075, 4095, 1)
        assert end.coords[-1] == 4095 and list(store.states.values()) == [end]
        rebuilt = lookup(*queries[0])
        assert rebuilt is not first and records(rebuilt) == before
        assert list(store.states.values()) == [end, rebuilt]

    def test_two_rungs_clipped_to_one_window_keep_their_classes(self):
        # on a path of 69 nodes the R = 1 queries of need 33 (the class-2
        # rung) and 34 (the class-3 rung) both clip to [0, 68]
        n, center = 69, 34
        world = make_world("path", ExplicitScheme(
            {c: 2 if c == center else 3 if c == 20 else 1000 + c
             for c in range(n)}), n=n)
        store = sim._StateStore()
        lookup = store.lookup(world)
        needs = {2: 33, 3: 34}
        served = {top: lookup(center - need, center + need, 1)
                  for top, need in needs.items()}
        assert served[2] is not served[3]
        # the class-2 rung's tile is 4 and the class-3 rung's 7, so the
        # center 34 snaps to 36 and 35, and the served regions differ too
        assert list(store.states) == [(1, 0, n - 1, 2, 33, 38),
                                      (1, 0, n - 1, 3, 31, 39)]
        full = EsColState(world.labels_at(np.arange(n)), 0, 1)
        for top, state in served.items():
            assert state.top_class == top
            assert lookup(center - needs[top], center + needs[top],
                          1) is state
            keep = full.member_classes <= top
            assert np.array_equal(state.member_coords,
                                  full.member_coords[keep])
            assert np.array_equal(state.member_colors,
                                  full.member_colors[keep])
        # at L = 32 the class-2 label at the center activates R = 1 alone,
        # and either state gives the plan of the sweep window
        L = 32
        labels = world.labels_at(np.arange(center - L, center + L + 1))
        oracle = plan_iteration(labels, center - L, center, L)
        assert oracle is not None and oracle.R == 1
        for state in served.values():
            assert plan_iteration(labels, center - L, center, L,
                                  es_lookup=lambda *query: state) == oracle
        # the plan's own query, of need 32, lies on the class-2 rung
        assert plan_iteration(labels, center - L, center, L,
                              es_lookup=lookup) == oracle
        assert len(store.states) == 2
        assert next(reversed(store.states.values())) is served[2]

    def test_two_snaps_clipped_to_one_window_keep_their_regions(self):
        # on a path of 69 nodes with a class-2 label at 33, the planner
        # asks at centers 33 (L = 32) and 34 (L = 33) on the class-2 rung,
        # whose tile of 4 snaps them to 32 and 36; both windows clip to
        # [0, 68], but each serves its own centers' member windows
        n = 69
        world = make_world("path", ExplicitScheme(
            {c: 2 if c == 33 else 1000 + c for c in range(n)}), n=n)
        store = sim._StateStore()
        lookup = store.lookup(world)
        for center, L in ((33, 32), (34, 33)):
            labels = world.labels_at(np.arange(center - L, center + L + 1))
            oracle = plan_iteration(labels, center - L, center, L)
            assert oracle is not None and oracle.R == 1
            assert plan_iteration(labels, center - L, center, L,
                                  es_lookup=lookup) == oracle
        assert list(store.states) == [(1, 0, n - 1, 2, 29, 34),
                                      (1, 0, n - 1, 2, 33, 38)]
        full = EsColState(world.labels_at(np.arange(n)), 0, 1, top_class=2)
        for (*_, slo, shi), state in store.states.items():
            assert state.serves == (slo, shi)
            assert served_records(state) == served_records(full, (slo, shi))

    def test_a_clipped_path_window_holds_its_scheme_labels(self, monkeypatch):
        # labelled from the scheme in blocks of 100, past the path's end
        # the snapped window stops at its last node
        monkeypatch.setattr("linemeet.world.WINDOW_BLOCK", 100)
        world = make_world("path", CLASS4, n=4096)
        state = sim._StateStore().lookup(world)(3990, 4095, 4)
        assert state.coords[-1] == 4095 and state.coords.size == 174
        assert np.array_equal(state.labels,
                              world.scheme.labels_at(state.coords))
        assert world._store.labels.size == 0


# the run path in a fresh interpreter: which topologies searched, and
# whether numpy.ma got loaded (np.unique without an inverse imports it);
# prints null when importing numpy alone loads it
MA_PROBE = """
import json, sys
import numpy
if "numpy.ma" in sys.modules:
    print("null")
    raise SystemExit
from linemeet.sim import SimConfig, run
cells = [SimConfig(scheme="random-injective:0:1000000000", va=-16, vb=16)]
cells += [SimConfig(topology=topology, n=8192, va=3584, vb=4608)
          for topology in ("path", "cycle")]
out = {}
for cfg in cells:
    notes = run(cfg)._ta.notes
    out[cfg.topology] = [any(note.phase == "searching" for note in notes),
                         "numpy.ma" in sys.modules]
print(json.dumps(out))
"""


def test_runs_do_not_load_numpy_ma():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MA_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    if found is None:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert found == {topology: [True, False]
                     for topology in ("infinite", "path", "cycle")}


def bench_size_cells(topologies):
    """The finite cells only the benchmark runs: n = 2048 and 8192."""
    out = []
    for topology in topologies:
        for n in (2048, 8192):
            out += grid_configs(topology=topology, n=n,
                                schemes=("sequential", RAND),
                                d_values=(1, 2, n // 8, n // 4, n // 2),
                                taus=(0, n))
    return out


def rows_sha256(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# rows_sha256 of bench_size_cells(("path", "cycle")), pinned before path and
# cycle worlds shared their ruling states
BENCH_SIZE_ROWS_SHA256 = (
    "11200b9b7eb32ef4fe5c5946e857c025efaa4505ba93646b6ae77813c861f847")


def test_bench_size_finite_rows_are_pinned(monkeypatch):
    rows = sweep(bench_size_cells(("path", "cycle")))
    assert len(rows) == 80
    assert rows_sha256(rows) == BENCH_SIZE_ROWS_SHA256
    alone = []
    for topology in ("path", "cycle"):
        monkeypatch.setattr(sim, "_WORLDS", OrderedDict())
        alone += sweep(bench_size_cells((topology,)))
    assert rows_sha256(alone) == BENCH_SIZE_ROWS_SHA256


class PlantedScheme(LabelScheme):
    """Random labels up to 1e9 with small labels planted at coordinates.

    ``plants`` maps coordinates to distinct labels; a random label equal to
    a planted one moves above 1e9.  A custom scheme object: runs on it are
    cached by object identity.
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


class DuplicateScheme(LabelScheme):
    """Class-4 uniform labels where coordinate ``coord`` repeats the label
    of ``twin``.  Without a span, a world labels only what it is asked."""

    name = "duplicate"

    def __init__(self, coord: int, twin: int):
        self._base = parse_scheme(CLASS4)
        self.coord, self.twin = coord, twin

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        twin = self._base.labels_at(np.array([self.twin]))[0]
        return np.where(coords == self.coord, twin,
                        self._base.labels_at(coords))


def test_a_duplicate_only_a_sweep_visits_raises(monkeypatch):
    # the pair at -3 and 3 meets at 8522 while searching at L = 256; beta's
    # sweep [-253, 259] then is all that reaches 259: it lies past the
    # labels every plan reads, 2 R_top of its start, the lmin window
    # [-9, 9] and every ruling window
    monkeypatch.setattr(sim, "_WORLDS", OrderedDict())
    clean = SimConfig(scheme=DuplicateScheme(10**6, 0), va=-3, vb=3)
    assert outcome(run(clean)) == (8522, "node", -3)
    (work,) = sim._WORLDS.values()
    assert work.states.states
    assert all(whi < 259 for _, _, whi, *_ in work.states.states)
    assert 3 + 2 * spacing_grid(256)[0] < 259
    # the label at 259 repeats alpha's start label
    with pytest.raises(WorldError, match="duplicate"):
        run(replace(clean, scheme=DuplicateScheme(259, -3)))


def test_a_sweep_past_the_labelled_range_raises(monkeypatch):
    # random-injective:0:30 labels [-15, 14]; the lmin window, the plan
    # windows and the ruling windows stay inside it, and only alpha's
    # L = 16 sweep [-17, 15] leaves it: without the sweep's check the pair
    # would meet
    cfg = SimConfig(scheme="random-injective:0:30", va=-1, vb=1)
    monkeypatch.setattr(sim, "_WORLDS", OrderedDict())
    with pytest.raises(WorldError, match="outside injective range"):
        run(cfg)
    monkeypatch.setattr(sim, "_WORLDS", OrderedDict())
    monkeypatch.setattr(World, "cover", lambda world, lo, hi: None)
    assert run(cfg).t_rdv == 2086


class TestCustomSchemeReuse:
    # (seed, d, tau): the plain pair meets in its L=64 search iteration
    PLANTED = [(10, 2, 1), (0, 5, 9), (4, 7, 20)]

    @staticmethod
    def _pair(scheme_for, d, tau, **extra):
        plain = run(SimConfig(scheme=scheme_for(), va=0, vb=d,
                              tau=-(-tau // 4), **extra))
        care = run(SimConfig(scheme=scheme_for(), va=0, vb=d, tau=tau,
                             detection="node-only", care=True, **extra))
        return [(t.t_rdv, t.event) for t in (plain, care)]

    @pytest.mark.parametrize("seed,d,tau", PLANTED)
    def test_reuse_does_not_change_results(self, seed, d, tau):
        shared = PlantedScheme(seed, {0: 3})
        first = self._pair(lambda: shared, d, tau)
        again = self._pair(lambda: shared, d, tau)
        fresh = self._pair(lambda: PlantedScheme(seed, {0: 3}), d, tau)
        ref = self._pair(lambda: PlantedScheme(seed, {0: 3}), d, tau,
                         engine="reference")
        assert first[0][0] > 28 * 63, "instance must reach a search iteration"
        assert first == again == fresh == ref

    def test_caches_keep_only_recent_custom_worlds(self):
        used, worlds = [], []
        for seed in range(sim.WORLD_SLOTS + 2):
            used.append(PlantedScheme(seed, {0: 3}))
            trace = run(SimConfig(scheme=used[-1], va=0, vb=2, tau=1))
            worlds.append(weakref.ref(trace.world))
            del trace
            assert len(sim._WORLDS) <= sim.WORLD_SLOTS
        recent = {id(s) for s in used[-sim.WORLD_SLOTS:]}
        assert {key[2] for key in sim._WORLDS} == recent
        for work in sim._WORLDS.values():
            assert len(work.plans) <= 2
            assert all(plan.world is work.world for plan in work.plans.values())
        # evicted worlds, with their labels, plans and ruling states, are freed
        gc.collect()
        held = [ref() for ref in worlds if ref() is not None]
        assert len(held) == sim.WORLD_SLOTS
        assert {id(world.scheme) for world in held} == recent
