"""Two-agent simulation: engines, detection, delays, sweeps, and case tags."""

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemeet import sim
from linemeet.sim import (
    CASE_TAGS,
    CSV_COLUMNS,
    AgentPlan,
    SimConfig,
    SimError,
    case_classifier,
    default_round_cap,
    grid_configs,
    lmin_stats,
    run,
    run_row,
    sweep,
    write_csv,
)
from linemeet.logstar import log_star
from linemeet.world import (
    ExplicitScheme,
    LabelScheme,
    SequentialScheme,
    make_world,
    parse_scheme,
    zigzag_array,
)

RAND = "random-injective:0:1000000000"
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

    def test_identical_starts_guarded(self):
        with pytest.raises(SimError, match="allow_same_start"):
            run(SimConfig(va=2, vb=2))

    def test_identical_starts_meet_immediately(self):
        trace = run(SimConfig(va=2, vb=2, allow_same_start=True))
        assert trace.t_rdv == 0
        assert trace.event == "node"
        assert trace.meet_position == 2

    def test_node_only_requires_care(self):
        with pytest.raises(SimError, match="allow_mispairing"):
            run(SimConfig(detection="node-only"))

    def test_care_requires_node_only(self):
        with pytest.raises(SimError, match="allow_mispairing"):
            run(SimConfig(care=True))

    def test_mispairing_override(self):
        trace = run(SimConfig(detection="node-only", allow_mispairing=True))
        assert trace.t_rdv is not None

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
        # both agents ping-pong from round 2 on and never share a node
        SimConfig(topology="path", n=5, va=0, vb=3, tau=2,
                  detection="node-only", allow_mispairing=True,
                  round_cap=300),
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
    ]

    @pytest.mark.parametrize("cfg", CASES)
    def test_fast_matches_reference(self, cfg):
        fast, ref = both_engines(cfg)
        assert (fast.t_rdv, fast.event) == (ref.t_rdv, ref.event)
        assert fast.meet_position == ref.meet_position

    @settings(max_examples=20, deadline=None)
    @given(va=st.integers(-2, 2), d=st.integers(1, 6),
           tau=st.integers(0, 12))
    def test_fast_matches_reference_randomized(self, va, d, tau):
        cfg = SimConfig(va=va, vb=va + d, tau=tau)
        fast, ref = both_engines(cfg)
        assert (fast.t_rdv, fast.event, fast.meet_position) == \
            (ref.t_rdv, ref.event, ref.meet_position)

    def test_reference_trace_answers_position_queries(self):
        trace = run(SimConfig(va=0, vb=3, tau=5, engine="reference"))
        xa, xb = trace.positions_at(0, trace.t_rdv)
        assert xa[0] == 0 and xb[0] == 3
        assert xa[-1] == xb[-1]


@st.composite
def detection_configs(draw):
    """Small runs on every topology, plain and care, paired or mispaired."""
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
    paired = "node-only" if care else "node-or-crossing"
    detection = draw(st.sampled_from(
        [paired, paired, "node-only", "node-or-crossing"]))
    return SimConfig(topology=topology, scheme=scheme, n=n, va=va, vb=vb,
                     tau=draw(st.integers(0, 40)), care=care,
                     detection=detection,
                     allow_mispairing=detection != paired)


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
    @example(cfg=SimConfig(topology="cycle", n=7, va=1, vb=5, tau=2,
                           detection="node-only", allow_mispairing=True),
             data=None)
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
            assert outcome(fast) == scanned_outcome(fast, cap) == outcome(ref)


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
        trace = run(SimConfig(scheme=PlantedScheme(seed, 0, 3), va=0, vb=d,
                              tau=tau, care=care,
                              detection="node-only" if care
                              else "node-or-crossing"))
        for plan, local in ((trace._ta, trace.t_rdv),
                            (trace._tb, trace.t_rdv - tau)):
            last = local // 4 + 1 if care else local
            start = self.last_iteration_start(plan)
            assert start is not None and start <= last, (start, last)


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


class TestPhaseAccounting:
    def test_counts_match_hand_tally(self):
        trace = run(SimConfig(va=0, vb=3, tau=5))
        assert trace.phase_counts() == {
            "alpha": {"discovery": 16, "wait": 72},
            "beta": {"asleep": 5, "discovery": 12, "wait": 71},
        }

    @pytest.mark.parametrize("cfg", [
        SimConfig(va=0, vb=3, tau=5),
        SimConfig(va=0, vb=3, tau=5, care=True, detection="node-only"),
        SimConfig(topology="cycle", n=12, va=0, vb=4),
        SimConfig(topology="path", n=9, va=6, vb=8, tau=3),
        SimConfig(scheme=CLASS4, va=-11, vb=11),
    ])
    def test_counts_cover_every_round_exactly_once(self, cfg):
        trace = run(cfg)
        counts = trace.phase_counts()
        for agent in ("alpha", "beta"):
            assert sum(counts[agent].values()) == trace.t_rdv + 1

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
        scheme = ExplicitScheme({0: 40, 1: 7, 2: 90, 3: 11, 4: 2,
                                 -1: 65536, -2: 13, -3: 5, -4: 260})
        world = make_world("infinite", scheme)
        assert default_round_cap(world, -1, 1) == 10**5 * 2 * log_star(65536)

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
            assert trace.round_cap == default_round_cap(fresh, cfg.va, cfg.vb)


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

    def test_parallel_sweep_matches_serial(self):
        configs = grid_configs(d_values=(1, 2, 3), taus=(0, 5))
        assert sweep(configs, jobs=2) == sweep(configs, jobs=1)

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

    def test_jsonl_limit(self, tmp_path):
        trace = run(SimConfig(va=0, vb=3, tau=5))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path, limit=10)
        assert len(path.read_text().splitlines()) == 11


class TestSharedRulingWindows:
    def test_canonical_windows_do_not_change_the_plan(self):
        cfg = SimConfig(scheme=CLASS4, va=-11, vb=11)
        cached = run(cfg)
        bare = AgentPlan(cfg.world(), -11)
        bare.ensure(cached.t_rdv)
        horizon = np.arange(cached.t_rdv + 1)
        xa, _ = cached.positions_at(0, cached.t_rdv)
        assert (bare.positions(horizon) == xa).all()


class PlantedScheme(LabelScheme):
    """Random labels up to 1e9 with one small label planted at a coordinate.

    A custom scheme object: runs on it are cached by object identity.
    """

    name = "planted"

    def __init__(self, seed: int, coord: int, value: int):
        self._base = parse_scheme(f"random-injective:{seed}:1000000000")
        self._coord = int(coord)
        self._value = int(value)

    def label_at(self, coord: int) -> int:
        return int(self.labels_at(np.array([coord]))[0])

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        out = self._base.labels_at(coords)
        out = np.where(out == self._value,
                       10**9 + zigzag_array(coords) + 1, out)
        return np.where(coords == self._coord, self._value, out)


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
        shared = PlantedScheme(seed, 0, 3)
        first = self._pair(lambda: shared, d, tau)
        again = self._pair(lambda: shared, d, tau)
        fresh = self._pair(lambda: PlantedScheme(seed, 0, 3), d, tau)
        ref = self._pair(lambda: PlantedScheme(seed, 0, 3), d, tau,
                         engine="reference")
        assert first[0][0] > 28 * 63, "instance must reach a search iteration"
        assert first == again == fresh == ref

    def test_caches_keep_only_recent_custom_worlds(self):
        used, worlds = [], []
        for seed in range(sim.WORLD_SLOTS + 2):
            used.append(PlantedScheme(seed, 0, 3))
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
