"""Walks, per-iteration planning, and the reference engine's gadgets and
doubling search program."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linemeet.agent import (
    AgentError,
    color_bits,
    iteration_start_round,
    plan_iteration,
    spacing_grid,
)
from linemeet.logstar import CLASS_HI, CLASS_LO
from linemeet.reference import (
    STAY,
    KnownLine,
    Move,
    Observation,
    care_transform,
    careful_walk_moves,
    careful_walk_occupancy,
    main_program,
    searching_walk,
    z_walk,
)
from linemeet.ruling import EsColState, termination_radius
from linemeet.sim import _StateStore as StateStore
from linemeet.world import ExplicitScheme, World, make_world


def drive(world, start, program, rounds, sink=None):
    """Reference runner: execute a program on a world, return the position trail."""
    pos = start
    obs = Observation(world.label(pos), world.degree(pos), None, 0)
    gen = program(obs, sink)
    move = gen.send(None)
    trail = [pos]
    for t in range(1, rounds + 1):
        entry = None
        if not move.is_stay:
            pos, entry = world.step(pos, move.port)
        trail.append(pos)
        move = gen.send(Observation(world.label(pos), world.degree(pos),
                                    entry, t))
    return trail


def exec_moves(world, start, moves):
    pos, trail = start, [start]
    for mv in moves:
        if not mv.is_stay:
            pos, _ = world.step(pos, mv.port)
        trail.append(pos)
    return trail


class TestCarefulWalk:
    def test_occupancy_toward_higher(self):
        assert careful_walk_occupancy(3, 8) == "00111"

    def test_occupancy_toward_lower(self):
        assert careful_walk_occupancy(8, 3) == "11010"

    def test_move_shape(self):
        up = careful_walk_moves(1, 3, 8, 0)
        assert up == [STAY, Move(1), STAY, STAY]
        down = careful_walk_moves(1, 8, 3, 0)
        assert down == [STAY, Move(1), Move(0), Move(1)]

    def test_equal_labels_rejected(self):
        with pytest.raises(AgentError):
            careful_walk_moves(0, 5, 5, 1)

    @pytest.mark.parametrize("la,lb", [(5, 9), (9, 5)])
    def test_opposite_crossings_co_occupy_higher_endpoint(self, la, lb):
        world = World(topology="infinite", scheme=ExplicitScheme({0: la, 1: lb}))
        a_moves = careful_walk_moves(world.port_toward(0, 1), la, lb,
                                     world.port_toward(1, 0))
        b_moves = careful_walk_moves(world.port_toward(1, 0), lb, la,
                                     world.port_toward(0, 1))
        ta = exec_moves(world, 0, a_moves)
        tb = exec_moves(world, 1, b_moves)
        higher = 0 if la > lb else 1
        assert ta[3] == tb[3] == higher
        assert (ta[4], tb[4]) == (1, 0)


class TestZWalk:
    def test_unit_sweep(self):
        steps = z_walk(1, 1)
        assert list(np.concatenate([[0], np.cumsum(steps)])) == [0, 1, 0, -1, 0]

    def test_radius_two_sweep(self):
        steps = z_walk(2, 1)
        assert list(np.concatenate([[0], np.cumsum(steps)])) == [
            0, 1, 2, 1, 0, -1, -2, -1, 0]

    def test_mirrored_start(self):
        steps = z_walk(2, -1)
        pos = np.concatenate([[0], np.cumsum(steps)])
        assert list(pos) == [0, -1, -2, -1, 0, 1, 2, 1, 0]

    @given(L=st.integers(1, 64), f=st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_sweep_properties(self, L, f):
        steps = z_walk(L, f)
        pos = np.concatenate([[0], np.cumsum(steps)])
        assert len(steps) == 4 * L
        assert pos[0] == pos[-1] == 0
        assert set(pos.tolist()) == set(range(-L, L + 1))

    def test_bad_radius(self):
        with pytest.raises(AgentError):
            z_walk(0)


class TestColorBits:
    def test_extremes(self):
        assert color_bits(1) == (0, 0, 0, 0, 0)
        assert color_bits(32) == (1, 1, 1, 1, 1)

    def test_big_endian(self):
        assert color_bits(7) == (0, 0, 1, 1, 0)
        for c in range(1, 33):
            bits = color_bits(c)
            assert sum(b << (4 - i) for i, b in enumerate(bits)) == c - 1

    def test_out_of_range(self):
        for c in (0, 33):
            with pytest.raises(AgentError):
                color_bits(c)


class TestSearchingWalk:
    @pytest.mark.parametrize("R,L,r,bits", [
        (1, 16, 0, (0, 0, 0, 0, 0)),
        (1, 16, 1, (1, 1, 1, 1, 1)),
        (4, 64, -7, (1, 0, 1, 1, 0)),
        (4, 128, 5, (0, 1, 0, 0, 0)),
        (16, 1024, -31, (1, 1, 0, 1, 1)),
    ])
    def test_exact_duration_and_shape(self, R, L, r, bits):
        steps = searching_walk(R, L, r, bits)
        assert len(steps) == 24 * L
        pos = np.concatenate([[0], np.cumsum(steps)])
        assert pos[0] == pos[-1] == 0
        assert np.abs(pos).max() <= 10 * R - 1
        moving = sum(1 for s in steps if s != 0)
        assert moving == 2 * abs(r) + 32 * R * (1 + 2 * sum(bits))
        covered = set(pos.tolist())
        assert covered >= set(range(r - 8 * R, r + 8 * R + 1))

    def test_requires_large_enough_budget(self):
        with pytest.raises(AgentError):
            searching_walk(1, 15, 0, (0,) * 5)

    def test_landmark_window(self):
        with pytest.raises(AgentError):
            searching_walk(4, 64, 8, (0,) * 5)

    def test_bit_validation(self):
        with pytest.raises(AgentError):
            searching_walk(1, 16, 0, (0, 1, 0, 1))
        with pytest.raises(AgentError):
            searching_walk(1, 16, 0, (0, 1, 2, 0, 0))


class TestIterationSchedule:
    def test_start_rounds(self):
        assert [iteration_start_round(L) for L in (1, 2, 4, 8)] == [0, 28, 84, 196]

    def test_spacing_grid(self):
        assert spacing_grid(15) == []
        assert spacing_grid(16) == [1]
        assert spacing_grid(64) == [4, 1]
        assert spacing_grid(256) == [16, 4, 1]


def window_labels(world, lo, hi):
    return world.labels_at(np.arange(lo, hi + 1)), lo


def window_state(world, lo, hi, R):
    """The ruling state of the window [lo, hi] on the world's labels."""
    return EsColState(world.labels_at(np.arange(lo, hi + 1)), lo, R)


def exact_lookup(world):
    """A ruling-set lookup that builds exactly the queried window."""
    return lambda lo, hi, R: window_state(world, lo, hi, R)


def dict_plan(labels, lo, center, L):
    """(R, r, color, sweep direction, members) as the planner chose them
    when each activated node's record was read on its own.

    Builds the records over the sweep window [center - L, center + L],
    pools what each activated node knows through ``output_for`` in a dict
    and takes the member nearest the center, ties to the smaller label;
    None when no spacing activates.
    """
    for R in spacing_grid(L):
        active = [u for u in range(center - R, center + R + 1)
                  if abs(u - center)
                  + termination_radius(int(labels[u - lo]), R) <= L]
        if not active:
            continue
        state = EsColState(labels[center - L - lo:center + L + 1 - lo],
                           center - L, R)
        known = {}
        for u in active:
            out = state.output_for(u)
            if out.in_set:
                known[u] = out.color
            for w, color in out.nearby_members:
                known[w] = color
        r = min(known, key=lambda p: (abs(p - center), labels[p - lo]))
        sweep = 1 if labels[r + 1 - lo] > labels[r - 1 - lo] else -1
        return R, r, known[r], sweep, tuple(sorted(known.items()))
    return None


@st.composite
def plan_cases(draw):
    """(world, center, L): a scheme world, a center often far from the
    origin and a sweep radius up to 4096.  Explicit maps hold only the
    sweep window."""
    L = draw(st.sampled_from([16 << k for k in range(9)]))
    center = draw(st.one_of(st.integers(-40, 40),
                            st.integers(-10**6, 10**6)))
    spec = draw(st.sampled_from(
        ["sequential", "random-injective", "uniform-logstar-class:3",
         "uniform-logstar-class:4", "uniform-logstar-class:5", "explicit"]))
    if spec == "random-injective":
        spec = f"random-injective:{draw(st.integers(0, 9))}:1000000000"
    if spec != "explicit":
        return make_world("infinite", spec), center, L
    # distinct class-5 or class-6 labels with small labels planted within
    # 2R of the center for some spacing R: candidates within R, known
    # members out to 2R - 1
    base = draw(st.sampled_from([30000, 100000]))
    mapping = {c: base + c - center + L
               for c in range(center - L, center + L + 1)}
    R = draw(st.sampled_from(spacing_grid(L)))
    small = st.one_of(*[st.integers(CLASS_LO[c], CLASS_HI[c])
                        for c in range(4)], st.integers(17, 29999))
    offset = st.one_of(st.integers(-R, R), st.integers(-2 * R, 2 * R))
    plants = draw(st.lists(st.tuples(offset, small), min_size=1, max_size=6,
                           unique_by=(lambda p: p[0], lambda p: p[1])))
    mapping.update({center + off: label for off, label in plants})
    return (World(topology="infinite", scheme=ExplicitScheme(mapping)),
            center, L)


class TestPlanIteration:
    def test_sequential_first_activation(self):
        world = make_world("infinite", "sequential")
        labels, lo = window_labels(world, -16, 16)
        plan = plan_iteration(labels, lo, 0, 16)
        assert plan is not None and plan.R == 1 and plan.r == 0
        state = window_state(world, -16, 16, 1)
        assert plan.color == state.output_for(0).color
        assert plan.bits == color_bits(plan.color)

    def test_sequential_larger_budget_same_spacing(self):
        world = make_world("infinite", "sequential")
        labels, lo = window_labels(world, -64, 64)
        plan = plan_iteration(labels, lo, 0, 64)
        assert plan.R == 1 and plan.r == 0

    def planted_world(self):
        mapping = {c: 70300 + c for c in range(-256, 257)}
        mapping[3] = 1
        mapping[-2] = 2
        mapping[-1] = 80001
        mapping[-3] = 79999
        return World(topology="infinite", scheme=ExplicitScheme(mapping))

    def test_planted_spacing_and_landmark(self):
        world = self.planted_world()
        labels, lo = window_labels(world, -256, 256)
        plan = plan_iteration(labels, lo, 0, 256)
        assert plan.R == 4
        assert plan.r == -2
        assert plan.sweep_direction == 1
        state = window_state(world, -256, 256, 4)
        color = {u: state.output_for(u).color for u in (-2, 3)}
        assert plan.color == color[-2]
        assert dict(plan.members) == color

    def test_injected_lookup_agrees(self):
        world = self.planted_world()
        labels, lo = window_labels(world, -256, 256)
        calls = []

        def lookup(win_lo, win_hi, R):
            calls.append((win_lo, win_hi, R))
            return window_state(world, win_lo, win_hi, R)

        plan = plan_iteration(labels, lo, 0, 256, es_lookup=lookup)
        assert plan == plan_iteration(labels, lo, 0, 256)
        # the lookup gets the balls of the activated candidates, not the
        # whole sweep: here the class-2 label at -2, 2 + 224 = 226
        reach = [abs(u) + termination_radius(world.label(u), 4)
                 for u in range(-4, 5)]
        need = max(r for r in reach if r <= 256)
        assert need == 226
        assert calls == [(-need, need, 4)]

    def test_no_activation_waits(self):
        mapping = {c: 70300 + c for c in range(-16, 17)}
        world = World(topology="infinite", scheme=ExplicitScheme(mapping))
        labels, lo = window_labels(world, -16, 16)
        assert plan_iteration(labels, lo, 0, 16) is None

    def test_interval_must_cover_budget(self):
        world = make_world("infinite", "sequential")
        labels, lo = window_labels(world, -8, 8)
        with pytest.raises(AgentError):
            plan_iteration(labels, lo, 0, 16)
        # at L = 256 the largest spacing is 16, so with a lookup the plan
        # reads [c - 32, c + 32] and nothing past it
        center, L = 5, 256
        full, full_lo = window_labels(world, center - L, center + L)
        labels, lo = window_labels(world, center - 32, center + 32)
        lookup = exact_lookup(world)
        plan = plan_iteration(labels, lo, center, L, es_lookup=lookup)
        assert plan is not None
        assert plan == plan_iteration(full, full_lo, center, L)
        for short, short_lo in ((labels[1:], lo + 1), (labels[:-1], lo)):
            with pytest.raises(AgentError, match="does not cover"):
                plan_iteration(short, short_lo, center, L, es_lookup=lookup)
        # without one it builds over the whole sweep window, which the
        # interval must cover
        with pytest.raises(AgentError, match="does not cover"):
            plan_iteration(labels, lo, center, L)
        for short, short_lo in ((full[1:], full_lo + 1), (full[:-1], full_lo)):
            with pytest.raises(AgentError, match="does not cover"):
                plan_iteration(short, short_lo, center, L)
        # below L = 16 no spacing exists and a lookup plan reads nothing
        empty = np.empty(0, dtype=np.int64)
        assert plan_iteration(empty, center, center, 8, es_lookup=lookup) \
            is None

    @pytest.mark.parametrize("left,right", [(1, 0), (0, 1)])
    def test_state_must_cover_the_member_window(self, left, right):
        # the planted plan reads the members within 2R - 1 = 7 of the center
        world = self.planted_world()
        labels, lo = window_labels(world, -256, 256)
        built = []

        def short(win_lo, win_hi, R):
            built.append(R)
            return window_state(world, -7 + left, 7 - right, R)

        with pytest.raises(AgentError, match=r"does not cover \[-7, 7\]"):
            plan_iteration(labels, lo, 0, 256, es_lookup=short)
        assert built == [4]
        wide = window_state(world, -7, 7, 4)
        plan = plan_iteration(labels, lo, 0, 256,
                              es_lookup=lambda *query: wide)
        assert (plan.R, plan.r) == (4, -2)

    @pytest.mark.parametrize("left,right", [(1, 0), (0, 1)])
    def test_state_must_serve_the_member_window(self, left, right):
        # a state over the whole interval that serves one node less of the
        # member window [-7, 7] than the plan reads
        world = self.planted_world()
        labels, lo = window_labels(world, -256, 256)

        def narrow(serves):
            state = EsColState(labels, lo, 4, top_class=2, serves=serves)
            return lambda *query: state

        with pytest.raises(AgentError, match=r"does not cover \[-7, 7\] in "
                                             r"the region it serves"):
            plan_iteration(labels, lo, 0, 256,
                           es_lookup=narrow((-7 + left, 7 - right)))
        plan = plan_iteration(labels, lo, 0, 256,
                              es_lookup=narrow((-7, 7)))
        assert plan == plan_iteration(labels, lo, 0, 256)

    def test_state_must_hold_the_activated_classes(self):
        # the planted plan at R = 4 activates the class-1 label at 3 and the
        # class-2 label at -2
        world = self.planted_world()
        labels, lo = window_labels(world, -256, 256)

        def cut(top):
            state = EsColState(labels, lo, 4, top_class=top)
            return lambda *query: state

        with pytest.raises(AgentError, match=r"class 2, past the state's "
                                             r"classes 1\.\.1"):
            plan_iteration(labels, lo, 0, 256, es_lookup=cut(1))
        oracle = plan_iteration(labels, lo, 0, 256)
        for top in (2, 6):
            assert plan_iteration(labels, lo, 0, 256,
                                  es_lookup=cut(top)) == oracle


class TestBatchedSelection:
    """The planner reads every known member in one batch; reading each
    activated node's record on its own is the oracle, since both engines
    plan through the same batch."""

    @given(plan_cases())
    @example((make_world("infinite", "sequential"), 0, 16))
    @example((make_world("infinite", "uniform-logstar-class:4"), 3, 256))
    @settings(deadline=None, max_examples=100)
    def test_batched_records_give_the_dict_plan(self, case):
        world, center, L = case
        # string schemes share a store of snapped windows; an explicit map
        # has no labels past the sweep window, so its plans get the query
        lookup = (exact_lookup(world)
                  if isinstance(world.scheme, ExplicitScheme)
                  else StateStore().lookup(world))
        labels, lo = window_labels(world, center - L, center + L)
        want = dict_plan(labels, lo, center, L)
        half = 2 * spacing_grid(L)[0]
        near = labels[L - half:L + half + 1]
        for plan in (plan_iteration(labels, lo, center, L),
                     plan_iteration(near, center - half, center, L,
                                    es_lookup=lookup)):
            got = plan and (plan.R, plan.r, plan.color,
                            plan.sweep_direction, plan.members)
            assert got == want


class TestKnownLine:
    def wake(self, label=1, degree=2):
        return Observation(label, degree, None, 0)

    def test_bootstrap_frame(self):
        known = KnownLine(self.wake())
        assert known.move_toward(1) == Move(0)
        assert known.move_toward(-1) == Move(1)

    def test_arrivals_extend_interval(self):
        known = KnownLine(self.wake())
        known.position = 0
        known.arrive(Observation(9, 2, 1, 1), 1)
        assert known.position == 1
        assert known.low == 0 and known.high == 1
        assert known.label_at(1) == 9
        assert known.move_toward(1) == Move(0)
        assert known.move_toward(-1) == Move(1)

    def test_label_repeat_pins_cycle(self):
        known = KnownLine(self.wake(label=5))
        seq = [(7, 1), (9, 1), (5, 1)]
        for lab, d in seq:
            known.arrive(Observation(lab, 2, 0, 1), d)
        assert known.cycle_period == 3
        assert known.label_at(4) == 7

    def test_unknown_coordinate_rejected(self):
        known = KnownLine(self.wake())
        with pytest.raises(AgentError):
            known.label_at(2)


class TestMainProgram:
    def run_sequential(self, rounds, start=0):
        world = make_world("infinite", "sequential")
        events = []
        trail = drive(world, start, main_program, rounds, sink=events.append)
        return trail, events

    def test_returns_home_each_iteration(self):
        trail, _ = self.run_sequential(28 * 63)
        for L in (1, 2, 4, 8, 16, 32):
            assert trail[iteration_start_round(L)] == 0

    def test_discovery_covers_the_window(self):
        trail, _ = self.run_sequential(28 * 63)
        for L in (1, 2, 4, 8, 16, 32):
            s = iteration_start_round(L)
            seg = trail[s:s + 4 * L + 1]
            assert set(seg) == set(range(-L, L + 1))
            assert seg[0] == seg[-1] == 0

    def test_phase_sequence(self):
        _, events = self.run_sequential(28 * 63)
        seq = [(e["phase"], e["L"]) for e in events]
        assert seq[:12] == [
            ("discovery", 1), ("wait", 1),
            ("discovery", 2), ("wait", 2),
            ("discovery", 4), ("wait", 4),
            ("discovery", 8), ("wait", 8),
            ("discovery", 16), ("searching", 16),
            ("discovery", 32), ("searching", 32),
        ]
        assert seq[12:] == [("discovery", 64)]
        searches = [e for e in events if e["phase"] == "searching"]
        assert all(e["R"] == 1 and e["r"] == 0 for e in searches)

    def test_deterministic(self):
        a, _ = self.run_sequential(600)
        b, _ = self.run_sequential(600)
        assert a == b


class TestCareTransform:
    def test_quadrupled_positions_match(self):
        world = make_world("infinite", "sequential")
        plain = drive(world, 0, main_program, 500)
        care = drive(world, 0, care_transform(main_program), 2000)
        assert all(care[4 * t] == plain[t] for t in range(501))

    def test_pure_stay_program(self):
        def idle(wake_obs, sink=None):
            while True:
                yield STAY

        world = make_world("infinite", "sequential")
        assert drive(world, 5, care_transform(idle), 40) == [5] * 41

    def test_toward_smaller_label_bounces(self):
        def walker(wake_obs, sink=None):
            known = KnownLine(wake_obs)
            while True:
                obs = yield known.move_toward(1)
                known.arrive(obs, 1)

        downhill = {c: 200 - 2 * abs(c) + (1 if c > 0 else 0)
                    for c in range(-8, 9)}
        world = World(topology="infinite", scheme=ExplicitScheme(downhill))
        plain = drive(world, 0, walker, 6)
        care = drive(world, 0, care_transform(walker), 24)
        assert all(care[4 * t] == plain[t] for t in range(7))
        # every crossing heads toward a smaller label, so each one bounces
        diffs = np.abs(np.diff(care)).sum()
        assert diffs == 3 * np.abs(np.diff(plain)).sum()

    # seed 0 enters node 1 through the port it left node 0 by, seed 4
    # through the other one, so a bounce with its two moves swapped shows
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("here,there", [(5, 9), (9, 5)])
    def test_a_crossing_runs_the_careful_walk(self, seed, here, there):
        world = World(topology="infinite", seed=seed,
                      scheme=ExplicitScheme({-1: 1, 0: here, 1: there, 2: 2}))
        port = world.port_toward(0, 1)

        def cross_once(wake_obs, sink=None):
            yield Move(port)
            while True:
                yield STAY

        gen = care_transform(cross_once)(Observation(here, 2, None, 0))
        pos, moves = 0, [gen.send(None)]
        for t in range(1, 4):
            entry = None
            if not moves[-1].is_stay:
                pos, entry = world.step(pos, moves[-1].port)
            moves.append(gen.send(Observation(world.label(pos), 2, entry, t)))
        assert moves == careful_walk_moves(port, here, there,
                                           world.port_toward(1, 0))


class TestFinitePath:
    def test_wake_at_endpoint_ping_pong(self):
        world = make_world("path", "sequential", n=5)
        trail = drive(world, 0, main_program, 24)
        tri = [0, 1, 2, 3, 4, 3, 2, 1]
        assert trail == [tri[t % 8] for t in range(25)]

    def test_interior_start_settles_into_ping_pong(self):
        world = make_world("path", "sequential", n=9)
        events = []
        trail = drive(world, 4, main_program, 400,
                      sink=events.append)
        first = next(i for i, p in enumerate(trail) if p in (0, 8))
        deltas = np.diff(trail[first:])
        assert set(np.abs(deltas).tolist()) == {1}
        for j in np.flatnonzero(deltas[1:] != deltas[:-1]):
            assert trail[first + j + 1] in (0, 8)
        assert any(e["phase"] == "endpoint" for e in events)

    def test_near_endpoint_start(self):
        world = make_world("path", "sequential", n=12)
        trail = drive(world, 1, main_program, 300)
        first = next(i for i, p in enumerate(trail) if p in (0, 11))
        deltas = np.diff(trail[first:])
        assert set(np.abs(deltas).tolist()) == {1}
        for j in np.flatnonzero(deltas[1:] != deltas[:-1]):
            assert trail[first + j + 1] in (0, 11)


class TestCycle:
    def test_settles_on_minimum_label(self):
        world = make_world("cycle", "sequential", n=8)
        events = []
        trail = drive(world, 3, main_program, 600,
                      sink=events.append)
        labels = world.labels_at(np.arange(8))
        target = int(np.argmin(labels))
        assert trail[-1] == target
        assert set(trail[-100:]) == {target}
        settle = [e for e in events if e["phase"] == "settle"]
        assert settle and settle[0]["period"] == 8
        assert settle[0]["min_label"] == int(labels.min())

    def test_random_labels_cycle(self):
        world = make_world("cycle", "random-injective:7", n=12)
        trail = drive(world, 5, main_program, 800)
        labels = world.labels_at(np.arange(12))
        target = int(np.argmin(labels))
        assert set(trail[-100:]) == {target}
