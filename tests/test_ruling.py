"""Ruling-set construction vs. exhaustive packing/covering oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemeet import ruling
from linemeet.logstar import log_star
from linemeet.ruling import (
    PALETTE_SIZE,
    RADIUS_FACTOR,
    EsColState,
    RulingError,
    certify_es_locality,
    class_phase_rounds,
    es_col_path_ruling_set,
    list_color_budget,
    path_ruling_set,
    phase_end_round,
    phase_start_round,
    ruling_stage_rounds,
    termination_radius,
    verify_es_col_ruling,
    verify_limited_ruling_set,
    window_certifies,
)
from linemeet.world import make_world

# frozen from hand-evaluated recurrences; regression here means the schedule
# (and with it every cached constant) silently moved
SCHEDULE_TABLE = {
    1: [16, 32, 56, 160, 1168, 2184],
    4: [112, 224, 371, 868, 5320, 9807],
    16: [496, 992, 1631, 3700, 21928, 40299],
    64: [2032, 4064, 6671, 15028, 88360, 162267],
    256: [8176, 16352, 26831, 60340, 354088, 650139],
}


def test_schedule_table_frozen():
    for R, row in SCHEDULE_TABLE.items():
        assert [phase_end_round(R, i) for i in range(1, 7)] == row


def test_schedule_building_blocks():
    assert [list_color_budget(i) for i in range(1, 7)] == [1, 1, 2, 12, 125, 126]
    assert ruling_stage_rounds(1, 3) == 0
    assert ruling_stage_rounds(2, 1) == 27
    assert ruling_stage_rounds(64, 1) == 1872
    assert ruling_stage_rounds(64, 4) == 2592
    assert phase_start_round(64, 1) == 0
    assert phase_start_round(64, 2) == 2032  # previous phase dominates
    assert class_phase_rounds(1, 1) == 16


def test_radius_factor_frozen():
    assert RADIUS_FACTOR == 424


def test_termination_radius_bound_and_monotonicity():
    for R in (1, 4, 16, 64):
        assert termination_radius(65536, R) <= RADIUS_FACTOR * R * log_star(65536)
    for label in (1, 2, 7, 16, 65536, 65537, 10**9):
        for R in (1, 4, 16, 64):
            assert termination_radius(label, R) <= RADIUS_FACTOR * R * log_star(label)
            assert termination_radius(label, R) <= termination_radius(label, 4 * R)
    ladder = [1, 2, 4, 16, 65536, 2**63 - 1]
    for a, b in zip(ladder, ladder[1:]):
        assert termination_radius(a, 16) <= termination_radius(b, 16)


def test_spacing_parameter_validation():
    world = make_world("infinite", "sequential")
    with pytest.raises(RulingError):
        path_ruling_set(world, range(10), 0)
    with pytest.raises(RulingError):
        EsColState(world, range(10), 0)
    with pytest.raises(RulingError):
        termination_radius(5, 0)


# -- verifier ------------------------------------------------------------------

def test_verifier_trivial_cases():
    world = make_world("infinite", "sequential")
    uni = list(range(10))
    assert verify_limited_ruling_set(world, uni, uni, 1, 0).ok
    empty = verify_limited_ruling_set(world, uni, [], 1, 0)
    assert not empty.ok and empty.failure == "covering"
    assert empty.witness == (0,)


def test_verifier_packing_counterexample():
    world = make_world("infinite", "sequential")
    check = verify_limited_ruling_set(world, range(20), [3, 10], 8, 7)
    assert not check.ok and check.failure == "packing"
    assert check.witness == (3, 10)


def test_verifier_subset_counterexample():
    world = make_world("infinite", "sequential")
    check = verify_limited_ruling_set(world, range(5), [2, 9], 1, 4)
    assert not check.ok and check.failure == "subset" and check.witness == (9,)


def test_verifier_cycle_seam_packing():
    world = make_world("cycle", "sequential", n=20)
    check = verify_limited_ruling_set(world, range(20), [0, 8, 18], 4, 3)
    assert not check.ok and check.failure == "packing"
    assert check.witness == (18, 0)


# -- ruling set on one universe ------------------------------------------------

def test_spacing_one_returns_whole_universe():
    world = make_world("infinite", "random-injective:1")
    rs = path_ruling_set(world, [5, 9, 30], 1)
    assert rs.members == rs.universe == frozenset({5, 9, 30})


def test_twelve_consecutive_nodes():
    world = make_world("infinite", "random-injective:42")
    rs = path_ruling_set(world, range(100, 112), 4, debug=True)
    assert verify_limited_ruling_set(world, rs.universe, rs.members, 4, 3).ok


def test_two_far_clusters():
    world = make_world("infinite", "random-injective:9")
    universe = list(range(0, 20)) + list(range(1020, 1040))
    rs = path_ruling_set(world, universe, 16, debug=True)
    assert verify_limited_ruling_set(world, rs.universe, rs.members, 16, 15).ok
    assert any(p < 1000 for p in rs.members) and any(p > 1000 for p in rs.members)


@pytest.mark.parametrize("topology,n,members", [
    ("infinite", None, [0, 2, 9]),
    ("cycle", 12, [1, 6, 11]),
])
def test_spacing_breach_raises_ruling_error(topology, n, members):
    # a real error, so the debug checks still fire under python -O
    world = make_world(topology, "random-injective:1", n=n)
    with pytest.raises(RulingError, match="spacing 3"):
        ruling._check_spacing(world, np.array(members), 3)


def test_empty_universe():
    world = make_world("infinite", "sequential")
    rs = path_ruling_set(world, [], 4)
    assert rs.members == frozenset()


@st.composite
def ruling_instances(draw):
    seed = draw(st.integers(0, 50))
    world = make_world("infinite", f"random-injective:{seed}")
    kind = draw(st.sampled_from(["run", "subset", "clusters"]))
    if kind == "run":
        start = draw(st.integers(-500, 500))
        size = draw(st.integers(1, 160))
        universe = list(range(start, start + size))
    elif kind == "subset":
        universe = draw(st.lists(st.integers(-300, 300), min_size=1,
                                 max_size=120, unique=True))
    else:
        gap = draw(st.integers(100, 2000))
        universe = list(range(0, 30)) + list(range(gap, gap + 30))
    R = draw(st.sampled_from([1, 2, 4, 8, 16]))
    return world, universe, R


@given(ruling_instances())
@settings(deadline=None, max_examples=60)
def test_ruling_set_randomized(inst):
    world, universe, R = inst
    rs = path_ruling_set(world, universe, R, debug=True)
    assert verify_limited_ruling_set(world, rs.universe, rs.members, R, R - 1).ok


@given(st.integers(12, 80), st.sampled_from([2, 4, 8]), st.integers(0, 20))
@settings(deadline=None, max_examples=40)
def test_ruling_set_on_cycles(n, R, seed):
    world = make_world("cycle", f"random-injective:{seed}", n=n)
    rs = path_ruling_set(world, range(n), R, debug=True)
    assert verify_limited_ruling_set(world, rs.universe, rs.members, R, R - 1).ok


# -- early-stopping colored construction ---------------------------------------

def test_single_node_universe():
    world = make_world("infinite", "sequential")  # label 1 at the origin
    outs = es_col_path_ruling_set(world, [0], 4)
    out = outs[0]
    assert out.in_set and 1 <= out.color <= PALETTE_SIZE
    assert out.label_class == 1 and out.nearby_members == ()
    assert out.termination_radius <= RADIUS_FACTOR * 4 * 1


def test_sixty_four_consecutive_nodes_full_replay():
    rng = np.random.default_rng(3)
    labels = rng.choice(np.arange(1, 10**6), size=64, replace=False)
    import json
    payload = json.dumps({str(i): int(lab) for i, lab in enumerate(labels)})
    world = make_world("infinite", f"explicit:{payload}")
    universe = range(64)
    es_col_path_ruling_set(world, universe, 4, debug=True)
    assert verify_es_col_ruling(world, universe, 4).ok


@st.composite
def es_instances(draw):
    seed = draw(st.integers(0, 30))
    world = make_world("infinite", f"random-injective:{seed}")
    start = draw(st.integers(-400, 400))
    size = draw(st.integers(1, 120))
    R = draw(st.sampled_from([1, 4, 16]))
    return world, list(range(start, start + size)), R


@given(es_instances())
@settings(deadline=None, max_examples=25)
def test_es_ruling_randomized(inst):
    world, universe, R = inst
    state = EsColState(world, universe, R, debug=True)
    assert verify_es_col_ruling(world, universe, R, state=state).ok
    assert np.all(state.member_colors >= 1)
    assert np.all(state.member_colors <= PALETTE_SIZE)


def test_es_on_cycle():
    world = make_world("cycle", "sequential", n=48)
    assert verify_es_col_ruling(world, range(48), 4).ok


def test_non_members_see_a_nearby_member():
    world = make_world("infinite", "random-injective:17")
    outs = es_col_path_ruling_set(world, range(-60, 60), 4)
    for out in outs.values():
        assert out.in_set or out.nearby_members, out
        if not out.in_set:
            assert out.color is None


def test_es_rejects_bad_spacing():
    world = make_world("infinite", "sequential")
    with pytest.raises(RulingError):
        es_col_path_ruling_set(world, [0], 0)


def test_query_outside_universe():
    world = make_world("infinite", "sequential")
    state = EsColState(world, range(10), 4)
    with pytest.raises(RulingError):
        state.output_for(99)


# -- purity across windows -----------------------------------------------------

def test_window_certification():
    world = make_world("infinite", "sequential")
    window = np.arange(-100, 101)
    assert window_certifies(world, window, 0, 1)  # label 1: radius 16
    assert not window_certifies(world, window, 95, 1)
    assert not window_certifies(world, window, 500, 1)
    # a path endpoint carries its own boundary: the clipped ball suffices
    pworld = make_world("path", "sequential", n=400)
    assert window_certifies(pworld, range(0, 120), 1, 1)
    assert not window_certifies(make_world("path", "sequential", n=60),
                                range(0, 30), 1, 1)


def test_dual_window_agreement():
    world = make_world("infinite", "random-injective:23")
    a = range(-6000, 3000)
    b = range(-3000, 6000)
    state_a = EsColState(world, a, 1)
    state_b = EsColState(world, b, 1)
    arr_a, arr_b = np.arange(-6000, 3000), np.arange(-3000, 6000)
    compared = 0
    for p in range(-900, 900, 7):
        if window_certifies(world, arr_a, p, 1) and \
                window_certifies(world, arr_b, p, 1):
            assert state_a.output_for(p) == state_b.output_for(p)
            compared += 1
    assert compared > 100


def test_locality_certification():
    world = make_world("infinite", "random-injective:5")
    universe = range(-2600, 2600)
    radii = certify_es_locality(world, universe, 1, sample=[0, 11, -40])
    assert set(radii) == {0, 11, -40}
    for p, r in radii.items():
        assert r == termination_radius(world.label(p), 1)
