"""Ruling-set construction vs. exhaustive packing/covering oracles."""

import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemeet import localengine, ruling
from linemeet.localengine import PowerSubgraph, mis, mis_rounds
from linemeet.logstar import CLASS_HI, CLASS_LO, ceil_log2, class_size, log_star
from linemeet.ruling import (
    PALETTE_SIZE,
    RADIUS_FACTOR,
    EsColState,
    RulingError,
    certify_es_locality,
    class_phase_rounds,
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


def ruling_set(world, universe, R, **kw):
    """The ruling set of a universe on the world's labels."""
    coords = np.asarray(universe, dtype=np.int64)
    return path_ruling_set(coords, world.labels_at(coords), R, **kw)


def window_state(world, lo, hi, R, **kw):
    """The ruling state of the window [lo, hi] on the world's labels."""
    return EsColState(world.labels_at(np.arange(lo, hi + 1)), lo, R, **kw)

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


@pytest.mark.parametrize("module", [ruling, localengine])
def test_ruling_layers_import_nothing_from_world(module):
    # a build reads the labels it is handed, never a host
    imported = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ("linemeet." if node.level else "") + (node.module or "")
            imported += [base.rstrip(".")]
            imported += [f"{base.rstrip('.')}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert "linemeet.logstar" in imported
    assert not [m for m in imported if m.startswith("linemeet.world")]


def test_the_package_has_no_assert_statements():
    # invariants raise real errors, which python -O cannot strip
    package = Path(ruling.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(list(package.glob("*.py"))) > 5
    assert found == []


def test_spacing_parameter_validation():
    world = make_world("infinite", "sequential")
    with pytest.raises(RulingError):
        ruling_set(world, range(10), 0)
    with pytest.raises(RulingError):
        window_state(world, 0, 9, 0)
    with pytest.raises(RulingError):
        termination_radius(5, 0)


# -- verifier ------------------------------------------------------------------

def test_verifier_trivial_cases():
    uni = list(range(10))
    assert verify_limited_ruling_set(uni, uni, 1, 0).ok
    empty = verify_limited_ruling_set(uni, [], 1, 0)
    assert not empty.ok and empty.failure == "covering"
    assert empty.witness == (0,)


def test_verifier_packing_counterexample():
    check = verify_limited_ruling_set(range(20), [3, 10], 8, 7)
    assert not check.ok and check.failure == "packing"
    assert check.witness == (3, 10)


def test_verifier_subset_counterexample():
    check = verify_limited_ruling_set(range(5), [2, 9], 1, 4)
    assert not check.ok and check.failure == "subset" and check.witness == (9,)


# -- sliding window maximum ---------------------------------------------------

def _range_max(vals, lo, hi):
    """Reference: max of vals[lo:hi] per query (hi > lo), via a K x n
    doubling table."""
    n = vals.size
    lengths = hi - lo
    K = max(1, int(lengths.max()).bit_length())
    table = np.full((K, n), np.iinfo(np.int64).min, dtype=np.int64)
    table[0] = vals
    for k in range(1, K):
        w = 1 << (k - 1)
        span = n - (1 << k) + 1
        table[k, :span] = np.maximum(table[k - 1, :span], table[k - 1, w:w + span])
    kk = np.log2(lengths).astype(np.int64)
    kk = np.where((np.int64(1) << (kk + 1)) <= lengths, kk + 1, kk)
    kk = np.where((np.int64(1) << kk) > lengths, kk - 1, kk)
    return np.maximum(table[kk, lo], table[kk, hi - (np.int64(1) << kk)])


@given(st.integers(0, 40), st.integers(1, 80), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=150)
def test_window_max_matches_the_doubling_table(reach, n, seed):
    rng = np.random.default_rng(seed)
    # gaps around the reach decide which windows meet; huge ones exercise
    # the shortened gaps
    gaps = np.where(rng.random(n - 1) < 0.8,
                    rng.integers(1, 2 * reach + 3, n - 1),
                    rng.integers(1, 10**12, n - 1))
    coords = rng.integers(-10**12, 10**12) + \
        np.concatenate(([0], np.cumsum(gaps)))
    keys = np.where(rng.random(n) < 0.5, rng.integers(-2, 6, n),
                    rng.integers(-2**63, 2**63 - 1, n, endpoint=True))
    lo = np.searchsorted(coords, coords - reach, side="left")
    hi = np.searchsorted(coords, coords + reach, side="right")
    got = ruling._window_max(coords, keys, reach)
    assert got.dtype == np.int64
    assert got.tolist() == _range_max(keys, lo, hi).tolist()


# -- ruling set on one universe ------------------------------------------------

def test_spacing_one_returns_whole_universe():
    world = make_world("infinite", "random-injective:1")
    members = ruling_set(world, [5, 9, 30], 1)
    assert members.dtype == np.int64 and members.tolist() == [5, 9, 30]
    # coordinates come increasing, each with its label
    for coords, labels in (([30, 5, 9], [1, 2, 3]), ([5, 5, 9], [1, 2, 3]),
                           ([5, 9, 30], [1, 2])):
        with pytest.raises(RulingError, match="increasing coordinates"):
            path_ruling_set(coords, labels, 1)


def checked_ruling_set(checker, world, universe, R):
    """The ruling set of a universe, every stage and the extension checked."""
    with checker() as seen:
        members = ruling_set(world, universe, R)
    assert (seen.stages, seen.extensions) == (ceil_log2(R), int(R > 1))
    return members


def test_twelve_consecutive_nodes(ruling_invariants):
    world = make_world("infinite", "random-injective:42")
    members = checked_ruling_set(ruling_invariants, world, range(100, 112), 4)
    assert verify_limited_ruling_set(range(100, 112), members, 4, 3).ok


def test_two_far_clusters(ruling_invariants):
    world = make_world("infinite", "random-injective:9")
    universe = list(range(0, 20)) + list(range(1020, 1040))
    members = checked_ruling_set(ruling_invariants, world, universe, 16)
    assert verify_limited_ruling_set(universe, members, 16, 15).ok
    assert members.min() < 1000 < members.max()


def _extra_stage_member(stage):
    """A doubling stage that also keeps the input member right after its
    first kept one."""
    def broken(s, labels, reach, palette, base):
        kept, _ = stage(s, labels, reach, palette, base)
        at = int(np.searchsorted(s, kept[0])) + 1
        kept = np.union1d(kept, s[at:at + 1])
        return kept, labels[np.searchsorted(s, kept)]
    return broken


def _unextended(extend):
    """A greedy extension that returns its input set unchanged."""
    return lambda coords, labels, committed, R, iterations, cap: committed


@pytest.mark.parametrize("name,mutate,failure", [
    ("_stage", _extra_stage_member, "doubling stage .*'packing'"),
    ("_greedy_extend", _unextended, "extension end', 'covering'"),
])
def test_ruling_invariants_checker_rejects_broken_builds(
        ruling_invariants, monkeypatch, name, mutate, failure):
    monkeypatch.setattr(ruling, name, mutate(getattr(ruling, name)))
    world = make_world("infinite", "random-injective:7")
    with pytest.raises(AssertionError, match=failure):
        checked_ruling_set(ruling_invariants, world, range(200), 16)


@pytest.mark.parametrize("topology,n,members", [
    ("infinite", None, [0, 2, 9]),
    ("path", 12, [1, 9, 11]),
])
def test_oracle_reports_a_spacing_breach(topology, n, members):
    # the replay oracle finds the breach, and none in the set built on the
    # host's labels
    check = verify_limited_ruling_set(range(12), members, 3, 11)
    close = [(a, b) for a, b in zip(members, members[1:]) if b - a < 3]
    assert check.failure == "packing" and check.witness == close[0]
    world = make_world(topology, "random-injective:1", n=n)
    built = ruling_set(world, range(12), 3)
    assert verify_limited_ruling_set(range(12), built, 3, 2).ok


def test_empty_universe():
    world = make_world("infinite", "sequential")
    assert ruling_set(world, [], 4).tolist() == []


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
        universe = sorted(draw(st.lists(st.integers(-300, 300), min_size=1,
                                        max_size=120, unique=True)))
    else:
        gap = draw(st.integers(100, 2000))
        universe = list(range(0, 30)) + list(range(gap, gap + 30))
    R = draw(st.sampled_from([1, 2, 4, 8, 16]))
    return world, universe, R


@given(ruling_instances())
@settings(deadline=None, max_examples=60)
def test_ruling_set_randomized(ruling_invariants, inst):
    world, universe, R = inst
    members = checked_ruling_set(ruling_invariants, world, universe, R)
    assert np.all(members[1:] > members[:-1]), "members not sorted"
    assert verify_limited_ruling_set(universe, members, R, R - 1).ok


# -- early-stopping colored construction ---------------------------------------

def test_single_node_universe():
    world = make_world("infinite", "sequential")  # label 1 at the origin
    out = window_state(world, 0, 0, 4).output_for(0)
    assert out.in_set and 1 <= out.color <= PALETTE_SIZE
    assert out.label_class == 1 and out.nearby_members == ()
    assert out.termination_radius <= RADIUS_FACTOR * 4 * 1


def checked_window_state(checker, world, lo, hi, R):
    """The ruling state of the window [lo, hi], every stage and extension
    of its classes checked."""
    with checker() as seen:
        state = window_state(world, lo, hi, R)
    assert seen.extensions and (seen.stages or R == 1)
    return state


def test_sixty_four_consecutive_nodes_full_replay(ruling_invariants):
    rng = np.random.default_rng(3)
    labels = rng.choice(np.arange(1, 10**6), size=64, replace=False)
    import json
    payload = json.dumps({str(i): int(lab) for i, lab in enumerate(labels)})
    world = make_world("infinite", f"explicit:{payload}")
    state = checked_window_state(ruling_invariants, world, 0, 63, 4)
    assert verify_es_col_ruling(state).ok


@st.composite
def es_instances(draw):
    seed = draw(st.integers(0, 30))
    world = make_world("infinite", f"random-injective:{seed}")
    start = draw(st.integers(-400, 400))
    size = draw(st.integers(1, 120))
    R = draw(st.sampled_from([1, 4, 16]))
    return world, start, start + size - 1, R


@given(es_instances())
@settings(deadline=None, max_examples=25)
def test_es_ruling_randomized(ruling_invariants, inst):
    world, lo, hi, R = inst
    state = checked_window_state(ruling_invariants, world, lo, hi, R)
    assert verify_es_col_ruling(state).ok
    assert np.all(state.member_colors >= 1)
    assert np.all(state.member_colors <= PALETTE_SIZE)


@st.composite
def truncated_instances(draw):
    """(labels, lo, R, top class): a window of random, uniform-class-4 or
    -5 scheme labels, or of explicit distinct labels drawn from every
    class."""
    kind = draw(st.sampled_from(["random", "class4", "class5", "explicit"]))
    lo = draw(st.integers(-400, 400))
    size = draw(st.integers(1, 200))
    if kind == "explicit":
        labels = np.array(draw(st.lists(
            st.one_of(*[st.integers(CLASS_LO[c], CLASS_HI[c])
                        for c in range(5)], st.integers(65537, 10**9)),
            min_size=size, max_size=size, unique=True)), dtype=np.int64)
    else:
        spec = {"random": f"random-injective:{draw(st.integers(0, 30))}",
                "class4": "uniform-logstar-class:4",
                "class5": "uniform-logstar-class:5"}[kind]
        labels = make_world("infinite", spec).labels_at(
            np.arange(lo, lo + size))
    return (labels, lo, draw(st.sampled_from([1, 4, 16])),
            draw(st.integers(1, 6)))


@given(truncated_instances())
@settings(deadline=None, max_examples=60)
def test_a_truncated_build_is_the_full_build_cut_at_its_class(inst):
    labels, lo, R, top = inst
    full = EsColState(labels, lo, R)
    cut = EsColState(labels, lo, R, top_class=top)
    assert (full.top_class, cut.top_class) == (6, top)
    keep = full.member_classes <= top
    assert np.array_equal(cut.member_coords, full.member_coords[keep])
    assert np.array_equal(cut.member_classes, full.member_classes[keep])
    assert np.array_equal(cut.member_colors, full.member_colors[keep])
    for p, label in zip(cut.coords.tolist(), labels.tolist()):
        if log_star(label) <= top:
            assert cut.output_for(p) == full.output_for(p)
    assert verify_es_col_ruling(cut).ok


def test_a_truncated_state_refuses_the_classes_it_did_not_build():
    # labels 1..120 at 0..119: classes 1, 2, 3 at 0..3 and 4 and 5 above
    labels = np.arange(1, 121, dtype=np.int64)
    state = EsColState(labels, 0, 4, top_class=3)
    assert state.nbytes == labels.nbytes + state.member_coords.nbytes \
        + state.member_classes.nbytes + state.member_colors.nbytes
    assert set(state.member_classes.tolist()) <= {1, 2, 3}
    assert state.output_for(3).label_class == 3
    assert window_certifies(state, 0) is False  # radius 112 past hi = 119
    for p in (4, 60, 119):
        with pytest.raises(RulingError, match="past the built classes 1..3"):
            state.output_for(p)
        with pytest.raises(RulingError, match="past the built classes 1..3"):
            window_certifies(state, p)
    # a node outside the window is still one the window does not certify
    assert window_certifies(state, 500) is False
    # the oracle checks the built prefixes 1..3 and their records
    assert verify_es_col_ruling(state).ok
    for top in (0, 7):
        with pytest.raises(RulingError, match="top class must be in 1..6"):
            EsColState(labels, 0, 4, top_class=top)


def test_a_cone_state_refuses_what_it_did_not_build():
    # labels 1..120 at 0..119: classes 1, 2, 3 at 0..3, 4 at 4..15 and 5
    # above; the state serves [40, 60]
    labels = np.arange(1, 121, dtype=np.int64)
    state = EsColState(labels, 0, 4, top_class=5, serves=(40, 60))
    assert state.serves == (40, 60)
    assert state.nbytes == labels.nbytes + state.member_coords.nbytes \
        + state.member_classes.nbytes + state.member_colors.nbytes
    assert state.output_for(50).label_class == 5
    assert state.output_for(10).label_class == 4  # lower classes everywhere
    for p in (39, 61, 119):
        with pytest.raises(RulingError,
                           match=r"served only within \[40, 60\]"):
            state.output_for(p)
        with pytest.raises(RulingError,
                           match=r"served only within \[40, 60\]"):
            window_certifies(state, p)
    # the oracle checks class 5 within the served region
    assert verify_es_col_ruling(state).ok
    assert EsColState(labels, 0, 4).serves == (0, 119)
    for serves in ((-1, 60), (40, 120), (61, 60)):
        with pytest.raises(RulingError, match="leaves the window"):
            EsColState(labels, 0, 4, top_class=5, serves=serves)


def test_a_cone_falls_back_when_its_merge_tree_is_narrower(monkeypatch):
    # 250 class-5 labels 16 apart at R = 4 are 250 newcomers of 2
    # rank-difference classes (see the list coloring test of that name);
    # 12 more 4 apart, 8,000 coordinates past them and past the schedule's
    # bound on what [0, 3984] reads (4,640 at R = 4), give the whole
    # window's coloring 8
    labels = 100000 + np.arange(12100, dtype=np.int64)  # class 6
    sparse = np.arange(250) * 16
    cluster = sparse[-1] + 8000 + np.arange(12) * 4
    labels[np.concatenate((sparse, cluster))] = \
        17 + np.arange(262) * 7919 % 65520
    assert class_phase_rounds(4, 5) + ruling_stage_rounds(4, 5) + 8 == 4640
    full = EsColState(labels, 0, 4, top_class=5)
    assert np.array_equal(full.member_coords,
                          np.concatenate((sparse, cluster)))
    # a run without the cluster would color 124 of the 250 otherwise
    short = EsColState(labels[:9000], 0, 4, top_class=5)
    assert int((short.member_colors != full.member_colors[:250]).sum()) == 124
    universes = []
    honest = ruling._class_members

    def recording(vi, labels, committed, R, class_index):
        universes.append(vi.size)
        return honest(vi, labels, committed, R, class_index)

    monkeypatch.setattr(ruling, "_class_members", recording)
    cone = EsColState(labels, 0, 4, top_class=5, serves=(0, 3984))
    # the first step, 910 past S, holds no newcomer of 8 classes; later
    # steps run only their flanks, and only the right flank that reaches
    # the cluster has class-5 nodes
    assert ruling._first_color_radius(4, 5) == 910
    assert universes == [250, 12]
    for got, want in ((cone.member_coords, full.member_coords),
                      (cone.member_classes, full.member_classes),
                      (cone.member_colors, full.member_colors)):
        assert np.array_equal(got, want)


def test_non_members_see_a_nearby_member():
    world = make_world("infinite", "random-injective:17")
    state = window_state(world, -60, 59, 4)
    assert state.coords.tolist() == list(range(-60, 60))
    for out in map(state.output_for, state.coords):
        assert out.in_set or out.nearby_members, out
        if not out.in_set:
            assert out.color is None


def test_es_rejects_bad_spacing():
    with pytest.raises(RulingError):
        EsColState(np.array([1]), 0, 0)


def test_es_state_keeps_the_labels_it_is_handed():
    world = make_world("infinite", "random-injective:3:1000000000")
    labels = world.labels_at(np.arange(-40, 41))
    state = EsColState(labels, -40, 4)
    assert state.labels is labels  # kept, not copied
    assert (state.lo, state.hi) == (-40, 40)
    assert state.coords.tolist() == list(range(-40, 41))
    assert state.nbytes == labels.nbytes + state.member_coords.nbytes \
        + state.member_classes.nbytes + state.member_colors.nbytes
    for p in (-40, 0, 40):
        assert state.output_for(p).label == labels[p + 40]


def test_query_outside_universe():
    world = make_world("infinite", "sequential")
    state = window_state(world, 0, 9, 4)
    # a coordinate left of the window must not read the far end's label
    for outside in (99, 10, -1, -10):
        with pytest.raises(RulingError, match="was not processed"):
            state.output_for(outside)


# -- purity across windows -----------------------------------------------------

def test_window_certification():
    world = make_world("infinite", "sequential")
    state = window_state(world, -100, 100, 1)
    assert window_certifies(state, 0)  # label 1: radius 16
    assert not window_certifies(state, 95)
    assert not window_certifies(state, 500)
    # a path endpoint carries its own boundary: the clipped ball suffices
    near_end = window_state(make_world("path", "sequential", n=400), 0, 119, 1)
    assert window_certifies(near_end, 1, ends=(0, 399))
    assert not window_certifies(near_end, 1)
    short = window_state(make_world("path", "sequential", n=60), 0, 29, 1)
    assert not window_certifies(short, 1, ends=(0, 59))


def test_dual_window_agreement():
    world = make_world("infinite", "random-injective:23")
    state_a = window_state(world, -6000, 2999, 1)
    state_b = window_state(world, -3000, 5999, 1)
    compared = 0
    for p in range(-900, 900, 7):
        if window_certifies(state_a, p) and window_certifies(state_b, p):
            assert state_a.output_for(p) == state_b.output_for(p)
            compared += 1
    assert compared > 100


def test_locality_certification():
    world = make_world("infinite", "random-injective:5")
    state = window_state(world, -2600, 2599, 1)
    radii = certify_es_locality(state, sample=[0, 11, -40])
    assert set(radii) == {0, 11, -40}
    for p, r in radii.items():
        assert r == termination_radius(world.label(p), 1)


def test_locality_rejects_a_record_that_reads_past_its_ball(leaky_records):
    world = make_world("infinite", "sequential")
    with pytest.raises(RulingError,
                       match="output of -2 changed under truncation to "
                             "radius 56"):
        certify_es_locality(window_state(world, -200, 200, 1))


@pytest.mark.parametrize("n", [None, 3000], ids=["line", "path"])
def test_locality_rebuilds_each_node_on_exactly_its_ball(monkeypatch, n):
    # the path window is the whole path: balls of class-5 labels (radius
    # 1168) are clipped near its ends and whole in its middle
    world = make_world("infinite" if n is None else "path", "sequential", n=n)
    lo, hi = (-200, 200) if n is None else (0, n - 1)
    ends = None if n is None else (0, n - 1)
    sample = None if n is None else range(0, n, 25)
    state = window_state(world, lo, hi, 1)
    rebuilt = []

    class Recording(EsColState):
        def __init__(self, labels, lo, R):
            rebuilt.append((lo, labels))
            super().__init__(labels, lo, R)

    monkeypatch.setattr(ruling, "EsColState", Recording)
    radii = certify_es_locality(state, sample=sample, ends=ends)
    assert len(radii) == len(rebuilt) > 0
    clipped = 0
    for (p, radius), (ball_lo, labels) in zip(radii.items(), rebuilt):
        a, b = p - radius, p + radius
        if ends is not None:
            a, b = max(a, ends[0]), min(b, ends[1])
        clipped += (b - a) < 2 * radius
        assert (ball_lo, labels.size) == (a, b - a + 1), p
        assert np.array_equal(labels, world.labels_at(np.arange(a, b + 1)))
    assert (clipped > 0) == (n is not None) and clipped < len(radii)


# SHA-256 over (member_coords, member_classes, member_colors) as little-endian
# int64 bytes.  Rewrites of the coloring and window-maximum kernels must
# reproduce every committed record, which the run digests alone (t_rdv) do
# not see.
STATE_DIGESTS = {
    "random-R1": "1b6684b0ec2f87719a852160e91c7d95ec76c2018a877eb6810f28db70df99e3",
    "random-R4": "1731ebc642897765a726954294aede89f7dad7c2ce39d46e8bcf9556c9cc251a",
    "random-R16": "82f52538579416cee06346ac165cce157ad607fb66c897d81946ce2b8a7850f5",
    "class4-R4": "c6ae2eb5f773e63677e00d05610bfffac633b9392079c216aad80ff7c34d93b6",
    "class4-R16": "78101d763736da3dad148a8ead75cb88fbeca32754fb31def19b0c63548c5d1e",
    "class5-R4": "155985a7c1388ff79d14c5768bdb7d7555462dcd4160ac0d00ebfa1b16d8d5db",
    "class5-R16": "5c87e3168bc4576d657555e3b69c0614f9ae8279716d526fbf15478a26a9fa59",
    "class5-window-R1": "111d020c5bc0ea98aec17fdeef56f329fb0c902c35e6f00d1afca78b047f5834",
    "planted-R4": "d0f3b194a188650f4dace0ec0d03bf025924b58f2a8fcec4e563401376cabc0a",
}


def _digest_case(name):
    """(labels, lo, R) of one pinned state."""
    kind, r = name.rsplit("-R", 1)
    R = int(r)
    if kind == "random":
        half = {1: 300, 4: 1000, 16: 2000}[R]
        world = make_world("infinite", "random-injective:0:1000000000")
        return world.labels_at(np.arange(-half, half + 1)), -half, R
    if kind in ("class4", "class5"):
        half = {4: 1000, 16: 2000}[R]
        world = make_world("infinite", f"uniform-logstar-class:{kind[-1]}")
        return world.labels_at(np.arange(-half, half + 1)), -half, R
    if kind == "class5-window":
        # the shape of a finite-host build: one class-5 window, all members
        lo = 2415
        return np.arange(lo + 1, lo + 2340, dtype=np.int64), lo, R
    # random labels with one label of each class 1..4 planted
    lo = -600
    labels = make_world("infinite", "random-injective:5:1000000000") \
        .labels_at(np.arange(lo, 601))
    for coord, label in ((-7, 1), (40, 2), (-90, 3), (5, 9)):
        labels[coord - lo] = label
    return labels, lo, R


def _state_digest(name):
    state = EsColState(*_digest_case(name))
    h = hashlib.sha256()
    for arr in (state.member_coords, state.member_classes,
                state.member_colors):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_state_digests_pinned(name):
    assert _state_digest(name) == STATE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
def test_state_digests_pinned_in_tiny_blocks(monkeypatch, name):
    # 28 is the halo of a first stage on labels of class 6: every stage of
    # more than 56 members and every extension pass runs in blocks
    monkeypatch.setattr(ruling, "BLOCK", 28)
    assert _state_digest(name) == STATE_DIGESTS[name]


# -- blocked doubling stages ----------------------------------------------------


def _distinct(rng, lo, hi, n):
    """n distinct sorted integers in [lo, hi]."""
    got = np.unique(rng.integers(lo, hi, 2 * n + 8, endpoint=True))
    while got.size < n:
        got = np.union1d(got, rng.integers(lo, hi, n, endpoint=True))
    return np.sort(rng.choice(got, n, replace=False))


def _layout(kind, rng, lo, hi, n):
    """n distinct labels in [lo, hi] in one of the orders that carry a
    block edge's error furthest: monotone runs, monotone in runs, or at
    random."""
    labels = _distinct(rng, lo, hi, n)
    if kind == "decreasing":
        return labels[::-1].copy()
    if kind == "runs":
        # increasing runs of one length, each run above the one before
        run = int(rng.integers(2, 40))
        idx = np.arange(n)
        return labels[np.argsort((idx % run) * n + idx // run)]
    if kind == "random":
        return rng.permutation(labels)
    return labels


@st.composite
def stages(draw):
    """(members, labels, reach, palette, base) of one doubling stage with
    more than two blocks of a halo each."""
    reach = draw(st.sampled_from([1, 3, 7]))
    kind = draw(st.sampled_from(["increasing", "decreasing", "runs",
                                 "random"]))
    classes = draw(st.sampled_from(["class-5", "class-6", "mixed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if classes == "mixed":  # no palette given: the stage's largest label
        palette, base = None, 1
        top = int(rng.choice([10**3, 10**6, 10**9, 2**62]))
        halo = mis_rounds(top) * reach
    else:  # a class-pure window, as every stage of EsColState runs
        c = int(classes[-1])
        palette, base = class_size(c), CLASS_LO[c - 1]
        top = CLASS_HI[c - 1]
        halo = mis_rounds(palette) * reach
    n = draw(st.integers(2 * halo + 1, 5 * halo))
    labels = _layout(kind, rng, base, top, n)
    # members at least (reach + 1) / 2 apart, as a previous stage leaves
    # them, keep the degree at most 2; gaps of reach + 1 cut the graph
    low = (reach + 1) // 2
    high = draw(st.sampled_from([low, reach + 1]))
    members = int(rng.integers(-10**6, 10**6)) + np.concatenate(
        ([0], np.cumsum(rng.integers(low, high, n - 1, endpoint=True))))
    return members, labels, reach, palette, base


@given(stages())
@settings(deadline=None, max_examples=40)
def test_blocked_stages_match_whole_stages(stage):
    members, labels, reach, palette, base = stage
    own = palette if palette is not None else \
        int(labels.max()) - base + 1
    whole = mis(PowerSubgraph(members, labels, reach), own, base)
    with pytest.MonkeyPatch.context() as mp:
        # blocks as small as the halo, so each block's members lie within
        # the halo of its neighbours' blocks
        mp.setattr(ruling, "BLOCK", mis_rounds(own) * reach)
        blocked, blocked_labels = ruling._stage(members, labels, reach,
                                                palette, base)
    assert np.array_equal(blocked, whole)
    assert np.array_equal(blocked_labels,
                          labels[np.searchsorted(members, whole)])


def _radius_parity_mis(sub, palette=None, base=1):
    """A stand-in for ``mis`` that reads its whole dependency radius.

    A member is kept when the members within mis_rounds(palette) * power
    of it, plus the palette, count even, so one member missing at the
    radius or a palette off by one changes an output.
    """
    if palette is None:
        palette = int(sub.labels.max()) - base + 1
    c, radius = sub.members, mis_rounds(palette) * sub.power
    count = np.searchsorted(c, c + radius, side="right") - \
        np.searchsorted(c, c - radius)
    return c[(count + palette) % 2 == 0]


@pytest.mark.parametrize("reach", [1, 3, 7])
@pytest.mark.parametrize("palette", [None, class_size(6)],
                         ids=["stage-palette", "class-6"])
def test_blocks_read_the_whole_halo(monkeypatch, reach, palette):
    # labels rise from 1, so every block's own largest label falls short of
    # the stage's; gaps of g, g, g + 1 keep the degree at most 2 and put
    # members at every distance up to the halo
    n = 6000
    g = (reach + 1) // 2
    members = np.cumsum(np.resize([g, g, g + 1], n // (g + 1)))
    labels = members + 1
    monkeypatch.setattr(ruling, "mis", _radius_parity_mis)
    monkeypatch.setattr(ruling, "BLOCK", 100)
    whole = _radius_parity_mis(PowerSubgraph(members, labels, reach), palette)
    blocked, _ = ruling._stage(members, labels, reach, palette, 1)
    assert np.array_equal(blocked, whole)


def test_a_build_keeps_and_peaks_within_its_byte_bounds():
    """tracemalloc bounds on one R = 16 build over 2^17 random labels.

    Measured with numpy 2.4.6: the build peaks 64 B per window node above
    what was allocated before it, and the state keeps 180 B per member
    (its labels, 8 B per node, and its members' arrays).  The bounds add
    25% and 10%.
    """
    world = make_world("infinite", "random-injective:0:1000000000")
    window = np.arange(-(1 << 16), 1 << 16)
    world.labels_at(window)  # the world's own store is no part of the build
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = EsColState(world.labels_at(window), int(window[0]), 16)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    members = state.member_coords.size
    assert (peak - before) / window.size <= 80
    assert (kept - before) / members <= 200
    assert state.nbytes <= kept - before
