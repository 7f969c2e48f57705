"""Coloring-engine checks against brute-force oracles.

Properness, independence, and domination are always re-verified from host
distances directly, never through the engine's own adjacency arrays.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linemeet.localengine import (
    COLOR_ROUNDS_OFFSET,
    COLOR_ROUNDS_SLOPE,
    EngineError,
    PowerSubgraph,
    _by_label,
    _check_proper,
    _difference_classes,
    _final_assign,
    _kw_stage,
    _merge_schedule_cost,
    _merge_tree,
    _slot_caps,
    _squared_cv_round,
    _sweep_reduce,
    _three_color,
    _three_color_classes,
    color_path_constant,
    list_color,
    list_color_rounds,
    mis,
    mis_rounds,
    three_color_rounds,
)
from linemeet.logstar import CLASS_HI, ceil_log2, log_star
from linemeet.world import make_world


def subgraph(world, members, power):
    """The power subgraph of the members with their labels in ``world``."""
    members = np.array(list(members), dtype=np.int64)
    return PowerSubgraph(members, world.labels_at(members), power)


def explicit_world(labels_by_coord, topology="infinite", n=None):
    payload = json.dumps({str(k): v for k, v in labels_by_coord.items()})
    return make_world(topology, f"explicit:{payload}", n=n)


def true_edges(world, members, power):
    ms = sorted(members)
    return [(ms[i], ms[j])
            for i in range(len(ms)) for j in range(i + 1, len(ms))
            if world.distance(ms[i], ms[j]) <= power]


def neighbor_rows(sub):
    """Row i lists member rank i's neighbor ranks, found by scanning every
    pair of members, padded with -1 to the widest row."""
    ms = sub.members.tolist()
    rows = [[j for j in range(len(ms))
             if j != i and abs(ms[i] - ms[j]) <= sub.power]
            for i in range(len(ms))]
    width = max(map(len, rows), default=0)
    return np.array([row + [-1] * (width - len(row)) for row in rows],
                    dtype=np.int64).reshape(len(ms), width)


def label_palette(sub):
    """The palette of labels 1 up to the largest member label."""
    return int(sub.labels.max(initial=1))


def by_member(members, colors):
    """{member coordinate: color} for aligned member and color arrays."""
    return dict(zip(members.tolist(), colors.tolist()))


def list_matrix(sub, lists):
    """The boolean list matrix of {member: colors} lists: row i marks the
    colors listed for member rank i."""
    members = sub.members.tolist()
    width = 1 + max((c for p in members for c in lists[p]), default=0)
    allowed = np.zeros((len(members), width), dtype=bool)
    for rank, p in enumerate(members):
        allowed[rank, lists[p]] = True
    return allowed


def assert_proper(world, sub, colors_by_pos):
    for u, v in true_edges(world, [int(p) for p in sub.members], sub.power):
        assert colors_by_pos[u] != colors_by_pos[v], (u, v)


# -- strategies ----------------------------------------------------------------

# degree <= 2: gaps >= g and power < 2g leave at most one neighbor per side
@st.composite
def path_like_instances(draw):
    g = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.integers(g, 2 * g), min_size=0, max_size=30))
    start = draw(st.integers(-100, 100))
    coords = [start]
    for gap in gaps:
        coords.append(coords[-1] + gap)
    power = draw(st.integers(1, 2 * g - 1)) if g > 1 else 1
    scheme = draw(st.sampled_from(["sequential", "random-injective:7"]))
    return make_world("infinite", scheme), coords, power


# degree <= 16: gaps >= g and power < 9g leave at most eight per side
@st.composite
def bounded_degree_instances(draw):
    g = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.integers(g, 2 * g), min_size=1, max_size=24))
    start = draw(st.integers(-50, 50))
    coords = [start]
    for gap in gaps:
        coords.append(coords[-1] + gap)
    power = draw(st.integers(1, 9 * g - 1))
    scheme = draw(st.sampled_from(["sequential", "random-injective:11"]))
    return make_world("infinite", scheme), coords, power


# -- adjacency -----------------------------------------------------------------

@given(path_like_instances())
@example((make_world("infinite", "sequential"), [0, 1, 2], 2))  # triangle
@example((make_world("infinite", "sequential"), [], 1))
def test_adjacency_matches_host_distances(inst):
    # the pair, the degrees and the difference classes all come from the
    # rank windows; each is checked against a scan of every member pair
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    ms = sub.members.tolist()
    near = [[j for j in range(len(ms))
             if j != i and world.distance(ms[i], ms[j]) <= power]
            for i in range(len(ms))]
    assert sub.degrees.tolist() == [len(js) for js in near]
    assert sub.max_degree == max(map(len, near), default=0)
    assert sub.pair.T.tolist() == [(js + [-1, -1])[:2] for js in near]
    classes = _difference_classes(sub)
    assert len(classes) == max((abs(i - j) for i, js in enumerate(near)
                                for j in js), default=0)
    for d, (nA, nB) in enumerate(classes, start=1):
        assert nA.tolist() == [i - d if i - d in js else -1
                               for i, js in enumerate(near)]
        assert nB.tolist() == [i + d if i + d in js else -1
                               for i, js in enumerate(near)]


def test_duplicate_members_rejected():
    world = make_world("infinite", "sequential")
    with pytest.raises(EngineError):
        subgraph(world, [0, 3, 3], 1)
    with pytest.raises(EngineError):
        subgraph(world, np.array([5, 0, 5]), 1)


def test_members_sorted_and_not_shared_with_the_caller():
    # members come strictly increasing, and the subgraph keeps a copy
    with pytest.raises(EngineError, match="strictly increasing"):
        PowerSubgraph(np.array([9, -4, 2]), np.array([90, 40, 20]), 6)
    members = np.array([-4, 2, 9])
    sub = PowerSubgraph(members, np.array([40, 20, 90]), 6)
    members[:] = 0
    assert sub.members.tolist() == [-4, 2, 9]
    assert sub.labels.tolist() == [40, 20, 90]
    with pytest.raises(EngineError, match="2 labels for 3 members"):
        PowerSubgraph([0, 1, 2], np.array([5, 6]), 1)


@given(bounded_degree_instances())
@settings(deadline=None)
def test_difference_classes_cover_all_edges_once(inst):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    seen = []
    for nA, nB in _difference_classes(sub):
        for i in range(sub.members.size):
            for j in (nA[i], nB[i]):
                if j >= 0:
                    seen.append(tuple(sorted((int(sub.members[i]),
                                              int(sub.members[j])))))
    want = set(true_edges(world, coords, power))
    assert set(seen) == want
    # every edge appears exactly twice (once from each endpoint)
    assert len(seen) == 2 * len(want)
    for nA, nB in _difference_classes(sub):
        deg = (nA >= 0).astype(int) + (nB >= 0).astype(int)
        assert deg.max() <= 2


# -- round-count formulas ------------------------------------------------------

def test_three_color_rounds_pinned_values():
    assert three_color_rounds(1) == 0
    assert three_color_rounds(3) == 0
    assert three_color_rounds(4) == 3
    assert three_color_rounds(12) == 6
    assert three_color_rounds(17) == 9
    assert three_color_rounds(65520) == 24
    assert three_color_rounds(2**63 - 1 - 65536) == 25
    assert mis_rounds(12) == 9
    with pytest.raises(EngineError):
        three_color_rounds(0)


def test_three_color_rounds_bounded_by_logstar():
    palettes = list(range(1, 200)) + [2**k for k in range(1, 63)] + list(CLASS_HI)
    for p in palettes:
        assert three_color_rounds(p) <= COLOR_ROUNDS_SLOPE * log_star(p) + COLOR_ROUNDS_OFFSET


def test_merge_schedule_cost_pinned_values():
    assert [_merge_schedule_cost(dd) for dd in range(1, 9)] == \
        [3, 9, 19, 29, 47, 65, 83, 101]


def test_list_color_rounds_direct_path_wins_for_small_palettes():
    # with the full eight classes the pipeline costs T3 + 101, so palettes
    # up to that size sweep directly in `palette` rounds
    assert list_color_rounds(8, 12) == 12
    assert list_color_rounds(8, 17) == 17
    assert list_color_rounds(8, 65520) == three_color_rounds(65520) + 101
    assert list_color_rounds(1, 65520) == three_color_rounds(65520) + 3
    assert list_color_rounds(0, 10**6) == 0


# -- two-slot reduction round --------------------------------------------------

# the pipeline steps work in place on colors followed by one pad entry (-1);
# these run one step on a padded copy and return (colors, palette)

def _squared_round(colors, palette, slots):
    padded = np.append(np.asarray(colors, dtype=np.int64), -1)
    palette = _squared_cv_round(padded, palette, slots, _slot_caps(slots))
    return padded[:-1], palette


def _kw_fold(colors, palette, nA, nB):
    padded = np.append(np.asarray(colors, dtype=np.int64), -1)
    palette = _kw_stage(padded, palette, np.stack((nA, nB)))
    return padded[:-1], palette


def test_two_slot_round_separates_three_chain():
    # labels increase along the chain; colors 2, 4, 5 share pairwise-distinct
    # lowest differing bits only under the two-slot entry layout
    world = explicit_world({0: 10, 1: 20, 2: 30})
    sub = subgraph(world, [0, 1, 2], 1)
    colors = np.array([2, 4, 5])
    after, palette = _squared_round(colors, 65536,
                                    _by_label(sub.labels, *sub.pair))
    assert palette == 1024
    assert after[0] != after[1] and after[1] != after[2]
    assert after.max() < palette
    final, rounds = _three_color(_by_label(sub.labels, *sub.pair), colors, 65536)
    assert_proper(world, sub, by_member(sub.members, final))
    assert rounds == three_color_rounds(65536)


def test_two_slot_round_mirror_invariant():
    # a reflected line with reflected colors gets the reflected coloring,
    # both from given colors and from the labels themselves
    rng = np.random.default_rng(3)
    labels = rng.choice(np.arange(1, 5000), size=40, replace=False).tolist()
    fwd = explicit_world({i: lab for i, lab in enumerate(labels)})
    rev = explicit_world({i: lab for i, lab in enumerate(reversed(labels))})
    sub_f = subgraph(fwd, range(40), 1)
    sub_r = subgraph(rev, range(40), 1)
    colors = rng.choice(2**20, size=40, replace=False)
    out_f, _ = _three_color(_by_label(sub_f.labels, *sub_f.pair), colors, 2**20)
    out_r, _ = _three_color(_by_label(sub_r.labels, *sub_r.pair), colors[::-1], 2**20)
    assert out_f.tolist() == out_r[::-1].tolist()
    by_f, _ = color_path_constant(sub_f, label_palette(sub_f), 1)
    by_r, _ = color_path_constant(sub_r, label_palette(sub_r), 1)
    assert by_f.tolist() == by_r[::-1].tolist()


def test_two_slot_round_no_op_below_constant_palette():
    # squaring would not shrink palettes this small, so the pipeline leaves
    # colors 0..2 as they are: untouched at 3, one block fold at 6
    world = explicit_world({0: 1, 1: 2, 2: 3})
    sub = subgraph(world, [0, 1, 2], 1)
    colors = np.array([0, 1, 2])
    for palette, want_rounds in ((3, 0), (6, 3)):
        out, rounds = _three_color(_by_label(sub.labels, *sub.pair), colors, palette)
        assert out.tolist() == [0, 1, 2]
        assert rounds == want_rounds == three_color_rounds(palette)


def test_check_proper_rejects_equal_adjacent_colors():
    world = explicit_world({0: 1, 1: 2})
    sub = subgraph(world, [0, 1], 1)
    _check_proper(np.array([5, 6]), neighbor_rows(sub))
    with pytest.raises(EngineError, match="not proper"):
        _check_proper(np.array([5, 5]), neighbor_rows(sub))


def test_list_coloring_rejects_matrix_for_other_members():
    world = explicit_world({0: 1, 1: 2, 5: 3})
    sub = subgraph(world, [0, 1], 1)
    with pytest.raises(EngineError, match="for 2 members"):
        list_color(sub, np.ones((3, 4), dtype=bool), label_palette(sub), 1)


@given(path_like_instances())
@settings(deadline=None)
def test_two_slot_round_keeps_properness(inst):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    # a large palette makes room for genuine reductions
    lifted = sub.labels % 65000
    if not _proper_dict(world, sub, by_member(sub.members, lifted)):
        return
    after, palette = _squared_round(lifted, 65536,
                                    _by_label(sub.labels, *sub.pair))
    assert palette < 65536
    assert_proper(world, sub, by_member(sub.members, after))
    final, _ = _three_color(_by_label(sub.labels, *sub.pair), lifted, 65536)
    assert_proper(world, sub, by_member(sub.members, final))


def _proper_dict(world, sub, colors_by_pos):
    members = [int(p) for p in sub.members]
    return all(colors_by_pos[u] != colors_by_pos[v]
               for u, v in true_edges(world, members, sub.power))


def test_kw_stage_folds_twelve_colors_to_six():
    c = np.arange(12, dtype=np.int64)
    nA = np.arange(-1, 11, dtype=np.int64)
    nB = np.append(np.arange(1, 12, dtype=np.int64), -1)
    out, palette = _kw_fold(c, 12, nA, nB)
    assert palette == 6
    assert out.max() < 6 and out.min() >= 0
    assert np.all(out[:-1] != out[1:])


def _kw_stage_whole_array(colors, palette, nA, nB):
    """Reference block folding: every sub-round gathers and recolors over
    the whole array, masking the members not at the current offset."""
    c = colors.copy()
    for offset in (5, 4, 3):
        sel = (c % 6) == offset
        if sel.any():
            cA = np.where(nA >= 0, c[nA], -1)
            cB = np.where(nB >= 0, c[nB], -1)
            target = (c // 6) * 6
            for _ in range(2):
                target = np.where(sel & ((target == cA) | (target == cB)),
                                  target + 1, target)
            c = np.where(sel, target, c)
    return (c // 6) * 3 + (c % 6), 3 * ((palette + 5) // 6)


def _three_color_ordering_each_round(labels, nA, nB, init, palette):
    """Reference pipeline whose two-slot rounds gather both neighbors'
    labels and order the two entries by them in every round."""
    c, m = init.astype(np.int64), palette
    while m > 3:
        width = 2 * max(1, ceil_log2(max(m, 2)))
        if width * width >= m:
            c, m = _kw_fold(c, m, nA, nB)
            continue

        def entry(nbr):
            out, cl = [], c.tolist()
            for x, j in zip(cl, nbr.tolist()):
                d = x ^ cl[j] if j >= 0 else x
                k = 0 if j < 0 else 62 if d == 0 else min(
                    (d & -d).bit_length() - 1, 62)
                out.append(2 * k + ((x >> k) & 1))
            return np.array(out, dtype=np.int64)

        big = 2**63 - 1
        lA = np.array([labels[j] if j >= 0 else big for j in nA.tolist()])
        lB = np.array([labels[j] if j >= 0 else big for j in nB.tolist()])
        eA, eB = entry(nA), entry(nB)
        c = np.where(lA <= lB, eA * width + eB, eB * width + eA)
        m = width * width
    return c


def _three_color_per_class(labels, classes, init, palette):
    """Reference: one pipeline run per class."""
    runs = [_three_color(_by_label(labels, nA, nB), init, palette)
            for nA, nB in classes]
    return np.array([c for c, _ in runs]), {r for _, r in runs}


# any palette the pipeline sees: small ones fold, large ones also square
palettes = st.one_of(st.integers(1, 400), st.integers(400, 2**40))


@st.composite
def pair_arrays(draw, m):
    """(nA, nB) rank arrays over m members: a chain, a wrapped ring or
    arbitrary ranks, with -1 holes punched in."""
    idx = np.arange(m, dtype=np.int64)
    shape = draw(st.sampled_from(["chain", "ring", "any"]))
    if shape == "chain":
        nA, nB = idx - 1, np.where(idx + 1 < m, idx + 1, -1)
    elif shape == "ring":
        nA, nB = (idx - 1) % m, (idx + 1) % m
    else:
        ranks = st.lists(st.integers(-1, m - 1), min_size=m, max_size=m)
        nA, nB = np.array(draw(ranks)), np.array(draw(ranks))
    holes = st.lists(st.booleans(), min_size=m, max_size=m)
    nA = np.where(draw(holes), -1, nA).astype(np.int64)
    nB = np.where(draw(holes), -1, nB).astype(np.int64)
    return nA, nB


@given(st.data(), st.integers(1, 40), palettes)
@settings(deadline=None, max_examples=150)
def test_kw_stage_matches_whole_array_reference(data, m, palette):
    palette = max(palette, 4)
    nA, nB = data.draw(pair_arrays(m))
    # low blocks crowd, so a member often finds two of its picks taken
    color = st.one_of(st.integers(0, min(palette, 18) - 1),
                      st.integers(0, palette - 1))
    colors = np.array(data.draw(st.lists(color, min_size=m, max_size=m)),
                      dtype=np.int64)
    out, folded = _kw_fold(colors, palette, nA, nB)
    want, want_folded = _kw_stage_whole_array(colors, palette, nA, nB)
    assert out.dtype == want.dtype and out.tolist() == want.tolist()
    assert folded == want_folded


@given(st.data(), st.integers(1, 40), palettes)
@settings(deadline=None, max_examples=100)
def test_slots_ordered_once_match_ordering_each_round(data, m, palette):
    nA, nB = data.draw(pair_arrays(m))
    labels = np.array(data.draw(st.lists(st.integers(1, 10**9), min_size=m,
                                         max_size=m, unique=True)),
                      dtype=np.int64)
    init = np.array(data.draw(st.lists(st.integers(0, palette - 1),
                                       min_size=m, max_size=m)),
                    dtype=np.int64)
    colors, _ = _three_color(_by_label(labels, nA, nB), init, palette)
    want = _three_color_ordering_each_round(labels, nA, nB, init, palette)
    assert colors.tolist() == want.tolist()


@given(st.data(), st.integers(1, 24), st.integers(1, 8), palettes)
@settings(deadline=None, max_examples=100)
def test_batched_three_coloring_matches_per_class_runs(data, m, k, palette):
    classes = [data.draw(pair_arrays(m)) for _ in range(k)]
    labels = np.array(data.draw(st.lists(st.integers(1, 10**9), min_size=m,
                                         max_size=m, unique=True)),
                      dtype=np.int64)
    init = np.array(data.draw(st.lists(st.integers(0, palette - 1),
                                       min_size=m, max_size=m)),
                    dtype=np.int64)
    colors, rounds = _three_color_classes(labels, classes, init, palette)
    want, want_rounds = _three_color_per_class(labels, classes, init, palette)
    assert colors.shape == (k, m)
    assert colors.tolist() == want.tolist()
    assert {rounds} == want_rounds == {three_color_rounds(palette)}


# -- constant coloring and MIS -------------------------------------------------

@given(path_like_instances())
@settings(deadline=None)
def test_three_coloring_is_proper(inst):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    colors, rounds = color_path_constant(sub, label_palette(sub), 1)
    assert colors.shape == sub.members.shape
    assert np.all(colors >= 0) and np.all(colors < 3)
    assert_proper(world, sub, by_member(sub.members, colors))
    assert rounds == three_color_rounds(label_palette(sub))


def test_three_coloring_on_triangle():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 1, 2], 2)
    assert sub.max_degree == 2
    # the end members' windows skip themselves: ranks 1, 2 and 0, 1
    assert sub.pair.tolist() == [[1, 0, 0], [2, 2, 1]]
    colors, _ = color_path_constant(sub, label_palette(sub), 1)
    assert sorted(colors.tolist()) == [0, 1, 2]
    assert mis(sub, label_palette(sub), 1).tolist() in ([0], [1], [2])


def test_class_shifted_palette():
    # labels drawn from one label class: palette is the class size, not the
    # largest label value
    world = explicit_world({0: 7, 3: 16, 6: 5, 9: 11})
    sub = subgraph(world, [0, 3, 6, 9], 3)
    colors, rounds = color_path_constant(sub, palette=12, base=5)
    assert rounds == three_color_rounds(12)
    assert_proper(world, sub, by_member(sub.members, colors))
    with pytest.raises(EngineError):
        color_path_constant(sub, palette=12, base=1)  # 16 out of range


def assert_mis(world, members, power, chosen):
    assert chosen.dtype == np.int64
    assert np.all(chosen[1:] > chosen[:-1]), "members not sorted"
    chosen = set(chosen.tolist())
    edges = true_edges(world, members, power)
    for u, v in edges:
        assert not (u in chosen and v in chosen), "adjacent pair chosen"
    nbrs = {p: set() for p in members}
    for u, v in edges:
        nbrs[u].add(v), nbrs[v].add(u)
    for p in members:
        assert p in chosen or nbrs[p] & chosen, f"{p} undominated"


@given(path_like_instances())
@settings(deadline=None)
def test_mis_independent_and_dominating(inst):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    assert_mis(world, coords, power, mis(sub, label_palette(sub), 1))


def test_mis_of_nothing():
    world = make_world("infinite", "sequential")
    for members in ([], [4]):
        sub = subgraph(world, members, 1)
        assert mis(sub, label_palette(sub), 1).tolist() == members


def test_degree_guard():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, range(4), 3)
    with pytest.raises(EngineError):
        color_path_constant(sub, label_palette(sub), 1)


# -- list coloring -------------------------------------------------------------

def _random_lists(sub, rng, palette_hi=40, slack=3):
    lists = {}
    for rank, p in enumerate(sub.members):
        size = int(sub.degrees[rank]) + 1 + int(rng.integers(0, slack + 1))
        vals = rng.choice(np.arange(1, palette_hi), size=size, replace=False)
        lists[int(p)] = [int(v) for v in vals]
    return lists


@given(bounded_degree_instances(), st.integers(0, 2**31 - 1))
@settings(deadline=None, max_examples=60)
def test_list_coloring_proper_and_within_lists(inst, list_seed):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    assert sub.max_degree <= 16
    lists = _random_lists(sub, np.random.default_rng(list_seed))
    colors, _ = list_color(sub, list_matrix(sub, lists), label_palette(sub),
                           1)
    got = by_member(sub.members, colors)
    assert_proper(world, sub, got)
    for p, c in got.items():
        assert c in lists[p]


@given(bounded_degree_instances())
@settings(deadline=None, max_examples=40)
def test_list_coloring_round_formula(inst):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    lists = _random_lists(sub, np.random.default_rng(5))
    _, rounds = list_color(sub, list_matrix(sub, lists), label_palette(sub),
                           1)
    assert rounds == list_color_rounds(len(_difference_classes(sub)),
                                       label_palette(sub))


def test_list_coloring_direct_path_for_class_bounded_labels():
    labels = [5, 9, 16, 7, 12, 6, 15, 8]
    world = explicit_world({3 * i: lab for i, lab in enumerate(labels)})
    members = [3 * i for i in range(len(labels))]
    sub = subgraph(world, members, 7)  # degree <= 4
    lists = {p: list(range(10, 10 + int(d) + 1))
             for p, d in zip(members, sub.degrees)}
    colors, rounds = list_color(sub, list_matrix(sub, lists), palette=12,
                                base=5)
    assert rounds == 12  # sweeping the shifted labels beats the pipeline
    assert_proper(world, sub, by_member(sub.members, colors))


def test_list_coloring_isolated_members_take_list_minimum():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 10, 20], 1)
    lists = {0: [4, 2], 10: [9], 20: [3, 1]}
    colors, rounds = list_color(sub, list_matrix(sub, lists),
                                label_palette(sub), 1)
    assert rounds == 0
    assert by_member(sub.members, colors) == {0: 2, 10: 9, 20: 1}


def test_list_coloring_depends_on_the_widest_window_of_the_call():
    # 250 class-5 members 16 apart have 2 rank-difference classes at power
    # 35 (= 9R - 1 at R = 4); 12 members 4 apart, 8,000 coordinates away,
    # widen the call to 8, and with it the merge tree of every member
    sparse = np.arange(250) * 16
    both = np.concatenate((sparse, sparse[-1] + 8000 + np.arange(12) * 4))
    labels = 17 + np.arange(both.size) * 7919 % 65520  # distinct, class 5
    allowed = np.ones((both.size, 18), dtype=bool)
    allowed[:, 0] = False
    alone = PowerSubgraph(sparse, labels[:250], 35)
    joined = PowerSubgraph(both, labels, 35)
    assert [len(_difference_classes(s)) for s in (alone, joined)] == [2, 8]
    colors, rounds = list_color(alone, allowed[:250], 65520, 17)
    wide, wide_rounds = list_color(joined, allowed, 65520, 17)
    assert (rounds, wide_rounds) == (list_color_rounds(2, 65520),
                                     list_color_rounds(8, 65520))
    assert int((colors != wide[:250]).sum()) == 124


def test_list_coloring_rejects_short_lists():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 1, 2], 1)
    lists = {0: [1, 2], 1: [5], 2: [1, 3]}  # member 1 has degree 2
    with pytest.raises(EngineError):
        list_color(sub, list_matrix(sub, lists), label_palette(sub), 1)


def test_list_coloring_rejects_a_universe_past_63_colors():
    # picks are bits of one int64 per member
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 10], 1)
    with pytest.raises(EngineError, match="64 colors exceeds 63"):
        list_color(sub, np.ones((2, 64), dtype=bool), label_palette(sub),
                   1)
    wide, _ = list_color(sub, np.ones((2, 63), dtype=bool),
                         label_palette(sub), 1)
    assert wide.tolist() == [0, 0]


def test_final_assign_reports_an_exhausted_list():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 1], 1)
    allowed = np.array([[True, False], [True, False]])
    with pytest.raises(EngineError, match="list exhausted at member rank 1"):
        _final_assign(np.array([0, 1]), 2, neighbor_rows(sub), allowed)


def test_sweep_reduce_reports_an_exhausted_color_range():
    # member 0 keeps color 0, the only color below the target, so its
    # neighbor, swept down from color 1, finds nothing free
    world = make_world("infinite", "sequential")
    sub = subgraph(world, [0, 1], 1)
    with pytest.raises(EngineError, match="list exhausted at member rank 1"):
        _sweep_reduce(np.array([0, 1]), 2, 1, neighbor_rows(sub))


def test_list_coloring_degree_guard():
    world = make_world("infinite", "sequential")
    sub = subgraph(world, range(18), 17)
    with pytest.raises(EngineError):
        list_color(sub, np.ones((18, 19), dtype=bool), label_palette(sub),
                   1)


def _final_assign_loop(colors, palette, rows, lists):
    """Member-by-member reference: each class reads the colors assigned
    before it and takes the smallest listed color no neighbor holds."""
    final = [-1] * len(colors)
    for value in range(palette):
        before = list(final)
        for i in np.flatnonzero(colors == value):
            taken = {before[j] for j in rows[i] if j >= 0}
            final[i] = next(c for c in sorted(lists[i]) if c not in taken)
    return final


def _sweep_reduce_loop(colors, palette, target, rows):
    """Reference: classes palette-1 down to target, each reading the colors
    after the previous one, take the smallest color below target no
    neighbor holds."""
    c = [int(x) for x in colors]
    for value in range(palette - 1, target - 1, -1):
        before = list(c)
        for i in range(len(c)):
            if before[i] == value:
                held = {before[j] for j in rows[i] if j >= 0}
                c[i] = min(x for x in range(target) if x not in held)
    return c


@given(bounded_degree_instances(), st.integers(0, 2**31 - 1))
@settings(deadline=None, max_examples=40)
def test_vectorized_sweeps_match_member_loops(inst, seed):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    rng = np.random.default_rng(seed)
    palette = int(rng.integers(1, 12))
    # any coloring, proper or not: both forms read a class's neighbors from
    # the colors as they stood before that class
    colors = rng.integers(0, palette, sub.members.size)
    lists = _random_lists(sub, rng)
    rows = neighbor_rows(sub)
    picks, rounds = _final_assign(colors, palette, rows,
                                  list_matrix(sub, lists))
    ranked = [lists[int(p)] for p in sub.members]
    assert picks.tolist() == _final_assign_loop(colors, palette, rows, ranked)
    assert rounds == palette
    target = sub.max_degree + 1
    reduced, rounds = _sweep_reduce(colors, palette, target, rows)
    assert reduced.tolist() == \
        _sweep_reduce_loop(colors, palette, target, rows)
    assert rounds == max(0, palette - target)


def _merge_tree_per_pair(colors3, classes):
    """Reference merge tree: one sweep per pair of partial colorings, over
    the union of that pair's class edges."""
    parts = [(c, 3, [pair]) for c, pair in zip(colors3, classes)]
    rounds = 0
    while len(parts) > 1:
        nxt, level = [], 0
        for a in range(0, len(parts) - 1, 2):
            (c1, p1, e1), (c2, p2, e2) = parts[a], parts[a + 1]
            prod, pp, edges = c1 * p2 + c2, p1 * p2, e1 + e2
            if len(parts) > 2:
                union = np.column_stack([col for pair in edges for col in pair])
                target = 2 * len(edges) + 1
                prod, r = _sweep_reduce(prod, pp, target, union)
                level = max(level, r)
                nxt.append((prod, target, edges))
            else:
                nxt.append((prod, pp, edges))
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts, rounds = nxt, rounds + level
    colors, palette, _ = parts[0]
    return colors, palette, rounds


# at most 17 members (so degree <= 16) packed at gaps 1 and 2, with a power
# up to 16: one to sixteen difference classes, so odd levels pair classes of
# different counts
@st.composite
def dense_instances(draw):
    m = draw(st.integers(1, 17))
    gaps = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=m - 1,
                         max_size=m - 1))
    coords = np.concatenate(([0], np.cumsum(gaps, dtype=np.int64))).tolist()
    power = draw(st.integers(1, 16))
    return make_world("infinite", "random-injective:13"), coords, power


@given(st.one_of(dense_instances(), bounded_degree_instances()), st.data())
@settings(deadline=None, max_examples=120)
def test_stacked_merge_levels_match_per_pair_sweeps(inst, data):
    world, coords, power = inst
    sub = subgraph(world, coords, power)
    classes = _difference_classes(sub)
    assume(len(classes) > 0)
    m = sub.members.size
    # any leaf colors, proper or not: each sweep reads the colors as they
    # stood before its class
    colors3 = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2), min_size=m, max_size=m),
        min_size=len(classes), max_size=len(classes))), dtype=np.int64)
    colors, palette, rounds = _merge_tree(colors3, classes)
    want, want_palette, want_rounds = _merge_tree_per_pair(colors3, classes)
    assert colors.tolist() == want.tolist()
    assert (palette, rounds) == (want_palette, want_rounds)
    assert rounds + palette == _merge_schedule_cost(len(classes))
