import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linemeet import world as world_module
from linemeet.logstar import label_class
from linemeet.world import (
    ExplicitScheme,
    LabelScheme,
    RandomInjectiveScheme,
    SequentialScheme,
    UniformClassScheme,
    World,
    WorldError,
    _LabelStore,
    make_world,
    parse_scheme,
    zigzag,
)


def test_sequential_labels():
    s = SequentialScheme()
    assert s.labels_at(np.array([0, -1, 1, -2, 2])).tolist() == [1, 2, 3, 4, 5]


def test_zigzag_is_injective_near_origin():
    seen = {zigzag(c) for c in range(-500, 501)}
    assert len(seen) == 1001
    assert min(seen) == 0 and max(seen) == 1000


def test_explicit_scheme():
    s = ExplicitScheme({0: 7, 1: 3})
    assert s.labels_at(np.array([1, 0, 1])).tolist() == [3, 7, 3]
    with pytest.raises(WorldError, match="no label assigned to coordinate 2"):
        s.labels_at(np.array([0, 2]))
    with pytest.raises(WorldError):
        ExplicitScheme({0: 4, 5: 4})
    with pytest.raises(WorldError):
        ExplicitScheme({0: 0})


@pytest.mark.parametrize("label", [1.9, 2.0, True, False, "3", None],
                         ids=repr)
def test_explicit_scheme_rejects_labels_that_are_not_integers(label):
    # int() would truncate 1.9 and read true as 1
    with pytest.raises(WorldError, match="integer labels"):
        ExplicitScheme({0: label, 1: 5})


def test_explicit_scheme_takes_numpy_integers():
    s = ExplicitScheme({np.int64(0): np.int64(7), 1: np.uint8(3)})
    assert s.mapping == {0: 7, 1: 3}
    assert all(type(v) is int for v in s.mapping.values())


def test_random_injective_is_deterministic():
    a = RandomInjectiveScheme(17)
    b = RandomInjectiveScheme(17)
    coords = np.arange(-200, 201)
    assert np.array_equal(a.labels_at(coords), b.labels_at(coords))
    c = RandomInjectiveScheme(18)
    assert not np.array_equal(a.labels_at(coords), c.labels_at(coords))


def test_random_injective_small_domain_is_a_permutation():
    # with max_label 64 the first 64 zig-zag indices must map onto 1..64 exactly
    s = RandomInjectiveScheme(5, max_label=64)
    coords = [0] + [c for k in range(1, 32) for c in (-k, k)] + [-32]
    labels = sorted(s.labels_at(np.array(coords)).tolist())
    assert labels == list(range(1, 65))
    with pytest.raises(WorldError):
        s.labels_at(np.array([33]))  # zig-zag index 66 is outside the domain


@pytest.mark.parametrize("scheme,digest,origin_label", [
    (RandomInjectiveScheme(0), "cd2d67b05bf704db", 539099441),  # uint16 tables
    (RandomInjectiveScheme(3, 10**12), "3295224fdb3a23b1", 169687923181),  # uint32
    (UniformClassScheme(0, 5), "9fbf7d10a1f8d624", 491),  # uint16 spill zone
])
def test_seeded_labels_are_pinned(scheme, digest, origin_label):
    # the Feistel tables' storage width must never change a label
    labels = scheme.labels_at(np.arange(-4096, 4097))
    assert hashlib.sha256(labels.astype("<i8").tobytes()).hexdigest()[:16] == digest
    assert labels[4096] == scheme.labels_at(np.array([0]))[0] == origin_label


@pytest.mark.parametrize("build,count,kib_each", [
    (lambda k: RandomInjectiveScheme(k, 10**9), 8, 320),  # 4 uint16 tables of 2**15
    (lambda k: UniformClassScheme(k, 5), 4, 600),  # class 6 spill: 4 of 2**16
], ids=["random-injective", "uniform-class"])
def test_seeded_schemes_hold_narrow_tables(build, count, kib_each):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schemes = [build(k) for k in range(count)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(schemes) == count
    assert held <= count * kib_each * 1024


@pytest.mark.parametrize("scheme", [
    SequentialScheme(),
    RandomInjectiveScheme(7),
    UniformClassScheme(7, 4),
    UniformClassScheme(7, 5),
])
def test_schemes_injective_on_sampled_window(scheme):
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(-10**4, 10**4, size=10**4))
    labels = scheme.labels_at(coords)
    assert len(np.unique(labels)) == len(coords)
    assert labels.min() >= 1


def test_uniform_class_scheme_core_zone():
    s = UniformClassScheme(3, 4)
    # class 4 holds 12 labels covering zig-zag indices 0..11, coords -6..5
    core = s.labels_at(np.arange(-6, 6)).tolist()
    assert sorted(core) == list(range(5, 17))
    assert all(label_class(x) == 4 for x in core)
    # the next coordinate outward spills into class 5
    assert [label_class(int(x)) for x in s.labels_at(np.array([6, -7]))] \
        == [5, 5]


def test_uniform_class_zones_are_built_on_first_use():
    # a zone's permutation is built when a coordinate first lands in it,
    # and labels do not depend on which zones were built before
    s = UniformClassScheme(3, 4)
    assert s._perms == {}
    core = s.labels_at(np.arange(-6, 6))
    assert list(s._perms) == [0]
    spill = s.labels_at(np.array([6, -7, -32767]))
    assert list(s._perms) == [0, 12, 65532]
    fresh = UniformClassScheme(3, 4)
    assert fresh.labels_at(np.array([6, -7, -32767])).tolist() == \
        spill.tolist()
    assert fresh.labels_at(np.arange(-6, 6)).tolist() == core.tolist()


def test_uniform_class_scheme_class5_window():
    s = UniformClassScheme(11, 5)
    labels = s.labels_at(np.arange(-2000, 2001))
    assert all(label_class(int(x)) == 5 for x in labels)
    # spill boundary: zig-zag index 65519 is the last class-5 slot
    assert [label_class(int(x)) for x in s.labels_at(np.array([-32760, 32760]))] \
        == [5, 6]


def test_parse_scheme_round_trip():
    for text in [
        "sequential",
        "random-injective:12:100000",
        "uniform-logstar-class:5:4",
        'explicit:{"0":7,"1":3}',
    ]:
        scheme = parse_scheme(text)
        again = parse_scheme(scheme.spec())
        assert scheme.spec() == again.spec()
    with pytest.raises(WorldError):
        parse_scheme("nonsense")
    with pytest.raises(WorldError):
        parse_scheme("uniform-logstar-class")


def test_parsed_scheme_is_freed_with_its_world():
    world = make_world("infinite", "random-injective:7")
    scheme = weakref.ref(world.scheme)
    assert make_world("infinite", "random-injective:7").scheme is not scheme()
    del world
    gc.collect()
    assert scheme() is None


def test_distances():
    inf = make_world("infinite", "sequential")
    assert inf.distance(3, -2) == 5
    cyc = make_world("cycle", "sequential", n=10)
    assert cyc.distance(1, 9) == 2
    path = make_world("path", "sequential", n=8)
    assert path.distance(0, 7) == 7


@settings(max_examples=50)
@given(st.integers(3, 40), st.data())
def test_cycle_distance_is_a_metric(n, data):
    w = make_world("cycle", "sequential", n=n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert w.distance(a, b) == w.distance(b, a)
    assert (w.distance(a, b) == 0) == (a == b)
    assert w.distance(a, c) <= w.distance(a, b) + w.distance(b, c)


def test_ports_are_consistent_edges():
    w = make_world("infinite", "sequential", seed=5)
    for p in range(-50, 50):
        for port, q in w.neighbors(p):
            back = w.port_toward(q, p)
            arrived, entry = w.step(p, port)
            assert arrived == q and entry == back
            assert w.step(q, back)[0] == p


def test_port_seeding():
    a = make_world("infinite", "sequential", seed=1)
    b = make_world("infinite", "sequential", seed=1)
    c = make_world("infinite", "sequential", seed=2)
    bits = [[w.port_bit(p) for p in range(2000)] for w in (a, b, c)]
    assert bits[0] == bits[1]
    assert bits[0] != bits[2]


def test_path_endpoints_have_one_port():
    w = make_world("path", "sequential", n=4)
    assert w.degree(0) == 1 and w.degree(3) == 1
    assert w.neighbors(0) == [(0, 1)]
    assert w.neighbors(3) == [(0, 2)]
    assert w.degree(1) == 2


def test_world_validation():
    with pytest.raises(WorldError):
        make_world("infinite", "sequential", n=5)
    with pytest.raises(WorldError):
        make_world("cycle", "sequential", n=2)
    with pytest.raises(WorldError):
        make_world("path", "sequential")
    w = make_world("path", "sequential", n=5)
    with pytest.raises(WorldError):
        w.label(9)
    with pytest.raises(WorldError):
        w.labels_at(np.array([3, 6]))


def test_label_injectivity_guard_fires():
    class Broken(SequentialScheme):
        def labels_at(self, coords):
            return np.full(np.shape(coords), 5, dtype=np.int64)

    w = World(topology="infinite", scheme=Broken())
    w.label(3)
    with pytest.raises(WorldError):
        w.label(4)


class SameAt0And5(SequentialScheme):
    """Sequential labels, except that coordinate 5 repeats coordinate 0's."""

    def labels_at(self, coords):
        coords = np.asarray(coords)
        return super().labels_at(np.where(coords == 5, 0, coords))


def test_single_labels_share_the_store_injectivity_check():
    w = World(topology="infinite", scheme=SameAt0And5())
    w.labels_at(np.arange(0, 3))
    with pytest.raises(WorldError):
        w.label(5)
    w = World(topology="infinite", scheme=SameAt0And5())
    w.label(5)
    with pytest.raises(WorldError):
        w.labels_at(np.arange(-1, 2))


# -- the per-world label store -----------------------------------------------


@pytest.mark.parametrize("topology,n,spec,span,bounded", [
    ("infinite", None, "random-injective:3", (-5000, 5000), False),
    ("infinite", None, "uniform-logstar-class:2:1", (-3000, 3000), False),
    # the scheme labels [-50, 50] only, so growth stops at its ends
    ("infinite", None, "random-injective:3:101", (-50, 50), True),
    ("path", 3000, "sequential", (0, 2999), True),
    ("cycle", 3000, "random-injective:4", (0, 2999), True),
])
def test_single_label_walks_grow_the_store_geometrically(
        monkeypatch, topology, n, spec, span, bounded):
    grown = []
    honest = _LabelStore.extend

    def counted(store, scheme, lo, hi):
        grown.append((lo, hi))
        honest(store, scheme, lo, hi)

    monkeypatch.setattr(_LabelStore, "extend", counted)
    world = make_world(topology, spec, n=n)
    scheme = world.scheme
    start = (span[0] + span[1]) // 2
    walk = [*range(start, span[1] + 1), *range(start, span[0] - 1, -1)]
    for p in walk:
        assert world.label(p) == scheme.labels_at(np.array([p]))[0]
    store = world._store
    if bounded:
        assert (store.lo, store.hi) == span
    else:
        assert store.lo <= span[0] and span[1] <= store.hi
        assert store.hi - store.lo <= 2 * (span[1] - span[0]) + 128
    assert np.array_equal(store.labels,
                          scheme.labels_at(np.arange(store.lo, store.hi + 1)))
    # each miss at least doubles the store, or takes a 64-node step
    assert len(grown) <= 2 * (span[1] - span[0]).bit_length()


class ArrayScheme(LabelScheme):
    """Labels of coordinates lo, lo + 1, ... from an array, unchecked and
    vectorized, and without a span."""

    def __init__(self, labels, lo):
        self.labels, self.lo = np.asarray(labels, dtype=np.int64), lo

    def labels_at(self, coords):
        return self.labels[np.asarray(coords, dtype=np.int64) - self.lo]


def test_schemes_without_a_span_grow_the_store_exactly():
    mapping = {c: 1000 - c for c in range(-40, 41)}
    for scheme in (ExplicitScheme(mapping),
                   ArrayScheme(list(mapping.values()), -40)):
        world = World(topology="infinite", scheme=scheme)
        for p in [*range(0, 41), *range(-1, -41, -1)]:
            assert world.label(p) == 1000 - p
            stored = (0, p) if p >= 0 else (p, 40)
            assert (world._store.lo, world._store.hi) == stored


def test_window_world_rejects_a_duplicate_label():
    world = World(topology="infinite",
                  scheme=ArrayScheme([5, 3, 8, 3], -2))
    with pytest.raises(WorldError, match="duplicate"):
        world.labels_at(np.arange(-2, 2))
    world.labels_at(np.arange(-2, 1))
    with pytest.raises(WorldError, match="duplicate"):
        world.label(1)


class Recording(LabelScheme):
    """Delegates to another scheme and records every coordinate it labels."""

    def __init__(self, base: LabelScheme):
        self.base = base
        self.asked: list[int] = []

    def labels_at(self, coords):
        self.asked.extend(np.asarray(coords).ravel().tolist())
        return self.base.labels_at(coords)


STORE_SCHEMES = ["sequential", "random-injective:7", "random-injective:3:5000",
                 "uniform-logstar-class:3:1", "uniform-logstar-class:5:2"]


@st.composite
def store_requests(draw):
    """A world and a sequence of label requests on it."""
    topology = draw(st.sampled_from(["infinite", "path", "cycle"]))
    n = None if topology == "infinite" else draw(st.integers(3, 80))
    lo, hi = (-120, 120) if n is None else (0, n - 1)
    coord = st.integers(lo, hi)
    requests = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["range", "range", "reversed", "sparse", "single", "wrapped",
             "cover"]))
        if kind == "cover":
            # a walk's range: it may run past a cycle's seam
            a = draw(coord)
            b = a + draw(st.integers(0, 40 if n is None else n))
            requests.append(("cover", (a, b if topology == "cycle"
                                       else min(hi, b))))
        elif kind == "sparse":
            requests.append(("batch", draw(st.lists(coord, max_size=12))))
        elif kind == "single":
            requests.append(("single", draw(coord)))
        elif kind == "wrapped" and topology == "cycle":
            c, r = draw(coord), draw(st.integers(0, n))
            requests.append(("batch", [(c + o) % n for o in range(-r, r + 1)]))
        else:
            a = draw(coord)
            b = min(hi, a + draw(st.integers(0, 40)))
            span = list(range(a, b + 1))
            requests.append(("batch", span[::-1] if kind == "reversed" else span))
    return topology, n, draw(st.sampled_from(STORE_SCHEMES)), requests


@given(store_requests())
@settings(max_examples=150, deadline=None)
def test_label_store_answers_like_its_scheme(case):
    topology, n, spec, requests = case
    base = parse_scheme(spec)
    recorder = Recording(base)
    world = World(topology=topology, scheme=recorder, n=n)
    requested: set[int] = set()
    for kind, payload in requests:
        store = world._store
        stored = set(range(store.lo, store.hi + 1))
        before = len(recorder.asked)
        if kind == "single":
            assert world.label(payload) == base.labels_at(np.array([payload]))[0]
            requested.add(payload)
        elif kind == "cover":
            a, b = payload
            assert world.cover(a, b) is None
            requested.update(range(a, b + 1) if topology != "cycle"
                             else (c % n for c in range(a, b + 1)))
        else:
            coords = np.array(payload, dtype=np.int64)
            got = world.labels_at(coords)
            assert got.shape == coords.shape
            assert np.array_equal(got, base.labels_at(coords))
            requested.update(payload)
        # a stored coordinate is never labelled again
        assert not stored & set(recorder.asked[before:])
    # nothing outside the requests is ever labelled
    assert set(recorder.asked) <= requested
    store = world._store
    span = np.arange(store.lo, store.hi + 1)
    assert np.array_equal(store.labels, base.labels_at(span))
    assert np.array_equal(store.ordered, np.sort(store.labels))


def test_label_store_labels_only_requested_coordinates_of_sparse_worlds():
    mapping = {c: 100 + c for c in range(0, 11)}
    mapping.update({c: 300 + c for c in range(50, 61)})
    recorder = Recording(ExplicitScheme(mapping))
    world = World(topology="infinite", scheme=recorder)
    assert world.labels_at(np.arange(0, 6)).tolist() == list(range(100, 106))
    assert world.labels_at(np.arange(4, 11)).tolist() == list(range(104, 111))
    assert world.labels_at(np.arange(50, 61)).tolist() == list(range(350, 361))
    assert world.labels_at(np.array([55, 3, 55])).tolist() == [355, 103, 355]
    assert world.label(7) == 107
    assert world.label(52) == 352
    with pytest.raises(WorldError):
        world.labels_at(np.arange(8, 13))
    assert set(recorder.asked) <= set(mapping) | {11, 12}
    # coordinates 0..10 were labelled once each, when they entered the store
    assert sorted(c for c in recorder.asked if c <= 10) == list(range(11))


def test_label_store_checks_injectivity_across_batches():
    class RepeatsAt40(SequentialScheme):
        def labels_at(self, coords):
            coords = np.asarray(coords)
            return np.where(coords == 40, 1, super().labels_at(coords))

    w = World(topology="infinite", scheme=RepeatsAt40())
    assert w.labels_at(np.arange(0, 21))[0] == 1
    with pytest.raises(WorldError):
        w.labels_at(np.arange(21, 41))
    with pytest.raises(WorldError):
        w.labels_at(np.array([40, 33]))
    # a refused batch leaves the store as it was
    assert (w._store.lo, w._store.hi) == (0, 20)
    assert w.labels_at(np.arange(21, 40)).tolist() == \
        SequentialScheme().labels_at(np.arange(21, 40)).tolist()


def test_cover_stores_what_a_walk_visits():
    recorder = Recording(SequentialScheme())
    world = World(topology="cycle", scheme=recorder, n=50)
    world.labels_at(np.arange(0, 5))
    # a range inside the host extends the store; one across the seam is
    # split at it, and its run apart from the store is labelled and checked
    # as labels_at does, without being stored
    world.cover(2, 8)
    assert (world._store.lo, world._store.hi) == (0, 8)
    assert world.cover(-3, 10) is None
    assert (world._store.lo, world._store.hi) == (0, 10)
    assert sorted(recorder.asked) == [*range(11), 47, 48, 49]
    world.cover(1, 7)
    assert len(recorder.asked) == 14
    path = make_world("path", "sequential", n=10)
    for lo, hi in ((-1, 5), (4, 10)):
        with pytest.raises(WorldError, match="leaves the finite topology"):
            path.cover(lo, hi)

    class RepeatsAt40(SequentialScheme):
        def labels_at(self, coords):
            coords = np.asarray(coords)
            return np.where(coords == 40, 1, super().labels_at(coords))

    line = World(topology="infinite", scheme=RepeatsAt40())
    line.cover(0, 20)
    with pytest.raises(WorldError, match="duplicate"):
        line.cover(10, 40)
    assert (line._store.lo, line._store.hi) == (0, 20)


def test_a_wrapped_cover_is_stored_run_by_run():
    recorder = Recording(SequentialScheme())
    world = World(topology="cycle", scheme=recorder, n=50)
    world.labels_at(np.arange(5, 46))
    # [-8, 12] is [42, 49] and [0, 12]; each run overlaps the stored [5, 45]
    world.cover(-8, 12)
    assert (world._store.lo, world._store.hi) == (0, 49)
    assert sorted(recorder.asked) == list(range(50))
    world.cover(-8, 12)
    assert len(recorder.asked) == 50
    assert np.array_equal(world._store.labels,
                          SequentialScheme().labels_at(np.arange(50)))


class RepeatsAt40(SequentialScheme):
    """Sequential labels, except that coordinate 40 repeats coordinate 0's."""

    def labels_at(self, coords):
        coords = np.asarray(coords)
        return np.where(coords == 40, 1, super().labels_at(coords))


@pytest.mark.parametrize("topology,n,spec,lo,hi", [
    ("infinite", None, "sequential", -10**12, 10**12),
    ("infinite", None, "random-injective:3:101", -50, 50),
    ("infinite", None, "uniform-logstar-class:4:1", -400, 400),
    ("path", 64, "random-injective:3", 0, 63),
    ("cycle", 64, "uniform-logstar-class:5", -100, 30),
])
def test_a_bijective_scheme_covers_without_storing(topology, n, spec, lo, hi):
    world = make_world(topology, spec, n=n)
    assert world.cover(lo, hi) is None
    assert world._store.labels.size == 0


@pytest.mark.parametrize("spec,lo,hi", [
    ("random-injective:3:101", -51, 10),
    ("random-injective:3:101", 0, 51),
    ("uniform-logstar-class:6:2", -2**32, 0),
])
def test_a_bijective_cover_rejects_a_sweep_past_its_span(spec, lo, hi):
    world = make_world("infinite", spec)
    with pytest.raises(WorldError, match="outside injective range"):
        world.cover(lo, hi)
    assert world._store.labels.size == 0


def test_only_the_builtin_schemes_skip_the_cover_check():
    # a subclass of a bijective scheme may repeat a label, and an explicit
    # map may leave a swept coordinate unlabelled: both are still checked
    line = World(topology="infinite", scheme=RepeatsAt40())
    with pytest.raises(WorldError, match="duplicate"):
        line.cover(0, 40)
    explicit = World(topology="infinite",
                     scheme=ExplicitScheme({c: 100 + c for c in range(-5, 6)}))
    explicit.cover(-5, 5)
    assert (explicit._store.lo, explicit._store.hi) == (-5, 5)
    with pytest.raises(WorldError, match="no label assigned to coordinate 6"):
        explicit.cover(-5, 6)


@pytest.mark.parametrize("topology,n,spec,lo,hi", [
    # a window over several blocks, its last one short
    ("infinite", None, "random-injective:7", -23, 17),
    # class 4 holds zig-zag indices 0..11, so this window spills into class 5
    ("infinite", None, "uniform-logstar-class:4:3", -9, 9),
    # a path window clipped to the host
    ("path", 40, "uniform-logstar-class:5:1", 0, 39),
    # a cycle window across the seam, wrapped mod n
    ("cycle", 40, "random-injective:2", -15, 12),
])
def test_window_labels_match_the_scheme_block_by_block(
        monkeypatch, topology, n, spec, lo, hi):
    monkeypatch.setattr(world_module, "WINDOW_BLOCK", 7)
    world = make_world(topology, spec, n=n)
    coords = np.arange(lo, hi + 1)
    got = world.window_labels(lo, hi)
    assert np.array_equal(got, world.scheme.labels_at(
        coords % n if topology == "cycle" else coords))
    assert world._store.labels.size == 0
    if topology == "path":
        with pytest.raises(WorldError, match="leaves the finite topology"):
            world.window_labels(lo, hi + 1)


def test_window_labels_of_other_schemes_go_through_the_store():
    world = World(topology="infinite", scheme=RepeatsAt40())
    assert np.array_equal(world.window_labels(-3, 20),
                          SequentialScheme().labels_at(np.arange(-3, 21)))
    assert (world._store.lo, world._store.hi) == (-3, 20)
    with pytest.raises(WorldError, match="duplicate"):
        world.window_labels(21, 40)


def test_label_store_returns_arrays_it_does_not_alias():
    w = make_world("infinite", "random-injective:5")
    truth = w.scheme.labels_at(np.arange(-10, 31))
    for coords in (np.arange(0, 11), np.arange(0, 21), np.arange(-10, 31),
                   np.array([30, -10, 30]), np.arange(25, 35)):
        got = w.labels_at(coords)
        got[:] = 0
    assert np.array_equal(w.labels_at(np.arange(-10, 31)), truth)
    assert w.label(0) == truth[10]
    with pytest.raises(ValueError):
        w._store.labels[0] = 0
