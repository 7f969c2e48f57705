import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linemeet.logstar import label_class
from linemeet.world import (
    ExplicitScheme,
    LabelScheme,
    RandomInjectiveScheme,
    SequentialScheme,
    UniformClassScheme,
    World,
    WorldError,
    make_world,
    parse_scheme,
    zigzag,
)


def test_sequential_labels():
    s = SequentialScheme()
    assert s.label_at(0) == 1
    assert s.label_at(-1) == 2
    assert s.label_at(1) == 3
    assert s.label_at(-2) == 4
    assert s.label_at(2) == 5


def test_zigzag_is_injective_near_origin():
    seen = {zigzag(c) for c in range(-500, 501)}
    assert len(seen) == 1001
    assert min(seen) == 0 and max(seen) == 1000


def test_explicit_scheme():
    s = ExplicitScheme({0: 7, 1: 3})
    assert s.label_at(1) == 3
    assert s.label_at(0) == 7
    with pytest.raises(WorldError):
        s.label_at(2)
    with pytest.raises(WorldError):
        ExplicitScheme({0: 4, 5: 4})
    with pytest.raises(WorldError):
        ExplicitScheme({0: 0})


def test_random_injective_is_deterministic():
    a = RandomInjectiveScheme(17)
    b = RandomInjectiveScheme(17)
    coords = np.arange(-200, 201)
    assert np.array_equal(a.labels_at(coords), b.labels_at(coords))
    assert a.label_at(33) == a.label_at(33)
    c = RandomInjectiveScheme(18)
    assert not np.array_equal(a.labels_at(coords), c.labels_at(coords))


def test_random_injective_small_domain_is_a_permutation():
    # with max_label 64 the first 64 zig-zag indices must map onto 1..64 exactly
    s = RandomInjectiveScheme(5, max_label=64)
    coords = [0] + [c for k in range(1, 32) for c in (-k, k)] + [-32]
    labels = sorted(s.label_at(c) for c in coords)
    assert labels == list(range(1, 65))
    with pytest.raises(WorldError):
        s.label_at(33)  # zig-zag index 66 is outside the domain


def test_random_injective_vectorized_matches_scalar():
    s = RandomInjectiveScheme(99)
    coords = np.arange(-64, 65)
    vec = s.labels_at(coords)
    assert vec.tolist() == [s.label_at(int(c)) for c in coords]


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
    core = [s.label_at(c) for c in range(-6, 6)]
    assert sorted(core) == list(range(5, 17))
    assert all(label_class(x) == 4 for x in core)
    # the next coordinate outward spills into class 5
    assert label_class(s.label_at(6)) == 5
    assert label_class(s.label_at(-7)) == 5


def test_uniform_class_scheme_class5_window():
    s = UniformClassScheme(11, 5)
    labels = s.labels_at(np.arange(-2000, 2001))
    assert all(label_class(int(x)) == 5 for x in labels)
    # spill boundary: zig-zag index 65519 is the last class-5 slot
    assert label_class(s.label_at(-32760)) == 5
    assert label_class(s.label_at(32760)) == 6


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


def test_snapshot_shapes():
    w = make_world("infinite", "sequential")
    assert len(list(w.snapshot(0, 0).entries)) == 1
    snap = w.snapshot(0, 2)
    assert snap.offsets.tolist() == [-2, -1, 0, 1, 2]
    short = make_world("path", "sequential", n=3)
    assert len(list(short.snapshot(0, 5).entries)) == 3


def test_snapshot_monotone_consistency():
    w = make_world("infinite", "random-injective:4", seed=9)
    big = w.snapshot(5, 6)
    small = w.snapshot(5, 4)
    trunc = big.truncated(4)
    assert np.array_equal(trunc.offsets, small.offsets)
    assert np.array_equal(trunc.labels, small.labels)
    assert np.array_equal(trunc.ports_toward_center, small.ports_toward_center)


def test_cycle_snapshot_covers_each_node_once():
    w = make_world("cycle", "sequential", n=10, seed=2)
    snap = w.snapshot(3, 9)
    assert snap.offsets.tolist() == list(range(-4, 6))
    coords = (3 + snap.offsets) % 10
    assert sorted(coords.tolist()) == list(range(10))


def test_snapshot_ports_point_toward_center():
    w = make_world("infinite", "sequential", seed=31)
    snap = w.snapshot(7, 5)
    for offset, _, _, port in snap.entries:
        if offset == 0:
            assert port is None
            continue
        nxt, _ = w.step(7 + offset, port)
        assert abs(nxt - 7) == abs(offset) - 1


def test_ports_are_consistent_edges():
    w = make_world("infinite", "sequential", seed=5)
    for p in range(-50, 50):
        for port, q in w.neighbors(p):
            back = w.port_toward(q, p)
            arrived, entry = w.step(p, port)
            assert arrived == q and entry == back
            assert w.step(q, back)[0] == p


def test_port_bits_vectorized_matches_scalar():
    w = make_world("infinite", "sequential", seed=77)
    coords = np.arange(-5000, 5000, 7)
    vec = w.port_bits_at(coords)
    assert vec.tolist() == [w._port_bit(int(c)) for c in coords]


def test_port_seeding():
    a = make_world("infinite", "sequential", seed=1)
    b = make_world("infinite", "sequential", seed=1)
    c = make_world("infinite", "sequential", seed=2)
    coords = np.arange(0, 2000)
    assert np.array_equal(a.port_bits_at(coords), b.port_bits_at(coords))
    assert not np.array_equal(a.port_bits_at(coords), c.port_bits_at(coords))


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
        def label_at(self, coord):
            return 5

    w = World(topology="infinite", scheme=Broken())
    w.label(3)
    with pytest.raises(WorldError):
        w.label(4)


# -- the per-world label store -----------------------------------------------


class Recording(LabelScheme):
    """Delegates to another scheme and records every coordinate it labels."""

    def __init__(self, base: LabelScheme):
        self.base = base
        self.asked: list[int] = []

    def label_at(self, coord):
        self.asked.append(int(coord))
        return self.base.label_at(coord)

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
            ["range", "range", "reversed", "sparse", "single", "wrapped"]))
        if kind == "sparse":
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
            assert world.label(payload) == base.label_at(payload)
            requested.add(payload)
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
