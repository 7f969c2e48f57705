"""Labeled line worlds: topologies, label schemes, and ports.

A :class:`World` is an infinite line, a finite path, or a cycle whose nodes
carry unique positive labels and per-node port numbers.  Ports are assigned
independently per node from the world seed, so no common orientation leaks
into agent programs.  A world's answers never change after construction;
it only caches labels and port bits as they are first asked for.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .logstar import CLASS_COUNT, class_range, class_size

TOPOLOGIES = ("infinite", "path", "cycle")


class WorldError(ValueError):
    """Invalid position, malformed scheme, or broken world invariant."""


def zigzag(coord: int) -> int:
    """Canonical injection of signed coordinates into 0, 1, 2, ...

    0 -> 0, -k -> 2k-1, +k -> 2k; adding 1 gives the documented label order
    0 -> 1, -k -> 2k, +k -> 2k+1.
    """
    return 2 * coord if coord >= 0 else -2 * coord - 1


def zigzag_array(coords: np.ndarray) -> np.ndarray:
    c = np.asarray(coords, dtype=np.int64)
    return np.where(c >= 0, 2 * c, -2 * c - 1)


def _zigzag_span(size: int) -> tuple[int, int]:
    """The coordinates whose zig-zag index is below size."""
    return -(size // 2), (size - 1) // 2


class _FeistelPerm:
    """Seeded bijection of [0, size) built from a 4-round Feistel network.

    Round functions are lookup tables filled from SHAKE-256 of the key, so the
    permutation is a pure function of (key, size) and vectorizes to numpy
    gathers.  Each table is stored in the narrowest unsigned dtype that holds
    its mask (uint16 for 10**9 labels); the gathers promote to int64.  Values
    landing outside [0, size) are cycle-walked back through the network;
    since the network permutes [0, 2**(2h)) this stays a bijection of
    [0, size).
    """

    ROUNDS = 4
    MAX_BITS = 40  # table memory guard: h <= 20 keeps each uint32 table at 4 MiB

    def __init__(self, key: bytes, size: int):
        if size < 1:
            raise WorldError(f"permutation domain must be nonempty, got {size}")
        bits = max(2, (size - 1).bit_length())
        if bits > self.MAX_BITS:
            raise WorldError(f"permutation domain too large: {size} > 2**{self.MAX_BITS}")
        self.size = size
        self.half_bits = (bits + 1) // 2
        self.mask = (1 << self.half_bits) - 1
        table_bytes = (1 << self.half_bits) * 8
        width = np.min_scalar_type(self.mask)
        tables = []
        for rnd in range(self.ROUNDS):
            digest = hashlib.shake_256(key + rnd.to_bytes(2, "big")).digest(table_bytes)
            tables.append((np.frombuffer(digest, dtype=np.uint64) & self.mask).astype(width))
        self._tables = tables

    def apply(self, idx: np.ndarray) -> np.ndarray:
        x = np.asarray(idx, dtype=np.int64)
        if x.size and (x.min() < 0 or x.max() >= self.size):
            raise WorldError("permutation input outside domain")
        out = x.copy()
        pending = np.arange(out.size)
        for _ in range(1000):
            v = out[pending] if pending.size != out.size else out
            for table in self._tables:
                left = v >> self.half_bits
                right = v & self.mask
                v = (right << self.half_bits) | (left ^ table[right])
            out[pending] = v
            bad = v >= self.size
            if not bad.any():
                return out
            pending = pending[bad]
        raise WorldError("cycle walking failed to converge")


class LabelScheme:
    """Base class: a deterministic injective map from coordinates to labels >= 1."""

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        """The labels of a coordinate array, in its shape."""
        raise NotImplementedError

    def span(self) -> tuple[float, float] | None:
        """Bounds of the coordinate interval the scheme labels in full, which
        a world may label ahead of requests; None when only the requested
        coordinates may be labelled."""
        return None

    def spec(self) -> str:
        """Textual form, the scheme cell of a results row.  A built-in
        scheme's is accepted by :func:`parse_scheme`; a custom scheme
        without its own gives its class name."""
        return type(self).__name__


class SequentialScheme(LabelScheme):
    """Zig-zag enumeration from the origin: 0 -> 1, -k -> 2k, +k -> 2k+1."""

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        return zigzag_array(coords) + 1

    def span(self) -> tuple[float, float]:
        return -math.inf, math.inf

    def spec(self) -> str:
        return "sequential"


class RandomInjectiveScheme(LabelScheme):
    """Seeded pseudorandom injection into [1, max_label].

    The zig-zag index is pushed through a seeded Feistel permutation of
    [0, max_label), so any coordinate window looks like uniform distinct
    labels.  Coordinates whose zig-zag index reaches max_label are out of the
    injective range and rejected.
    """

    def __init__(self, seed: int, max_label: int = 10**9):
        if max_label < 1:
            raise WorldError(f"max_label must be >= 1, got {max_label}")
        self.seed = int(seed)
        self.max_label = int(max_label)
        key = hashlib.sha256(f"random-injective:{self.seed}".encode()).digest()
        self._perm = _FeistelPerm(key, self.max_label)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        zz = zigzag_array(coords)
        if zz.size and zz.max() >= self.max_label:
            raise WorldError("coordinate outside injective range")
        return 1 + self._perm.apply(zz.ravel()).reshape(zz.shape)

    def span(self) -> tuple[int, int]:
        return _zigzag_span(self.max_label)

    def spec(self) -> str:
        return f"random-injective:{self.seed}:{self.max_label}"


class UniformClassScheme(LabelScheme):
    """Adversarial labels: every node near the origin has log* = class_index.

    The class's label range is spread (seeded permutation) over the zig-zag
    enumeration of coordinates closest to the origin.  Classes 1..4 hold very
    few labels, and injectivity on an unbounded line is impossible inside one
    class, so once a class range is exhausted labels spill outward to class
    class_index+1, then +2, and so on.  The zone that decides the smallest
    label near the agents is always class-pure.  A zone's permutation, whose
    tables take up to 2 MiB, is built when a coordinate first lands in it.
    """

    _SPILL_CLASS6_BITS = 32  # class 6 is sampled from its first 2**32 labels

    def __init__(self, seed: int, class_index: int):
        if not 1 <= class_index <= CLASS_COUNT:
            raise WorldError(f"class index out of range [1, {CLASS_COUNT}]: {class_index}")
        self.seed = int(seed)
        self.class_index = int(class_index)
        self._zones: list[tuple[int, int, int, bytes]] = []
        start = 0
        for j in range(self.class_index, CLASS_COUNT + 1):
            lo, _ = class_range(j)
            size = class_size(j) if j < CLASS_COUNT else 1 << self._SPILL_CLASS6_BITS
            key = hashlib.sha256(f"uniform-class:{self.seed}:{j}".encode()).digest()
            self._zones.append((start, lo, size, key))
            start += size
        self._perms: dict[int, _FeistelPerm] = {}
        self._size = start

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        zz = zigzag_array(coords)
        flat = zz.ravel()
        out = np.empty(flat.shape, dtype=np.int64)
        done = np.zeros(flat.shape, dtype=bool)
        for start, lo, size, key in self._zones:
            sel = ~done & (flat < start + size)
            if sel.any():
                perm = self._perms.get(start)
                if perm is None:
                    perm = self._perms[start] = _FeistelPerm(key, size)
                out[sel] = lo + perm.apply(flat[sel] - start)
                done |= sel
        if not done.all():
            raise WorldError("coordinate outside representable range")
        return out.reshape(zz.shape)

    def span(self) -> tuple[int, int]:
        return _zigzag_span(self._size)

    def spec(self) -> str:
        return f"uniform-logstar-class:{self.class_index}:{self.seed}"


def _integer(value) -> int:
    """An integer value as an int; anything else, bools included, raises
    ``TypeError``, where int() would turn 1.9 and true into 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


class ExplicitScheme(LabelScheme):
    """Labels from an explicit coordinate -> label map; anything else errors."""

    def __init__(self, mapping: dict[int, int]):
        try:
            pairs = [(int(k), _integer(v)) for k, v in mapping.items()]
        except (AttributeError, TypeError, ValueError):
            raise WorldError("explicit scheme needs a map of integer "
                             "coordinates to integer labels") from None
        clean: dict[int, int] = {}
        for coord, label in pairs:
            if label < 1:
                raise WorldError(f"label must be >= 1, got {label} at coordinate {coord}")
            clean[coord] = label
        if len(set(clean.values())) != len(clean):
            raise WorldError("explicit scheme has duplicate labels")
        self.mapping = clean
        order = sorted(clean)
        self._coords = np.array(order, dtype=np.int64)
        self._labels = np.array([clean[c] for c in order], dtype=np.int64)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        arr = np.asarray(coords, dtype=np.int64)
        missing = arr[~np.isin(arr, self._coords)]
        if missing.size:
            raise WorldError(f"no label assigned to coordinate {missing[0]}")
        return self._labels[np.searchsorted(self._coords, arr)]

    def spec(self) -> str:
        payload = json.dumps({str(k): v for k, v in sorted(self.mapping.items())},
                             separators=(",", ":"))
        return f"explicit:{payload}"


def parse_scheme(text: str) -> LabelScheme:
    """Parse a scheme spec string.

    Accepted forms: ``sequential``, ``random-injective[:seed[:max_label]]``,
    ``uniform-logstar-class:CLASS[:seed]``, ``explicit:{json map}``.
    """
    if text == "sequential":
        return SequentialScheme()
    head, _, rest = text.partition(":")
    if head in ("random-injective", "uniform-logstar-class"):
        try:
            parts = [int(p) for p in rest.split(":") if p]
        except ValueError:
            raise WorldError(f"scheme {text!r} has a non-integer field") from None
    if head == "random-injective":
        seed = parts[0] if parts else 0
        max_label = parts[1] if len(parts) > 1 else 10**9
        return RandomInjectiveScheme(seed, max_label)
    if head == "uniform-logstar-class":
        if not parts:
            raise WorldError("uniform-logstar-class needs a class index, e.g. uniform-logstar-class:5")
        seed = parts[1] if len(parts) > 1 else 0
        return UniformClassScheme(seed, parts[0])
    if head == "explicit":
        try:
            mapping = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise WorldError(f"explicit scheme payload is not valid JSON: {exc}") from None
        return ExplicitScheme(mapping)
    raise WorldError(f"unknown label scheme: {text!r}")


_PORT_BLOCK = 4096


# Schemes that label every coordinate of their span() with distinct labels
# by construction: zig-zag indexing, and Feistel permutations with cycle
# walking (Black & Rogaway, CT-RSA 2002) over disjoint label zones.  Matched
# by exact class: a subclass may repeat a label, and an explicit map may
# leave a swept coordinate unlabelled, so both keep every check.
_BIJECTIVE_SCHEMES = (SequentialScheme, RandomInjectiveScheme,
                      UniformClassScheme)

# coordinates a window is labelled in at a time from a bijective scheme;
# Feistel labelling allocates about 58 B of temporaries per coordinate
WINDOW_BLOCK = 1 << 16


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _LabelStore:
    """Labels of one contiguous coordinate interval [lo, hi], all distinct.

    ``labels[i]`` is the label at coordinate ``lo + i`` and ``ordered`` holds
    the same labels sorted.  Both arrays are read-only and replaced, never
    written, when the interval grows.
    """

    def __init__(self):
        self.lo, self.hi = 0, -1
        self.labels = self.ordered = _read_only(np.empty(0, dtype=np.int64))

    def check_fresh(self, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raise unless the labels of distinct new coordinates are distinct
        from each other and from every stored label.

        Returns them sorted and their insertion points into ``ordered``.
        """
        new = np.sort(fresh.ravel())
        idx = np.searchsorted(self.ordered, new)
        clash = (self.ordered.size
                 and (self.ordered[np.minimum(idx, self.ordered.size - 1)]
                      == new).any())
        if clash or (new[1:] == new[:-1]).any():
            raise WorldError("label scheme produced duplicate labels")
        return new, idx

    def extend(self, scheme: LabelScheme, lo: int, hi: int) -> bool:
        """Grow the interval to cover [lo, hi] when it overlaps or touches
        it, labelling only the coordinates it adds; False, with nothing
        labelled, for a range apart from it."""
        if self.lo <= lo and hi <= self.hi:
            return True
        if self.labels.size == 0:
            self.lo, self.hi = lo, lo - 1
        elif lo > self.hi + 1 or hi < self.lo - 1:
            return False
        left = np.arange(lo, self.lo)
        right = np.arange(self.hi + 1, hi + 1)
        fresh = scheme.labels_at(np.concatenate([left, right]))
        new, idx = self.check_fresh(fresh)
        self.labels = _read_only(np.concatenate(
            [fresh[:left.size], self.labels, fresh[left.size:]]))
        self.ordered = _read_only(np.insert(self.ordered, idx, new))
        self.lo, self.hi = min(lo, self.lo), max(hi, self.hi)
        return True


@dataclass(frozen=True)
class World:
    """An immutable labeled topology with seeded per-node ports.

    :meth:`labels_at` keeps the labels of one growing interval of requested
    coordinates in a store and serves later requests inside it from there, so
    each stored coordinate is labelled once.  Every newly labelled coordinate
    is checked against all stored labels, and :meth:`label` reads through
    the same store, growing it geometrically on a miss next to it.

    A walk's sweep (:meth:`cover`) and a ruling state's window
    (:meth:`window_labels`) go through the store, except for the
    ``sequential``, ``random-injective`` and ``uniform-logstar-class``
    schemes: they label their span with distinct labels by construction,
    so their sweeps only have to stay inside it.
    """

    topology: str
    scheme: LabelScheme
    n: int | None = None
    seed: int = 0
    _port_blocks: dict = field(default_factory=dict, repr=False, compare=False)
    _store: _LabelStore = field(default_factory=_LabelStore, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise WorldError(f"unknown topology {self.topology!r}")
        if self.topology == "infinite":
            if self.n is not None:
                raise WorldError("infinite topology takes no size")
        else:
            if self.n is None or self.n < 2 or (self.topology == "cycle" and self.n < 3):
                raise WorldError(f"{self.topology} needs n >= {3 if self.topology == 'cycle' else 2}")

    # -- positions ---------------------------------------------------------

    def valid(self, p: int) -> bool:
        return self.topology == "infinite" or 0 <= p < self.n

    def _check(self, p: int) -> int:
        if not self.valid(p):
            raise WorldError(f"position {p} invalid on {self.topology}({self.n})")
        return int(p)

    def degree(self, p: int) -> int:
        self._check(p)
        if self.topology == "path" and p in (0, self.n - 1):
            return 1
        return 2

    def distance(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        d = abs(a - b)
        if self.topology == "cycle":
            return min(d, self.n - d)
        return d

    # -- labels ------------------------------------------------------------

    def label(self, p: int) -> int:
        """The label at p, read through the store.

        A miss within max(64, stored size) of the stored interval grows it
        that far toward p, over coordinates that both the topology and the
        scheme's :meth:`~LabelScheme.span` allow, so a walk leaving the
        interval labels amortised O(1) coordinates per step.  For a scheme
        without a span only p is labelled.  Labelling ahead can raise a
        duplicate-label error for a coordinate no one has asked about yet,
        which only a broken scheme does.
        """
        p = self._check(p)
        store = self._store
        if store.lo <= p <= store.hi:
            return int(store.labels[p - store.lo])
        lo = hi = p
        span = self.scheme.span()
        if span is not None and store.labels.size and span[0] <= p <= span[1]:
            if self.topology != "infinite":
                span = (max(span[0], 0), min(span[1], self.n - 1))
            step = max(64, store.labels.size)
            if store.hi < p <= store.hi + step:
                lo, hi = store.hi + 1, min(store.hi + step, span[1])
            elif store.lo - step <= p < store.lo:
                lo, hi = max(store.lo - step, span[0]), store.lo - 1
        return int(self.labels_at(np.arange(lo, hi + 1))[p - lo])

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized labels; each stored coordinate is labelled only once.

        A request inside the stored interval is gathered from it.  A
        contiguous ascending request that overlaps or touches the interval
        labels only the missing flanks and extends it.  Any other request
        labels its distinct coordinates outside the interval without storing
        them.  Newly labelled coordinates must carry labels distinct from
        each other and from every stored label, or :class:`WorldError` is
        raised and the store is left as it was.  The result never aliases
        the store.
        """
        arr = np.asarray(coords, dtype=np.int64)
        if arr.size == 0:
            return np.empty(arr.shape, dtype=np.int64)
        lo, hi = int(arr.min()), int(arr.max())
        if self.topology != "infinite" and (lo < 0 or hi >= self.n):
            raise WorldError("coordinate batch leaves the finite topology")
        store = self._store
        if store.lo <= lo and hi <= store.hi:
            return store.labels[arr - store.lo]
        flat = arr.ravel()
        if (hi - lo == flat.size - 1 and (np.diff(flat) == 1).all()
                and store.extend(self.scheme, lo, hi)):
            return store.labels[arr - store.lo]
        uniq, inverse = np.unique(flat, return_inverse=True)
        inside = (uniq >= store.lo) & (uniq <= store.hi)
        out = np.empty(uniq.shape, dtype=np.int64)
        out[inside] = store.labels[uniq[inside] - store.lo]
        fresh = self.scheme.labels_at(uniq[~inside])
        store.check_fresh(fresh)
        out[~inside] = fresh
        return out[inverse].reshape(arr.shape)

    def cover(self, lo: int, hi: int) -> None:
        """Check that the nodes lo..hi, wrapped onto a cycle, carry distinct
        labels, as :meth:`labels_at` would, but return none of them.

        A walk that visits a range calls this, so that every label the walk
        sees is checked.  A cycle range across the seam is split into its
        two contiguous runs on [0, n - 1], and a run that leaves a path
        raises.  For a bijective scheme a run only has to lie inside the
        scheme's span, in O(1) and storing nothing.  For any other scheme a
        run that overlaps or touches the stored interval extends it,
        labelling only what it adds, and one inside the interval costs
        nothing; any other run goes through :meth:`labels_at`.
        """
        n = self.n
        runs = [(lo, hi)]
        if self.topology == "cycle":
            a, b = lo % n, hi % n
            runs = ([(0, n - 1)] if hi - lo + 1 >= n
                    else [(a, b)] if a <= b else [(a, n - 1), (0, b)])
        for a, b in runs:
            inside = self.valid(a) and self.valid(b)
            if inside and self._bijective:
                first, last = self.scheme.span()
                if a < first or b > last:
                    raise WorldError(f"coordinates {a}..{b} reach outside "
                                     f"injective range [{first}, {last}]")
            elif not (inside and self._store.extend(self.scheme, a, b)):
                self.labels_at(np.arange(a, b + 1))

    def window_labels(self, lo: int, hi: int) -> np.ndarray:
        """The labels of nodes lo..hi, wrapped mod n on a cycle, in a new
        array that the world does not keep.

        A bijective scheme labels the window itself, ``WINDOW_BLOCK``
        coordinates at a time, and the store is neither grown nor checked;
        any other scheme's window is read through :meth:`labels_at`.
        """
        def nodes(a: int, b: int) -> np.ndarray:
            coords = np.arange(a, b + 1)
            if self.topology == "cycle":
                coords %= self.n
            return coords

        if not self._bijective:
            return self.labels_at(nodes(lo, hi))
        if self.topology == "path" and (lo < 0 or hi >= self.n):
            raise WorldError("coordinate batch leaves the finite topology")
        out = np.empty(hi - lo + 1, dtype=np.int64)
        for a in range(lo, hi + 1, WINDOW_BLOCK):
            b = min(a + WINDOW_BLOCK - 1, hi)
            out[a - lo:b - lo + 1] = self.scheme.labels_at(nodes(a, b))
        return out

    @property
    def _bijective(self) -> bool:
        return type(self.scheme) in _BIJECTIVE_SCHEMES

    # -- ports -------------------------------------------------------------

    def _port_block(self, block: int) -> np.ndarray:
        bits = self._port_blocks.get(block)
        if bits is None:
            digest = hashlib.shake_256(
                f"ports:{self.seed}:{block}".encode()).digest(_PORT_BLOCK // 8)
            bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
            self._port_blocks[block] = bits
        return bits

    def port_bit(self, p: int) -> int:
        """1-bit per node: which port points toward coordinate +1."""
        block, off = divmod(p + (1 << 62), _PORT_BLOCK)  # shift keeps divmod sane for negatives
        return int(self._port_block(block)[off])

    def neighbors(self, p: int) -> list[tuple[int, int]]:
        """(port, neighbor) pairs at p, ordered by port number."""
        p = self._check(p)
        if self.topology == "infinite":
            plus, minus = p + 1, p - 1
        elif self.topology == "cycle":
            plus, minus = (p + 1) % self.n, (p - 1) % self.n
        else:
            if p == 0:
                return [(0, 1)]
            if p == self.n - 1:
                return [(0, self.n - 2)]
            plus, minus = p + 1, p - 1
        b = self.port_bit(p)
        pairs = [(b, plus), (1 - b, minus)]
        pairs.sort()
        return pairs

    def port_toward(self, p: int, q: int) -> int:
        """The port at p of the edge leading to adjacent node q."""
        for port, nbr in self.neighbors(p):
            if nbr == q:
                return port
        raise WorldError(f"{q} is not adjacent to {p}")

    def step(self, p: int, port: int) -> tuple[int, int]:
        """Cross the edge at (p, port); returns (new position, entry port there)."""
        for prt, nbr in self.neighbors(p):
            if prt == port:
                return nbr, self.port_toward(nbr, p)
        raise WorldError(f"node {p} has no port {port}")


def make_world(topology: str, scheme: str | LabelScheme, n: int | None = None,
               seed: int = 0) -> World:
    """Convenience constructor; a string scheme is parsed into a new object."""
    if isinstance(scheme, str):
        scheme = parse_scheme(scheme)
    return World(topology=topology, scheme=scheme, n=n, seed=seed)
