"""Labeled line worlds: topologies, label schemes, ports, and snapshots.

A :class:`World` is an infinite line, a finite path, or a cycle whose nodes
carry unique positive labels and per-node port numbers.  Ports are assigned
independently per node from the world seed, so no common orientation leaks
into agent programs.  A world's answers never change after construction;
it only caches labels and port bits as they are first asked for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator

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


class _FeistelPerm:
    """Seeded bijection of [0, size) built from a 4-round Feistel network.

    Round functions are lookup tables filled from SHAKE-256 of the key, so the
    permutation is a pure function of (key, size) and vectorizes to numpy
    gathers.  Values landing outside [0, size) are cycle-walked back through
    the network; since the network permutes [0, 2**(2h)) this stays a
    bijection of [0, size).
    """

    ROUNDS = 4
    MAX_BITS = 40  # table memory guard: h <= 20 keeps each table <= 8 MiB

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
        tables = []
        for rnd in range(self.ROUNDS):
            digest = hashlib.shake_256(key + rnd.to_bytes(2, "big")).digest(table_bytes)
            tables.append(np.frombuffer(digest, dtype=np.uint64).astype(np.int64) & self.mask)
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

    def apply_one(self, idx: int) -> int:
        return int(self.apply(np.array([idx], dtype=np.int64))[0])


class LabelScheme:
    """Base class: a deterministic injective map from coordinates to labels >= 1."""

    name: str = "abstract"

    def label_at(self, coord: int) -> int:
        raise NotImplementedError

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized labels; subclasses override where a fast path exists."""
        return np.array([self.label_at(int(c)) for c in np.asarray(coords).ravel()],
                        dtype=np.int64).reshape(np.asarray(coords).shape)

    def spec(self) -> str:
        """Round-trippable textual form, accepted by :func:`parse_scheme`."""
        raise NotImplementedError


class SequentialScheme(LabelScheme):
    """Zig-zag enumeration from the origin: 0 -> 1, -k -> 2k, +k -> 2k+1."""

    name = "sequential"

    def label_at(self, coord: int) -> int:
        return zigzag(coord) + 1

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        return zigzag_array(coords) + 1

    def spec(self) -> str:
        return "sequential"


class RandomInjectiveScheme(LabelScheme):
    """Seeded pseudorandom injection into [1, max_label].

    The zig-zag index is pushed through a seeded Feistel permutation of
    [0, max_label), so any coordinate window looks like uniform distinct
    labels.  Coordinates whose zig-zag index reaches max_label are out of the
    injective range and rejected.
    """

    name = "random-injective"

    def __init__(self, seed: int, max_label: int = 10**9):
        if max_label < 1:
            raise WorldError(f"max_label must be >= 1, got {max_label}")
        self.seed = int(seed)
        self.max_label = int(max_label)
        key = hashlib.sha256(f"random-injective:{self.seed}".encode()).digest()
        self._perm = _FeistelPerm(key, self.max_label)

    def label_at(self, coord: int) -> int:
        zz = zigzag(coord)
        if zz >= self.max_label:
            raise WorldError(f"coordinate {coord} outside injective range for max_label {self.max_label}")
        return 1 + self._perm.apply_one(zz)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        zz = zigzag_array(coords)
        if zz.size and zz.max() >= self.max_label:
            raise WorldError("coordinate outside injective range")
        return 1 + self._perm.apply(zz.ravel()).reshape(zz.shape)

    def spec(self) -> str:
        return f"random-injective:{self.seed}:{self.max_label}"


class UniformClassScheme(LabelScheme):
    """Adversarial labels: every node near the origin has log* = class_index.

    The class's label range is spread (seeded permutation) over the zig-zag
    enumeration of coordinates closest to the origin.  Classes 1..4 hold very
    few labels, and injectivity on an unbounded line is impossible inside one
    class, so once a class range is exhausted labels spill outward to class
    class_index+1, then +2, and so on.  The zone that decides the smallest
    label near the agents is always class-pure.
    """

    name = "uniform-logstar-class"

    _SPILL_CLASS6_BITS = 32  # class 6 is sampled from its first 2**32 labels

    def __init__(self, seed: int, class_index: int):
        if not 1 <= class_index <= CLASS_COUNT:
            raise WorldError(f"class index out of range [1, {CLASS_COUNT}]: {class_index}")
        self.seed = int(seed)
        self.class_index = int(class_index)
        self._zones: list[tuple[int, int, int, _FeistelPerm]] = []
        start = 0
        for j in range(self.class_index, CLASS_COUNT + 1):
            lo, _ = class_range(j)
            size = class_size(j) if j < CLASS_COUNT else 1 << self._SPILL_CLASS6_BITS
            key = hashlib.sha256(f"uniform-class:{self.seed}:{j}".encode()).digest()
            self._zones.append((start, lo, size, _FeistelPerm(key, size)))
            start += size

    def _zone_of(self, zz: int) -> tuple[int, int, int, _FeistelPerm]:
        for zone in self._zones:
            start, _, size, _ = zone
            if zz < start + size:
                return zone
        raise WorldError(f"coordinate outside representable range (zig-zag index {zz})")

    def label_at(self, coord: int) -> int:
        zz = zigzag(coord)
        start, lo, _, perm = self._zone_of(zz)
        return lo + perm.apply_one(zz - start)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        zz = zigzag_array(coords)
        flat = zz.ravel()
        out = np.empty(flat.shape, dtype=np.int64)
        done = np.zeros(flat.shape, dtype=bool)
        for start, lo, size, perm in self._zones:
            sel = ~done & (flat < start + size)
            if sel.any():
                out[sel] = lo + perm.apply(flat[sel] - start)
                done |= sel
        if not done.all():
            raise WorldError("coordinate outside representable range")
        return out.reshape(zz.shape)

    def spec(self) -> str:
        return f"uniform-logstar-class:{self.class_index}:{self.seed}"


class ExplicitScheme(LabelScheme):
    """Labels from an explicit coordinate -> label map; anything else errors."""

    name = "explicit"

    def __init__(self, mapping: dict[int, int]):
        clean: dict[int, int] = {}
        for k, v in mapping.items():
            coord, label = int(k), int(v)
            if label < 1:
                raise WorldError(f"label must be >= 1, got {label} at coordinate {coord}")
            clean[coord] = label
        if len(set(clean.values())) != len(clean):
            raise WorldError("explicit scheme has duplicate labels")
        self.mapping = clean

    def label_at(self, coord: int) -> int:
        try:
            return self.mapping[int(coord)]
        except KeyError:
            raise WorldError(f"no label assigned to coordinate {coord}") from None

    def spec(self) -> str:
        payload = json.dumps({str(k): v for k, v in sorted(self.mapping.items())},
                             separators=(",", ":"))
        return f"explicit:{payload}"


def parse_scheme(text: str, default_seed: int = 0) -> LabelScheme:
    """Parse a scheme spec string.

    Accepted forms: ``sequential``, ``random-injective[:seed[:max_label]]``,
    ``uniform-logstar-class:CLASS[:seed]``, ``explicit:{json map}``.
    """
    if text == "sequential":
        return SequentialScheme()
    head, _, rest = text.partition(":")
    if head == "random-injective":
        parts = [p for p in rest.split(":") if p] if rest else []
        seed = int(parts[0]) if parts else default_seed
        max_label = int(parts[1]) if len(parts) > 1 else 10**9
        return RandomInjectiveScheme(seed, max_label)
    if head == "uniform-logstar-class":
        parts = [p for p in rest.split(":") if p] if rest else []
        if not parts:
            raise WorldError("uniform-logstar-class needs a class index, e.g. uniform-logstar-class:5")
        class_index = int(parts[0])
        seed = int(parts[1]) if len(parts) > 1 else default_seed
        return UniformClassScheme(seed, class_index)
    if head == "explicit":
        try:
            mapping = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise WorldError(f"explicit scheme payload is not valid JSON: {exc}") from None
        return ExplicitScheme(mapping)
    raise WorldError(f"unknown label scheme: {text!r}")


@dataclass(frozen=True)
class NeighborhoodSnapshot:
    """Everything within a given host radius of a center node.

    Entry arrays are aligned and sorted by offset; ``ports_toward_center[i]``
    is the port at that node of its first edge on a shortest path back to the
    center (-1 for the center itself).
    """

    center: int
    radius: int
    offsets: np.ndarray
    labels: np.ndarray
    degrees: np.ndarray
    ports_toward_center: np.ndarray

    @property
    def entries(self) -> Iterator[tuple[int, int, int, int | None]]:
        for o, lab, deg, port in zip(self.offsets, self.labels, self.degrees,
                                     self.ports_toward_center):
            yield int(o), int(lab), int(deg), (None if port < 0 else int(port))

    def truncated(self, radius: int) -> "NeighborhoodSnapshot":
        """The same snapshot restricted to a smaller radius."""
        if radius > self.radius:
            raise WorldError(f"cannot widen a snapshot ({radius} > {self.radius})")
        keep = np.abs(self.offsets) <= radius
        return NeighborhoodSnapshot(self.center, radius, self.offsets[keep],
                                    self.labels[keep], self.degrees[keep],
                                    self.ports_toward_center[keep])

    def label_of_offset(self, offset: int) -> int:
        idx = np.searchsorted(self.offsets, offset)
        if idx >= len(self.offsets) or self.offsets[idx] != offset:
            raise WorldError(f"offset {offset} not in snapshot")
        return int(self.labels[idx])


_PORT_BLOCK = 4096


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

    def extend(self, scheme: LabelScheme, lo: int, hi: int) -> None:
        """Grow the interval to cover [lo, hi], which overlaps or touches it,
        labelling only the coordinates it adds."""
        if self.labels.size == 0:
            self.lo, self.hi = lo, lo - 1
        left = np.arange(lo, self.lo)
        right = np.arange(self.hi + 1, hi + 1)
        fresh = scheme.labels_at(np.concatenate([left, right]))
        new, idx = self.check_fresh(fresh)
        self.labels = _read_only(np.concatenate(
            [fresh[:left.size], self.labels, fresh[left.size:]]))
        self.ordered = _read_only(np.insert(self.ordered, idx, new))
        self.lo, self.hi = min(lo, self.lo), max(hi, self.hi)


@dataclass(frozen=True)
class World:
    """An immutable labeled topology with seeded per-node ports.

    :meth:`labels_at` keeps the labels of one growing interval of requested
    coordinates in a store and serves later requests inside it from there, so
    each stored coordinate is labelled once.  Every newly labelled coordinate
    is checked against all stored labels.
    """

    topology: str
    scheme: LabelScheme
    n: int | None = None
    seed: int = 0
    _port_blocks: dict = field(default_factory=dict, repr=False, compare=False)
    _label_memo: dict = field(default_factory=dict, repr=False, compare=False)
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
        p = self._check(p)
        store = self._store
        if store.lo <= p <= store.hi:
            return int(store.labels[p - store.lo])
        lab = self.scheme.label_at(p)
        prev = self._label_memo.setdefault(lab, p)
        if prev != p:
            raise WorldError(f"label {lab} duplicated at coordinates {prev} and {p}")
        return lab

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
                and (store.labels.size == 0
                     or (lo <= store.hi + 1 and store.lo - 1 <= hi))):
            store.extend(self.scheme, lo, hi)
            return store.labels[arr - store.lo]
        uniq, inverse = np.unique(flat, return_inverse=True)
        inside = (uniq >= store.lo) & (uniq <= store.hi)
        out = np.empty(uniq.shape, dtype=np.int64)
        out[inside] = store.labels[uniq[inside] - store.lo]
        fresh = self.scheme.labels_at(uniq[~inside])
        store.check_fresh(fresh)
        out[~inside] = fresh
        return out[inverse].reshape(arr.shape)

    # -- ports -------------------------------------------------------------

    def _port_block(self, block: int) -> np.ndarray:
        bits = self._port_blocks.get(block)
        if bits is None:
            digest = hashlib.shake_256(
                f"ports:{self.seed}:{block}".encode()).digest(_PORT_BLOCK // 8)
            bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
            self._port_blocks[block] = bits
        return bits

    def _port_bit(self, p: int) -> int:
        """1-bit per node: which port points toward coordinate +1."""
        block, off = divmod(p + (1 << 62), _PORT_BLOCK)  # shift keeps divmod sane for negatives
        return int(self._port_block(block)[off])

    def port_bits_at(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_port_bit` over a coordinate array."""
        arr = np.asarray(coords, dtype=np.int64).ravel() + (1 << 62)
        blocks, offs = np.divmod(arr, _PORT_BLOCK)
        out = np.empty(arr.shape, dtype=np.int64)
        for block in np.unique(blocks):
            sel = blocks == block
            out[sel] = self._port_block(int(block))[offs[sel]]
        return out.reshape(np.asarray(coords).shape)

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
        b = self._port_bit(p)
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

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, center: int, radius: int) -> NeighborhoodSnapshot:
        center = self._check(center)
        if radius < 0:
            raise WorldError(f"radius must be >= 0, got {radius}")
        if self.topology == "infinite":
            offsets = np.arange(-radius, radius + 1, dtype=np.int64)
            coords = center + offsets
            degrees = np.full(offsets.shape, 2, dtype=np.int64)
        elif self.topology == "path":
            lo = max(-radius, -center)
            hi = min(radius, self.n - 1 - center)
            offsets = np.arange(lo, hi + 1, dtype=np.int64)
            coords = center + offsets
            degrees = np.where((coords == 0) | (coords == self.n - 1), 1, 2).astype(np.int64)
        else:
            lo = -min(radius, (self.n - 1) // 2)
            hi = min(radius, self.n // 2)
            offsets = np.arange(lo, hi + 1, dtype=np.int64)
            coords = (center + offsets) % self.n
            degrees = np.full(offsets.shape, 2, dtype=np.int64)
        labels = self.labels_at(coords)
        # first hop back toward the center retraces the offset path, so for
        # o > 0 it is the port toward -1 (1 - bit) and for o < 0 toward +1 (bit)
        bits = self.port_bits_at(coords)
        ports = np.where(offsets > 0, 1 - bits, bits)
        ports[degrees == 1] = 0
        ports[offsets == 0] = -1
        return NeighborhoodSnapshot(center, radius, offsets, labels, degrees, ports)


def make_world(topology: str, scheme: str | LabelScheme, n: int | None = None,
               seed: int = 0) -> World:
    """Convenience constructor; a string scheme is parsed into a new object."""
    if isinstance(scheme, str):
        scheme = parse_scheme(scheme)
    return World(topology=topology, scheme=scheme, n=n, seed=seed)
