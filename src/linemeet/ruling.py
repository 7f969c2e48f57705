"""Ruling sets on labeled lines, plus an early-stopping colored variant.

Everything here is a pure function of coordinates on a line and their
labels: the agents simulate the construction over the interval of labels
they have walked, which is a path whatever their host, so the distance of
two coordinates is their difference and a window's labels are all a build
reads.  Labels travel with their coordinates, and whatever selects nodes
selects both by the same mask or index.

A ruling set with spacing R keeps members at pairwise distance >= R
while leaving no universe node farther than R-1 from a member.  The colored
variant processes nodes class by class (classes are iterated-log buckets of
the labels), commits each class at a fixed schedule round, and hands every
member one of 17 colors such that members within distance 9R-1 never
share one.

All schedule quantities are exact integer formulas in R and the class index,
computed without running anything; the executed operations stay within those
budgets, which is what makes per-node outputs pure functions of a bounded
neighborhood (checked by the certification helpers below).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .localengine import PowerSubgraph, list_color, list_color_rounds, mis, mis_rounds
from .logstar import (CLASS_COUNT, CLASS_LO, ceil_log2, class_size, label_class,
                      label_classes, log_star)

PALETTE_SIZE = 17  # member colors are 1..17


class RulingError(ValueError):
    """Invalid spacing parameter or query outside the processed universe."""


def _spacing(R: int) -> int:
    """The spacing parameter as an int, which must be >= 1."""
    R = int(R)
    if R < 1:
        raise RulingError(f"spacing parameter must be >= 1, got {R}")
    return R


@dataclass(frozen=True)
class RulingCheck:
    """Oracle verdict; on failure names the property and a witness."""

    ok: bool
    failure: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ColoredRulingOutput:
    """One node's committed record from the early-stopping construction.

    ``nearby_members`` lists the set members within distance R-1 (self
    excluded) whose classes committed no later than this node's, with their
    colors.  ``termination_radius`` is also the round at which the record is
    committed, one simulated round being one hop of information.
    """

    position: int
    label: int
    label_class: int
    in_set: bool
    color: int | None
    nearby_members: tuple
    termination_radius: int


# -- exact schedule ------------------------------------------------------------

def list_color_budget(class_index: int) -> int:
    """Reserved simulated rounds for list-coloring one class's members: the
    most that :func:`list_color` takes on the class's palette, with 8
    rank-difference classes (newcomers lie R apart within 9R - 1)."""
    return list_color_rounds(8, class_size(class_index))


def ruling_stage_rounds(R: int, class_index: int) -> int:
    """Host rounds to build one class's ruling set: doubling stages + greedy."""
    if R == 1:
        return 0
    d = ceil_log2(R)
    per_mis = mis_rounds(class_size(class_index))
    total = sum(((2**i - 1) if i < d else R - 1) * per_mis for i in range(1, d + 1))
    return total + 6 * (4 * R - 4)


def class_phase_rounds(R: int, class_index: int) -> int:
    """Host rounds to merge a class into the committed set and color it.

    Merge scan R-1, four greedy-extension iterations of 3R-3 each, one round
    on the (9R-1)-power graph to learn exclusion lists plus the reserved
    list-coloring budget, and R-1 to learn nearby members.
    """
    return 14 * R - 14 + (9 * R - 1) * (1 + list_color_budget(class_index))


@lru_cache(maxsize=4096)
def phase_start_round(R: int, class_index: int) -> int:
    """Schedule round at which a class's merge may begin.

    Class 1 holds at most one node (only one label has iterated-log 1), so
    its ruling set needs no rounds and the schedule starts at 0.
    """
    if class_index <= 1:
        return 0
    return max(phase_end_round(R, class_index - 1),
               ruling_stage_rounds(R, class_index))


@lru_cache(maxsize=4096)
def phase_end_round(R: int, class_index: int) -> int:
    """Schedule round at which a class's nodes commit their outputs."""
    return phase_start_round(R, class_index) + class_phase_rounds(R, class_index)


def termination_radius(label: int, R: int) -> int:
    """Host radius (= virtual rounds) after which this label's output is fixed."""
    return phase_end_round(_spacing(R), log_star(label))


def _radius_factor() -> int:
    worst = 0
    for j in range(13):
        R = 4**j
        for i in range(1, CLASS_COUNT + 1):
            bound = phase_end_round(R, i)
            worst = max(worst, -(-bound // (R * i)))
    return worst


# termination_radius(label, R) <= RADIUS_FACTOR * R * log_star(label)
# over the whole power-of-4 spacing grid the search loop uses
RADIUS_FACTOR = _radius_factor()


# -- vectorized distance helpers -----------------------------------------------


def _nearest_distance(queries: np.ndarray, members: np.ndarray,
                      cap: int | None = None) -> np.ndarray:
    """Distance from each query to the nearest sorted member (capped)."""
    if members.size == 0:
        if cap is None:
            raise RulingError("no members to measure against")
        return np.full(queries.size, cap, dtype=np.int64)
    idx = np.searchsorted(members, queries)
    left = members[np.clip(idx - 1, 0, members.size - 1)]
    right = members[np.clip(idx, 0, members.size - 1)]
    d = np.minimum(np.abs(queries - left), np.abs(right - queries))
    return np.minimum(d, cap) if cap is not None else d


def _window_max(coords: np.ndarray, keys: np.ndarray, reach: int) -> np.ndarray:
    """Max of the int64 keys within distance reach of each sorted coordinate.

    A van Herk / Gil-Werman sliding maximum.  The keys are scattered onto a
    dense axis cut into blocks of the window width w = 2*reach + 1, so every
    window is a suffix of one block followed by a prefix of the next: one
    forward and one backward running maximum per block, then one gather per
    end, in O(n) time and about 3n memory.  Gaps wider than reach shrink to
    reach + 1 on that axis first; no window spans one, so sparse
    coordinates do not widen it.
    """
    w = 2 * reach + 1
    pos = np.empty(coords.size, dtype=np.int64)
    pos[0] = reach  # room for the first window's left half
    np.cumsum(np.minimum(np.diff(coords), reach + 1), out=pos[1:])
    pos[1:] += reach
    n = -(-(int(pos[-1]) + reach + 1) // w) * w
    axis = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
    axis[pos] = keys
    prefix = np.maximum.accumulate(axis.reshape(-1, w), axis=1).ravel()
    # on the reversed axis the blocks stay aligned, as n is a multiple of w
    suffix = np.maximum.accumulate(axis[::-1].reshape(-1, w), axis=1).ravel()
    return np.maximum(suffix[n - 1 - (pos - reach)], prefix[pos + reach])


def _far_from(coords: np.ndarray, committed: np.ndarray, R: int) -> np.ndarray:
    """Whether each sorted coordinate lies at distance >= R from the sorted
    committed set, measured ``BLOCK`` coordinates at a time."""
    far = np.empty(coords.size, dtype=bool)
    for a in range(0, coords.size, BLOCK):
        c = coords[a:a + BLOCK]
        far[a:a + BLOCK] = _nearest_distance(c, committed, cap=R) >= R
    return far


def _greedy_extend(coords: np.ndarray, labels: np.ndarray,
                   committed: np.ndarray, R: int, iterations: int,
                   cap: int) -> np.ndarray:
    """Add locally-farthest candidates to the sorted committed set.

    Candidates are the sorted ``coords``, labelled ``labels``, at distance
    >= R from the set.  Keys are the distance to the whole set capped at
    ``cap``, ties to the larger label, and a winner must beat every
    candidate within R-1.  Returns the extended set, sorted.

    Only candidates are carried from one iteration to the next: distances
    to a growing set only fall, so a node that is no candidate never
    becomes one, and it could neither win a window nor block a candidate.
    The first iteration's candidates are ranked by label among themselves,
    which orders them as their ranks among all of ``coords`` would.
    """
    far = _far_from(coords, committed, R)
    cand = coords[far]
    m = cand.size
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(labels[far])] = np.arange(m, dtype=np.int64)
    for _ in range(iterations):
        b = _nearest_distance(cand, committed, cap=cap)
        keep = b >= R
        if not keep.any():
            break
        cand, rank = cand[keep], rank[keep]
        keys = b[keep] * np.int64(m + 1) + rank
        top = keys == _window_max(cand, keys, R - 1)
        # candidates lie >= R from the set, so a sorted merge is the union
        committed = np.sort(np.concatenate((committed, cand[top])))
    return committed


# -- ruling set on one universe ------------------------------------------------


def _sorted_coords(positions: Iterable[int]) -> np.ndarray:
    """Distinct positions as a sorted int64 array.

    A strictly increasing int64 array comes back as it is.
    """
    if not isinstance(positions, np.ndarray):
        positions = list(positions)
    coords = np.asarray(positions, dtype=np.int64)
    if coords.ndim == 1 and np.all(coords[1:] > coords[:-1]):
        return coords
    return np.unique(coords)


# stage members per blocked mis run, and coordinates per distance pass of
# the greedy extension
BLOCK = 1 << 14


def _stage(s: np.ndarray, labels: np.ndarray, reach: int,
           palette: int | None, base: int) -> tuple[np.ndarray, np.ndarray]:
    """One doubling stage: the mis of the reach-power graph on the sorted
    ``s``, labelled ``labels``; returns its members and their labels.

    The stage runs block by block.  Its mis is a ``mis_rounds(palette)``-
    round local algorithm, and a round's hop spans at most ``reach``
    coordinates, so a member's output depends only on the members within
    ``mis_rounds(palette) * reach`` of it.  Each block therefore runs
    widened by that halo, and keeps its own members' outputs; a stage of
    at most ``BLOCK`` members is one block, whose halo holds the whole
    stage.  Every block colors from the palette of the whole stage, as the
    schedule, and with it every color, depends on the palette.
    """
    if palette is None:
        palette = int(labels.max()) - base + 1
    halo = mis_rounds(palette) * reach
    parts = []
    for a in range(0, s.size, BLOCK):
        first, last = s[a], s[min(a + BLOCK, s.size) - 1]
        i, j = np.searchsorted(s, (first - halo, last + halo + 1))
        got = mis(PowerSubgraph(s[i:j], labels[i:j], reach), palette, base)
        parts.append(got[(got >= first) & (got <= last)])
    kept = np.concatenate(parts)
    return kept, labels[np.searchsorted(s, kept)]


def path_ruling_set(coords: np.ndarray, labels: np.ndarray, R: int, *,
                    palette: int | None = None, base: int = 1) -> np.ndarray:
    """Members of a ruling set with packing R and covering R-1 over the
    universe ``coords``, strictly increasing, whose labels are ``labels``
    in the same order, as a sorted int64 array.

    Doubling stages: with d = ceil(log2 R), stage i takes a maximal
    independent set of the power graph at radius 2^i - 1 (R-1 in the last
    stage), squaring the spacing while the covering loss stays linear.  Six
    greedy-extension iterations then pull the covering down to R-1 by
    admitting candidates at distance >= R from the set that beat every
    nearby candidate on (distance, label).  Large stages run in blocks
    (see :func:`_stage`), so the graph and coloring temporaries of a stage
    are bounded by the block, not by the universe.

    Stage invariants: each doubling stage's output is a (reach + 1, reach)
    ruling set of its input, so after stage i the spacing is >= 2^i (R
    after the last) and the universe's covering is <= 2^(i+1) - i - 2
    (3R-3 after the last, the extension's cap - 1); the extension ends
    with spacing >= R and covering <= R-1.  The test suite checks them on
    every stage and extension with :func:`verify_limited_ruling_set` (the
    ``ruling_invariants`` fixture of ``tests/conftest.py``).
    """
    R = _spacing(R)
    coords = np.asarray(coords, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != coords.shape or np.any(coords[1:] <= coords[:-1]):
        raise RulingError("a universe is increasing coordinates, each with "
                          "one label")
    if coords.size == 0 or R == 1:
        return coords.copy()
    s, s_labels = coords, labels
    d = ceil_log2(R)
    for i in range(1, d + 1):
        s, s_labels = _stage(s, s_labels, 2**i - 1 if i < d else R - 1,
                             palette, base)
    return _greedy_extend(coords, labels, s, R, 6, cap=3 * R - 2)


def verify_limited_ruling_set(universe: Iterable[int],
                              members: Iterable[int], alpha: int,
                              beta: int) -> RulingCheck:
    """Exhaustively check membership, packing, and covering."""
    uni, mem = _sorted_coords(universe), _sorted_coords(members)
    outside = mem[~np.isin(mem, uni)]
    if outside.size:
        return RulingCheck(False, "subset", (int(outside[0]),))
    if mem.size >= 2:
        gaps = np.diff(mem)
        j = int(np.argmin(gaps))
        if int(gaps[j]) < alpha:
            return RulingCheck(False, "packing", (int(mem[j]), int(mem[j + 1])))
    if uni.size:
        if mem.size == 0:
            return RulingCheck(False, "covering", (int(uni[0]),))
        d = _nearest_distance(uni, mem)
        j = int(np.argmax(d))
        if int(d[j]) > beta:
            return RulingCheck(False, "covering", (int(uni[j]),))
    return RulingCheck(True)


# -- early-stopping colored construction ---------------------------------------


class EsColState:
    """Committed membership, colors, and classes over one window of labels.

    ``labels[i]`` is the label at coordinate ``lo + i``, so the window is
    the contiguous [lo, hi], hi = lo + labels.size - 1, and its labels are
    all the build reads.  Classes commit in order at their schedule rounds;
    each class builds its own ruling set, drops members within R-1 of the
    committed set, runs four greedy-extension iterations, and list-colors
    the newcomers against the colors already committed within 9R-1.  Stored
    by (R, window, class, served region); per-node records are assembled on
    demand by ``output_for``.  A node's record is trustworthy when the window
    contains its whole termination-radius ball (`window_certifies`), which
    is exactly when truncating the window further cannot change it.

    ``top_class`` stops the build after that class: classes commit in
    order and a class reads only its own nodes and the set committed
    before it, so the members of classes 1..top_class are those of the
    full build.  A record of a node above ``top_class`` was not built, and
    asking for one raises ``RulingError``.  The default builds all
    ``CLASS_COUNT`` classes.

    ``serves`` = (slo, shi) within the window is the region S whose records
    the state must hold; the default is the whole window.  Every class is
    built one way, around the region it serves: ``top_class`` = c serves S,
    and a class below it serves the whole window.  Step k runs class i on
    its nodes within rho_k + ``settle`` of its region, clipped to the
    window, rho_0 being :func:`_first_color_radius` and rho doubling each
    step; a step that holds every class-i node of the window is the window.
    A class-i member's status reads the class-i nodes within the ruling
    stages, the merge scan and four extension passes, ``settle`` =
    ruling_stage_rounds + 13R - 13, of it, so a step's statuses are exact
    on its range less ``settle`` at each cut that is not a window end, its
    exact part.  A later step keeps the last step's members on that part
    and runs only its two new flanks, each widened by ``settle`` into it
    and keeping its own side; a step with no exact part runs whole.

    Every step's list coloring carries taint.  A newcomer starts tainted
    when its neighbours within 9R - 1 reach past the exact statuses at a
    cut, so the window starts none, and a value is tainted once it reads a
    tainted one.  A taint-free color was computed from the same inputs as
    in the whole window's call, as long as both calls share their one
    call-wide input, the number dd of rank-difference classes (see
    :func:`~linemeet.localengine.list_color`), which is at most 8, as
    newcomers lie R apart; an untainted newcomer with 8 classes settles
    it.  So a step is kept when its region reads no class-i newcomer, when
    it is the window, or when such a newcomer exists and no color that the
    region reads is tainted; otherwise rho doubles.  A class below c thus
    keeps its first step, the window.  A class-c record outside S raises
    ``RulingError``, built or not, and the class-c members a state keeps
    outside S may differ from the whole window's.

    Once built, a state keeps what queries read: the members' coordinates
    (int64), classes and colors (uint8), R, the window's ends ``lo`` and
    ``hi``, and the labels array the caller handed over, not a copy of it.
    The per-node classes, colors and membership of the build are dropped.
    """

    def __init__(self, labels: np.ndarray, lo: int, R: int,
                 top_class: int = CLASS_COUNT,
                 serves: tuple[int, int] | None = None):
        self.R = _spacing(R)
        if not 1 <= top_class <= CLASS_COUNT:
            raise RulingError(f"top class must be in 1..{CLASS_COUNT}, "
                              f"got {top_class}")
        self.top_class = int(top_class)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.lo = int(lo)
        self.hi = self.lo + self.labels.size - 1
        slo, shi = (self.lo, self.hi) if serves is None else map(int, serves)
        if not self.lo <= slo <= shi <= self.hi:
            raise RulingError(f"served region [{slo}, {shi}] leaves the "
                              f"window [{self.lo}, {self.hi}]")
        self.serves = (slo, shi)
        self._run()

    @property
    def coords(self) -> np.ndarray:
        """The window's coordinates, lo..hi."""
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the state keeps."""
        kept = (self.labels, self.member_coords, self.member_classes,
                self.member_colors)
        return sum(a.nbytes for a in kept)

    def _run(self) -> None:
        # per-node work arrays are one byte a node; coordinates and labels
        # are selected only for the nodes a step reads
        R, lo, labels = self.R, self.lo, self.labels
        classes = label_classes(labels).astype(np.uint8)
        colors = np.zeros(labels.size, dtype=np.uint8)
        members = np.empty(0, dtype=np.int64)
        for i in range(1, self.top_class + 1):
            # empty classes still hold their schedule slot, and a class
            # below the top serves the whole window
            serves = self.serves if i == self.top_class else (lo, self.hi)
            fresh, got = self._fresh(classes, i, members, colors, serves)
            colors[fresh - lo] = got
            # fresh members lie >= R from the committed set
            members = np.sort(np.concatenate((members, fresh)))
        self.member_coords = members
        self.member_classes = classes[members - lo]
        self.member_colors = colors[members - lo]

    def _fresh(self, classes: np.ndarray, i: int, members: np.ndarray,
               colors: np.ndarray, serves: tuple[int, int]
               ) -> tuple[np.ndarray, np.ndarray]:
        """The members class i adds to the committed set ``members``, and
        their colors against the committed ``colors``, exact on the region
        ``serves``: class i grows around it from rho =
        :func:`_first_color_radius`, each step rerunning only the flanks the
        last one cut and coloring with taint, until the region reads no
        class-i newcomer, the step is the window, or the colors the region
        reads are taint-free with the whole window's rank-difference
        classes (see the class docstring).
        """
        R, lo, size, reach = self.R, self.lo, classes.size, 9 * self.R - 1

        def run(a: int, b: int) -> np.ndarray:
            at = np.flatnonzero(classes[a:b] == i) + a
            if at.size == 0:
                return at + lo
            grown = _class_members(at + lo, self.labels[at], members, R, i)
            return grown[classes[grown - lo] == i]

        slo, shi = serves
        # a status reads the class-i nodes within `settle`, so a step's are
        # exact on [ea, eb), its range less `settle` at each cut
        settle = ruling_stage_rounds(R, i) + 13 * R - 13
        rho, ea, eb = _first_color_radius(R, i), 0, 0
        while True:
            a = max(slo - rho - settle - lo, 0)
            b = min(shi + rho + settle - lo + 1, size)
            # a step that holds every class-i node of the window is the
            # window, with the same runs
            if not ((classes[:a] == i).any() or (classes[b:] == i).any()):
                a, b = 0, size
            # the first step, or one after a step with no exact part,
            # runs whole
            if ea >= eb:
                fresh = run(a, b)
            else:
                # the last step's members stand on its exact part, and each
                # new flank, widened by `settle`, keeps its own side
                keep = [fresh[(fresh >= ea + lo) & (fresh < eb + lo)]]
                if ea:
                    left = run(a, ea + settle)
                    keep.insert(0, left[left < ea + lo])
                if eb < size:
                    right = run(eb - settle, b)
                    keep.append(right[right >= eb + lo])
                fresh = np.concatenate(keep)
            ea, eb = (a + settle if a else 0), (b - settle if b < size else size)
            # newcomers in [first, last] have the whole window's neighbours
            # within 9R - 1, and the others start tainted
            first = ea + reach + lo if a else self.lo
            last = eb - reach - 1 + lo if b < size else self.hi
            taint = (fresh < first) | (fresh > last)
            read = slice(*np.searchsorted(fresh, (slo - R + 1, shi + R)))
            # the region reads no newcomer, the step is the window, or an
            # untainted newcomer settles the rank-difference classes
            if read.start == read.stop or (a, b) == (0, size) \
                    or _full_width_in(fresh, first, last, R):
                got = _color_phase(fresh, self.labels[fresh - lo], members,
                                   colors[members - lo], R, i, taint)
                if not taint[read].any():
                    return fresh, got
            rho *= 2

    # -- queries ---------------------------------------------------------------

    def _class_of(self, position: int) -> int:
        """The class of a node in the window whose record was built."""
        if not self.lo <= position <= self.hi:
            raise RulingError(f"{position} was not processed")
        cls = label_class(int(self.labels[position - self.lo]))
        if cls > self.top_class:
            raise RulingError(f"{position} is of class {cls}, past the "
                              f"built classes 1..{self.top_class}")
        slo, shi = self.serves
        if cls == self.top_class and not slo <= position <= shi:
            raise RulingError(f"{position} is of class {cls}, served only "
                              f"within [{slo}, {shi}]")
        return cls

    def output_for(self, position: int) -> ColoredRulingOutput:
        position = int(position)
        cls = self._class_of(position)
        label = int(self.labels[position - self.lo])
        mc = self.member_coords
        lo = np.searchsorted(mc, position - (self.R - 1), side="left")
        hi = np.searchsorted(mc, position + (self.R - 1), side="right")
        near, color = [], None
        for w, wc, wcol in zip(mc[lo:hi].tolist(),
                               self.member_classes[lo:hi].tolist(),
                               self.member_colors[lo:hi].tolist()):
            if w == position:
                color = wcol
            elif wc <= cls:
                near.append((w, wcol))
        return ColoredRulingOutput(
            position=position, label=label, label_class=cls,
            in_set=color is not None, color=color,
            nearby_members=tuple(near),
            termination_radius=phase_end_round(self.R, cls))


def _class_members(vi: np.ndarray, labels: np.ndarray, committed: np.ndarray,
                   R: int, class_index: int) -> np.ndarray:
    """The committed set grown by class ``class_index``, whose nodes are
    ``vi``, labelled ``labels``: the class's own ruling set less its
    members within R-1 of ``committed``, then four greedy-extension
    iterations."""
    fresh = path_ruling_set(vi, labels, R, palette=class_size(class_index),
                            base=CLASS_LO[class_index - 1])
    if committed.size and fresh.size:
        fresh = fresh[_nearest_distance(fresh, committed) >= R]
    # fresh members lie >= R from the committed set, so this is the union
    grown = np.sort(np.concatenate((committed, fresh)))
    # distances are to the whole committed set, candidacy and the beat rule
    # stay within this class
    return _greedy_extend(vi, labels, grown, R, 4, cap=2 * R - 1)


def _first_color_radius(R: int, class_index: int) -> int:
    """Radius rho of the first step a state's top class runs on around
    the region it serves: a fifth of the class's exclusion-list round and
    list-coloring budget, in hops of 9R - 1, rounded up.  On the windows
    that ``scripts/locality_profile.py`` draws, the taint of a cut reaches
    9 to 27 hops into classes 5 and 6, whose budgets are 126 and 127 hops,
    so a later step is rarely needed."""
    return (9 * R - 1) * -(-(1 + list_color_budget(class_index)) // 5)


def _full_width_in(fresh: np.ndarray, slo: int, shi: int, R: int) -> bool:
    """Whether a newcomer in [slo, shi] has the most rank-difference
    classes a call of :func:`_color_phase` can have: 8 newcomers within
    9R - 1 on one side, as newcomers lie at least R apart."""
    reach, widest = 9 * R - 1, (9 * R - 1) // R
    a, b = np.searchsorted(fresh, (slo, shi + 1))
    rank = np.arange(a, b)
    left = rank - np.searchsorted(fresh, fresh[a:b] - reach)
    right = np.searchsorted(fresh, fresh[a:b] + reach, side="right") - 1 - rank
    return bool((np.maximum(left, right) == widest).any())


def _color_phase(phase: np.ndarray, labels: np.ndarray, sc: np.ndarray,
                 scol: np.ndarray, R: int, class_index: int,
                 taint: np.ndarray) -> np.ndarray:
    """Colors of a class's newcomers ``phase``, labelled ``labels``,
    list-colored against the colors ``scol`` already committed at the
    sorted ``sc`` within 9R-1; ``taint``, a flag per newcomer, is traced
    through the coloring in place (see :func:`~linemeet.localengine.list_color`)."""
    if phase.size == 0:
        return np.empty(0, dtype=np.int64)
    reach = 9 * R - 1
    lo = np.searchsorted(sc, phase - reach, side="left")
    hi = np.searchsorted(sc, phase + reach, side="right")
    # held[k, c]: how many of the first k committed members hold color c;
    # a color is allowed where none within 9R-1 holds it
    held = np.zeros((sc.size + 1, PALETTE_SIZE + 1), dtype=np.int32)
    held[np.arange(1, sc.size + 1), scol] = 1
    np.cumsum(held, axis=0, out=held)
    allowed = held[hi] == held[lo]
    allowed[:, 0] = False
    colors, _ = list_color(PowerSubgraph(phase, labels, reach), allowed,
                           palette=class_size(class_index),
                           base=CLASS_LO[class_index - 1], taint=taint)
    return colors


def window_certifies(state: EsColState, position: int,
                     ends: tuple[int, int] | None = None) -> bool:
    """Whether the state's window contains the node's whole
    termination-radius ball.  On a path, ``ends`` are its first and last
    node, which carry their own boundary: the ball is clipped to them.  A
    node of a class the state did not build, or of its top class outside
    the region it serves, raises ``RulingError``."""
    position = int(position)
    if not state.lo <= position <= state.hi:
        return False
    radius = phase_end_round(state.R, state._class_of(position))
    lo, hi = position - radius, position + radius
    if ends is not None:
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    return state.lo <= lo and hi <= state.hi


def verify_es_col_ruling(state: EsColState) -> RulingCheck:
    """Replay oracle for the colored construction.

    Checks, in commit order: each class prefix 1..``state.top_class`` is
    a ruling set over the prefix universe; colors are in range and proper
    on the (9R-1)-power graph of every prefix; the nearby-member records of
    the built classes match a brute-force scan; and every such termination
    radius respects the exported factor.  The nodes of ``state.top_class``
    count only within the served region and where they are members.
    """
    R = state.R
    coords = state.coords
    classes = label_classes(state.labels)
    slo, shi = state.serves
    served = (classes < state.top_class) | (coords >= slo) & (coords <= shi)
    checked = served.copy()
    checked[state.member_coords - state.lo] = True
    for i in range(1, state.top_class + 1):
        upref = coords[(classes <= i) & checked]
        spref = state.member_coords[state.member_classes <= i]
        check = verify_limited_ruling_set(upref, spref, R, R - 1)
        if not check:
            return RulingCheck(False, f"prefix-{check.failure}",
                               (i,) + (check.witness or ()))
        cols = state.member_colors[state.member_classes <= i]
        if cols.size and (cols.min() < 1 or cols.max() > PALETTE_SIZE):
            return RulingCheck(False, "color-range", (i,))
        for j, pos in enumerate(spref):
            lo = np.searchsorted(spref, pos - (9 * R - 1), side="left")
            hi = np.searchsorted(spref, pos + (9 * R - 1), side="right")
            for w, wcol in zip(spref[lo:hi], cols[lo:hi]):
                if w != pos and wcol == cols[j]:
                    return RulingCheck(False, "coloring", (int(pos), int(w)))
    for j, pos in enumerate(coords):
        if classes[j] > state.top_class or not served[j]:
            continue
        out = state.output_for(int(pos))
        want = _brute_nearby(state, int(pos), int(classes[j]))
        if out.nearby_members != want:
            return RulingCheck(False, "nearby", (int(pos),))
        if out.termination_radius > RADIUS_FACTOR * R * out.label_class:
            return RulingCheck(False, "radius", (int(pos),))
    return RulingCheck(True)


def _brute_nearby(state: EsColState, position: int, cls: int) -> tuple:
    found = []
    for w, wc, wcol in zip(state.member_coords, state.member_classes,
                           state.member_colors):
        if int(w) != position and wc <= cls \
                and abs(int(w) - position) <= state.R - 1:
            found.append((int(w), int(wcol)))
    return tuple(sorted(found))


def certify_es_locality(state: EsColState, sample: Iterable[int] | None = None,
                        ends: tuple[int, int] | None = None) -> dict[int, int]:
    """Prove per-node purity by rebuilding each record from its own ball.

    For each sampled node that the state's window certifies (see
    :func:`window_certifies`, with a path's ``ends``), rebuilds the
    construction on the labels of the node's termination-radius ball alone,
    [p - radius, p + radius] clipped to the path's ends, and demands the
    identical record; a changed one raises ``RulingError``.  Returns the
    termination radius per certified node.
    """
    targets = (state.coords.tolist() if sample is None
               else [int(p) for p in sample])
    radii: dict[int, int] = {}
    for p in targets:
        if not window_certifies(state, p, ends):
            continue
        out = state.output_for(p)
        radius = out.termination_radius
        # the window holds the ball, so it clips the ball only at a path
        # end; the slice stops at the window's last node by itself
        a = max(p - radius, state.lo)
        ball = state.labels[a - state.lo:p + radius + 1 - state.lo]
        if EsColState(ball, a, state.R).output_for(p) != out:
            raise RulingError(
                f"output of {p} changed under truncation to radius {radius}")
        radii[p] = radius
    return radii
