"""Ruling sets on labeled lines, plus an early-stopping colored variant.

Everything here runs on a line (the infinite line, or a path: a line with
ends), as the interval an agent has walked is a path whatever its host; the
distance of two coordinates is their difference, and other hosts raise.

A ruling set with spacing R keeps members at pairwise host distance >= R
while leaving no universe node farther than R-1 from a member.  The colored
variant processes nodes class by class (classes are iterated-log buckets of
the labels), commits each class at a fixed schedule round, and hands every
member one of 17 colors such that members within host distance 9R-1 never
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

from .localengine import PowerSubgraph, _merge_schedule_cost, list_color, mis, mis_rounds, three_color_rounds
from .logstar import CLASS_COUNT, CLASS_LO, ceil_log2, class_size, label_classes, log_star
from .world import WindowScheme, World

PALETTE_SIZE = 17  # member colors are 1..17


class RulingError(ValueError):
    """Invalid spacing parameter or query outside the processed universe."""


def _on_line(host: World) -> None:
    """Reject a host that is not a line (see the module docstring)."""
    if host.topology == "cycle":
        raise RulingError(f"ruling sets are built on a line, not a {host.topology}")


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

_FULL_MERGE_COST = _merge_schedule_cost(8)


def list_color_budget(class_index: int) -> int:
    """Reserved simulated rounds for list-coloring one class's members."""
    m = class_size(class_index)
    return min(three_color_rounds(m) + _FULL_MERGE_COST, m)


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


def _greedy_extend(coords: np.ndarray, labels: np.ndarray,
                   committed: np.ndarray, R: int, iterations: int,
                   cap: int) -> np.ndarray:
    """Add locally-farthest candidates to the sorted committed set.

    Candidates are the sorted ``coords`` at distance >= R from the set.  Keys
    are the distance to the whole set capped at ``cap``, ties to the larger
    label, and a winner must beat every candidate within R-1.  Returns the
    extended set, sorted.
    """
    m = coords.size
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(labels)] = np.arange(m, dtype=np.int64)
    for _ in range(iterations):
        b = _nearest_distance(coords, committed, cap=cap)
        cand = b >= R
        if not cand.any():
            break
        keys = np.where(cand, b * np.int64(m + 1) + rank, np.int64(-1))
        top = cand & (keys == _window_max(coords, keys, R - 1))
        # candidates lie >= R from the set, so a sorted merge is the union
        committed = np.sort(np.concatenate((committed, coords[top])))
    return committed


def _check_spacing(members: np.ndarray, spacing: int) -> None:
    if members.size < 2:
        return
    gap = int(np.diff(members).min())
    if gap < spacing:
        raise RulingError(f"members {gap} apart, need spacing {spacing}")


def _check_covering(worst: int, bound: int, what: str) -> None:
    if worst > bound:
        raise RulingError(f"{what}: a node is {worst} from the set, "
                          f"bound {bound}")


# -- ruling set on one universe ------------------------------------------------


def _sorted_coords(positions: Iterable[int]) -> np.ndarray:
    """Distinct positions as a sorted int64 array the caller does not share."""
    if not isinstance(positions, np.ndarray):
        positions = list(positions)
    coords = np.array(positions, dtype=np.int64)
    if coords.ndim == 1 and np.all(coords[1:] > coords[:-1]):
        return coords  # already strictly increasing, as every window range is
    return np.unique(coords)


def path_ruling_set(host: World, universe: Iterable[int], R: int, *,
                    palette: int | None = None, base: int = 1,
                    debug: bool = False) -> np.ndarray:
    """Members of a ruling set with packing R and covering R-1 over the
    universe, as a sorted int64 array.

    Doubling stages: with d = ceil(log2 R), stage i takes a maximal
    independent set of the power graph at radius 2^i - 1 (R-1 in the last
    stage), squaring the spacing while the covering loss stays linear.  Six
    greedy-extension iterations then pull the covering down to R-1 by
    admitting candidates at distance >= R from the set that beat every
    nearby candidate on (distance, label).

    With ``debug`` the stage invariants are checked, raising ``RulingError``
    on a breach: spacing >= 2^i, universe covering <= 2^(i+1) - i - 2 per
    doubling stage (3R-3 after the last), and covering <= R-1 at the end.
    """
    _on_line(host)
    R = _spacing(R)
    coords = _sorted_coords(universe)
    if coords.size == 0 or R == 1:
        return coords
    labels = host.labels_at(coords)
    s = coords
    d = ceil_log2(R)
    for i in range(1, d + 1):
        stage_reach = 2**i - 1 if i < d else R - 1
        sub = PowerSubgraph(host, s, stage_reach)
        s = mis(sub, palette, base)
        if debug:
            _check_spacing(s, 2**i if i < d else R)
            worst = int(_nearest_distance(coords, s).max())
            bound = 2**(i + 1) - i - 2 if i < d else 3 * R - 3
            _check_covering(worst, bound, f"doubling stage {i}")
    s = _greedy_extend(coords, labels, s, R, 6, cap=3 * R - 2)
    if debug:
        worst = int(_nearest_distance(coords, s).max())
        _check_covering(worst, R - 1, "greedy extension")
    return s


def verify_limited_ruling_set(host: World, universe: Iterable[int],
                              members: Iterable[int], alpha: int,
                              beta: int) -> RulingCheck:
    """Exhaustively check membership, packing, and covering."""
    _on_line(host)
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
    """Committed membership, colors, and classes over a processed window.

    Classes commit in order at their schedule rounds; each class builds its
    own ruling set, drops members within R-1 of the committed set, runs four
    greedy-extension iterations, and list-colors the newcomers against the
    colors already committed within 9R-1.  Built once per (host, window,
    R); per-node records are assembled on demand by ``output_for``.  A
    node's record is trustworthy when the window contains its whole
    termination-radius ball (`window_certifies`), which is exactly when
    truncating the window further cannot change it.  The state keeps its
    window's labels but not the host, so a stored state keeps no ``World``
    alive.
    """

    def __init__(self, host: World, positions: Iterable[int], R: int,
                 debug: bool = False):
        self.R = _spacing(R)
        self.coords = _sorted_coords(positions)
        self.labels = (host.labels_at(self.coords) if self.coords.size
                       else np.empty(0, dtype=np.int64))
        self.classes = (label_classes(self.labels) if self.coords.size
                        else np.empty(0, dtype=np.int64))
        self.in_set = np.zeros(self.coords.size, dtype=bool)
        self.colors = np.zeros(self.coords.size, dtype=np.int64)
        self._run(host, debug)
        sel = self.in_set
        self.member_coords = self.coords[sel]
        self.member_classes = self.classes[sel]
        self.member_colors = self.colors[sel]

    def _run(self, host: World, debug: bool) -> None:
        R = self.R
        for i in range(1, CLASS_COUNT + 1):
            sel = self.classes == i
            if not sel.any():
                continue  # empty classes still hold their schedule slot
            vi = self.coords[sel]
            fresh = path_ruling_set(host, vi, R, palette=class_size(i),
                                    base=CLASS_LO[i - 1], debug=debug)
            committed = self.coords[self.in_set]
            if committed.size and fresh.size:
                far = _nearest_distance(fresh, committed) >= R
                fresh = fresh[far]
            self.in_set[np.searchsorted(self.coords, fresh)] = True
            if debug:
                merged = _nearest_distance(vi, self.coords[self.in_set])
                _check_covering(int(merged.max()), 2 * R - 2,
                                f"class {i} merge")
            # distances are to the whole committed set, candidacy and the
            # beat rule stay within this class
            extended = _greedy_extend(vi, self.labels[sel],
                                      self.coords[self.in_set], R, 4,
                                      cap=2 * R - 1)
            self.in_set[np.searchsorted(self.coords, extended)] = True
            if debug:
                covered = _nearest_distance(vi, self.coords[self.in_set])
                _check_covering(int(covered.max()), R - 1,
                                f"class {i} extension")
            self._color_phase(host, i)

    def _color_phase(self, host: World, class_index: int) -> None:
        R = self.R
        phase_sel = self.in_set & (self.classes == class_index) & (self.colors == 0)
        phase = self.coords[phase_sel]
        if phase.size == 0:
            return
        committed = self.colors > 0
        sc, scol = self.coords[committed], self.colors[committed]
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
        sub = PowerSubgraph(host, phase, reach)
        colors, _ = list_color(sub, allowed, palette=class_size(class_index),
                               base=CLASS_LO[class_index - 1])
        self.colors[phase_sel] = colors

    # -- queries ---------------------------------------------------------------

    def _rank_of(self, position: int) -> int:
        j = int(np.searchsorted(self.coords, position))
        if j >= self.coords.size or self.coords[j] != position:
            raise RulingError(f"{position} was not processed")
        return j

    def output_for(self, position: int) -> ColoredRulingOutput:
        j = self._rank_of(int(position))
        cls = int(self.classes[j])
        mc = self.member_coords
        lo = np.searchsorted(mc, position - (self.R - 1), side="left")
        hi = np.searchsorted(mc, position + (self.R - 1), side="right")
        near = []
        for w, wc, wcol in zip(mc[lo:hi], self.member_classes[lo:hi],
                               self.member_colors[lo:hi]):
            if w != position and wc <= cls:
                near.append((int(w), int(wcol)))
        bound = phase_end_round(self.R, cls)
        color = int(self.colors[j]) if self.in_set[j] else None
        return ColoredRulingOutput(
            position=int(position), label=int(self.labels[j]), label_class=cls,
            in_set=bool(self.in_set[j]), color=color,
            nearby_members=tuple(near),
            termination_radius=bound)


def window_certifies(host: World, window: Iterable[int], position: int,
                     R: int) -> bool:
    """Whether the window contains the node's whole termination-radius ball."""
    _on_line(host)
    coords = _sorted_coords(window)
    j = np.searchsorted(coords, position)
    if j >= coords.size or coords[j] != position:
        return False
    radius = termination_radius(host.label(position), R)
    lo = position - radius
    hi = position + radius
    if host.topology == "path":  # its ends carry their own boundary
        lo, hi = max(lo, 0), min(hi, host.n - 1)
    a = np.searchsorted(coords, lo)
    b = np.searchsorted(coords, hi, side="right")
    return b - a == hi - lo + 1


def verify_es_col_ruling(host: World, universe: Iterable[int], R: int,
                         state: EsColState | None = None) -> RulingCheck:
    """Replay oracle for the colored construction.

    Checks, in commit order: each class prefix is a ruling set over the
    prefix universe; colors are in range and proper on the (9R-1)-power
    graph of every prefix; nearby-member records match a brute-force scan;
    and every termination radius respects the exported factor.
    """
    if state is None:
        state = EsColState(host, universe, R)
    R = state.R
    for i in range(1, CLASS_COUNT + 1):
        upref = state.coords[state.classes <= i]
        spref = state.member_coords[state.member_classes <= i]
        check = verify_limited_ruling_set(host, upref, spref, R, R - 1)
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
    for j, pos in enumerate(state.coords):
        out = state.output_for(int(pos))
        want = _brute_nearby(host, state, int(pos), int(state.classes[j]))
        if out.nearby_members != want:
            return RulingCheck(False, "nearby", (int(pos),))
        if out.termination_radius > RADIUS_FACTOR * R * out.label_class:
            return RulingCheck(False, "radius", (int(pos),))
    return RulingCheck(True)


def _brute_nearby(host: World, state: EsColState, position: int,
                  cls: int) -> tuple:
    found = []
    for w, wc, wcol in zip(state.member_coords, state.member_classes,
                           state.member_colors):
        if int(w) != position and wc <= cls \
                and host.distance(int(w), position) <= state.R - 1:
            found.append((int(w), int(wcol)))
    return tuple(sorted(found))


def certify_es_locality(host: World, universe: Iterable[int], R: int,
                        sample: Iterable[int] | None = None,
                        state: EsColState | None = None) -> dict[int, int]:
    """Prove per-node purity by rebuilding each record from its own ball.

    For each sampled node that the full universe certifies, rebuilds the
    construction on a host that holds only the labels within the node's
    termination radius and demands the identical record.  A changed record
    raises ``RulingError``; a read outside the ball raises ``WorldError``
    from that host.  Returns the termination radius per certified node.
    """
    if state is None:
        state = EsColState(host, universe, R)
    arr = state.coords
    targets = arr.tolist() if sample is None else [int(p) for p in sample]
    radii: dict[int, int] = {}
    for p in targets:
        if not window_certifies(host, arr, p, state.R):
            continue
        radius = termination_radius(host.label(p), state.R)
        # the window holds the ball, so its part of arr is contiguous
        a = np.searchsorted(arr, p - radius)
        b = np.searchsorted(arr, p + radius, side="right")
        ball = WindowScheme(state.labels[a:b], arr[a])
        local = World(host.topology, ball, host.n)
        if EsColState(local, arr[a:b], state.R).output_for(p) != \
                state.output_for(p):
            raise RulingError(
                f"output of {p} changed under truncation to radius {radius}")
        radii[p] = radius
    return radii
