"""Ruling sets on labeled lines, plus an early-stopping colored variant.

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
from typing import Iterable

import numpy as np

from .localengine import PowerSubgraph, _merge_schedule_cost, list_color, mis, mis_rounds, three_color_rounds
from .logstar import CLASS_COUNT, CLASS_LO, ceil_log2, class_size, label_classes, log_star
from .world import World

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
class LimitedRulingSet:
    """Members selected from a universe with packing R, covering R-1."""

    host: World
    universe: frozenset
    members: frozenset
    R: int


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


def phase_start_round(R: int, class_index: int) -> int:
    """Schedule round at which a class's merge may begin.

    Class 1 holds at most one node (only one label has iterated-log 1), so
    its ruling set needs no rounds and the schedule starts at 0.
    """
    if class_index <= 1:
        return 0
    return max(phase_end_round(R, class_index - 1),
               ruling_stage_rounds(R, class_index))


def phase_end_round(R: int, class_index: int) -> int:
    """Schedule round at which a class's nodes commit their outputs."""
    return phase_start_round(R, class_index) + class_phase_rounds(R, class_index)


def termination_radius(label: int, R: int) -> int:
    """Snapshot radius (= virtual rounds) after which this label's output is fixed."""
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


def _with_wrap(host: World, coords: np.ndarray,
               *companions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sorted coords (plus aligned arrays) tripled across the cycle seam."""
    if host.topology != "cycle":
        return (coords, *companions)
    n = host.n
    ext = np.concatenate([coords - n, coords, coords + n])
    return (ext, *[np.concatenate([a, a, a]) for a in companions])


def _nearest_distance(host: World, queries: np.ndarray, members: np.ndarray,
                      cap: int | None = None) -> np.ndarray:
    """Host distance from each query to the nearest member (capped)."""
    if members.size == 0:
        if cap is None:
            raise RulingError("no members to measure against")
        return np.full(queries.size, cap, dtype=np.int64)
    (ext,) = _with_wrap(host, members)
    idx = np.searchsorted(ext, queries)
    left = ext[np.clip(idx - 1, 0, ext.size - 1)]
    right = ext[np.clip(idx, 0, ext.size - 1)]
    d = np.minimum(np.abs(queries - left), np.abs(right - queries))
    return np.minimum(d, cap) if cap is not None else d


def _range_max(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Max of vals[lo:hi] per query (hi > lo), via a doubling table."""
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


def _window_maxima(host: World, coords: np.ndarray, keys: np.ndarray,
                   reach: int) -> np.ndarray:
    """True where a key is the maximum among all keys within host distance reach."""
    ext_c, ext_k = _with_wrap(host, coords, keys)
    lo = np.searchsorted(ext_c, coords - reach, side="left")
    hi = np.searchsorted(ext_c, coords + reach, side="right")
    return keys == _range_max(ext_k, lo, hi)


def _greedy_extend(host: World, coords: np.ndarray, labels: np.ndarray,
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
        b = _nearest_distance(host, coords, committed, cap=cap)
        cand = b >= R
        if not cand.any():
            break
        keys = np.where(cand, b * np.int64(m + 1) + rank, np.int64(-1))
        top = cand & _window_maxima(host, coords, keys, R - 1)
        committed = np.union1d(committed, coords[top])
    return committed


def _check_spacing(host: World, members: np.ndarray, spacing: int) -> None:
    if members.size < 2:
        return
    gap = int(np.diff(members).min())
    if host.topology == "cycle":
        gap = min(gap, host.n - int(members[-1] - members[0]))
    if gap < spacing:
        raise RulingError(f"members {gap} apart, need spacing {spacing}")


def _check_covering(worst: int, bound: int, what: str) -> None:
    if worst > bound:
        raise RulingError(f"{what}: a node is {worst} from the set, "
                          f"bound {bound}")


# -- ruling set on one universe ------------------------------------------------


def _sorted_coords(positions: Iterable[int]) -> np.ndarray:
    """Distinct positions as a sorted int64 array."""
    if not isinstance(positions, np.ndarray):
        positions = list(positions)
    return np.unique(np.asarray(positions, dtype=np.int64))


def path_ruling_set(host: World, universe: Iterable[int], R: int, *,
                    palette: int | None = None, base: int = 1,
                    debug: bool = False) -> LimitedRulingSet:
    """Build a ruling set with packing R and covering R-1 over the universe.

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
    R = _spacing(R)
    coords = _sorted_coords(universe)
    uni = frozenset(coords.tolist())
    if coords.size == 0:
        return LimitedRulingSet(host, uni, frozenset(), R)
    if R == 1:
        return LimitedRulingSet(host, uni, uni, R)
    labels = host.labels_at(coords)
    s = coords
    d = ceil_log2(R)
    for i in range(1, d + 1):
        stage_reach = 2**i - 1 if i < d else R - 1
        sub = PowerSubgraph(host, s, stage_reach)
        s = np.sort(np.fromiter(mis(sub, palette, base), dtype=np.int64))
        if debug:
            _check_spacing(host, s, 2**i if i < d else R)
            worst = int(_nearest_distance(host, coords, s).max())
            bound = 2**(i + 1) - i - 2 if i < d else 3 * R - 3
            _check_covering(worst, bound, f"doubling stage {i}")
    s = _greedy_extend(host, coords, labels, s, R, 6, cap=3 * R - 2)
    if debug:
        worst = int(_nearest_distance(host, coords, s).max())
        _check_covering(worst, R - 1, "greedy extension")
    return LimitedRulingSet(host, uni, frozenset(s.tolist()), R)


def verify_limited_ruling_set(host: World, universe: Iterable[int],
                              members: Iterable[int], alpha: int,
                              beta: int) -> RulingCheck:
    """Exhaustively check membership, packing, and covering."""
    uni = sorted({int(p) for p in universe})
    uset = set(uni)
    mem = np.array(sorted({int(p) for p in members}), dtype=np.int64)
    outside = [int(p) for p in mem if int(p) not in uset]
    if outside:
        return RulingCheck(False, "subset", (outside[0],))
    if mem.size >= 2:
        gaps = np.diff(mem)
        j = int(np.argmin(gaps))
        if int(gaps[j]) < alpha:
            return RulingCheck(False, "packing", (int(mem[j]), int(mem[j + 1])))
        if host.topology == "cycle":
            seam = host.n - int(mem[-1] - mem[0])
            if seam < alpha:
                return RulingCheck(False, "packing", (int(mem[-1]), int(mem[0])))
    if uni:
        if mem.size == 0:
            return RulingCheck(False, "covering", (uni[0],))
        d = _nearest_distance(host, np.array(uni, dtype=np.int64), mem)
        j = int(np.argmax(d))
        if int(d[j]) > beta:
            return RulingCheck(False, "covering", (uni[j],))
    return RulingCheck(True)


# -- early-stopping colored construction ---------------------------------------


class EsColState:
    """Committed membership, colors, and classes over a processed window.

    Built once per (host, window, R); per-node records are assembled on
    demand.  A node's record is trustworthy when the window contains its
    whole termination-radius ball (`window_certifies`), which is exactly
    when truncating the window further cannot change it.
    """

    def __init__(self, host: World, positions: Iterable[int], R: int,
                 debug: bool = False):
        self.host = host
        self.R = _spacing(R)
        self.coords = _sorted_coords(positions)
        self.labels = (host.labels_at(self.coords) if self.coords.size
                       else np.empty(0, dtype=np.int64))
        self.classes = (label_classes(self.labels) if self.coords.size
                        else np.empty(0, dtype=np.int64))
        self.in_set = np.zeros(self.coords.size, dtype=bool)
        self.colors = np.zeros(self.coords.size, dtype=np.int64)
        self._run(debug)
        sel = self.in_set
        self.member_coords = self.coords[sel]
        self.member_classes = self.classes[sel]
        self.member_colors = self.colors[sel]

    def _run(self, debug: bool) -> None:
        host, R = self.host, self.R
        for i in range(1, CLASS_COUNT + 1):
            sel = self.classes == i
            if not sel.any():
                continue  # empty classes still hold their schedule slot
            vi = self.coords[sel]
            result = path_ruling_set(host, vi, R, palette=class_size(i),
                                     base=CLASS_LO[i - 1], debug=debug)
            fresh = np.sort(np.fromiter(result.members, dtype=np.int64))
            committed = self.coords[self.in_set]
            if committed.size and fresh.size:
                far = _nearest_distance(host, fresh, committed) >= R
                fresh = fresh[far]
            self.in_set[np.searchsorted(self.coords, fresh)] = True
            if debug:
                merged = _nearest_distance(host, vi, self.coords[self.in_set])
                _check_covering(int(merged.max()), 2 * R - 2,
                                f"class {i} merge")
            # distances are to the whole committed set, candidacy and the
            # beat rule stay within this class
            extended = _greedy_extend(host, vi, self.labels[sel],
                                      self.coords[self.in_set], R, 4,
                                      cap=2 * R - 1)
            self.in_set[np.searchsorted(self.coords, extended)] = True
            if debug:
                covered = _nearest_distance(host, vi, self.coords[self.in_set])
                _check_covering(int(covered.max()), R - 1,
                                f"class {i} extension")
            self._color_phase(i)

    def _color_phase(self, class_index: int) -> None:
        host, R = self.host, self.R
        phase_sel = self.in_set & (self.classes == class_index) & (self.colors == 0)
        phase = self.coords[phase_sel]
        if phase.size == 0:
            return
        committed = self.colors > 0
        sc, scol = _with_wrap(host, self.coords[committed], self.colors[committed])
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
        assignment = list_color(sub, allowed, palette=class_size(class_index),
                                base=CLASS_LO[class_index - 1])
        idx = np.searchsorted(self.coords, phase)
        self.colors[idx] = assignment.colors

    # -- queries ---------------------------------------------------------------

    def _rank_of(self, position: int) -> int:
        j = int(np.searchsorted(self.coords, position))
        if j >= self.coords.size or self.coords[j] != position:
            raise RulingError(f"{position} was not processed")
        return j

    def members(self) -> np.ndarray:
        return self.member_coords

    def output_for(self, position: int) -> ColoredRulingOutput:
        j = self._rank_of(int(position))
        cls = int(self.classes[j])
        ext_c, ext_cls, ext_col = _with_wrap(self.host, self.member_coords,
                                             self.member_classes,
                                             self.member_colors)
        lo = np.searchsorted(ext_c, position - (self.R - 1), side="left")
        hi = np.searchsorted(ext_c, position + (self.R - 1), side="right")
        near = []
        for w, wc, wcol in zip(ext_c[lo:hi], ext_cls[lo:hi], ext_col[lo:hi]):
            p = int(w) % self.host.n if self.host.topology == "cycle" else int(w)
            if p != position and wc <= cls:
                near.append((p, int(wcol)))
        bound = phase_end_round(self.R, cls)
        color = int(self.colors[j]) if self.in_set[j] else None
        return ColoredRulingOutput(
            position=int(position), label=int(self.labels[j]), label_class=cls,
            in_set=bool(self.in_set[j]), color=color,
            nearby_members=tuple(sorted(set(near))),
            termination_radius=bound)


def es_col_path_ruling_set(host: World, universe: Iterable[int], R: int,
                           debug: bool = False) -> dict[int, ColoredRulingOutput]:
    """Class-by-class colored ruling set over a finite processed universe.

    Classes commit in order at their schedule rounds; each class builds its
    own ruling set, drops members within R-1 of the committed set, runs four
    greedy-extension iterations, and list-colors the newcomers against the
    colors already committed within 9R-1.
    """
    state = EsColState(host, universe, R, debug=debug)
    return {int(p): state.output_for(int(p)) for p in state.coords}


def window_certifies(host: World, window: Iterable[int], position: int,
                     R: int) -> bool:
    """Whether the window contains the node's whole termination-radius ball."""
    coords = np.array(sorted({int(p) for p in window}), dtype=np.int64)
    j = np.searchsorted(coords, position)
    if j >= coords.size or coords[j] != position:
        return False
    radius = termination_radius(host.label(position), R)
    if host.topology == "cycle":
        span = min(host.n, 2 * radius + 1)
        offs = np.arange(-(span // 2) if span < host.n else 0,
                         (span + 1) // 2 if span < host.n else host.n)
        ball = (position + offs) % host.n
        return bool(np.isin(ball, coords).all())
    lo = position - radius
    hi = position + radius
    if host.topology == "path":
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
        ext_c, ext_col = _with_wrap(host, spref, cols)
        for j, pos in enumerate(spref):
            lo = np.searchsorted(ext_c, pos - (9 * R - 1), side="left")
            hi = np.searchsorted(ext_c, pos + (9 * R - 1), side="right")
            for w, wcol in zip(ext_c[lo:hi], ext_col[lo:hi]):
                p = int(w) % host.n if host.topology == "cycle" else int(w)
                if p != int(pos) and wcol == cols[j]:
                    return RulingCheck(False, "coloring", (int(pos), p))
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
                        sample: Iterable[int] | None = None) -> dict[int, int]:
    """Prove per-node purity by recomputing from truncated windows.

    For each sampled node that the full universe certifies, rebuilds the
    construction from only the positions within its termination radius and
    demands the identical record; a mismatch is a hard error.  Returns the
    verified radius per node.
    """
    coords = sorted({int(p) for p in universe})
    state = EsColState(host, coords, R)
    arr = np.array(coords, dtype=np.int64)
    targets = [int(p) for p in (sample if sample is not None else coords)]
    radii: dict[int, int] = {}
    for p in targets:
        if not window_certifies(host, arr, p, R):
            continue
        radius = termination_radius(host.label(p), R)
        near = arr[np.abs(arr - p) <= radius] if host.topology != "cycle" else \
            arr[np.minimum((arr - p) % host.n, (p - arr) % host.n) <= radius]
        truncated = EsColState(host, near, R)
        if truncated.output_for(p) != state.output_for(p):
            raise RulingError(
                f"output of {p} changed under truncation to radius {radius}")
        radii[p] = radius
    return radii
