"""Deterministic coloring primitives on power subgraphs of a line.

Everything here simulates synchronous full-information rounds: a k-round
computation on ``G^k[U]`` is a pure function of each member's radius k*rounds
host neighborhood.  The operations return (or can report) the exact number of
simulated rounds, which the ruling-set schedule and its termination radii are
built from, so round counts must be content-independent: they depend on the
declared palette, never on which colors actually occur.

Hosts are lines, as for the ruling sets built on these primitives.  Max
degree 2 covers chains and triangles of members; list coloring stretches to
max degree 16 by decomposing edges into rank-difference classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .logstar import ceil_log2
from .world import World


class EngineError(ValueError):
    """Violated precondition: improper coloring, degree too high, short list."""


# Exported round-count bounds: three_color_rounds(p) <= SLOPE*log_star(p) + OFFSET
# for every palette p >= 1 (pinned by tests across the tetration ladder).
COLOR_ROUNDS_SLOPE = 4
COLOR_ROUNDS_OFFSET = 30


def _gather(arr: np.ndarray, idx: np.ndarray, fill: int) -> np.ndarray:
    """arr[idx] with -1 entries of idx mapped to a fill value."""
    if arr.size == 0:
        return np.full(idx.shape, fill, dtype=arr.dtype)
    # a -1 reads the last entry, which the mask then discards
    return np.where(idx >= 0, arr[idx], fill)


@dataclass(frozen=True)
class ColorAssignment:
    """A proper coloring of a power subgraph's members.

    ``members`` is sorted by coordinate and aligned with ``colors``; all
    colors are < palette.
    """

    members: np.ndarray
    colors: np.ndarray
    palette: int


class PowerSubgraph:
    """``G^k[U]``: members of a host world, adjacent within host distance k.

    Adjacency is materialized as a rank matrix (``-1`` padded) so the
    coloring passes are numpy gathers.  The host must be a line.
    """

    def __init__(self, host: World, members: Iterable[int], power: int):
        if host.topology == "cycle":
            raise EngineError(f"power subgraphs need a line, not a {host.topology}")
        if power < 1:
            raise EngineError(f"power must be >= 1, got {power}")
        arr = np.array(members if isinstance(members, np.ndarray)
                       else list(members), dtype=np.int64)
        if not np.all(arr[1:] > arr[:-1]):
            arr.sort()
            if np.any(arr[1:] == arr[:-1]):
                raise EngineError("duplicate members")
        self.members = arr
        self.power = int(power)
        self.labels = host.labels_at(arr) if arr.size else np.empty(0, dtype=np.int64)
        self._build_adjacency()

    def _build_adjacency(self) -> None:
        m = self.members.size
        if m == 0:
            self.nbrs = np.empty((0, 0), dtype=np.int64)
            self.degrees = np.empty(0, dtype=np.int64)
            self.max_degree = 0
            return
        c, k = self.members, self.power
        lo = np.searchsorted(c, c - k, side="left")
        hi = np.searchsorted(c, c + k, side="right")
        deg = hi - lo - 1
        dmax = int(deg.max())
        t = np.arange(dmax, dtype=np.int64)[None, :]
        raw = lo[:, None] + t
        idx = np.arange(m, dtype=np.int64)[:, None]
        nbrs = np.where(raw >= idx, raw + 1, raw)
        nbrs[t >= deg[:, None]] = -1
        self.nbrs = nbrs
        self.degrees = deg
        self.max_degree = dmax

    def require_degree(self, bound: int) -> None:
        if self.max_degree > bound:
            raise EngineError(
                f"max degree {self.max_degree} exceeds {bound} for this operation")

    @property
    def pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) neighbor rank arrays for degree <= 2 graphs."""
        self.require_degree(2)
        if self.nbrs.shape[1] >= 2:
            return self.nbrs[:, 0], self.nbrs[:, 1]
        if self.nbrs.shape[1] == 1:
            return self.nbrs[:, 0], np.full(self.members.size, -1, dtype=np.int64)
        none = np.full(self.members.size, -1, dtype=np.int64)
        return none, none

    def check_proper(self, colors: np.ndarray) -> None:
        bad = _gather(colors, self.nbrs.ravel(), -1).reshape(self.nbrs.shape)
        if np.any(bad == colors[:, None]):
            raise EngineError("coloring is not proper on the subgraph")


# -- degree <= 2 three-coloring pipeline ---------------------------------------


def _by_label(labels: np.ndarray, nA: np.ndarray,
              nB: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two neighbor slots reordered so the smaller neighbor label comes
    first; a missing neighbor (-1) sorts last."""
    sentinel = np.int64(2**63 - 1)
    swap = _gather(labels, nA, sentinel) > _gather(labels, nB, sentinel)
    return np.where(swap, nB, nA), np.where(swap, nA, nB)


def _squared_cv_round(colors: np.ndarray, palette: int, first: np.ndarray,
                      second: np.ndarray) -> tuple[np.ndarray, int]:
    """One two-slot bit-index reduction round.

    Each member emits one entry per incident edge: the lowest bit position k
    where its color differs from that neighbor's, paired with its own bit
    there.  A missing neighbor contributes the self-consistent filler (k=0,
    own bit 0).  Entries are ordered by neighbor label (the slots come from
    :func:`_by_label`), so the new color is invariant under reflections of
    the line.  Properness: every entry (k, b) of x satisfies bit_k(color_x)
    = b, and for an edge uv some slot of u holds k* = lowest differing bit
    of (c_u, c_v); equal new colors would force bit_k*(c_u) = bit_k*(c_v),
    contradicting the choice of k*.
    """
    bits = max(1, ceil_log2(max(palette, 2)))
    width = 2 * bits

    def entry(nbr: np.ndarray) -> np.ndarray:
        nc = _gather(colors, nbr, 0)
        diff = colors ^ nc
        low = diff & -diff
        k = np.bitwise_count((low - 1).astype(np.uint64)).astype(np.int64)
        k = np.where(nbr >= 0, np.minimum(k, 62), 0)
        b = (colors >> k) & 1
        return 2 * k + b

    return entry(first) * width + entry(second), width * width


def _kw_stage(colors: np.ndarray, palette: int, nA: np.ndarray,
              nB: np.ndarray) -> tuple[np.ndarray, int]:
    """Three sub-rounds folding blocks of 6 colors onto their low halves.

    Offsets 5, 4, 3 recolor in turn to the smallest free color among
    {6b, 6b+1, 6b+2} of their own block b; adjacent same-offset members sit in
    distinct blocks, so parallel recoloring stays proper.  The closing
    relabel 6b+j -> 3b+j is a palette renaming, not a communication round.
    Only the members at the current offset are read and written; a recolored
    member lands on offset 0, 1 or 2, so the offsets found up front hold.
    """
    c = colors.copy()
    high = np.flatnonzero(c % 6 >= 3)
    high_offsets = c[high] % 6
    for offset in (5, 4, 3):
        sel = high[high_offsets == offset]
        if sel.size:
            cA = _gather(c, nA[sel], -1)
            cB = _gather(c, nB[sel], -1)
            target = c[sel] - offset
            for _ in range(2):
                target += (target == cA) | (target == cB)
            c[sel] = target
    return c - 3 * (c // 6), 3 * ((palette + 5) // 6)


def three_color_rounds(palette: int) -> int:
    """Simulated rounds the pipeline takes to reach palette <= 3.

    Driven purely by the palette value, so it equals the executed count for
    any member content; this is what makes schedules computable offline.
    """
    if palette < 1:
        raise EngineError(f"palette must be >= 1, got {palette}")
    m, rounds = int(palette), 0
    while m > 3:
        squared = (2 * max(1, ceil_log2(max(m, 2)))) ** 2
        if squared < m:
            m, rounds = squared, rounds + 1
        else:
            m, rounds = 3 * ((m + 5) // 6), rounds + 3
    return rounds


def _three_color(labels: np.ndarray, nA: np.ndarray, nB: np.ndarray,
                 init_colors: np.ndarray, palette: int) -> tuple[np.ndarray, int]:
    """Run the pipeline; returns (colors in [0,3), executed rounds)."""
    c, m, rounds = init_colors.astype(np.int64), int(palette), 0
    first, second = _by_label(labels, nA, nB)
    while m > 3:
        squared = (2 * max(1, ceil_log2(max(m, 2)))) ** 2
        if squared < m:
            c, m = _squared_cv_round(c, m, first, second)
            rounds += 1
        else:
            c, m = _kw_stage(c, m, nA, nB)
            rounds += 3
    return c, rounds


def _three_color_classes(labels: np.ndarray,
                         classes: list[tuple[np.ndarray, np.ndarray]],
                         init_colors: np.ndarray,
                         palette: int) -> tuple[np.ndarray, int]:
    """3-color every class's (nA, nB) graph on the same members in one run.

    Class j's copy of member i becomes rank j*m + i of one stacked graph, so
    the copies are disjoint and a single pipeline colors them all.  Returns
    colors of shape (classes, members) and the executed rounds, which depend
    on the palette alone.
    """
    k, m = len(classes), labels.size
    shift = np.arange(0, k * m, m, dtype=np.int64)[:, None]
    nA, nB = (np.where(side >= 0, side + shift, -1).ravel()
              for side in np.stack(classes, axis=1))
    colors, rounds = _three_color(np.tile(labels, k), nA, nB,
                                  np.tile(init_colors, k), palette)
    return colors.reshape(k, m), rounds


def _greedy_mis(colors3: np.ndarray, nA: np.ndarray, nB: np.ndarray) -> np.ndarray:
    """Three color-class sweeps turning a 3-coloring into an MIS flag array."""
    in_s = np.zeros(colors3.shape, dtype=bool)
    for color in (0, 1, 2):
        blocked = _gather(in_s, nA, False) | _gather(in_s, nB, False)
        in_s |= (colors3 == color) & ~blocked
    return in_s


def mis_rounds(palette: int) -> int:
    """Simulated rounds for :func:`mis` starting from the given palette."""
    return three_color_rounds(palette) + 3


# -- public operations ---------------------------------------------------------


def _init_coloring(sub: PowerSubgraph, palette: int | None,
                   base: int) -> tuple[np.ndarray, int]:
    """Label-based initial coloring: color = label - base, palette = bound.

    ``base`` is the smallest label the caller's contract admits (1 for raw
    labels, a class lower bound when members all share a label class); the
    palette counts the admissible values starting there.
    """
    init = sub.labels - base
    if palette is None:
        palette = int(init.max()) + 1 if init.size else 1
    if init.size and (int(init.min()) < 0 or int(init.max()) >= palette):
        raise EngineError(
            f"member labels fall outside [{base}, {base + palette - 1}]")
    return init, int(palette)


def color_path_constant(sub: PowerSubgraph, palette: int | None = None,
                        base: int = 1) -> tuple[ColorAssignment, int]:
    """Proper 3-coloring of a degree <= 2 subgraph, plus simulated rounds.

    Starts from the shifted label coloring (values label - base, bounded by
    ``palette`` when given, else by the largest occurring value) and
    alternates squared bit-index rounds with block-folding stages until the
    palette is at most 3.
    """
    sub.require_degree(2)
    if sub.members.size == 0:
        return ColorAssignment(sub.members, np.empty(0, dtype=np.int64), 3), 0
    init, bound = _init_coloring(sub, palette, base)
    nA, nB = sub.pair
    colors, rounds = _three_color(sub.labels, nA, nB, init, bound)
    if rounds != three_color_rounds(bound):
        raise EngineError(f"3-coloring took {rounds} rounds, schedule says "
                          f"{three_color_rounds(bound)}")
    return ColorAssignment(sub.members, colors, min(3, bound)), rounds


def mis(sub: PowerSubgraph, palette: int | None = None,
        base: int = 1) -> np.ndarray:
    """Maximal independent set of a degree <= 2 subgraph, as sorted coords.

    3-colors the members, then adds color classes 0, 1, 2 greedily; the
    result is independent and dominating regardless of member geometry
    (chains, triangles).
    """
    assignment, _ = color_path_constant(sub, palette, base)
    return sub.members[_greedy_mis(assignment.colors, *sub.pair)]


# -- list coloring up to degree 16 ---------------------------------------------


def _difference_classes(sub: PowerSubgraph) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split edges by rank difference d; each class has degree <= 2.

    Member i's class-d neighbors can only be ranks i-d and i+d, so every
    class is a disjoint union of paths, and the classes cover all edges
    because adjacency windows are contiguous in the rank order.
    """
    m = sub.members.size
    c, k = sub.members, sub.power
    idx = np.arange(m, dtype=np.int64)
    classes: list[tuple[np.ndarray, np.ndarray]] = []
    lo = np.searchsorted(c, c - k, side="left")
    hi = np.searchsorted(c, c + k, side="right")
    max_d = int(max((idx - lo).max(initial=0), (hi - 1 - idx).max(initial=0)))
    for d in range(1, max_d + 1):
        left = idx - d
        right = idx + d
        nA = np.where(left >= lo, left, -1)
        nB = np.where(right <= hi - 1, right, -1)
        if (nA >= 0).any() or (nB >= 0).any():
            classes.append((nA, nB))
    return classes


def _sweep_reduce(colors: np.ndarray, palette: int, target: int,
                  nbrs: np.ndarray) -> tuple[np.ndarray, int]:
    """Recolor classes target..palette-1 to the smallest free color < target.

    One round per class, highest first, occurring or not; a class's members
    are pairwise non-adjacent, so they pick at once.
    """
    c = colors.copy()
    for value in np.unique(c[c >= target])[::-1]:
        sel = np.flatnonzero(c == value)
        nc = _gather(c, nbrs[sel].ravel(), -1).reshape(sel.size, -1)
        used = np.zeros((sel.size, target), dtype=bool)
        rows, cols = np.nonzero((nc >= 0) & (nc < target))
        used[rows, nc[rows, cols]] = True
        free = np.argmin(used, axis=1)
        if used[np.arange(sel.size), free].any():
            raise EngineError("no free color during sweep reduction")
        c[sel] = free
    return c, max(0, palette - target)


def list_color_rounds(sub_or_classes: "PowerSubgraph | int", palette: int) -> int:
    """Simulated-round formula for :func:`list_color` (content-independent).

    ``sub_or_classes`` may be the subgraph or directly its number of
    rank-difference classes.
    """
    if isinstance(sub_or_classes, PowerSubgraph):
        dd = len(_difference_classes(sub_or_classes))
    else:
        dd = int(sub_or_classes)
    if dd == 0:
        return 0
    pipeline = three_color_rounds(palette) + _merge_schedule_cost(dd)
    return min(pipeline, palette)


def _merge_schedule_cost(dd: int) -> int:
    """Sweep count of the merge tree plus the final list-assignment sweeps.

    Merges at one tree level run in parallel (disjoint difference classes),
    so a level costs the maximum over its pairs, and the very last merge
    skips reduction in favor of sweeping the product palette directly.
    """
    sizes = [(3, 2)] * dd  # (palette, degree bound) per difference class
    cost = 0
    while len(sizes) > 1:
        nxt, level = [], 0
        for a in range(0, len(sizes) - 1, 2):
            (p1, d1), (p2, d2) = sizes[a], sizes[a + 1]
            prod, deg = p1 * p2, d1 + d2
            if len(sizes) > 2:
                level = max(level, prod - (deg + 1))
                nxt.append((deg + 1, deg))
            else:
                nxt.append((prod, deg))
        if len(sizes) % 2:
            nxt.append(sizes[-1])
        sizes = nxt
        cost += level
    cost += sizes[0][0]
    return cost


def _final_assign(colors: np.ndarray, palette: int, nbrs: np.ndarray,
                  allowed: np.ndarray) -> tuple[np.ndarray, int]:
    """Give every member a list color, sweeping proper-color classes in order.

    ``allowed[i, c]`` says whether color index c is on member rank i's list.
    A class's members are pairwise non-adjacent, so they pick at once: each
    takes the smallest listed color that no already-assigned neighbor holds.
    Every value of the palette costs one round, occurring or not.
    """
    final = np.full(colors.shape, -1, dtype=np.int64)
    order = np.argsort(colors, kind="stable")
    _, starts = np.unique(colors[order], return_index=True)
    for sel in np.split(order, starts[1:]):
        nc = _gather(final, nbrs[sel].ravel(), -1).reshape(sel.size, -1)
        free = allowed[sel]
        rows, cols = np.nonzero(nc >= 0)
        free[rows, nc[rows, cols]] = False
        pick = np.argmax(free, axis=1)
        empty = ~free[np.arange(sel.size), pick]
        if empty.any():
            raise EngineError(
                f"list exhausted at member rank {int(sel[np.argmax(empty)])}")
        final[sel] = pick
    return final, palette


def _allowed_matrix(sub: PowerSubgraph,
                    lists: Mapping[int, Iterable[int]] | np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lists as (allowed, colors): ``allowed[i, j]`` iff colors[j] is listed
    for member rank i.  An array input already is the matrix over colors
    0, 1, 2, ...; a mapping is read over the sorted union of its lists."""
    m = sub.members.size
    if isinstance(lists, np.ndarray):
        if lists.ndim != 2 or lists.shape[0] != m:
            raise EngineError(
                f"allowed-color matrix of shape {lists.shape} for {m} members")
        return np.asarray(lists, dtype=bool), np.arange(lists.shape[1])
    rows = []
    for p in sub.members:
        try:
            rows.append([int(x) for x in lists[int(p)]])
        except KeyError:
            raise EngineError(f"no list for member {int(p)}") from None
    flat = np.array([x for row in rows for x in row], dtype=np.int64)
    colors = np.unique(flat)
    allowed = np.zeros((m, colors.size), dtype=bool)
    owner = np.repeat(np.arange(m), [len(row) for row in rows])
    allowed[owner, np.searchsorted(colors, flat)] = True
    return allowed, colors


def list_color(sub: PowerSubgraph,
               lists: Mapping[int, Iterable[int]] | np.ndarray,
               palette: int | None = None, base: int = 1) -> ColorAssignment:
    """Deterministic list coloring for max degree <= 16.

    ``lists`` maps each member to its colors, or is a boolean matrix whose
    row i marks the colors 0, 1, 2, ... allowed for member rank i.  Every
    member needs at least degree+1 distinct colors.  The outcome does not
    depend on the mapping's iteration order or on the order within a list.
    """
    assignment, _ = _list_color_impl(sub, lists, palette, base)
    return assignment


def _list_color_impl(sub: PowerSubgraph,
                     lists: Mapping[int, Iterable[int]] | np.ndarray,
                     palette: int | None = None,
                     base: int = 1) -> tuple[ColorAssignment, int]:
    sub.require_degree(16)
    m = sub.members.size
    if m == 0:
        return ColorAssignment(sub.members, np.empty(0, dtype=np.int64), 0), 0
    allowed, list_colors = _allowed_matrix(sub, lists)
    sizes = allowed.sum(axis=1)
    short = np.flatnonzero(sizes < sub.degrees + 1)
    if short.size:
        i = int(short[0])
        raise EngineError(
            f"list of member {int(sub.members[i])} has {int(sizes[i])} colors "
            f"for degree {int(sub.degrees[i])}")
    init, palette = _init_coloring(sub, palette, base)
    classes = _difference_classes(sub)
    if not classes:
        colors = list_colors[np.argmax(allowed, axis=1)]
        return ColorAssignment(sub.members, colors, int(colors.max()) + 1), 0
    rounds = 0
    pipeline_cost = three_color_rounds(palette) + _merge_schedule_cost(len(classes))
    if palette <= pipeline_cost:
        # small palettes: sweep the shifted label coloring directly
        work, work_palette = init, palette
    else:
        colors3, leaf_rounds = _three_color_classes(sub.labels, classes,
                                                    init, palette)
        # (colors, palette, constituent class pair arrays) per partial coloring
        parts: list[tuple[np.ndarray, int, list]] = [
            (c3, 3, [pair]) for c3, pair in zip(colors3, classes)]
        rounds += leaf_rounds
        while len(parts) > 1:
            nxt, level = [], 0
            for a in range(0, len(parts) - 1, 2):
                c1, p1, e1 = parts[a]
                c2, p2, e2 = parts[a + 1]
                prod = c1 * p2 + c2
                pp, edges = p1 * p2, e1 + e2
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
            parts = nxt
            rounds += level
        work, work_palette, _ = parts[0]
    picks, r = _final_assign(work, work_palette, sub.nbrs, allowed)
    final = list_colors[picks]
    rounds += r
    sub.check_proper(final)
    top = int(final.max()) + 1
    expected = list_color_rounds(len(classes), palette)
    if rounds != expected:
        raise EngineError(f"list coloring took {rounds} rounds, schedule says "
                          f"{expected}")
    return ColorAssignment(sub.members, final, top), rounds
