"""Deterministic coloring primitives on power subgraphs of a line.

Everything here simulates synchronous full-information rounds: a k-round
computation on ``G^k[U]`` is a pure function of each member's radius k*rounds
host neighborhood.  The operations return (or can report) the exact number of
simulated rounds, which the ruling-set schedule and its termination radii are
built from, so round counts must be content-independent: they depend on the
declared palette, never on which colors actually occur.

Members lie on a line, as for the ruling sets built on these primitives:
two members' distance is the difference of their coordinates, and each
member carries its label, which is all a coloring reads of it.  A member's
neighbors are then one contiguous window of ranks, the only adjacency a
subgraph keeps.  Max degree 2 covers chains and triangles of members, whose
neighbor pairs come from the windows; list coloring stretches to max degree
16 by splitting each window into rank-difference classes, which also give
its neighbor rows.

At the sizes ruling sets color, a run costs about one unit per numpy pass,
so the kernels keep the passes per simulated round few.  Neighbor ranks use -1 for
a missing neighbor, and the arrays they index carry one pad entry at the
end: a -1 rank reads the pad, and a gather is a single take.  Colorings of
several graphs on the same members run as one graph of disjoint copies, copy
j's member i being rank j*m + i: the leaf 3-colorings of the list coloring
run this way, and so does each level of its merge tree in one sweep.
Colorings are plain arrays aligned with the sorted members, and lists one
boolean matrix, row i marking member rank i's colors.  Every list pick goes
through one int64 bitmask kernel (a member ORs its neighbors' color bits and
takes the lowest listed bit left clear), which caps a list universe at 63
colors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .logstar import ceil_log2


class EngineError(ValueError):
    """Violated precondition: improper coloring, degree too high, short list."""


# Exported round-count bounds: three_color_rounds(p) <= SLOPE*log_star(p) + OFFSET
# for every palette p >= 1 (pinned by tests across the tetration ladder).
COLOR_ROUNDS_SLOPE = 4
COLOR_ROUNDS_OFFSET = 30


# list colors are picked as bits of one int64 per member
MAX_LIST_COLORS = 63


class PowerSubgraph:
    """``G^k[U]``: members of a line, adjacent within distance k.

    ``members`` are strictly increasing coordinates, kept as a copy, and
    ``labels[i]`` is the label of ``members[i]``.  On a line, member i's
    neighbors are the contiguous rank window ``lo[i]..hi[i]`` less i itself,
    and that window is the only adjacency kept: degree <= 2 graphs derive
    their neighbor :attr:`pair` from it, list coloring its rank-difference
    classes.
    """

    def __init__(self, members: np.ndarray, labels: np.ndarray,
                 power: int):
        if power < 1:
            raise EngineError(f"power must be >= 1, got {power}")
        c = np.array(members, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != c.shape:
            raise EngineError(f"{labels.size} labels for {c.size} members")
        if np.any(c[1:] <= c[:-1]):
            raise EngineError("members must be strictly increasing")
        self.members = c
        self.labels = labels
        self.power = int(power)
        self.lo = np.searchsorted(c, c - power, side="left")
        self.hi = np.searchsorted(c, c + power, side="right") - 1
        self.degrees = self.hi - self.lo
        self.max_degree = int(self.degrees.max(initial=0))

    def require_degree(self, bound: int) -> None:
        if self.max_degree > bound:
            raise EngineError(
                f"max degree {self.max_degree} exceeds {bound} for this operation")

    @cached_property
    def pair(self) -> np.ndarray:
        """(2, m) neighbor ranks of a degree <= 2 graph, lower rank first,
        -1 for a missing neighbor.  Member i's window skips i, so in a
        triangle its two neighbors can be i-2 and i-1, or i+1 and i+2."""
        self.require_degree(2)
        own = np.arange(self.members.size, dtype=np.int64)
        ranks = self.lo + np.arange(2, dtype=np.int64)[:, None]
        ranks += ranks >= own  # skip self
        ranks[ranks > self.hi] = -1
        return ranks


# -- degree <= 2 three-coloring pipeline ---------------------------------------


def _by_label(labels: np.ndarray, nA: np.ndarray,
              nB: np.ndarray) -> np.ndarray:
    """The two neighbor slots, stacked on a new first axis and reordered so
    the smaller neighbor label comes first; a missing neighbor (-1) sorts
    last.  ``nA`` and ``nB`` may have any (equal) shape."""
    padded = np.append(labels, np.int64(2**63 - 1))  # the pad a -1 reads
    swap = padded[nA] > padded[nB]
    return np.stack((np.where(swap, nB, nA), np.where(swap, nA, nB)))


def _slot_caps(slots: np.ndarray) -> np.ndarray:
    """Largest bit index each slot may report: 62, or 0 where the neighbor
    is missing (uint8, the dtype of the bit counts it caps)."""
    return np.where(slots >= 0, 62, 0).astype(np.uint8)


def _squared_cv_round(colors: np.ndarray, palette: int, slots: np.ndarray,
                      caps: np.ndarray) -> int:
    """One two-slot bit-index reduction round, in place; returns the palette.

    ``colors`` holds the m member colors followed by one pad entry, which a
    missing neighbor's -1 rank reads; ``slots`` are the (2, m) neighbor
    ranks from :func:`_by_label` and ``caps`` their :func:`_slot_caps`.
    Each member emits one entry per incident edge: the lowest bit position k
    where its color differs from that neighbor's, paired with its own bit
    there.  A missing neighbor contributes the self-consistent filler (k=0,
    own bit 0).  Entries are ordered by neighbor label, so the new color is
    invariant under reflections of the line.  Properness: every entry (k, b)
    of x satisfies bit_k(color_x) = b, and for an edge uv some slot of u
    holds k* = lowest differing bit of (c_u, c_v); equal new colors would
    force bit_k*(c_u) = bit_k*(c_v), contradicting the choice of k*.
    """
    width = 2 * max(1, ceil_log2(max(palette, 2)))
    own = colors[:-1]
    diff = own ^ colors[slots]
    low = diff & -diff
    # equal colors count 64 trailing zeros, which the cap brings to 62
    k = np.bitwise_count((low - 1).view(np.uint64))
    np.minimum(k, caps, out=k)
    entry = (own >> k) & 1
    entry += 2 * k
    np.multiply(entry[0], width, out=own)
    own += entry[1]
    return width * width


def _kw_stage(colors: np.ndarray, palette: int, slots: np.ndarray) -> int:
    """Three sub-rounds folding blocks of 6 colors onto their low halves.

    Works in place on ``colors`` (members, then a pad entry of -1 that a
    missing neighbor reads) and returns the new palette.  Offsets 5, 4, 3
    recolor in turn to the smallest free color among {6b, 6b+1, 6b+2} of
    their own block b; adjacent same-offset members sit in distinct blocks,
    so parallel recoloring stays proper.  The closing relabel 6b+j -> 3b+j
    is a palette renaming, not a communication round.  Only the members at
    the current offset are read and written; a recolored member lands on
    offset 0, 1 or 2, so the offsets found up front hold.
    """
    own = colors[:-1]
    block = own // 6  # recoloring stays in the block; % would cost 4x more
    offsets = own - 6 * block
    high = np.flatnonzero(offsets >= 3)
    high_offsets = offsets[high]
    for offset in (5, 4, 3):
        sel = high[high_offsets == offset]
        if sel.size:
            nbr = colors[slots[:, sel]]
            target = own[sel] - offset
            for _ in range(2):
                target += (target == nbr[0]) | (target == nbr[1])
            own[sel] = target
    own -= 3 * block
    return 3 * ((palette + 5) // 6)


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


def _three_color(slots: np.ndarray, init_colors: np.ndarray,
                 palette: int) -> tuple[np.ndarray, int]:
    """Run the pipeline; returns (colors in [0,3), executed rounds).

    ``slots`` are the (2, m) label-ordered neighbor ranks of
    :func:`_by_label`.  They, their caps and a color buffer ending in a pad
    entry of -1 are set up once, so every round's neighbor read is one take.
    """
    caps = _slot_caps(slots)
    c = np.empty(init_colors.size + 1, dtype=np.int64)
    c[:-1] = init_colors
    c[-1] = -1
    m, rounds = int(palette), 0
    while m > 3 and (2 * max(1, ceil_log2(max(m, 2)))) ** 2 < m:
        m = _squared_cv_round(c, m, slots, caps)
        rounds += 1
    # squaring stops shrinking at palettes <= 324, and from there on only
    # folds run; their colors stay below 2**15 even for an improper input
    # (a round's entries are at most 125), so they fold in int16
    c = c.astype(np.int16)
    while m > 3:
        m = _kw_stage(c, m, slots)
        rounds += 3
    return c[:-1].astype(np.int64), rounds


def _three_color_classes(labels: np.ndarray, classes: np.ndarray,
                         init_colors: np.ndarray,
                         palette: int) -> tuple[np.ndarray, int]:
    """3-color every class's (nA, nB) graph on the same members in one run.

    ``classes`` stacks the (nA, nB) rank pairs, shape (classes, 2, members).
    Class j's copy of member i becomes rank j*m + i of one stacked graph, so
    the copies are disjoint and a single pipeline colors them all.  Returns
    colors of shape (classes, members) and the executed rounds, which depend
    on the palette alone.
    """
    k, m = len(classes), labels.size
    slots = _by_label(labels, *np.asarray(classes).swapaxes(0, 1))  # (2, k, m)
    shift = np.arange(0, k * m, m, dtype=np.int64)[:, None]
    slots = np.where(slots >= 0, slots + shift, -1).reshape(2, k * m)
    colors, rounds = _three_color(slots, np.tile(init_colors, k), palette)
    return colors.reshape(k, m), rounds


def _greedy_mis(colors3: np.ndarray, nA: np.ndarray, nB: np.ndarray) -> np.ndarray:
    """Three color-class sweeps turning a 3-coloring into an MIS flag array."""
    in_s = np.zeros(colors3.size + 1, dtype=bool)  # the pad a -1 reads
    for color in (0, 1, 2):
        blocked = in_s[nA] | in_s[nB]
        in_s[:-1] |= (colors3 == color) & ~blocked
    return in_s[:-1]


def mis_rounds(palette: int) -> int:
    """Simulated rounds for :func:`mis` starting from the given palette."""
    return three_color_rounds(palette) + 3


# -- public operations ---------------------------------------------------------


def _init_coloring(sub: PowerSubgraph, palette: int, base: int) -> np.ndarray:
    """Label-based initial coloring: color = label - base, below ``palette``.

    ``base`` is the smallest label the caller's contract admits (1 for raw
    labels, a class lower bound when members all share a label class); the
    palette counts the admissible values starting there.
    """
    init = sub.labels - base
    if init.size and (int(init.min()) < 0 or int(init.max()) >= palette):
        raise EngineError(
            f"member labels fall outside [{base}, {base + palette - 1}]")
    return init


def color_path_constant(sub: PowerSubgraph, palette: int,
                        base: int) -> tuple[np.ndarray, int]:
    """Proper 3-coloring of a degree <= 2 subgraph, plus simulated rounds.

    Starts from the shifted label coloring (values label - base, below
    ``palette``) and alternates squared bit-index rounds with block-folding
    stages until the palette is at most 3.  Returns (colors, rounds):
    colors in [0, 3), aligned with ``sub.members``.
    """
    sub.require_degree(2)
    if sub.members.size == 0:
        return np.empty(0, dtype=np.int64), 0
    init = _init_coloring(sub, palette, base)
    colors, rounds = _three_color(_by_label(sub.labels, *sub.pair), init,
                                  palette)
    if rounds != three_color_rounds(palette):
        raise EngineError(f"3-coloring took {rounds} rounds, schedule says "
                          f"{three_color_rounds(palette)}")
    return colors, rounds


def mis(sub: PowerSubgraph, palette: int, base: int) -> np.ndarray:
    """Maximal independent set of a degree <= 2 subgraph, as sorted coords.

    3-colors the members, then adds color classes 0, 1, 2 greedily; the
    result is independent and dominating regardless of member geometry
    (chains, triangles).
    """
    colors, _ = color_path_constant(sub, palette, base)
    return sub.members[_greedy_mis(colors, *sub.pair)]


# -- list coloring up to degree 16 ---------------------------------------------


def _difference_classes(sub: PowerSubgraph) -> np.ndarray:
    """Split edges by rank difference d; each class has degree <= 2.

    Member i's class-d neighbors can only be ranks i-d and i+d, so every
    class is a disjoint union of paths, and the classes cover all edges
    because each member's neighbors are its rank window.  Returns the
    (nA, nB) pairs of d = 1, 2, ... as one (classes, 2, members) array;
    every class up to the widest reach has an edge, at the member that
    reaches that far.
    """
    idx = np.arange(sub.members.size, dtype=np.int64)
    max_d = int(max((idx - sub.lo).max(initial=0),
                    (sub.hi - idx).max(initial=0)))
    d = np.arange(1, max_d + 1, dtype=np.int64)[:, None]
    left, right = idx - d, idx + d
    return np.stack((np.where(left >= sub.lo, left, -1),
                     np.where(right <= sub.hi, right, -1)), axis=1)


def _runs(values: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of every run of equal entries."""
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    return list(zip([0] + cuts, cuts + [values.size]))


def _pick(held: np.ndarray, order: np.ndarray, keys: np.ndarray,
          lists: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pick list colors class by class, in place on ``held``; returns every
    member rank's color.

    ``held[r]`` is bit c for a rank r holding color c and 0 for one still to
    pick; its last entry is the 0 pad a -1 neighbor rank reads.  ``order``
    lists the ranks to pick in class order, aligned with their classes
    ``keys`` and their allowed colors as bitmasks ``lists``.  A class's
    members are pairwise non-adjacent, so each at once ORs the bits of its
    neighbors ``rows[r]`` and takes the lowest listed bit left clear.  In
    disjoint copies of m members stacked as rows, copy j's member i is rank
    j*m + i.  A member left with no free color raises, naming its rank.
    """
    cols = np.ascontiguousarray(np.take(rows, order, axis=0).T)
    for a, b in _runs(keys):
        free = lists[a:b] & ~np.bitwise_or.reduce(held[cols[:, a:b]], axis=0)
        held[order[a:b]] = free & -free
    empty = np.flatnonzero(held[:-1] == 0)
    if empty.size:
        raise EngineError(f"list exhausted at member rank {int(empty[0])}")
    return np.bitwise_count(held[:-1] - 1).astype(np.int64)


def _sweep_reduce(colors: np.ndarray, palette: int | np.ndarray,
                  target: int | np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Recolor classes target..palette-1 to the smallest free color < target.

    One round per class, highest first, occurring or not; the picks run
    through :func:`_pick` with every list holding the colors below target.
    ``rows[r]`` holds the neighbor ranks (-1 for none) of member r of the
    flattened ``colors``.  ``palette`` and ``target`` (at most 62) broadcast
    against ``colors``, so disjoint copies stacked as rows each sweep their
    own palette down to their own target in one pass over the values, and
    the rounds are those of the widest copy.
    """
    high = colors >= target
    held = np.zeros(colors.size + 1, dtype=np.int64)
    np.left_shift(1, colors, out=held[:-1].reshape(colors.shape), where=~high)
    todo = np.flatnonzero(high)
    flat = colors.ravel()
    order = todo[np.argsort(flat[todo], kind="stable")][::-1]
    lists = np.broadcast_to((np.int64(1) << target) - 1, colors.shape)
    out = _pick(held, order, flat[order], lists.ravel()[order], rows)
    return out.reshape(colors.shape), max(0, int(np.max(palette - target)))


def list_color_rounds(dd: int, palette: int) -> int:
    """Simulated-round formula for :func:`list_color` (content-independent)
    on a subgraph with ``dd`` rank-difference classes."""
    if dd == 0:
        return 0
    pipeline = three_color_rounds(palette) + _merge_schedule_cost(dd)
    return min(pipeline, palette)


def _stacked_neighbors(classes: np.ndarray,
                       spans: list[tuple[int, int]]) -> np.ndarray:
    """Neighbor ranks of disjoint member copies, one per span of classes.

    Copy j's member i is rank j*m + i, and its row lists its neighbors in
    the classes spans[j] covers, shifted into copy j; -1 pads the rows.
    """
    m = classes.shape[2]
    width = 2 * max(hi - lo for lo, hi in spans)
    out = np.full((len(spans), m, width), -1, dtype=np.int64)
    for j, (lo, hi) in enumerate(spans):
        ranks = classes[lo:hi].reshape(-1, m).T
        out[j, :, :ranks.shape[1]] = np.where(ranks >= 0, ranks + j * m, -1)
    return out.reshape(-1, width)


def _merge_tree(colors3: np.ndarray,
                classes: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Merge the classes' 3-colorings pairwise into one proper coloring.

    Row j of ``colors3`` 3-colors class j.  Each tree level pairs adjacent
    partial colorings into product colorings and, below the root, sweeps
    every product down to (its degree bound + 1) colors.  The level's
    merges run as one :func:`_sweep_reduce` over disjoint member copies, so
    pairs of different shapes (an odd part count leaves some pairs with
    fewer classes) each keep their own palette and target.  Returns the
    root coloring, its palette and the sweep rounds, the slowest merge of
    each level.
    """
    # row j of work colors the classes in spans[j] with palettes[j] colors
    work = colors3
    palettes = np.full(len(classes), 3, dtype=np.int64)
    spans = [(j, j + 1) for j in range(len(classes))]
    rounds = 0
    while len(spans) > 1:
        pairs = len(spans) // 2
        prod = work[0:2 * pairs:2] * palettes[1:2 * pairs:2, None] \
            + work[1:2 * pairs:2]
        pp = palettes[0:2 * pairs:2] * palettes[1:2 * pairs:2]
        merged = [(spans[2 * a][0], spans[2 * a + 1][1]) for a in range(pairs)]
        if len(spans) > 2:
            target = np.array([2 * (hi - lo) + 1 for lo, hi in merged])
            prod, level = _sweep_reduce(prod, pp[:, None], target[:, None],
                                        _stacked_neighbors(classes, merged))
            rounds += level
            pp = target
        if len(spans) % 2:
            prod = np.vstack((prod, work[-1:]))
            pp = np.append(pp, palettes[-1])
            merged.append(spans[-1])
        work, palettes, spans = prod, pp, merged
    return work[0], int(palettes[0]), rounds


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


def _final_assign(colors: np.ndarray, palette: int, rows: np.ndarray,
                  allowed: np.ndarray) -> tuple[np.ndarray, int]:
    """Give every member a list color, sweeping proper-color classes in order.

    ``allowed[i, c]`` says whether color c (below ``MAX_LIST_COLORS``) is on
    member rank i's list; each list becomes one int64 bitmask, and the picks
    run through :func:`_pick`.  Every value of the palette costs one round,
    occurring or not.
    """
    lists = allowed.astype(np.int64) @ (np.int64(1) << np.arange(
        allowed.shape[1], dtype=np.int64))
    order = np.argsort(colors, kind="stable")
    held = np.zeros(colors.size + 1, dtype=np.int64)
    return _pick(held, order, colors[order], lists[order], rows), palette


def _check_proper(colors: np.ndarray, rows: np.ndarray) -> None:
    """Raise unless no member shares its color with a neighbor in its row
    of ``rows`` (-1 for none, which reads a pad no color equals)."""
    if (np.append(colors, -1)[rows] == colors[:, None]).any():
        raise EngineError("coloring is not proper on the subgraph")


def list_color(sub: PowerSubgraph, allowed: np.ndarray, palette: int,
               base: int) -> tuple[np.ndarray, int]:
    """Deterministic list coloring for max degree <= 16.

    ``allowed`` is a boolean matrix whose row i marks the colors 0, 1, 2,
    ... allowed for member rank i.  Every member needs at least degree+1
    allowed colors, and the matrix may be at most ``MAX_LIST_COLORS`` wide,
    since picks are bits of one int64.  Returns (colors, rounds): colors
    aligned with ``sub.members``, and the simulated rounds, which
    :func:`list_color_rounds` gives in advance.

    Large palettes run the pipeline: every rank-difference class is
    3-colored in one stacked run, and a merge tree pairs the partial
    colorings into product colorings.  All merges of one tree level are
    swept by one :func:`_sweep_reduce` over disjoint copies of the members,
    each copy seeing only its own classes' edges.

    The tree has one leaf per rank-difference class of the whole call, dd,
    the widest rank window over all members, and dd also decides between
    the pipeline and a direct sweep.  So a member's color depends on dd as
    well as on the members within its rounds, and members far away can
    change it by changing dd: at power 35, 250 class-5 members 16 apart (dd
    2) color 124 of themselves differently once 12 members 4 apart (dd 8)
    join the call 8,000 coordinates away.  A caller that colors part of a
    universe gets the whole universe's colors only where both calls have
    the same dd.
    """
    sub.require_degree(16)
    m = sub.members.size
    if allowed.ndim != 2 or allowed.shape[0] != m:
        raise EngineError(
            f"allowed-color matrix of shape {allowed.shape} for {m} members")
    if allowed.shape[1] > MAX_LIST_COLORS:
        raise EngineError(f"list universe of {allowed.shape[1]} colors "
                          f"exceeds {MAX_LIST_COLORS}")
    if m == 0:
        return np.empty(0, dtype=np.int64), 0
    sizes = allowed.sum(axis=1)
    short = np.flatnonzero(sizes < sub.degrees + 1)
    if short.size:
        i = int(short[0])
        raise EngineError(
            f"list of member {int(sub.members[i])} has {int(sizes[i])} colors "
            f"for degree {int(sub.degrees[i])}")
    init = _init_coloring(sub, palette, base)
    classes = _difference_classes(sub)
    if len(classes) == 0:
        return np.argmax(allowed, axis=1), 0
    rounds = 0
    pipeline_cost = three_color_rounds(palette) + _merge_schedule_cost(len(classes))
    if palette <= pipeline_cost:
        # small palettes: sweep the shifted label coloring directly
        work, work_palette = init, palette
    else:
        colors3, rounds = _three_color_classes(sub.labels, classes, init,
                                               palette)
        work, work_palette, merge_rounds = _merge_tree(colors3, classes)
        rounds += merge_rounds
    rows = _stacked_neighbors(classes, [(0, len(classes))])
    colors, r = _final_assign(work, work_palette, rows, allowed)
    rounds += r
    _check_proper(colors, rows)
    expected = list_color_rounds(len(classes), palette)
    if rounds != expected:
        raise EngineError(f"list coloring took {rounds} rounds, schedule says "
                          f"{expected}")
    return colors, rounds
