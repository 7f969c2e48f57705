#!/usr/bin/env python3
"""Profile how far list-coloring taint reaches into a state's color cone.

A stored ruling state builds its top class c in growth steps around the
region S it serves (see :class:`linemeet.ruling.EsColState`): step k runs
on the class-c nodes within rho_k + settle of S, rho doubling from step to
step.  The newcomers whose neighbours within 9R - 1 reach past the exact
statuses of a cut start tainted, the taint spreads through every read of
the list coloring, and the loop stops once no color that S reads is
tainted, or once a step holds every class-c node of the window.  For each
class with nodes and each spacing R, this builds the states of a few
windows on the class's rung and prints:

- how many builds a step certified, the first or a later one, how many
  grew to the whole window after cutting it, and how many needed no cut:
  their first step held every class-c node of the window, or S reads no
  class-c newcomer;
- the certified color radius of every cut: how many hops of 9R - 1 past
  the edge of its own step's exact statuses the taint reached, against the
  first step's radius and the class's coloring budget,
  1 + list_color_budget(c) hops.

Classes 3 and 4 hold 2 and 12 labels, so their windows hold random
labels with the class's labels planted (see :func:`planted`), some of
them past the first step.  Every state is also compared with the
whole-window build of the same window: the script exits 1 if a member
that a record in S reads, or a record in S, differs.

    python scripts/locality_profile.py [--windows 3] [--spacings 1,4,16,64]
"""

import argparse
import statistics
import sys

import numpy as np

from linemeet import ruling, sim
from linemeet.logstar import (CLASS_COUNT, CLASS_HI, CLASS_LO, class_size,
                              log_star)
from linemeet.ruling import EsColState, list_color_budget
from linemeet.world import make_world

# the scheme whose windows hold many nodes of each class, or, for classes
# 3 and 4, the random labels that their labels are planted into
SCHEMES = {3: "random-injective:{}", 4: "random-injective:{}",
           5: "uniform-logstar-class:5:{}", 6: "random-injective:{}"}


class Recorder:
    """Records one build's top-class growth steps: the exact newcomer range
    (first, last) of each step that tests for a full-width newcomer, each
    coloring that such a newcomer lets taint certify, with its step's range
    and taint, and whether the build's last coloring was one."""

    def __init__(self):
        self.full_width = ruling._full_width_in
        self.color = ruling._color_phase

    def full_width_in(self, fresh, first, last, R):
        self.steps.append((first, last))
        self.certifying = self.full_width(fresh, first, last, R)
        return self.certifying

    def color_phase(self, phase, labels, sc, scol, R, class_index, taint):
        got = self.color(phase, labels, sc, scol, R, class_index, taint)
        if class_index == self.top:
            self.tainted, self.certifying = self.certifying, False
            if self.tainted:
                self.colorings.append((*self.steps[-1], phase, taint.copy()))
        return got

    def build(self, labels, wlo, R, c, serves):
        self.top, self.steps, self.colorings = c, [], []
        self.tainted = self.certifying = False
        ruling._full_width_in = self.full_width_in
        ruling._color_phase = self.color_phase
        try:
            return EsColState(labels, wlo, R, top_class=c, serves=serves)
        finally:
            ruling._full_width_in = self.full_width
            ruling._color_phase = self.color

    def outcome(self) -> str:
        """first, rebuilt, whole or uncut: a step certified the build's
        colors, the first or a later one, or its last step needed no
        certificate, after a cut or without one."""
        if self.tainted:
            return "first" if len(self.steps) == 1 else "rebuilt"
        return "whole" if self.steps else "uncut"


def planted(labels, c, wlo, center, R, rng):
    """The window's random labels with class c's labels planted: up to 9
    of them R apart from the center on, where a newcomer can have 8
    rank-difference classes, and the rest at random coordinates of the
    window.  Random labels of class c or below move above 10**9."""
    out = np.where(labels <= CLASS_HI[c - 1], labels + 10**9, labels)
    values = np.arange(CLASS_LO[c - 1], CLASS_HI[c - 1] + 1)
    run = center + R * np.arange(min(9, values.size - 1)) - wlo
    rest = rng.choice(np.setdiff1d(np.arange(out.size), run),
                      values.size - run.size, replace=False)
    out[np.concatenate((run, rest))] = values
    return out


def read_members(state, lo, hi, c):
    """Members of classes <= c in [lo, hi], with classes and colors."""
    i, j = np.searchsorted(state.member_coords, (lo, hi + 1))
    keep = state.member_classes[i:j] <= c
    return [a[i:j][keep].tolist() for a in (state.member_coords,
                                            state.member_classes,
                                            state.member_colors)]


def profile(c: int, R: int, windows: int, rng) -> tuple[dict, list, int]:
    """(outcome counts, cut depths in hops, differing states) of class c's
    rung at spacing R over ``windows`` drawn windows."""
    outcomes = dict.fromkeys(("first", "rebuilt", "whole", "uncut"), 0)
    depths, wrong = [], 0
    recorder, reach = Recorder(), 9 * R - 1
    need = R + ruling.phase_end_round(R, c)
    for w in range(windows):
        world = make_world("infinite", SCHEMES[c].format(w))
        # random labels fill their span, zigzag indices up to 10**9
        half = class_size(c) // 2 if c < CLASS_COUNT else 4 * 10**8
        center = int(rng.integers(-half, half + 1))
        wlo, whi, top, slo, shi = sim._snapped_window(
            center - need, center + need, R, world.scheme.span())
        labels = world.window_labels(wlo, whi)
        if c < 5:
            labels = planted(labels, c, wlo, center, R,
                             np.random.default_rng([c, R, w]))
        state = recorder.build(labels, wlo, R, top, (slo, shi))
        outcomes[recorder.outcome()] += 1
        mid = (slo + shi) // 2
        # at a cut, a step's statuses are exact up to reach short of first
        # and last
        for first, last, phase, taint in recorder.colorings:
            for edge, side in ((first - reach, phase < mid),
                               (last + reach, phase >= mid)):
                hit = np.abs(phase[taint & side] - edge)
                if hit.size:
                    depths.append(int(hit.max()) / reach)
        whole = EsColState(labels, wlo, R, top_class=top)
        same = read_members(state, slo - R + 1, shi + R - 1, top) \
            == read_members(whole, slo - R + 1, shi + R - 1, top)
        for p in range(slo, shi + 1, max(1, (shi - slo) // 64)):
            if log_star(int(labels[p - wlo])) <= top:
                same = same and state.output_for(p) == whole.output_for(p)
        wrong += not same
    return outcomes, depths, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--windows", type=int, default=3,
                        help="windows drawn per class and spacing")
    parser.add_argument("--spacings", default="1,4,16,64",
                        help="comma-separated spacings R")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    wrong = 0
    print("class     R  first rebuilt whole uncut  "
          "certified hops min/median/max  first cone  budget")
    for c in sorted(SCHEMES):
        budget = 1 + list_color_budget(c)
        for R in (int(tok) for tok in args.spacings.split(",")):
            outcomes, depths, bad = profile(c, R, args.windows, rng)
            wrong += bad
            spread = (f"{min(depths):5.1f} {statistics.median(depths):5.1f} "
                      f"{max(depths):5.1f}" if depths else f"{'-':>17}")
            print(f"{c:5d} {R:5d}  {outcomes['first']:5d} "
                  f"{outcomes['rebuilt']:7d} {outcomes['whole']:5d} "
                  f"{outcomes['uncut']:5d}  {spread:>30}  "
                  f"{ruling._first_color_radius(R, c) // (9 * R - 1):10d}  "
                  f"{budget:6d}")
    if wrong:
        print(f"{wrong} taint-certified states differ from their "
              f"whole-window builds")
        return 1
    print("every taint-certified state serves its whole-window records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
