#!/usr/bin/env python3
"""Profile how far list-coloring taint reaches into a state's color cone.

A stored ruling state builds its top class c first on the class-c nodes
within rho + settle of the region S it serves (see
:class:`linemeet.ruling.EsColState`).  The newcomers whose neighbours within
9R - 1 reach past the exact statuses of that cut start tainted, the taint
spreads through every read of the list coloring, and rho doubles until no
color that S reads is tainted.  For each class with nodes and each spacing
R, this builds the states of a few windows on the class's rung and prints:

- how many took the first color cone, how many rebuilt on a wider one, how
  many fell back to the schedule cone, and how many held every class-c node
  of their window, so that no cut was made;
- the certified color radius of every cut: how many hops of 9R - 1 past the
  edge of the exact statuses the taint reached, against the first cone's
  radius and the class's coloring budget, 1 + list_color_budget(c) hops.

Every state is also compared with the whole-window build of the same
window, which the schedule cone reproduces in S: the script exits 1 if a
member that a record in S reads, or a record in S, differs.

    python scripts/locality_profile.py [--windows 3] [--spacings 1,4,16,64]
"""

import argparse
import statistics
import sys

import numpy as np

from linemeet import ruling, sim
from linemeet.logstar import CLASS_COUNT, class_size, log_star
from linemeet.ruling import (EsColState, class_phase_rounds,
                             list_color_budget, ruling_stage_rounds)
from linemeet.world import make_world

# the scheme whose windows hold many nodes of each class; uniform-class
# labels fill the zigzag coordinates closest to the origin with the class
SCHEMES = {3: "uniform-logstar-class:3:{}", 4: "uniform-logstar-class:4:{}",
           5: "uniform-logstar-class:5:{}", 6: "random-injective:{}"}


class Recorder:
    """Counts the runs of one build's top class and keeps each
    taint-carrying coloring as (runs before it, newcomers, final taint)."""

    def __init__(self):
        self.top, self.runs, self.colorings = 0, 0, []
        self.members, self.color = ruling._class_members, ruling._color_phase

    def class_members(self, vi, labels, committed, R, class_index):
        self.runs += class_index == self.top
        return self.members(vi, labels, committed, R, class_index)

    def color_phase(self, phase, labels, sc, scol, R, class_index,
                    taint=None):
        got = self.color(phase, labels, sc, scol, R, class_index, taint)
        if taint is not None:
            self.colorings.append((self.runs - 1, phase, taint.copy()))
        return got

    def build(self, labels, wlo, R, c, serves):
        self.top, self.runs, self.colorings = c, 0, []
        ruling._class_members = self.class_members
        ruling._color_phase = self.color_phase
        try:
            return EsColState(labels, wlo, R, top_class=c, serves=serves)
        finally:
            ruling._class_members = self.members
            ruling._color_phase = self.color


def attempts(R: int, c: int) -> int:
    """Color cones tried before the schedule cone."""
    stage = ruling_stage_rounds(R, c)
    settle, cone = stage + 13 * R - 13, class_phase_rounds(R, c) + stage + 2 * R
    rho, k = ruling._first_color_radius(R, c), 0
    while rho + settle < cone:
        rho, k = 2 * rho, k + 1
    return k


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
    outcomes = dict.fromkeys(("first", "rebuilt", "schedule", "uncut"), 0)
    depths, wrong = [], 0
    recorder, reach = Recorder(), 9 * R - 1
    rho0, k = ruling._first_color_radius(R, c), attempts(R, c)
    need = R + ruling.phase_end_round(R, c)
    for w in range(windows):
        world = make_world("infinite", SCHEMES[c].format(w))
        # random labels fill their span, zigzag indices up to 10**9
        half = class_size(c) // 2 if c < CLASS_COUNT else 4 * 10**8
        center = int(rng.integers(-half, half + 1))
        wlo, whi, top, slo, shi = sim._snapped_window(
            center - need, center + need, R, world.scheme.span())
        labels = world.window_labels(wlo, whi)
        state = recorder.build(labels, wlo, R, top, (slo, shi))
        if recorder.runs > k:
            outcomes["schedule"] += 1
        elif recorder.colorings:
            outcomes["first" if recorder.runs == 1 else "rebuilt"] += 1
        else:
            outcomes["uncut"] += 1
        mid = (slo + shi) // 2
        for before, phase, taint in recorder.colorings:
            rho = rho0 << before
            for edge, side in ((slo - rho, phase < mid),
                               (shi + rho, phase >= mid)):
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
    print("class     R  first rebuilt schedule uncut  "
          "certified hops min/median/max  first cone  budget")
    for c in sorted(SCHEMES):
        budget = 1 + list_color_budget(c)
        for R in (int(tok) for tok in args.spacings.split(",")):
            outcomes, depths, bad = profile(c, R, args.windows, rng)
            wrong += bad
            spread = (f"{min(depths):5.1f} {statistics.median(depths):5.1f} "
                      f"{max(depths):5.1f}" if depths else f"{'-':>17}")
            print(f"{c:5d} {R:5d}  {outcomes['first']:5d} "
                  f"{outcomes['rebuilt']:7d} {outcomes['schedule']:8d} "
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
