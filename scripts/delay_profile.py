#!/usr/bin/env python3
"""Profile meeting time against wake-up delay for a fixed labeling.

Sweeps a dense band of delays at a few fixed distances and writes one CSV
row per cell, ready for plotting.  The summary line reports where the
normalized meeting time peaks; the interesting structure is the transition
out of the in-sync regime once the delay passes a few multiples of the
distance.
"""

import argparse

from linemeet import sim
from regen_goldens import infinite_denominator, summarize


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", default="uniform-logstar-class:4")
    parser.add_argument("--distances", default="2,8,32",
                        help="comma-separated distances")
    parser.add_argument("--tau-max", type=int, default=96,
                        help="delays 0..tau-max are swept per distance")
    parser.add_argument("--out", default="delay_profile.csv")
    args = parser.parse_args(argv)

    distances = tuple(int(tok) for tok in args.distances.split(","))
    configs = sim.grid_configs(schemes=(args.scheme,), d_values=distances,
                               taus=tuple(range(args.tau_max + 1)))
    rows = sim.sweep(configs)
    sim.write_csv(rows, args.out, runspec={
        "command": "delay_profile", "scheme": args.scheme,
        "distances": list(distances), "tau_max": args.tau_max,
    })

    worst = summarize(rows, infinite_denominator)["worst"]
    print(f"{len(rows)} cells -> {args.out}")
    print(f"peak normalized time "
          f"{worst['numerator'] / worst['denominator']:.2f} at "
          f"D={worst['D']} tau={worst['tau']} (t={worst['t_rdv']})")


if __name__ == "__main__":
    main()
