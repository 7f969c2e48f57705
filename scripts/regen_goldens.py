#!/usr/bin/env python3
"""Recompute the pinned benchmark-grid bounds under tests/golden/.

The acceptance suite compares each fresh grid run against these files and
fails when the worst meeting-time ratio regresses (grows) or any row
changes.  Run this script only after an intentional behaviour change, then
review the diff.
"""

import argparse
import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from linemeet import sim

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def rows_sha256(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def summarize(rows, denominator):
    """Reduce sweep rows to cell count, tag histogram, the worst ratio and
    a digest of every row."""
    worst_ratio = None
    worst_row = None
    for row in rows:
        if row["t_rdv"] == "":
            raise SystemExit(f"grid cell missed rendezvous: {row}")
        ratio = Fraction(int(row["t_rdv"]), denominator(row))
        if worst_ratio is None or ratio > worst_ratio:
            worst_ratio, worst_row = ratio, row
    return {
        "cells": len(rows),
        "histogram": dict(sorted(Counter(r["case_tag"] for r in rows).items())),
        "worst": {
            "numerator": worst_ratio.numerator,
            "denominator": worst_ratio.denominator,
            "ratio": f"{float(worst_ratio):.6f}",
            "t_rdv": int(worst_row["t_rdv"]),
            "topology": worst_row["topology"],
            "n": worst_row["n"],
            "D": worst_row["D"],
            "tau": worst_row["tau"],
            "scheme": worst_row["scheme"],
        },
        "rows_sha256": rows_sha256(rows),
    }


def infinite_denominator(row):
    return row["D"] * row["logstar_lmin"]


def finite_denominator(row):
    return min(row["n"], row["D"] * row["logstar_lmin"])


def write_golden(name, payload):
    path = GOLDEN_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    worst = payload["worst"]
    print(f"  cells={payload['cells']} worst ratio={worst['ratio']} "
          f"({worst['numerator']}/{worst['denominator']}) at "
          f"topo={worst['topology']} D={worst['D']} tau={worst['tau']}")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)

    rows = sim.sweep(sim.benchmark_grid())
    write_golden("infinite_grid.json", summarize(rows, infinite_denominator))

    rows = sim.sweep(sim.finite_benchmark_grid())
    write_golden("finite_grid.json", summarize(rows, finite_denominator))


if __name__ == "__main__":
    main()
