"""The benchmark's three workloads and the checks on their outputs.

Every workload is a pinned set of instances.  The seed only permutes the
order in which the instances run (seed 0 keeps the canonical order), so every
seed does the same work and every seed can be checked against the goldens.
Drawing fresh instances per seed is not an option: planted-care trials vary
in cost with a coefficient of variation near 1, so a resampled set would
move ``cold_s`` by more than any regression bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
import json
from pathlib import Path
import random
from typing import Callable

import numpy as np

from linemeet import sim
from linemeet.sim import SimConfig
from linemeet.world import LabelScheme, parse_scheme, zigzag, zigzag_array

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

# the care-4x trial stream of the acceptance suite; its first PLANTED_TRIALS
# trials keep one pass near ten seconds
PLANTED_RNG_SEED = 20260822
PLANTED_TRIALS = 50

# sizes added to sim.finite_benchmark_grid() so a pass lasts seconds
FINITE_EXTRA_SIZES = (2048, 8192)

# reference-engine replay: this many cells, spread evenly over those that
# meet within REFERENCE_MAX_ROUNDS, about a tenth of a millisecond per round
REFERENCE_CELLS = 40
REFERENCE_MAX_ROUNDS = 20_000


class PlantedScheme(LabelScheme):
    """Pseudorandom labels up to 1e9 with one small label planted near a start.

    Same labels as the planted scheme of the acceptance suite; a custom
    scheme object, so it bypasses every cache keyed on scheme strings.
    """

    name = "planted"

    def __init__(self, seed: int, coord: int, value: int):
        self._base = parse_scheme(f"random-injective:{seed}:1000000000")
        self._coord = int(coord)
        self._value = int(value)

    def label_at(self, coord: int) -> int:
        if coord == self._coord:
            return self._value
        lab = self._base.label_at(coord)
        return lab if lab != self._value else 10**9 + zigzag(coord) + 1

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        out = self._base.labels_at(coords)
        out = np.where(out == self._value,
                       10**9 + zigzag_array(coords) + 1, out)
        return np.where(coords == self._coord, self._value, out)


@dataclass
class Workload:
    """Configs in canonical order, the order to run them, and their checks."""

    configs: list[SimConfig]
    order: list[int]
    run: Callable[[SimConfig], dict]
    check: Callable[[list[dict]], set[int]]


def _trace_row(config: SimConfig) -> dict:
    trace = sim.run(config)
    return {"t_rdv": trace.t_rdv, "event": trace.event}


def met(row: dict | None) -> bool:
    return row is not None and row["t_rdv"] not in (None, "")


def rounds(rows: list[dict | None]) -> int:
    """Simulated rounds, sum of t_rdv + 1 over the runs that met."""
    return sum(int(r["t_rdv"]) + 1 for r in rows if met(r))


def _matches_golden(rows: list[dict], golden: str, denominator) -> bool:
    """Cell count, worst ratio and case histogram equal the pinned ones."""
    payload = json.loads((GOLDEN_DIR / golden).read_text())
    if len(rows) != payload["cells"] or not all(met(r) for r in rows):
        return False
    worst = max(Fraction(int(r["t_rdv"]), denominator(r)) for r in rows)
    histogram: dict[str, int] = {}
    for r in rows:
        histogram[r["case_tag"]] = histogram.get(r["case_tag"], 0) + 1
    return (worst == Fraction(payload["worst"]["numerator"],
                              payload["worst"]["denominator"])
            and histogram == payload["histogram"])


def _grid_check(golden: str | None, golden_cells: int, denominator):
    def check(rows: list[dict]) -> set[int]:
        bad = {i for i, r in enumerate(rows) if not met(r)}
        if golden is not None and not _matches_golden(
                rows[:golden_cells], golden, denominator):
            bad.update(range(golden_cells))
        return bad
    return check


def _planted_check(rows: list[dict]) -> set[int]:
    """Both runs of a trial meet, and care + 1 <= 4 (plain + 1)."""
    bad = set()
    for i in range(0, len(rows), 2):
        plain, care = rows[i], rows[i + 1]
        if not (met(plain) and met(care)
                and care["t_rdv"] + 1 <= 4 * (plain["t_rdv"] + 1)):
            bad.update((i, i + 1))
    return bad


def _infinite_grid(toy: bool):
    configs = sim.benchmark_grid()
    if toy:
        configs = [c for c in configs
                   if c.scheme == "sequential" and c.vb - c.va <= 6]
    check = _grid_check(None if toy else "infinite_grid.json", len(configs),
                        lambda r: r["D"] * r["logstar_lmin"])
    return configs, [[i] for i in range(len(configs))], sim.run_row, check


def _finite_hosts(toy: bool):
    configs = sim.finite_benchmark_grid()
    golden_cells = len(configs)
    if toy:
        configs = [c for c in configs if c.n <= 32]
    else:
        for topology in ("path", "cycle"):
            for n in FINITE_EXTRA_SIZES:
                ds = sorted({1, 2, n // 8, n // 4, n // 2})
                configs += sim.grid_configs(
                    topology=topology, n=n,
                    schemes=("sequential", "random-injective:0:1000000000"),
                    d_values=tuple(ds), taus=(0, n))
    check = _grid_check(None if toy else "finite_grid.json", golden_cells,
                        lambda r: min(r["n"], r["D"] * r["logstar_lmin"]))
    return configs, [[i] for i in range(len(configs))], sim.run_row, check


def _planted_care(toy: bool):
    # a trial runs the plain program at ceil(tau/4) and the crossing-free one
    # at tau on the same scheme object; the transform dilates time by 4
    rng = np.random.default_rng(PLANTED_RNG_SEED)
    configs = []
    for trial in range(4 if toy else PLANTED_TRIALS):
        d = int(rng.integers(1, 33))
        tau = int(rng.integers(0, 65))
        reach = min(d, 8)
        coord = int(rng.integers(-reach, reach + 1))
        value = int(rng.integers(1, 17))
        scheme = PlantedScheme(trial, coord, value)
        configs.append(SimConfig(scheme=scheme, va=0, vb=d,
                                 tau=-(-tau // 4)))
        configs.append(SimConfig(scheme=scheme, va=0, vb=d, tau=tau,
                                 detection="node-only", care=True))
    groups = [[i, i + 1] for i in range(0, len(configs), 2)]
    return configs, groups, _trace_row, _planted_check


_BUILDERS = {"infinite-grid": _infinite_grid, "planted-care": _planted_care,
             "finite-hosts": _finite_hosts}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """Generate a workload; the seed shuffles its groups of runs."""
    configs, groups, run, check = _BUILDERS[name](toy)
    if seed != 0:
        random.Random(seed).shuffle(groups)
    order = [i for group in groups for i in group]
    return Workload(configs, order, run, check)


def reference_mismatches(workload: Workload, rows: list[dict]) -> set[int]:
    """Replay a fixed sample of short runs on the reference engine.

    The sample is picked in canonical order, so it is the same for every
    seed.  A run is bad when the reference engine disagrees with the fast
    engine on the meeting round or event, or either disagrees with the row.
    """
    short = [i for i, r in enumerate(rows)
             if met(r) and int(r["t_rdv"]) <= REFERENCE_MAX_ROUNDS]
    step = max(1, len(short) // REFERENCE_CELLS)
    bad = set()
    for i in short[::step][:REFERENCE_CELLS]:
        config = workload.configs[i]
        fast = sim.run(config)
        ref = sim.run(replace(config, engine="reference"))
        if ((fast.t_rdv, fast.event) != (ref.t_rdv, ref.event)
                or fast.t_rdv != int(rows[i]["t_rdv"])):
            bad.add(i)
    return bad

