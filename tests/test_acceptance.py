"""The acceptance gate: nine end-to-end checks with wall-clock budgets.

Each check prints one PASS line with its measurement, the usable core count
and the Python version.  Worst-case ratio constants and a digest of every
grid row are pinned under tests/golden/; a check fails when its measured
constant grows or any row changes.  Regenerate the goldens with
scripts/regen_goldens.py after an intentional behaviour change.
"""

import hashlib
import json
import os
import platform
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linemeet import sim
from linemeet.agent import iteration_start_round, searching_walk_segments
from linemeet.cli import main as cli_main
from linemeet.logstar import log_star
from linemeet.ruling import (
    EsColState,
    PALETTE_SIZE,
    path_ruling_set,
    termination_radius,
    verify_es_col_ruling,
    verify_limited_ruling_set,
    window_certifies,
)
from linemeet.reference import searching_walk
from linemeet.sim import AgentPlan, SimConfig, run
from linemeet.world import (
    LabelScheme,
    make_world,
    parse_scheme,
    zigzag_array,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name):
    payload = json.loads((GOLDEN_DIR / name).read_text())
    worst = Fraction(payload["worst"]["numerator"],
                     payload["worst"]["denominator"])
    return payload, worst


def _machine():
    """Usable cores and interpreter, so a slow box tells from a regression."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return f"{cores} cores, Python {platform.python_version()}"


def _report(idx, name, detail, t0, budget=None):
    dt = time.perf_counter() - t0
    machine = _machine()
    if budget is not None:
        assert dt < budget, \
            f"{name} took {dt:.1f}s, budget {budget:.0f}s ({machine})"
        print(f"PASS {idx}/9 {name}: {detail} "
              f"({dt:.2f}s < {budget:.0f}s; {machine})")
    else:
        print(f"PASS {idx}/9 {name}: {detail} ({dt:.2f}s; {machine})")


def test_careful_walk_meets_in_every_alignment(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["verify", "carefulwalk"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all meet" in out
    with capsys.disabled():
        _report(1, "careful-walk",
                "7 alignment offsets x 2 orientations all co-occupy",
                t0, budget=1.0)


class PlantedScheme(LabelScheme):
    """Pseudorandom huge labels with one small label forced near a start.

    The plant keeps the landmark search affordable; without it every window
    is top-class and the search horizon dwarfs the check budget.
    """

    name = "planted"

    def __init__(self, seed: int, coord: int, value: int):
        self._base = parse_scheme(f"random-injective:{seed}:1000000000")
        self._coord = int(coord)
        self._value = int(value)

    def labels_at(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        out = self._base.labels_at(coords)
        # displaced above the base range if it collides with the plant
        out = np.where(out == self._value,
                       10**9 + zigzag_array(coords) + 1, out)
        return np.where(coords == self._coord, self._value, out)


# SHA-256 of the JSON list of every care-4x trial's (plain t_rdv, plain
# event, care t_rdv, care event)
CARE_4X_OUTCOMES_SHA256 = (
    "0d174135f93183509585437615636d0065263d894c69fd7ec2a1adbc778781df")


def test_care_slowdown_bounded_by_four():
    # The transform dilates time by 4, so a transformed pair woken tau
    # rounds apart replays the untransformed pair at delay ceil(tau/4);
    # that is the pair the 4x guarantee quantifies over.  Durations are
    # t_rdv + 1 (round indices are 0-based).
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    worst = Fraction(0)
    outcomes = []
    for trial in range(200):
        d = int(rng.integers(1, 33))
        tau = int(rng.integers(0, 65))
        reach = min(d, 8)
        coord = int(rng.integers(-reach, reach + 1))
        value = int(rng.integers(1, 17))
        scheme = PlantedScheme(trial, coord, value)
        plain = run(SimConfig(scheme=scheme, va=0, vb=d, tau=-(-tau // 4),
                              detection="node-or-crossing"))
        care = run(SimConfig(scheme=scheme, va=0, vb=d, tau=tau,
                             detection="node-only", care=True))
        assert plain.t_rdv is not None, (trial, d, tau)
        assert care.t_rdv is not None, (trial, d, tau)
        assert care.t_rdv + 1 <= 4 * (plain.t_rdv + 1), \
            (trial, d, tau, plain.t_rdv, care.t_rdv)
        worst = max(worst, Fraction(care.t_rdv + 1, plain.t_rdv + 1))
        outcomes.append((plain.t_rdv, plain.event, care.t_rdv, care.event))
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == CARE_4X_OUTCOMES_SHA256
    _report(2, "care-4x", f"200 instances, worst slowdown {float(worst):.4f}",
            t0, budget=30.0)


def test_ruling_set_randomized_oracle():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    for trial in range(200):
        r = int(rng.choice([1, 2, 4, 8, 16]))
        size = int(rng.integers(4, 513))
        if trial % 4 == 0:
            host = make_world("path", f"random-injective:{trial}:1000000",
                              n=size)
            universe = np.arange(size)
        else:
            host = make_world("infinite", f"random-injective:{trial}:1000000")
            start = int(rng.integers(-400000, 400000))
            span = size * (r + 2)
            universe = np.sort(rng.choice(np.arange(start, start + span),
                                          size=size, replace=False))
        members = path_ruling_set(universe, host.labels_at(universe), r,
                                  debug=True)
        check = verify_limited_ruling_set(universe, members, r, r - 1)
        assert check, (trial, r, size, check.failure, check.witness)
    _report(3, "ruling-set", "200 instances verified at (R, R-1)",
            t0, budget=20.0)


def test_colored_ruling_construction_oracle():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    assert PALETTE_SIZE == 17
    max_color = 0
    for trial in range(50):
        r = int(rng.choice([1, 4, 16]))
        size = int(rng.integers(4, 257))
        kind = trial % 3
        if kind == 0:
            host = make_world("path", f"random-injective:{trial}:1000000",
                              n=size)
            universe = np.arange(size)
        elif kind == 1:
            host = make_world("infinite",
                              f"uniform-logstar-class:{2 + trial % 4}",
                              seed=trial)
            start = int(rng.integers(-2000, 2000))
            universe = np.arange(start, start + size)
        else:
            host = make_world("infinite",
                              f"random-injective:{trial}:1000000000")
            start = int(rng.integers(-10**6, 10**6))
            universe = np.arange(start, start + size)
        state = EsColState(host.labels_at(universe), int(universe[0]), r,
                           debug=True)
        if state.member_colors.size:
            max_color = max(max_color, int(state.member_colors.max()))
        check = verify_es_col_ruling(state)
        assert check, (trial, r, size, check.failure, check.witness)
    assert max_color <= PALETTE_SIZE
    _report(4, "colored-ruling",
            f"50 instances replayed, max color {max_color}/{PALETTE_SIZE}",
            t0, budget=30.0)


def _certified_mask(host, window, r):
    """Contiguous-window certification: the termination ball fits inside."""
    labels = host.labels_at(window)
    rad = np.array([termination_radius(int(lab), r) for lab in labels])
    return (window - window[0] >= rad) & (window[-1] - window >= rad)


def test_window_truncation_agreement():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    shared = 0
    for trial in range(20):
        r = int(rng.choice([1, 1, 4]))
        scheme = ["sequential", "uniform-logstar-class:3",
                  "uniform-logstar-class:4"][trial % 3]
        host = make_world("infinite", scheme, seed=trial)
        half = 500 if r == 1 else 1600
        c1 = int(rng.integers(-40, 41))
        c2 = c1 + int(rng.integers(-60, 61))
        w1 = np.arange(c1 - half, c1 + half + 1)
        w2 = np.arange(c2 - half - int(rng.integers(0, 201)),
                       c2 + half + int(rng.integers(0, 201)) + 1)
        s1 = EsColState(host.labels_at(w1), int(w1[0]), r)
        s2 = EsColState(host.labels_at(w2), int(w2[0]), r)
        m1 = _certified_mask(host, w1, r)
        m2 = _certified_mask(host, w2, r)
        for state, window, mask in ((s1, w1, m1), (s2, w2, m2)):
            for p in rng.choice(window, size=25):
                assert window_certifies(state, int(p)) \
                    == bool(mask[int(p) - window[0]])
        common = sorted(set(w1[m1]) & set(w2[m2]))
        shared += len(common)
        for p in common:
            assert s1.output_for(int(p)) == s2.output_for(int(p)), \
                (trial, r, p)
    assert shared > 0, "no node certified by both windows; widen them"
    _report(5, "window-agreement",
            f"20 window pairs, {shared} doubly certified nodes agree",
            t0, budget=10.0)


def test_iteration_phase_timing():
    t0 = time.perf_counter()
    doublings = [2**k for k in range(9)]
    for length in doublings:
        assert iteration_start_round(length) == 28 * (length - 1)

    plan = AgentPlan(make_world("infinite", "random-injective:0:1000000000"),
                     0)
    plan.ensure(28 * 511)
    # one note per iteration, in doubling order
    traced = [note.L for note in plan.notes]
    assert traced[:len(doublings)] == doublings, traced

    # cap below the meet time so every boundary up to L=256 is observable
    plain = run(SimConfig(scheme="random-injective:0:1000000000", va=-1,
                          vb=1, round_cap=28 * 511))
    care = run(SimConfig(scheme="random-injective:0:1000000000", va=-1, vb=1,
                         detection="node-only", care=True,
                         round_cap=4 * 28 * 511))
    assert plain.t_rdv is None and care.t_rdv is None
    for length in doublings[1:]:
        for trace, scale in ((plain, 1), (care, 4)):
            boundary = scale * 28 * (length - 1)
            assert trace.phase_of("alpha", boundary) == "discovery"
            assert trace.phase_of("alpha", boundary - 1) != "discovery"

    walks = 0
    for r, length in ((1, 16), (1, 64), (1, 256), (4, 64), (4, 256),
                      (16, 256)):
        for off in (-(2 * r - 1), -1, 0, 1, 2 * r - 1):
            for bits in ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (1, 0, 1, 0, 1),
                         (0, 1, 0, 1, 0)):
                for sweep in (1, -1):
                    segs = searching_walk_segments(r, length, off, bits,
                                                   sweep)
                    assert sum(d for d, _ in segs) == 24 * length
                    steps = searching_walk(r, length, off, bits, sweep)
                    assert len(steps) == 24 * length
                    assert sum(steps) == 0, "walk must end at its start"
                    walks += 1
    _report(6, "phase-timing",
            f"starts 28(L-1) and 4*28(L-1) to L=256, {walks} search walks "
            "total 24L", t0, budget=5.0)


@pytest.fixture(scope="module")
def infinite_sweep():
    t0 = time.perf_counter()
    rows = sim.sweep(sim.benchmark_grid())
    return rows, time.perf_counter() - t0


def _max_ratio(rows, denominator):
    worst = Fraction(0)
    for row in rows:
        assert row["t_rdv"] != "", f"cell missed rendezvous: {row}"
        worst = max(worst, Fraction(int(row["t_rdv"]), denominator(row)))
    return worst


def _rows_sha256(rows):
    """The digest scripts/regen_goldens.py pins for a grid's rows."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_infinite_grid_rendezvous_and_pinned_ratio(infinite_sweep):
    rows, sweep_elapsed = infinite_sweep
    t0 = time.perf_counter() - sweep_elapsed
    payload, pinned = _golden("infinite_grid.json")
    assert len(rows) == payload["cells"]
    assert _rows_sha256(rows) == payload["rows_sha256"], "grid rows changed"
    measured = _max_ratio(rows, lambda row: row["D"] * row["logstar_lmin"])
    assert measured <= pinned, \
        f"worst ratio regressed: {measured} > pinned {pinned}"
    if measured < pinned:
        print(f"note: worst ratio improved to {measured}; "
              "rerun scripts/regen_goldens.py to tighten the pin")

    rerun = sim.sweep(sim.benchmark_grid())
    assert rerun == rows, "same-seed rerun must be identical"

    # care-mode subsample: the transformed program still meets at grid
    # scale, within 4x of the pinned plain bound
    for scheme, d, tau in (("sequential", 1, 0), ("sequential", 5, 3),
                           ("sequential", 64, 647),
                           ("uniform-logstar-class:4", 9, 5),
                           ("uniform-logstar-class:5", 3, 1),
                           ("random-injective:0:1000000000", 2, 1)):
        cfg = SimConfig(scheme=scheme, va=-(d // 2), vb=d - d // 2, tau=tau,
                        detection="node-only", care=True)
        trace = run(cfg)
        lmin, _ = sim.lmin_stats(cfg.world(), cfg.va, cfg.vb)
        bound = 4 * pinned * d * log_star(lmin) + 3
        assert trace.t_rdv is not None, (scheme, d, tau)
        assert trace.t_rdv <= bound, (scheme, d, tau, trace.t_rdv)
    _report(7, "infinite-grid",
            f"{len(rows)} cells all meet, max ratio {float(measured):.2f} "
            f"= {measured}, rerun identical", t0, budget=120.0)


def test_infinite_grid_case_coverage(infinite_sweep):
    rows, _ = infinite_sweep
    t0 = time.perf_counter()
    histogram = {}
    for row in rows:
        histogram[row["case_tag"]] = histogram.get(row["case_tag"], 0) + 1
    for tag in ("out-of-sync", "mismatched-R", "same-node",
                "distinct-nodes-colored"):
        assert histogram.get(tag, 0) > 0, (tag, histogram)
    detail = " ".join(f"{tag}={histogram[tag]}"
                      for tag in sorted(histogram))
    _report(8, "case-coverage", detail, t0)


def test_finite_hosts_rendezvous_bound():
    t0 = time.perf_counter()
    rows = sim.sweep(sim.finite_benchmark_grid())
    payload, pinned = _golden("finite_grid.json")
    assert len(rows) == payload["cells"]
    assert _rows_sha256(rows) == payload["rows_sha256"], "grid rows changed"
    measured = _max_ratio(
        rows, lambda row: min(row["n"], row["D"] * row["logstar_lmin"]))
    assert measured <= pinned, \
        f"worst ratio regressed: {measured} > pinned {pinned}"
    _report(9, "finite-hosts",
            f"{len(rows)} path/cycle cells all meet, max ratio "
            f"{float(measured):.2f} = {measured}", t0, budget=30.0)
