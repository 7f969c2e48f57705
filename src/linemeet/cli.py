"""Batch command line: single runs, sweeps, oracle verification, constants.

Four subcommands.  `run` simulates one instance and prints a summary line;
`sweep` runs a cartesian grid to CSV; `verify` replays the independent
oracles against the constructions; `constants` reports every
implementation-chosen constant and re-derives the radius factor.  Exit
status 0 on success, 1 when a bound or oracle is violated, 2 on bad
configuration, 141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import __version__
from .agent import AgentError, iteration_start_round
from .localengine import EngineError
from .logstar import CLASS_COUNT, class_range, class_size, log_star
from .reference import careful_walk_occupancy
from .ruling import (
    RADIUS_FACTOR,
    EsColState,
    RulingError,
    certify_es_locality,
    class_phase_rounds,
    list_color_budget,
    path_ruling_set,
    phase_end_round,
    phase_start_round,
    ruling_stage_rounds,
    verify_es_col_ruling,
    verify_limited_ruling_set,
)
from .sim import (
    ENGINES,
    LMIN_WINDOW_FACTOR,
    SimError,
    grid_configs,
    run,
    sweep,
    trace_row,
    write_csv,
)
from .world import WorldError, make_world

CONFIG_ERRORS = (SimError, WorldError, AgentError, RulingError, EngineError)

# 128 + SIGPIPE, what a shell reports for a filter whose reader went away
EXIT_BROKEN_PIPE = 141


def _error_json(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


# -- flag plumbing -------------------------------------------------------------


def _int_list(spec: str) -> list[int]:
    """Comma-separated integers; `a..b` expands to the inclusive range."""
    out: list[int] = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if ".." in tok:
                a, b = tok.split("..", 1)
                out.extend(range(int(a), int(b) + 1))
            else:
                out.append(int(tok))
        except ValueError:
            raise SimError(f"bad integer token {tok!r}; use forms like "
                           f"5, 1,2,5 or 1..64") from None
    return out


_TAU_TOKEN = re.compile(r"^(\d+)?(D)?(?:\+(\d+))?$")


def _tau_terms(spec: str) -> list[tuple[int, int]]:
    """Delay tokens as (multiple of D, constant): 0, 1, D, 3D, 10D+7, ..."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        m = _TAU_TOKEN.match(tok)
        if not tok or m is None or (m.group(1) is None and m.group(2) is None):
            raise SimError(f"bad delay token {tok!r}; use forms like 0, D, 3D, 10D+7")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        add = int(m.group(3)) if m.group(3) is not None else 0
        if m.group(2):
            out.append((coeff, add))
        elif m.group(3) is not None:
            raise SimError(f"bad delay token {tok!r}")
        else:
            out.append((0, coeff))
    return out


# a comma inside an explicit scheme's {...} map does not end a scheme
_SCHEME_SEPARATOR = re.compile(r",(?![^{]*\})")


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill flags from `key = value` lines; explicit flags win."""
    if getattr(args, "config", None) is None:
        return
    types = args.config_types

    def explicit(key: str) -> bool:
        flag = "--" + key
        return any(tok == flag or tok.startswith(flag + "=") for tok in argv)

    with open(args.config) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, value = line.split("=", 1)
            else:
                key, _, value = line.partition(" ")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise SimError(f"unknown config key {key!r} on line {lineno}")
            if explicit(key):
                continue
            try:
                setattr(args, key.replace("-", "_"), types[key](value))
            except ValueError:
                raise SimError(f"bad value {value!r} for {key} on line "
                               f"{lineno}") from None


# -- run -----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    (cfg,) = grid_configs(
        topology=args.topology, n=args.n, schemes=(args.scheme,),
        d_values=(args.d,), taus=(args.tau,), seed=args.seed,
        detection=args.detection, round_cap=args.round_cap)
    trace = run(replace(cfg, engine=args.engine))
    row = trace_row(trace)
    runspec = {"version": __version__, "command": "run",
               "topology": args.topology, "n": args.n, "d": args.d,
               "tau": args.tau, "scheme": args.scheme, "seed": args.seed,
               "detection": args.detection, "care": cfg.care,
               "round_cap": args.round_cap, "engine": args.engine}
    cell = f"D={row['D']} tau={row['tau']} lmin={row['lmin']}"
    if trace.t_rdv is None:
        print(f"T_rdv=NONE {cell} ratio=NONE case={row['case_tag']} "
              f"cap={trace.round_cap}")
        if args.out:
            trace.to_jsonl(args.out, runspec=runspec)
        _error_json("bound-violation",
                    f"no rendezvous within {trace.round_cap} rounds")
        return 1
    print(f"T_rdv={trace.t_rdv} {cell} ratio={row['ratio']} "
          f"case={row['case_tag']} event={trace.event} "
          f"position={trace.meet_position}")
    if args.out:
        trace.to_jsonl(args.out, runspec=runspec)
    return 0


# -- sweep ---------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    d_values = _int_list(args.d)
    terms = _tau_terms(args.tau)
    schemes = [s for s in _SCHEME_SEPARATOR.split(args.scheme) if s]
    if not d_values or not terms or not schemes:
        raise SimError("empty sweep grid")
    configs = []
    for d in d_values:
        taus = sorted({mult * d + add for mult, add in terms})
        configs.extend(grid_configs(
            topology=args.topology, n=args.n, schemes=schemes, d_values=(d,),
            taus=taus, seed=args.seed, detection=args.detection,
            round_cap=args.round_cap))
    rows = sweep(configs)
    runspec = {"version": __version__, "command": "sweep",
               "topology": args.topology, "n": args.n, "d": args.d,
               "tau": args.tau, "scheme": args.scheme, "seed": args.seed,
               "detection": args.detection, "care": configs[0].care,
               "round_cap": args.round_cap}
    if args.out:
        write_csv(rows, args.out, runspec=runspec)
    met = [r for r in rows if r["ratio"] != ""]
    violations = [r for r in rows if r["case_tag"] == "bound-violation"]
    print(f"cells={len(rows)}")
    if met:
        worst = max(met, key=lambda r: float(r["ratio"]))
        print(f"max ratio={worst['ratio']} at D={worst['D']} "
              f"tau={worst['tau']} scheme={worst['scheme']}")
    counts = Counter(r["case_tag"] for r in rows)
    print("cases: " + " ".join(f"{tag}={counts[tag]}"
                               for tag in sorted(counts)))
    print(f"violations={len(violations)}")
    for row in violations:
        print(f"  D={row['D']} tau={row['tau']} scheme={row['scheme']}")
    return 1 if violations else 0


# -- verify --------------------------------------------------------------------


def _verify_carefulwalk(args: argparse.Namespace) -> int:
    """Exhaustive opposite-crossing check over gadget alignments.

    One agent crosses toward the larger label, the other toward the
    smaller, with every start offset that lets them be mid-edge together;
    before its gadget an agent stands on its origin, after it on its
    destination.  Both node orderings are checked.
    """
    up, down = careful_walk_occupancy(1, 2), careful_walk_occupancy(2, 1)

    def position(pattern, start, origin, dest, t):
        if t < start:
            return origin
        if t <= start + 4:
            return pattern[t - start]
        return dest

    failures = []
    checked = 0
    for delta in range(-3, 4):
        for flipped in (False, True):
            x = (down, 0, "1", "0") if flipped else (up, 0, "0", "1")
            y = (up, delta, "0", "1") if flipped else (down, delta, "1", "0")
            meet = None
            for t in range(min(0, delta) - 1, max(0, delta) + 6):
                if position(*x, t) == position(*y, t):
                    meet = t
                    break
            checked += 1
            if meet is None:
                failures.append({"offset": delta, "flipped": flipped})
    if failures:
        _error_json("oracle-failure", f"no meeting: {failures[0]}")
        return 1
    print(f"carefulwalk: 7 alignment offsets x 2 orientations = "
          f"{checked} cases, all meet")
    return 0


def _trial_host(rng: np.random.Generator, trial: int, size: int):
    scheme = f"random-injective:{rng.integers(2**31)}"
    if trial % 3 == 2:
        return make_world("path", scheme, n=size), range(size)
    start = int(rng.integers(-1000, 1000))
    return make_world("infinite", scheme), range(start, start + size)


def _check_ruling_set(universe: range, labels: np.ndarray, R: int):
    members = path_ruling_set(universe, labels, R)
    return verify_limited_ruling_set(universe, members, R, R - 1)


def _check_es_col_ruling(universe: range, labels: np.ndarray, R: int):
    return verify_es_col_ruling(EsColState(labels, universe.start, R))


# per randomized target: the spacings R are drawn from, the bound window
# sizes are drawn below, and the oracle each trial runs
_TRIALS = {"rulingset": ((1, 2, 4, 16, 64), 220, _check_ruling_set),
           "escolruling": ((1, 4, 16), 160, _check_es_col_ruling)}


def _verify_trials(args: argparse.Namespace) -> int:
    spacings, size_bound, check_trial = _TRIALS[args.target]
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        R = int(rng.choice(spacings))
        size = int(rng.integers(max(4, R), size_bound))
        host, universe = _trial_host(rng, trial, size)
        check = check_trial(universe, host.labels_at(universe), R)
        if not check:
            _error_json("oracle-failure",
                        f"trial {trial}: {check.failure} at {check.witness}")
            return 1
    print(f"{args.target}: {args.trials} randomized trials, 0 failures")
    return 0


def _verify_locality(args: argparse.Namespace) -> int:
    """Purity of committed records, each re-proved from its own ball.

    The construction runs over [-U, U]; every node whose termination-radius
    ball fits in it is rebuilt on that ball's labels alone
    (`certify_es_locality`).  A changed record or a radius beyond
    RADIUS_FACTOR * R * log* of the node's label is an oracle failure; a
    window that certifies no node proves nothing.
    """
    host = make_world("infinite", args.scheme, seed=args.seed)
    universe = np.arange(-args.universe, args.universe + 1)
    state = EsColState(host.labels_at(universe), -args.universe, args.r)
    try:
        radii = certify_es_locality(state)
    except RulingError as err:
        _error_json("oracle-failure", str(err))
        return 1
    if not radii:
        _error_json("config", f"no termination-radius ball fits in "
                              f"[-{args.universe}, {args.universe}]")
        return 2
    for p, radius in radii.items():
        bound = RADIUS_FACTOR * args.r * log_star(host.label(p))
        if radius > bound:
            _error_json("oracle-failure",
                        f"termination radius {radius} of {p} exceeds {bound}")
            return 1
    print(f"locality: {len(radii)} certified nodes in "
          f"[-{args.universe}, {args.universe}], max termination radius "
          f"{max(radii.values())}, "
          f"all within {RADIUS_FACTOR}*R*logstar")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    target = {"carefulwalk": _verify_carefulwalk,
              "rulingset": _verify_trials,
              "escolruling": _verify_trials,
              "locality": _verify_locality}[args.target]
    return target(args)


# -- constants -----------------------------------------------------------------


def cmd_constants(_args: argparse.Namespace) -> int:
    print(f"radius factor kappa = {RADIUS_FACTOR}")
    print(f"smallest-label window factor = {LMIN_WINDOW_FACTOR} (times D, "
          f"around both starts)")
    print("search loop: iteration L starts at 28(L-1) = 4L discovery + 24L "
          "search, L doubling")
    for L in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        print(f"  L={L}: start={iteration_start_round(L)}")
    print("label classes (iterated log):")
    for i in range(1, CLASS_COUNT + 1):
        lo, hi = class_range(i)
        print(f"  class {i}: labels [{lo}, {hi}], size {class_size(i)}, "
              f"list-color budget {list_color_budget(i)}")
    print("commit schedule: stage = ruling-set build, phase = merge+color; "
          "end(R, i) = start + 14R-14 + (9R-1)(1 + budget(i))")
    for R in (1, 4, 16, 64):
        ends = " ".join(str(phase_end_round(R, i))
                        for i in range(1, CLASS_COUNT + 1))
        print(f"  R={R}: class ends {ends}")
        detail = " ".join(
            f"{phase_start_round(R, i)}+{class_phase_rounds(R, i)}"
            for i in range(1, CLASS_COUNT + 1))
        print(f"        start+phase {detail}")
        stages = " ".join(str(ruling_stage_rounds(R, i))
                          for i in range(1, CLASS_COUNT + 1))
        print(f"        stage rounds {stages}")
    rederived = max(-(-phase_end_round(4**j, i) // (4**j * i))
                    for j in range(13) for i in range(1, CLASS_COUNT + 1))
    consistent = rederived == RADIUS_FACTOR
    print(f"kappa re-derived from the schedule sweep: {rederived} "
          f"({'consistent' if consistent else 'INCONSISTENT'})")
    return 0 if consistent else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no parser takes an abbreviated flag: a config file's key yields only
    # to a flag that argv spells in full (_apply_config_file)
    parser = argparse.ArgumentParser(
        prog="linemeet", allow_abbrev=False,
        description="Two-agent rendezvous on labeled lines, paths, and cycles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_flags(p):
        p.add_argument("--topology", choices=("infinite", "path", "cycle"),
                       default="infinite")
        p.add_argument("--n", type=int, default=None,
                       help="node count for path/cycle")
        p.add_argument("--scheme", default="sequential")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--detection", choices=("node-only", "node-or-crossing"),
                       default="node-or-crossing",
                       help="node-only runs the crossing-free program variant")
        p.add_argument("--round-cap", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="key = value file mirroring these flags")

    p_run = sub.add_parser("run", help="simulate one instance",
                           allow_abbrev=False)
    add_world_flags(p_run)
    p_run.add_argument("--d", type=int, default=1, help="start distance")
    p_run.add_argument("--tau", type=int, default=0, help="wake-up delay")
    p_run.add_argument("--engine", choices=ENGINES, default="fast")
    p_run.set_defaults(func=cmd_run, config_types={
        "topology": str, "n": int, "scheme": str, "seed": int,
        "detection": str, "round-cap": int, "out": str,
        "d": int, "tau": int, "engine": str})

    p_sweep = sub.add_parser("sweep", help="run a grid of instances to CSV",
                             allow_abbrev=False)
    add_world_flags(p_sweep)
    p_sweep.add_argument("--d", default="1..8",
                         help="distances, e.g. 1..64 or 1,2,5")
    p_sweep.add_argument("--tau", default="0,1,3,D,3D,10D,10D+7",
                         help="delays per distance; D scales with the cell")
    p_sweep.set_defaults(func=cmd_sweep, config_types={
        "topology": str, "n": int, "scheme": str, "seed": int,
        "detection": str, "round-cap": int, "out": str,
        "d": str, "tau": str})

    p_verify = sub.add_parser("verify", help="replay the independent oracles",
                              allow_abbrev=False)
    p_verify.add_argument("target", choices=("carefulwalk", "rulingset",
                                             "escolruling", "locality"))
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--scheme", default="sequential",
                          help="label scheme for locality")
    p_verify.add_argument("--r", type=int, default=1,
                          help="spacing parameter for locality")
    p_verify.add_argument("--universe", type=int, default=1200,
                          help="window size for locality")
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", allow_abbrev=False,
                             help="report implementation-chosen constants")
    p_const.set_defaults(func=cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (``linemeet constants | head``); point stdout
        # at /dev/null so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CONFIG_ERRORS as err:
        _error_json("config", str(err))
        return 2
    except OSError as err:
        _error_json("config", str(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
