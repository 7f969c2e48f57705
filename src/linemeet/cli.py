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
from functools import partial

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
        a, dots, b = tok.partition("..")
        try:
            out.extend(range(int(a), int(b if dots else a) + 1))
        except ValueError:
            raise SimError(f"bad integer token {tok!r}; use forms like "
                           f"5, 1,2,5 or 1..64") from None
    return out


# a constant delay, or a multiple of D plus a constant
_TAU_TOKEN = re.compile(r"(\d+)|(\d*)D(?:\+(\d+))?")


def _tau_terms(spec: str) -> list[tuple[int, int]]:
    """Delay tokens as (multiple of D, constant): 0, 1, D, 3D, 10D+7, ..."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        m = _TAU_TOKEN.fullmatch(tok)
        if m is None:
            raise SimError(f"bad delay token {tok!r}; use forms like 0, D, "
                           f"3D, 10D+7")
        const, coeff, add = m.groups()
        out.append((0, int(const)) if const
                   else (int(coeff or 1), int(add or 0)))
    return out


# a comma inside an explicit scheme's {...} map does not end a scheme
_SCHEME_SEPARATOR = re.compile(r",(?![^{]*\})")


# the runspec keys that steer a command but not its result
_PLUMBING = ("func", "config", "out")


def _runspec(flags: dict) -> dict:
    """Parsed flags as an output's header holds them: no plumbing, plus
    `version` and the derived `care`, which a replay checks, never applies."""
    return {k: v for k, v in flags.items() if k not in _PLUMBING} | {
        "version": __version__, "care": flags.get("detection") == "node-only"}


def _replay(args: argparse.Namespace, argv: list[str] | None) -> None:
    """Fill each flag argv leaves unset from the runspec on the first line
    of the CSV or JSONL that ``--config`` names; a value must be what its
    flag's parse would hold."""
    with open(args.config) as fh:
        try:
            line = fh.readline()
            spec = json.loads(line.removeprefix("# runspec="))
            spec = spec if line.startswith("# runspec=") else spec["runspec"]
        except (ValueError, TypeError, KeyError):
            spec = None
    if not isinstance(spec, dict):
        raise SimError(f"no runspec on the first line of {args.config}")
    want = _runspec({"command": args.command,
                     "detection": spec.get("detection")})
    for key in ("version", "command", "care"):
        got = spec.pop(key, None)
        if got != want[key]:
            raise SimError(f"runspec {key} {got!r} does not match "
                           f"{want[key]!r}")
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    sub = commands.choices[args.command]
    flags = {a.dest: a for a in sub._actions
             if a.option_strings and a.dest not in (*_PLUMBING, "help")}
    unset = object()
    for key, value in spec.items():
        if key not in flags:
            raise SimError(f"unknown runspec key {key!r}")
        action = flags[key]
        try:
            parsed = (value if value is None and action.default is None
                      else (action.type or str)(str(value)))
        except ValueError:
            parsed = unset
        if parsed != value or (action.choices and value not in action.choices):
            raise SimError(f"bad runspec value {value!r} for {key}")
    # parsed again with every default unset, argv shows which flags it gives
    sub.set_defaults(**dict.fromkeys(flags, unset))
    given = vars(parser.parse_args(argv))
    for key, value in spec.items():
        if given[key] is unset:
            setattr(args, key, value)


# -- run -----------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    (cfg,) = grid_configs(
        topology=args.topology, n=args.n, schemes=(args.scheme,),
        d_values=(args.d,), taus=(args.tau,), seed=args.seed,
        detection=args.detection, round_cap=args.round_cap)
    trace = run(replace(cfg, engine=args.engine))
    row = trace_row(trace)
    if args.out:
        trace.to_jsonl(args.out, runspec=_runspec(vars(args)))
    cell = f"D={row['D']} tau={row['tau']} lmin={row['lmin']}"
    if trace.t_rdv is None:
        print(f"T_rdv=NONE {cell} ratio=NONE case={row['case_tag']} "
              f"cap={trace.round_cap}")
        _error_json("bound-violation",
                    f"no rendezvous within {trace.round_cap} rounds")
        return 1
    print(f"T_rdv={trace.t_rdv} {cell} ratio={row['ratio']} "
          f"case={row['case_tag']} event={trace.event} "
          f"position={trace.meet_position}")
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
    if args.out:
        write_csv(rows, args.out, runspec=_runspec(vars(args)))
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
            checked += 1
            if not any(position(*x, t) == position(*y, t)
                       for t in range(min(0, delta) - 1, max(0, delta) + 6)):
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
    if args.trials < 1:
        raise SimError(f"--trials {args.trials} checks nothing; use 1 or more")
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
    if args.universe < 0:
        raise SimError(f"--universe {args.universe} is below 0")
    host = make_world("infinite", args.scheme, seed=args.seed)
    universe = np.arange(-args.universe, args.universe + 1)
    state = EsColState(host.labels_at(universe), -args.universe, args.r)
    try:
        radii = certify_es_locality(state)
    except RulingError as err:
        _error_json("oracle-failure", str(err))
        return 1
    if not radii:
        raise SimError(f"no termination-radius ball fits in "
                       f"[-{args.universe}, {args.universe}]")
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
    # no parser takes an abbreviated flag: an abbreviation keeps its meaning
    # only until a flag sharing its prefix is added (`--d` already prefixes
    # `--detection`)
    parser = argparse.ArgumentParser(
        prog="linemeet", allow_abbrev=False,
        description="Two-agent rendezvous on labeled lines, paths, and cycles")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        partial(argparse.ArgumentParser, allow_abbrev=False)))

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
                       help="replay the runspec atop a CSV or JSONL "
                            "that this command wrote")

    p_run = sub.add_parser("run", help="simulate one instance")
    add_world_flags(p_run)
    p_run.add_argument("--d", type=int, default=1, help="start distance")
    p_run.add_argument("--tau", type=int, default=0, help="wake-up delay")
    p_run.add_argument("--engine", choices=ENGINES, default="fast")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of instances to CSV")
    add_world_flags(p_sweep)
    p_sweep.add_argument("--d", default="1..8",
                         help="distances, e.g. 1..64 or 1,2,5")
    p_sweep.add_argument("--tau", default="0,1,3,D,3D,10D,10D+7",
                         help="delays per distance; D scales with the cell")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="replay the independent oracles")
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

    sub.add_parser("constants", help="report implementation-chosen "
                   "constants").set_defaults(func=cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            _replay(args, argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (``linemeet constants | head``); point stdout
        # at /dev/null so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (*CONFIG_ERRORS, OSError) as err:
        _error_json("config", str(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
