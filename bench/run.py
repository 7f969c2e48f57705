"""The linemeet benchmark.

    python3 bench/run.py --workload infinite-grid --seed 0 --seconds 30 --trace 0

Runs one workload in fresh worker processes (one process per cold+warm
measurement, no pool), checks every output, prints each metric with its unit
and then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced run.  The full
result, with machine facts, goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

REQUIRED = ("BENCHMARK.json", "src/linemeet/__init__.py",
            "tests/golden/infinite_grid.json", "tests/golden/finite_grid.json")

# fresh processes that time only import, config generation and schemes
SETUP_PROBES = 5

# a run must end within 180 s; workers get what is left of this
DEADLINE_S = 170

# run_tail_ms is the highest of these with at least ten runs of one warm
# pass beyond it, so it names the same percentile however many passes ran
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)


class BenchError(RuntimeError):
    """A worker crashed or ran out of time; no result is printed."""


def parse_args(spec: dict, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0,
                   help="permutes the run order; 0 is the canonical order")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measure for about this long, at least one pass pair")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="a handful of runs per workload; goldens unchecked")
    return p.parse_args(argv)


def worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(runs_per_pass: int) -> float:
    fits = [p for p in PERCENTILES if runs_per_pass * (100 - p) / 100 >= 10]
    return fits[-1] if fits else PERCENTILES[0]


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics, with
    each weight taken at its interval's midpoint.  Each run is timed once, so
    a single order statistic carries that one moment's machine noise; the
    weighted mean spreads it over the neighbouring runs.
    """
    ordered = sorted(values)
    n, q = len(ordered), p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * v for wi, v in zip(w, ordered)) / sum(w)


def measure(args, common: list[str], deadline: float):
    """Set-up probes, then cold+warm workers until --seconds is spent."""
    setups = [worker(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    children: list[dict] = []
    start = time.monotonic()
    while True:
        children.append(worker(
            common + (["--reference"] if not children else []), deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(children) + 1) / len(children) > args.seconds:
            break
    cold = [c["passes"]["cold"] for c in children]
    warm = [c["passes"]["warm"] for c in children]
    lat_ms = [1000 * s for w in warm for s in w["latencies_s"]]
    tail = tail_percentile(warm[0]["runs"])
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(p["s"] for p in cold),
        "warm_s": statistics.median(p["s"] for p in warm),
        "run_p50_ms": percentile(lat_ms, 50),
        "run_tail_ms": percentile(lat_ms, tail),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    per_pass = f"{cold[0]['runs']} runs, {cold[0]['rounds']} rounds per pass"
    wall = {name: statistics.median(p["wall_s"] for p in passes)
            for name, passes in (("cold", cold), ("warm", warm))}
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "cold_s": f"{per_pass}; median of {len(cold)} fresh processes; "
                  f"wall {wall['cold']:.3f} s",
        "warm_s": f"{per_pass}; median of {len(warm)} fresh processes; "
                  f"wall {wall['warm']:.3f} s",
        "run_p50_ms": f"{len(lat_ms)} warm runs",
        "run_tail_ms": f"p{tail:g} of {len(lat_ms)} warm runs",
        "peak_rss_mb": f"median of {len(children)} processes",
    }
    detail = {"tail_percentile": tail, "warm_runs": len(lat_ms),
              "cold_wall_s": wall["cold"], "warm_wall_s": wall["warm"],
              "setup_samples_s": setups,
              "cold_s_samples": [p["s"] for p in cold],
              "warm_s_samples": [p["s"] for p in warm]}
    return children, metrics, notes, detail


def measure_traced(args, common: list[str], deadline: float):
    """An untraced cold pass, then a traced cold+warm pair; overhead is the
    difference of the two cold passes."""
    base = worker(common + ["--cold-only"], deadline)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    traced = worker(common + ["--trace", "--reference", "--spans", str(spans)],
                    deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (traced["passes"]["cold"]["s"]
                                   - base["passes"]["cold"]["s"])
    notes = {"trace.overhead_s":
             f"traced cold {traced['passes']['cold']['s']:.3f} s minus "
             f"untraced cold {base['passes']['cold']['s']:.3f} s",
             "sim.run.calls": f"cold + warm, "
                              f"{traced['passes']['cold']['runs']} runs each"}
    return [base, traced], metrics, notes, {
        "spans_file": str(spans.relative_to(ROOT))}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(numpy_version: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linemeet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": git_commit(), "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        common.append("--toy")
    try:
        run = measure_traced if args.trace else measure
        children, metrics, notes, detail = run(args, common, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    digests = {c["digest"] for c in children}
    if len(digests) > 1:  # processes disagree on the outputs
        failed = attempted
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    machine = machine_facts(children[0]["numpy"])
    error_rate = failed / attempted
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in declared:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6f} {m['unit']:<6}"
              f" {note}".rstrip())
    print(f"  {'error_rate':<36} {error_rate:>16.6f} {'':<6} "
          f"{failed}/{attempted} runs failed")
    for c in children:
        for err in c["errors"]:
            print(err, file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, toy=args.toy,
                  error_rate=error_rate, machine=machine, detail=detail,
                  checks=[c["checks"] for c in children])
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-toy' if args.toy else ''}.json")
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
