"""One fresh process of the benchmark: set up, time the passes, check.

Started by run.py, one process per measurement, because linemeet keeps plan,
ruling-set and scheme caches in module globals: a second pass in the same
process is warm.  Prints one JSON object on stdout.
"""

import argparse
import bisect
import hashlib
import json
from pathlib import Path
import resource
import statistics
import sys
import time
import traceback

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

# On a shared 2-core VM (Xeon, Python 3.11) the same work runs up to 20%
# faster or slower from one second to the next, in step with a fixed
# memory-bound calibration task.  So a calibration is timed every
# CALIBRATE_EVERY_S between runs, and each run's wall time is scaled by
# CALIBRATION_REF_S over the mean of the two calibrations around it.  Scaling
# by calibrations further away tracks the machine worse.
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.016


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after import, config generation and schemes")
    p.add_argument("--cold-only", action="store_true",
                   help="skip the warm passes")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--reference", action="store_true",
                   help="replay short runs on the reference engine")
    p.add_argument("--spans", help="file to write the trace's spans to")
    return p.parse_args(argv)


class Calibration:
    """Timings of a fixed task over a worker's life, as (midpoint, seconds).

    The task mixes a Python loop of small numpy calls with sorting a copy of
    a 4 MB int64 array; its two buffers add 8 MB to the worker's RSS.
    """

    def __init__(self, np):
        self.np = np
        self.probe = np.arange(1 << 12, dtype=np.int64)
        self.base = (np.arange(1 << 19, dtype=np.int64) * 2654435761) % 1000003
        self.buf = np.empty_like(self.base)
        self.mids: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")

    def task(self) -> int:
        np, acc = self.np, 0
        for i in range(3000):
            acc += int(np.searchsorted(self.probe, (i * 7919) & 4095))
        self.buf[:] = self.base
        self.buf.sort()
        return acc + int(np.searchsorted(self.buf, self.base[::97]).sum())

    def take(self) -> float:
        t0 = time.perf_counter()
        self.task()
        self.last = time.perf_counter()
        self.mids.append((t0 + self.last) / 2)
        self.seconds.append(self.last - t0)
        return self.last - t0

    def take_if_due(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.take()

    def factor(self, t: float) -> float:
        """Wall-to-calibrated scale for work done at time t."""
        i = min(max(bisect.bisect(self.mids, t), 1), len(self.mids) - 1)
        return 2 * CALIBRATION_REF_S / (self.seconds[i - 1] + self.seconds[i])


def time_pass(workload, calibration: Calibration):
    """Run every config once in the workload's order, calibrating between.

    Returns rows, per-run wall seconds, per-run midpoints and errors.
    """
    n = len(workload.configs)
    rows, lat, mid, errors = [None] * n, [0.0] * n, [0.0] * n, []
    clock = time.perf_counter
    calibration.take()
    for k in workload.order:
        t = clock()
        try:
            rows[k] = workload.run(workload.configs[k])
        except Exception:  # a failed run is counted, the pass goes on
            errors.append(traceback.format_exc())
        end = clock()
        lat[k], mid[k] = end - t, (t + end) / 2
        calibration.take_if_due()
    calibration.take()
    return rows, lat, mid, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    import numpy as np
    import linemeet
    import workloads
    if Path(linemeet.__file__).resolve().parent != SRC / "linemeet":
        raise SystemExit(f"linemeet imported from {linemeet.__file__}, "
                         f"not from {SRC}")
    workload = workloads.build(args.workload, args.seed, args.toy)
    setup_wall_s = time.perf_counter() - t_start
    calibration = Calibration(np)
    calibration.take()  # first call pays numpy's warm-up
    setup_s = setup_wall_s * CALIBRATION_REF_S / statistics.median(
        calibration.take() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()
    timed, all_rows, errors = [], [], []
    for _ in range(1 if args.cold_only else 2):
        rows, lat, mid, errs = time_pass(workload, calibration)
        timed.append((lat, mid))
        all_rows.append(rows)
        errors += errs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = {}
    for name, (lat, mid) in zip(("cold", "warm"), timed):
        scaled = [s * calibration.factor(m) for s, m in zip(lat, mid)]
        passes[name] = {"s": sum(scaled), "wall_s": sum(lat),
                        "runs": len(lat), "latencies_s": scaled,
                        "rounds": workloads.rounds(all_rows[0])}
    out = {"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_rss_mb,
           "numpy": np.__version__}
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)

    # correctness, outside the timed passes: every run met, every pass
    # agrees with the first, the workload's own checks, the reference sample
    first = all_rows[0]
    bad = {i for rows in all_rows for i, row in enumerate(rows)
           if not workloads.met(row) or row != first[i]}
    checks = {"unmet_or_unequal": len(bad)}
    workload_bad = workload.check(first)
    checks["workload"] = len(workload_bad)
    bad |= workload_bad
    if args.reference:
        ref_bad = workloads.reference_mismatches(workload, first)
        checks["reference"] = len(ref_bad)
        bad |= ref_bad
    out["checks"] = checks
    out["errors"] = errors[:3]
    out["attempted"] = len(first) * len(all_rows)
    out["failed"] = len(bad) * len(all_rows)
    out["digest"] = hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()).hexdigest()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
