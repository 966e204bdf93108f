"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --pool FILE
                                --mode setup|run|trace [--seconds S] [--census N]

Every mode first imports `intervalhinf.cli` and builds the inputs through
the package's own loaders and constructors, and times both. `setup`
stops there. `run` then drives a closed loop with one caller for
`--seconds`, and for at least the N census ops, each op waiting for the
previous one, and checks every result afterwards. `trace` runs every op
twice, untraced and traced, for the per-layer metrics and the tracing
overhead; its census is the first N/2 pairs. The last line of stdout
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
# The calibration kernel takes CAL_REF_S on the unloaded reference machine
# (2-core Xeon, Python 3.11, numpy 2.4). Gated times are scaled by
# CAL_REF_S / (its time measured alongside), i.e. to reference speed.
CAL_REF_S = 0.020
CALIBRATE_EVERY_S = 0.5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def timed_call(op, inputs, k):
    """One op on pool entry k: (k, seconds, result, error type or None)."""
    t0 = perf_counter()
    try:
        out, err = op(inputs[k]), None
    except Exception as exc:  # every failure is counted by type, never fatal
        out, err = None, type(exc).__name__
    return k, perf_counter() - t0, out, err


def calibration_kernel() -> int:
    """Fixed work that never touches the package, so no change to it moves this.

    Python integer arithmetic and numpy calls on 8-element arrays, the same
    kinds of work that dominate the package's hot paths, so a loaded
    machine slows both alike.
    """
    import numpy as np  # not at module level: the timed package import pays for numpy

    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(6_000):
        a = np.abs(a * 1.0000001 + 0.5j)
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


def closed_loop(op, inputs, seconds, census):
    """Ops in pool order, one at a time, until `seconds` are used up and at
    least `census` ops have run.

    Every CALIBRATE_EVERY_S, between two ops, the calibration kernel runs
    once; its time is left out of the ops and of the returned wall time.
    Returns (records, wall seconds, process CPU seconds, calibration times).
    The pool wraps around when it runs out.
    """
    records, cal = [], []
    start, cpu = perf_counter(), process_time()
    next_cal = start
    while len(records) < census or perf_counter() - start < seconds:
        if perf_counter() >= next_cal:
            cal.append(calibrate())
            next_cal = perf_counter() + CALIBRATE_EVERY_S
        records.append(timed_call(op, inputs, len(records) % len(inputs)))
    wall = perf_counter() - start - sum(cal)
    return records, wall, process_time() - cpu, cal


def paired_loop(op, inputs, seconds, census, tracer):
    """Each op twice, untraced and traced, alternating which goes first,
    until `seconds` are used up and at least `census` pairs have run.

    Pairing the same input and alternating the order cancels warm-up and
    drift, so the ratio of the two sums is the tracing overhead.
    """
    plain, traced = [], []
    start = perf_counter()
    while len(plain) < census or perf_counter() - start < seconds:
        k = len(plain) % len(inputs)
        for with_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(timed_call(op, inputs, k))
                continue
            tracer.install()
            try:
                traced.append(timed_call(op, inputs, k))
            finally:
                tracer.uninstall()
            tracer.end_op()
    return plain, traced


def judge(wl, cases, records):
    """Outcome per record: None when the op passed, else the failure label."""
    outcomes = []
    wrong_outside_defects = 0
    verdicts = {}  # a repeated input with the same answer is checked once
    for k, _, out, err in records:
        if err is not None:
            outcomes.append(err)
            continue
        if (k, out) not in verdicts:
            verdicts[(k, out)] = wl.check(cases[k], out)
        reason = verdicts[(k, out)]
        if reason is None:
            outcomes.append(None)
        else:
            outcomes.append(f"WrongAnswer[{reason}]")
            wrong_outside_defects += not wl.known_defect(cases[k], reason)
    return outcomes, wrong_outside_defects


def rank_stat(durations, outcomes, pct):
    """Nearest-rank percentile; a failed op ranks above every passed one (inf)."""
    ranked = sorted(d if o is None else math.inf for d, o in zip(durations, outcomes))
    return ranked[max(0, math.ceil(pct / 100.0 * len(ranked)) - 1)]


def tail(durations, outcomes):
    """(percentile, value, ops beyond) for the highest ladder rung with >= 10 beyond."""
    n = len(durations)
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= 10:
            return pct, rank_stat(durations, outcomes, pct), beyond
    return None, None, 0


def population_summary(wl, cases, records):
    degrees = Counter()
    kinds = Counter()
    for k, *_ in records:
        degree, kind = wl.describe(cases[k])
        degrees[degree] += 1
        kinds[kind] += 1
    n = max(len(records), 1)
    return {
        "pool_size": len(cases),
        "distinct_inputs": len({k for k, *_ in records}),
        "degree_histogram": {str(d): degrees[d] for d in sorted(degrees)},
        "kind_share": {kind: kinds[kind] / n for kind in sorted(kinds)},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pool", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--census", type=int, default=1)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import intervalhinf.cli  # (timed: the set-up a CLI user pays)
    import_s = perf_counter() - t0
    if not Path(intervalhinf.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {intervalhinf.cli.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 2

    import workloads  # imports numpy and the rest of the package, already loaded

    with open(args.pool, "rb") as fh:  # written by run.py in this checkout
        cases = pickle.load(fh)
    wl = workloads.WORKLOADS[args.workload](cases, args.seed)
    t0 = perf_counter()
    inputs = wl.build()
    build_s = perf_counter() - t0
    result = {"import_s": import_s, "build_s": build_s, "setup_s": import_s + build_s}
    if args.mode == "setup":
        speed = CAL_REF_S / sorted(calibrate() for _ in range(3))[1]
        result.update(speed=speed, setup_ref_s=result["setup_s"] * speed)
        print(json.dumps(result))
        return 0

    speed = None  # the traced run reports no gated metric, so it does not calibrate
    if args.mode == "run":
        records, wall, cpu, cal = closed_loop(wl.op, inputs, args.seconds, args.census)
        speed = CAL_REF_S * len(cal) / sum(cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [records]
    else:
        import tracer as tracing

        tr = tracing.Tracer()
        start, cpu = perf_counter(), process_time()
        records, traced = paired_loop(wl.op, inputs, args.seconds,
                                      math.ceil(args.census / 2), tr)
        wall, cpu = perf_counter() - start, process_time() - cpu
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [records, traced]
        overhead = (sum(r[1] for r in traced) / sum(r[1] for r in records)) - 1.0
        layer = tr.metrics(import_s, overhead)
        result["per_layer"] = layer
        result["kernel_table"] = tr.kernel_table()
        result["missing_hooks"] = tr.missing
        result["population_trace"] = {
            "duplicate_share_norm_exact": 1.0 - layer["hinf.norm_exact.distinct_share"]
            if layer["hinf.norm_exact.calls"] else 0.0,
            "duplicate_share_bisection_rows": 1.0 - layer["hinf.bisection.distinct_row_share"]
            if layer["hinf.bisection.kernel_rows"] else 0.0,
        }

    judged = [judge(wl, cases, recs) for recs in passes]
    wrong = sum(w for _, w in judged)
    first = judged[0][0]
    # The census is the first ops of the pool (the first pairs when traced),
    # which every run completes however fast the machine is, so `attempted`
    # and `failed` depend only on the seed and the program. Ops after it
    # count in the throughput, in `failed_share` and in the failures line.
    head = args.census if args.mode == "run" else math.ceil(args.census / 2)
    census = [o for outcomes, _ in judged for o in outcomes[:head]]
    everything = [o for outcomes, _ in judged for o in outcomes]
    durations = [d for _, d, _, _ in records]
    ok = sum(o is None for o in first)
    pct, tail_value, beyond = tail(durations, first)
    p50 = rank_stat(durations, first, 50.0)
    result.update({
        "attempted": len(census),
        "failed": sum(o is not None for o in census),
        "wrong_outside_known_defects": wrong,
        "failures_by_type": dict(sorted(Counter(o for o in census if o).items())),
        "run_attempted": len(everything),
        "run_failures_by_type": dict(sorted(Counter(o for o in everything if o).items())),
        "ops": len(records),
        "wall_s": wall,
        "cpu_s": cpu,
        "ok_per_s": ok / wall,
        "speed": speed,
        "ok_per_ref_s": ok / wall / speed if speed else None,
        # None: failures fill the percentile, so the latency is unbounded
        "op_p50_s": p50 if math.isfinite(p50) else None,
        "op_tail_pct": pct,
        "op_tail_s": tail_value if pct is not None and math.isfinite(tail_value) else None,
        "op_tail_beyond": beyond,
        "failed_share": sum(o is not None for o in first) / len(first),
        "peak_rss_mb": peak_rss_mb,
        "population": population_summary(wl, cases, records),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
