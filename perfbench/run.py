"""Benchmark of the intervalhinf package; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's population from the seed, times set-up in fresh
processes, runs the workload in one more process (one thread, closed loop
with one caller), checks every result, prints each metric with its unit
and, as the last line, one JSON object. The gated times are scaled to
the speed of a reference machine with a calibration kernel timed next to
them; the measured values are printed beside them. With --trace 1 the
metrics are the per-layer ones from a traced run; end-to-end numbers come
only from --trace 0. perfbench/NOTES.md describes the workloads and
metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads; every worker inherits them
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("analyze-families", "norm-spread", "zero-exclusion")
SETUP_PROBES = 7          # fresh set-up processes per run, after one warm-up
RUN_LIMIT_S = 170.0        # the whole run, so it always ends within 180 s
SHIPPED = ("point_plant", "widened_family", "unstable_family")

# Pools hold more ops than a run completes today, so no input repeats
# within a run. A faster program walks the pool again; `distinct_inputs`
# in the population line then drops below `ops`.
POOL_PER_SECOND = {"analyze-families": 0.8, "norm-spread": 150.0, "zero-exclusion": 8.0}

# Census ops per second of --seconds: the first ops of the pool, which a
# run completes even when the machine is slow (it then runs past --seconds),
# and over which `attempted` and `failed` are counted, so both depend only
# on the seed and the program. About half of what a run completes today.
CENSUS_PER_SECOND = {"analyze-families": 0.2, "norm-spread": 40.0, "zero-exclusion": 1.5}

# Printed but not gated in BENCHMARK.json: op_p50_s and op_tail_s are
# unbounded where failures fill them and spread too widely across seeds;
# failed_share is 0 on analyze-families.
REPORTED_ONLY = {"op_p50_s": "s", "op_tail_s": "s", "failed_share": "share"}


def shipped_entries(pop) -> list:
    """The shipped problem files, parsed here independently, with their goldens."""
    import yaml

    out = []
    for name in SHIPPED:
        path = ROOT / "problems" / f"{name}.yaml"
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        num = [tuple(map(float, pair)) for pair in doc["numerator"]]
        den = [tuple(map(float, pair)) for pair in doc["denominator"]]
        fam = pop.Family(tuple(a for a, _ in num), tuple(b for _, b in num),
                         tuple(a for a, _ in den), tuple(b for _, b in den))
        golden = (ROOT / "tests" / "golden" / f"{name}.analyze.txt").read_text(encoding="utf-8")
        out.append(pop.ProblemEntry(name, str(path), fam, golden))
    return out


def make_pool(workload: str, seed: int, seconds: float, work: Path) -> list:
    import population as pop

    count = max(4, int(POOL_PER_SECOND[workload] * seconds) + 1)
    if workload == "norm-spread":
        return pop.norm_cases(seed, count)
    if workload == "zero-exclusion":
        return pop.sweep_cases(seed, count)
    entries = shipped_entries(pop)
    for i, fam in enumerate(pop.analyze_families(seed, count)):
        path = work / f"family_{i:03d}.yaml"
        path.write_text(pop.family_yaml(fam, seed, oracle_samples=500), encoding="utf-8")
        entries.append(pop.ProblemEntry(path.stem, str(path), fam))
    return entries


def machine_info(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    # a checkout without .git must not report the commit of a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def worker(deadline: float, *args: str) -> dict:
    """Run worker.py to completion, killing it at `deadline`; return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    pool = work / "pool.pkl"
    with open(pool, "wb") as fh:
        pickle.dump(make_pool(workload, seed, seconds, work), fh)
    common = (deadline, "--workload", workload, "--seed", str(seed), "--pool", str(pool))
    census = str(math.ceil(CENSUS_PER_SECOND[workload] * seconds))
    worker(*common, "--mode", "setup")  # warm-up: bytecode caches, page cache
    # probes before and after the workload see different moments of a shared machine
    probes = [worker(*common, "--mode", "setup") for _ in range(SETUP_PROBES // 2)]
    res = worker(*common, "--mode", "trace" if trace else "run", "--seconds", str(seconds),
                 "--census", census)
    probes += [worker(*common, "--mode", "setup") for _ in range(SETUP_PROBES - len(probes))]
    res["setup_probes_s"] = [p["setup_s"] for p in probes]
    res["setup_measured_s"] = statistics.median(res["setup_probes_s"])
    res["setup_ref_s"] = statistics.median(p["setup_ref_s"] for p in probes)
    res["setup_speed"] = statistics.median(p["speed"] for p in probes)
    res["setup_import_s"] = statistics.median(p["import_s"] for p in probes)
    return res


def report(args, res: dict, machine: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    population = dict(res["population"], **res.get("population_trace", {}))
    print("# population " + json.dumps(population, sort_keys=True))
    print(f"# ops {res['ops']} in {res['wall_s']:.3f} s wall, {res['cpu_s']:.3f} s cpu; "
          f"all {res['run_attempted']} executions, failures by type "
          + json.dumps(res["run_failures_by_type"]))
    print(f"# census: attempted {res['attempted']}, failed {res['failed']}, by type "
          + json.dumps(res["failures_by_type"]))
    print(f"# setup probes (s) {json.dumps(res['setup_probes_s'])}; "
          f"median import {res['setup_import_s']:.4f} s")
    speeds = f"setup probes {res['setup_speed']:.3f}"
    if res["speed"] is not None:
        speeds += f", workload {res['speed']:.3f}"
    print(f"# machine speed against the reference (calibration kernel): {speeds}")
    if args.trace:
        import tracer

        for row in res["kernel_table"]:
            print("# roots_batch degree {degree:2d} batch {batch:4d}: {calls} calls, "
                  "{rows} rows, {seconds:.4f} s, {rows_per_s:.1f} rows/s".format(**row))
        if res["missing_hooks"]:
            print("# hooks not found (their metrics read 0): " + ", ".join(res["missing_hooks"]))
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in tracer.METRICS.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": res["setup_ref_s"], "unit": "s"},
            "ok_per_s": {"value": res["ok_per_ref_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s = {res['setup_ref_s']:.6g} s at reference speed "
              f"(measured {res['setup_measured_s']:.6g} s)")
        print(f"ok_per_s = {res['ok_per_ref_s']:.6g} 1/s at reference speed "
              f"(measured {res['ok_per_s']:.6g} 1/s)")
        print(f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB")
        p50 = ("unbounded (failures fill the median)" if res["op_p50_s"] is None
               else f"{res['op_p50_s']:.6g} s")
        print(f"op_p50_s = {p50}; {res['ops']} ops")
        if res["op_tail_pct"] is None:
            tail = "none (fewer than 20 ops)"
        elif res["op_tail_s"] is None:
            tail = f"unbounded at p{res['op_tail_pct']:g} (failures fill the tail)"
        else:
            tail = f"{res['op_tail_s']:.6g} s at p{res['op_tail_pct']:g}"
        print(f"op_tail_s = {tail}; {res['op_tail_beyond']} of {res['ops']} ops beyond it")
        print(f"failed_share = {res['failed_share']:.6g} share")
    return {
        "correct": res["wrong_outside_known_defects"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    needed = [ROOT / "src" / "intervalhinf" / "__init__.py"]
    needed += [ROOT / "problems" / f"{n}.yaml" for n in SHIPPED]
    needed += [ROOT / "tests" / "golden" / f"{n}.analyze.txt" for n in SHIPPED]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: not a checkout of the package; missing " + ", ".join(missing),
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running worker is killed and
    # reaped and the scratch inputs are removed
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(report(args, res, machine_info(args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
