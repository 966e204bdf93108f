"""Fast self-test of the benchmark harness (about a minute on two cores).

    python3 perfbench/selftest.py

1. Runs every workload for one second, untraced and traced, and checks
   that the last line carries exactly the metric names BENCHMARK.json
   lists and that the reported-only metrics are printed too; runs
   norm-spread once more and checks that `attempted` and `failed` repeat.
2. Checks that each output check rejects a corrupted answer: a lowered
   norm, a flipped sweep verdict and one changed byte of a golden render.
3. Checks that the benchmark's own Kharitonov vertices, used by every
   reference, agree with the package's.
4. Checks that a directory holding only BENCHMARK.json and perfbench/
   makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import population as pop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from intervalhinf.interval import IntervalPolynomial, kharitonov_vertices  # noqa: E402

failures: list[str] = []

# per-layer metrics that must read above 0 on each workload's traced run
WORKING_LAYERS = {
    "analyze-families": ["cli.load_problem_s", "cli.render_s", "theorem.gate.calls",
                         "theorem.oracle.norms", "hinf.norm_exact.calls",
                         "hinf.bisection.kernel_rows", "stability.roots.b1.calls",
                         "stability.roots.batch.rows", "stability.routh.calls",
                         "valueset.rows_s", "interval.kharitonov.calls",
                         "interval.sample_many_s", "poly.magnitude_squared.calls"],
    "norm-spread": ["hinf.norm_exact.calls", "stability.roots.b1.calls",
                    "stability.routh.calls", "poly.magnitude_squared.calls", "poly.eval.calls"],
    "zero-exclusion": ["valueset.sweep.polygons", "valueset.sweep.self_s",
                       "stability.roots.b1.calls", "interval.kharitonov.calls",
                       "poly.eval.calls"],
}


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def metric_names() -> None:
    census = {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "42", "--seconds", "1",
                         "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(last["correct"] is True and last["attempted"] >= 1, f"{label}: correct run")
            census[label] = (last["attempted"], last["failed"])
            expect(sorted(last["metrics"]) == sorted(wanted[trace]),
                   f"{label}: emits exactly the BENCHMARK.json metrics")
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            names = set(wanted[trace]) | (set(run.REPORTED_ONLY) if trace == 0 else set())
            expect(names <= printed, f"{label}: prints every metric by name and unit")
            if trace:
                idle = [n for n in WORKING_LAYERS[workload] if not last["metrics"][n]["value"] > 0]
                expect(not idle, f"{label}: the layers it exercises record work {idle or ''}")
    proc = bench("--workload", "norm-spread", "--seed", "42", "--seconds", "1", "--trace", "0")
    again = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    expect((again.get("attempted"), again.get("failed")) == census.get("norm-spread --trace 0"),
           "a second run of the same seed has the same attempted and failed")


def corrupted_answers() -> None:
    cases = pop.norm_cases(7, 2)
    wl = workloads.NormSpread(cases, 7)
    value = wl.op(wl.build()[0])
    expect(wl.check(cases[0], value) is None, "norm check accepts the exact norm")
    expect(wl.check(cases[0], value * 0.99) is not None, "norm check rejects a lowered norm")

    sweeps = [c for c in pop.sweep_cases(7, 10) if pop.twelve_hurwitz(c)]
    wl = workloads.ZeroExclusion(sweeps[:1], 7)
    verdict = wl.op(wl.build()[0])
    expect(wl.check(sweeps[0], verdict) is None, "sweep check accepts the sweep verdict")
    expect(wl.check(sweeps[0], not verdict) is not None,
           "sweep check rejects a flipped sweep verdict")

    entry = next(e for e in run.shipped_entries(pop) if e.name == "widened_family")
    wl = workloads.AnalyzeFamilies([entry], workloads.GOLDEN_SEED)
    out = wl.op(entry)
    expect(wl.check(entry, out) is None, "analyze check accepts the golden render")
    text = out.text.replace("1.69089148", "1.69089149", 1)
    expect(text != out.text and wl.check(entry, replace(out, text=text)) == "golden-render",
           "analyze check rejects one changed byte in a golden render")


def kharitonov_agrees() -> None:
    rng = np.random.default_rng(11)
    for degree in range(0, 8):
        lo = rng.normal(size=degree + 1)
        hi = lo + rng.uniform(0.0, 1.0, degree + 1)
        ours = pop.kharitonov(lo, hi)
        ks = kharitonov_vertices(IntervalPolynomial(lo, hi)).all_vertices()
        expect(all(np.array_equal(a, np.asarray(p.coeffs)) for a, p in zip(ours, ks)),
               f"Kharitonov vertices agree with the package at degree {degree}")


def fails_without_package() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "norm-spread", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "fails without a result when only the benchmark is present")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    kharitonov_agrees()
    corrupted_answers()
    fails_without_package()
    metric_names()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
