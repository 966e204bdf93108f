"""Spans around calls into each layer of the package, from the outside.

`Tracer.install` replaces public functions with timing wrappers in the
modules whose code looks them up (for example `theorem.hinf_norm_exact`
and `stability.roots_batch`), and `uninstall` puts the originals back.
Nothing under the package changes. A name a later version of the package
no longer has is skipped, so the tracer never breaks the run; the metrics
it fed then read zero.

Each span records its name, start, end, parent and the exception type it
raised, if any. Spans stay in memory until `end_op`, which folds them into
per-run totals; a span's self time is its duration minus that of its
direct children. Every metric is reported per op.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PKG = "intervalhinf"

# span name -> the module attributes it wraps (module, attribute)
SPANS = {
    "cli.load_problem": [("cli", "load_problem")],
    "cli.render": [("cli", "render_report"), ("cli", "report_to_dict")],
    "theorem.gate": [("theorem", "closed_loop_family_stable")],
    "theorem.twelve": [("theorem", "max_sensitivity_twelve")],
    "theorem.sixteen": [("theorem", "max_sensitivity_sixteen")],
    "theorem.oracle": [("theorem", "monte_carlo_oracle")],
    "hinf.bisection": [("theorem", "family_norm_bisection")],
    "hinf.norm_exact": [("theorem", "hinf_norm_exact"), ("hinf", "hinf_norm_exact")],
    "hinf.theta_kernel": [("hinf", "max_real_parts_batch")],
    "valueset.rows": [("hinf", "perturbed_vertex_rows")],
    "valueset.sweep": [("valueset", "zero_exclusion_sweep")],
    "stability.roots": [("stability", "roots_batch")],
    "stability.routh": [("hinf", "is_hurwitz_real"), ("theorem", "is_hurwitz_real")],
    "interval.kharitonov": [("theorem", "kharitonov_vertices"),
                            ("valueset", "kharitonov_vertices"),
                            ("interval", "kharitonov_vertices"),
                            ("cli", "kharitonov_vertices")],
    "interval.sample_many": [("theorem", "sample_many")],
    "poly.magnitude_squared": [("hinf", "magnitude_squared")],
    "poly.eval": [("hinf", "eval_at_jomega"), ("hinf", "eval_many"),
                  ("valueset", "eval_many")],
}

HIGH_DEGREE = 8  # stability.roots.*.lo is degree <= 8, .hi above


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _norm_key(args, kwargs, _result):
    """Bytes of the num/den coefficients, to count distinct norms per op."""
    rf = _first(args, kwargs)
    try:
        return (np.asarray(rf.num.coeffs, dtype=float).tobytes()
                + b"|" + np.asarray(rf.den.coeffs, dtype=float).tobytes())
    except (AttributeError, TypeError, ValueError):
        return id(rf)


def _shape(args, kwargs, _result):
    return np.shape(_first(args, kwargs))


def _rows(args, kwargs, _result):
    return _first(args, kwargs)


def _skipped(_args, _kwargs, result):
    return getattr(result, "skipped", 0)


CAPTURE = {
    "hinf.norm_exact": _norm_key,
    "stability.roots": _shape,
    "hinf.theta_kernel": _rows,
    "theorem.oracle": _skipped,
}

# every per-layer metric the traced run reports, with its unit
METRICS = {
    "cli.import_s": "s",
    "cli.load_problem_s": "s/op",
    "cli.render_s": "s/op",
    "theorem.gate.calls": "calls/op",
    "theorem.gate_s": "s/op",
    "theorem.twelve_s": "s/op",
    "theorem.sixteen_s": "s/op",
    "theorem.oracle_s": "s/op",
    "theorem.oracle.norms": "calls/op",
    "theorem.oracle.skipped": "samples/op",
    "hinf.norm_exact.calls": "calls/op",
    "hinf.norm_exact.self_s": "s/op",
    "hinf.norm_exact.distinct_share": "share",
    "hinf.norm_exact.failed": "calls/op",
    "hinf.bisection_s": "s/op",
    "hinf.bisection.kernel_rows": "rows/op",
    "hinf.bisection.distinct_row_share": "share",
    "stability.roots.b1.calls": "calls/op",
    "stability.roots.b1.self_s": "s/op",
    "stability.roots.b1.lo.rows_per_s": "rows/s",
    "stability.roots.b1.hi.rows_per_s": "rows/s",
    "stability.roots.batch.calls": "calls/op",
    "stability.roots.batch.rows": "rows/op",
    "stability.roots.batch.self_s": "s/op",
    "stability.roots.batch.lo.rows_per_s": "rows/s",
    "stability.roots.batch.hi.rows_per_s": "rows/s",
    "stability.roots.failed": "calls/op",
    "stability.routh.calls": "calls/op",
    "stability.routh.self_s": "s/op",
    "valueset.sweep.polygons": "polygons/op",
    "valueset.sweep.self_s": "s/op",
    "valueset.sweep.polygons_per_s": "polygons/s",
    "valueset.sweep.failed": "calls/op",
    "valueset.rows_s": "s/op",
    "interval.kharitonov.calls": "calls/op",
    "interval.kharitonov.self_s": "s/op",
    "interval.sample_many_s": "s/op",
    "poly.magnitude_squared.calls": "calls/op",
    "poly.magnitude_squared.self_s": "s/op",
    "poly.eval.calls": "calls/op",
    "poly.eval.self_s": "s/op",
    "trace.overhead_share": "share",
}


def _distinct_rows(arrays) -> int:
    seen = set()
    for rows in arrays:
        rows = np.ascontiguousarray(rows)
        if rows.ndim != 2 or rows.shape[0] == 0:
            continue
        seen.update(rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
                    .ravel().tolist())
    return len(seen)


class Tracer:
    """Records spans while installed; aggregates them per op."""

    def __init__(self):
        self._spans: list = []       # (name, start, end, parent, error, captured)
        self._stack: list[int] = []
        self._polygons = 0
        self._saved: list = []
        self.ops = 0
        self.totals: Counter = Counter()
        self.kernel = defaultdict(lambda: [0, 0, 0.0])  # (degree, batch) -> calls, rows, s
        self.missing: list[str] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, name, fn):
        capture = CAPTURE.get(name)
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, error,
                              capture(args, kwargs, result) if capture else None)

        return traced

    def _count_polygons(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._polygons += 1
                yield item

        return counted

    def install(self) -> None:
        targets = [(span, mod, attr) for span, sites in SPANS.items() for mod, attr in sites]
        targets.append((None, "valueset", "sweep_octagons"))
        for span, mod, attr in targets:
            module = importlib.import_module(f"{PKG}.{mod}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._count_polygons(fn) if span is None
                    else self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # --------------------------------------------------------- aggregation
    def end_op(self) -> None:
        """Fold the spans of the op that just finished into the run totals."""
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def under(idx: int, ancestor: str) -> bool:
            p = spans[idx][3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    return True
                p = spans[p][3]
            return False

        t = self.totals
        norm_keys = set()
        kernel_rows = []
        for idx, (name, start, end, parent, error, cap) in enumerate(spans):
            dur = end - start
            self_s = dur - child[idx]
            if name == "hinf.norm_exact":
                t["hinf.norm_exact.calls"] += 1
                t["hinf.norm_exact.self_s"] += self_s
                t["hinf.norm_exact.failed"] += error is not None
                if cap is not None:
                    norm_keys.add(cap)
                if under(idx, "theorem.oracle"):
                    t["theorem.oracle.norms"] += 1
            elif name == "stability.roots":
                t["stability.roots.failed"] += error is not None
                rows, width = cap if cap and len(cap) == 2 else (1, 1)
                cls = "b1" if rows == 1 else "batch"
                band = "lo" if width - 1 <= HIGH_DEGREE else "hi"
                t[f"stability.roots.{cls}.calls"] += 1
                t[f"stability.roots.{cls}.rows"] += rows
                t[f"stability.roots.{cls}.self_s"] += self_s
                t[f"stability.roots.{cls}.{band}.rows"] += rows
                t[f"stability.roots.{cls}.{band}.s"] += self_s
                cell = self.kernel[(width - 1, rows)]
                cell[0] += 1
                cell[1] += rows
                cell[2] += self_s
            elif name == "hinf.theta_kernel":
                if under(idx, "hinf.bisection") and np.ndim(cap) == 2:
                    t["hinf.bisection.kernel_rows"] += len(cap)
                    kernel_rows.append(cap)
            elif name == "theorem.gate":
                t["theorem.gate.calls"] += 1
                t["theorem.gate_s"] += dur
            elif name == "theorem.oracle":
                t["theorem.oracle_s"] += dur
                t["theorem.oracle.skipped"] += cap or 0
            elif name == "valueset.sweep":
                t["valueset.sweep.s"] += dur
                t["valueset.sweep.self_s"] += self_s
                t["valueset.sweep.failed"] += error is not None
            elif name in ("stability.routh", "interval.kharitonov",
                          "poly.magnitude_squared", "poly.eval"):
                t[f"{name}.calls"] += 1
                t[f"{name}.self_s"] += self_s
            else:  # stages reported by inclusive time
                t[f"{name}_s"] += dur
        t["hinf.norm_exact.distinct"] += len(norm_keys)
        t["hinf.bisection.distinct_rows"] += _distinct_rows(kernel_rows)
        t["valueset.sweep.polygons"] += self._polygons
        self._polygons = 0
        spans.clear()
        self.ops += 1

    def metrics(self, import_s: float, overhead_share: float) -> dict:
        """Every name in METRICS, per op; rates and shares are ratios of totals."""
        t, ops = self.totals, max(self.ops, 1)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {name: t[name] / ops for name in METRICS}
        out["cli.import_s"] = import_s
        out["trace.overhead_share"] = overhead_share
        out["hinf.norm_exact.distinct_share"] = ratio(t["hinf.norm_exact.distinct"],
                                                      t["hinf.norm_exact.calls"])
        out["hinf.bisection.distinct_row_share"] = ratio(t["hinf.bisection.distinct_rows"],
                                                         t["hinf.bisection.kernel_rows"])
        for cls in ("b1", "batch"):
            for band in ("lo", "hi"):
                out[f"stability.roots.{cls}.{band}.rows_per_s"] = ratio(
                    t[f"stability.roots.{cls}.{band}.rows"], t[f"stability.roots.{cls}.{band}.s"])
        out["valueset.sweep.polygons_per_s"] = ratio(t["valueset.sweep.polygons"],
                                                     t["valueset.sweep.s"])
        return out

    def kernel_table(self) -> list[dict]:
        """roots_batch throughput by polynomial degree and batch size."""
        return [{"degree": d, "batch": b, "calls": c, "rows": r, "seconds": s,
                 "rows_per_s": r / s if s else 0.0}
                for (d, b), (c, r, s) in sorted(self.kernel.items())]
