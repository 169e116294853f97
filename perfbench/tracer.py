"""Span tracer that wraps mofgd's public functions from outside the package.

`install` replaces each function in FUNCTIONS with a timing wrapper in every
mofgd module that bound it by name (``solve_direction`` lives in both
``mofgd.descent`` and ``mofgd.lab``, for example), and `uninstall` puts the
originals back.  A wrapped call records a span (id, parent, name, start,
end); a layer's self time is its span minus the time its child spans cover.

Objective evaluations (the value, gradient and hessian callables of every
``ObjectiveModel`` built while the tracer is installed) run up to millions of
times per workload, so they are aggregated into calls and self time instead
of being stored as spans.  Their time still counts as child time of the
enclosing span.

A function that is missing from the package (after a refactor, say) is
skipped and its layer reports zero calls.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, layer)
FUNCTIONS = (
    ("mofgd.direction", "solve_direction", "direction.solve"),
    ("mofgd.descent", "armijo_step", "descent.armijo"),
    ("mofgd.descent", "run_single_stage", "descent.stage"),
    ("mofgd.descent", "run_adaptive", "descent.adaptive"),
    ("mofgd.fractional", "modified_fractional_gradient", "fractional.mfg"),
    ("mofgd.problems", "quadratic_effective_gradient", "problems.qeg"),
    ("mofgd.problems", "tikhonov_solve", "problems.tikhonov"),
    ("mofgd.lab", "pareto_sweep", "lab.pareto_sweep"),
    ("mofgd.lab", "nondominated_filter", "lab.nondominated_filter"),
    ("mofgd.lab", "mogd_baseline", "lab.mogd_baseline"),
    ("mofgd.lab", "comparison_table", "lab.comparison_table"),
    ("mofgd.lab", "verify_rate_theorem5", "lab.verify"),
    ("mofgd.lab", "verify_staged_theorem6", "lab.verify"),
    ("mofgd.lab", "adrs", "lab.adrs"),
)
TO_CSV = ("mofgd.descent", "IterationTrace", "to_csv", "descent.to_csv")
EVALUATIONS = (("value", "problems.value"), ("gradient", "problems.grad"),
               ("hessian", "problems.hess"))
MFG = "fractional.mfg"


class Tracer:
    """Spans, per-layer calls and times, and the counters the hooks add."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)  # outermost spans only
        self.counts: Counter = Counter()
        self.backtracks: list[int] = []
        self.missing: list[str] = []
        self._open: Counter = Counter()
        self._stack: list[list] = []  # [span id or -1, name, start, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call is a stored span; hooks see args and result."""
        clock, stack, open_ = time.perf_counter, self._stack, self._open

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                open_[name] -= 1
                parent = next((f[0] for f in reversed(stack) if f[0] >= 0), -1)
                self.spans.append((span_id, parent, name, frame[2], end))
                self._close(name, frame, end)
            if after is not None:
                after(state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        """Wrap an objective evaluation: calls and self time, no stored span."""
        clock, stack, open_, counts = time.perf_counter, self._stack, self._open, self.counts
        calls, self_s = self.calls, self.self_s
        in_mfg = name + ".in_mfg"

        def wrapper(*args, **kwargs):
            frame = [-1, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if open_[MFG]:
                    counts[in_mfg] += 1

        return wrapper

    def _close(self, name, frame, end):
        duration = end - frame[2]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[3]
        if not self._open[name]:
            self.inclusive_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration

    # -- hooks ----------------------------------------------------------------

    def _count_run(self, trace):
        self.counts["descent.runs"] += 1
        self.counts["descent.term." + str(trace.termination)] += 1

    def _hooks(self, attr, fn):
        if attr == "armijo_step":
            def after(_, result):
                self.backtracks.append(int(result[2]))
            return None, after
        if attr == "run_adaptive":
            return None, lambda _, trace: self._count_run(trace)
        if attr == "run_single_stage":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                trace, cfg = bound.get("trace"), bound.get("cfg")
                return (0 if trace is None else len(trace.records),
                        getattr(cfg, "step_mode", None))

            def after(state, trace):
                added = len(trace.records) - state[0]
                self.counts["descent.iterations"] += added
                if state[1] == "backtracking":
                    self.counts["descent.iterations_backtracking"] += added
                if not self._open["descent.adaptive"]:
                    self._count_run(trace)
            return before, after
        return None, None

    # -- installation ---------------------------------------------------------

    def _replace(self, original, wrapper, modules):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mofgd" or n.startswith("mofgd."))]
        for module_name, attr, layer in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._replace(original, self.span(layer, original, *self._hooks(attr, original)),
                          modules)

        module_name, cls_name, attr, layer = TO_CSV
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        to_csv = getattr(cls, attr, None)
        if to_csv is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
        else:
            def after(path, _):
                self.counts["descent.to_csv.bytes"] += os.path.getsize(path)
            before = lambda args, kwargs: kwargs.get("path", args[1] if len(args) > 1 else None)
            self._restore.append((cls, attr, to_csv))
            setattr(cls, attr, self.span(layer, to_csv, before, after))

        model = getattr(sys.modules.get("mofgd.problems"), "ObjectiveModel", None)
        post_init = getattr(model, "__post_init__", None)
        if post_init is None:
            self.missing.append("mofgd.problems.ObjectiveModel.__post_init__")
            return

        def traced_post_init(obj):
            for field, layer in EVALUATIONS:
                fn = getattr(obj, field, None)
                if fn is not None:
                    object.__setattr__(obj, field, self.leaf(layer, fn))
            post_init(obj)

        self._restore.append((model, "__post_init__", post_init))
        model.__post_init__ = traced_post_init

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced call, as name -> (value, unit)."""
        c, s = self.calls, self.self_s
        accepted = len(self.backtracks)
        total_bt = sum(self.backtracks)
        evals = (c["problems.value"], c["problems.grad"], c["problems.hess"])
        mfg_evals = self.counts["problems.grad.in_mfg"] + self.counts["problems.hess.in_mfg"]

        def per_call(layer, scale):
            return scale * s[layer] / c[layer] if c[layer] else 0.0

        return {
            "direction.solve.calls": (c["direction.solve"], "count"),
            "direction.solve.self_s": (s["direction.solve"], "s"),
            "direction.solve.us_per_call": (per_call("direction.solve", 1e6), "us"),
            "direction.share": (s["direction.solve"] / wall_s if wall_s > 0 else 0.0, "ratio"),
            "descent.armijo.calls": (c["descent.armijo"], "count"),
            "descent.armijo.errors": (self.errors["descent.armijo"], "count"),
            "descent.armijo.self_s": (s["descent.armijo"], "s"),
            "descent.armijo.backtracks": (total_bt, "count"),
            "descent.armijo.backtracks_p50": (
                float(statistics.median(self.backtracks)) if accepted else 0.0, "count"),
            "descent.armijo.accept_ratio": (
                accepted / (accepted + total_bt) if accepted else 0.0, "ratio"),
            "descent.iterations": (self.counts["descent.iterations"], "count"),
            "descent.runs": (self.counts["descent.runs"], "count"),
            "descent.term.tolerance": (self.counts["descent.term.tolerance"], "count"),
            "descent.term.max_iter": (self.counts["descent.term.max_iter"], "count"),
            "descent.term.error": (self.counts["descent.term.error"], "count"),
            "descent.to_csv.self_s": (s["descent.to_csv"], "s"),
            "descent.to_csv.bytes": (self.counts["descent.to_csv.bytes"], "bytes"),
            "fractional.mfg.calls": (c[MFG], "count"),
            "fractional.mfg.self_s": (s[MFG], "s"),
            "fractional.mfg.ms_per_call": (per_call(MFG, 1e3), "ms"),
            "fractional.mfg.obj_evals_per_call": (
                mfg_evals / c[MFG] if c[MFG] else 0.0, "count"),
            "problems.value_evals": (evals[0], "count"),
            "problems.grad_evals": (evals[1], "count"),
            "problems.hess_evals": (evals[2], "count"),
            "problems.eval_self_s": (
                s["problems.value"] + s["problems.grad"] + s["problems.hess"], "s"),
            "problems.qeg.calls": (c["problems.qeg"], "count"),
            "problems.qeg.self_s": (s["problems.qeg"], "s"),
            "problems.tikhonov.calls": (c["problems.tikhonov"], "count"),
            "problems.tikhonov.self_s": (s["problems.tikhonov"], "s"),
            "lab.pareto_sweep.self_s": (s["lab.pareto_sweep"], "s"),
            "lab.nondominated_filter.self_s": (s["lab.nondominated_filter"], "s"),
            "lab.mogd_baseline.s": (self.inclusive_s["lab.mogd_baseline"], "s"),
            "lab.comparison_table.self_s": (s["lab.comparison_table"], "s"),
            "lab.verify.s": (self.inclusive_s["lab.verify"], "s"),
            "lab.adrs.self_s": (s["lab.adrs"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def write_spans(self, path, origin: float) -> None:
        """Write stored spans as CSV, times in seconds from origin."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start - origin!r},{end - origin!r}\n")
