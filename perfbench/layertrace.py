"""Per-layer spans and counters, recorded from outside `vpart`.

`Tracer.install` wraps public functions and methods of `vpart` by rebinding
each name in every `vpart` module that holds it, so calls across modules are
seen too; `uninstall` puts the originals back.  Functions called once per
lattice point (vector construction, `StepMatrix.apply`, `evaluate_weight`,
`iter_orthant`) only count, because a span per call would cost more than the
call.  Spans are kept in memory as (name, start, end, parent, job) and
reduced to per-layer self times after each traced pass.
"""

from __future__ import annotations

import time
from collections import Counter

# span name -> public function name; each is looked up in every vpart module
SPANNED_FUNCTIONS = {
    "cli.main": "main",
    "cli.parse": "parse_problem",
    "cli.load": "_load_document",
    "cone.certify": "certify_pointed",
    "cone.contains": "cone_contains",
    "enumeration.enumerate": "enumerate_solutions",
    "enumeration.vector_partition": "vector_partition",
    "enumeration.generalized_vp": "generalized_vp",
    "enumeration.table": "generalized_vp_table",
    "enumeration.span": "integer_span_contains",
    "series.substitute": "substitute_monomial",
    "series.inverse": "geometric_inverse",
    "series.weight_series": "weight_series",
    "identities.thm1": "verify_summation_identity",
    "identities.prop1": "verify_partition_recurrence",
    "identities.prop2": "verify_path_series",
    "identities.prop3": "verify_cb_vector_partition",
    "identities.cb": "verify_cb_multidim",
    "identities.cb1d": "verify_cb_1d",
    "identities.rec": "verify_basic_recurrence",
    "identities.partition_series": "partition_series",
}

# per-layer time metric -> span names whose self time it sums
SELF_TIMES = {
    "cli.parse_s": ("cli.parse", "cli.load"),
    "cli.self_s": ("cli.main",),
    "cone.contains_s": ("cone.contains",),
    "cone.certify_s": ("cone.certify",),
    "enumeration.enumerate_s": ("enumeration.enumerate",),
    "enumeration.table_s": ("enumeration.table",),
    "enumeration.span_s": ("enumeration.span",),
    "series.mul_s": ("series.mul",),
    "series.inverse_s": ("series.inverse",),
    "series.substitute_s": ("series.substitute",),
    "series.weight_series_s": ("series.weight_series",),
    "series.terms_s": ("series.terms",),
    "identities.thm1_s": ("identities.thm1",),
    "identities.prop1_s": ("identities.prop1",),
    "identities.prop2_s": ("identities.prop2",),
    "identities.prop3_s": ("identities.prop3",),
    "identities.cb_s": ("identities.cb", "identities.cb1d"),
    "identities.rec_s": ("identities.rec",),
    "identities.partition_series_s": ("identities.partition_series",),
}

# per-layer count metric -> span whose calls it counts
CALL_COUNTS = {
    "enumeration.enumerate_calls": ("enumeration.enumerate",),
    "enumeration.vp_calls": ("enumeration.vector_partition", "enumeration.generalized_vp"),
    "enumeration.span_calls": ("enumeration.span",),
    "cone.contains_calls": ("cone.contains",),
    "cone.certify_calls": ("cone.certify",),
    "series.mul_calls": ("series.mul",),
}

# counters filled by result hooks and count-only wrappers
TALLIES = (
    "core.vectors",
    "core.apply_calls",
    "core.weight_evals",
    "core.orthant_points",
    "enumeration.solutions",
    "enumeration.scan_box_points",
    "enumeration.table_entries",
    "cone.contains_hits",
    "series.mul_pairs",
    "series.mul_terms_out",
    "series.terms_out",
)


class Tracer:
    def __init__(self, vpart_modules):
        self.modules = list(vpart_modules)
        self.spans: list = []
        self.stack: list[int] = []
        self.tally: Counter = Counter()
        self.job = -1
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    result = hook(args, result)
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, self.job)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn):
        tally = self.tally

        def counted(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, original, replacement) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _find(self, name):
        for module in self.modules:
            value = vars(module).get(name)
            if value is not None and getattr(value, "__module__", "").startswith("vpart"):
                return value
        return None

    def install(self) -> None:
        hooks = {
            "enumeration.enumerate": self._on_solutions,
            "enumeration.table": self._on_table,
            "cone.contains": self._on_contains,
        }
        for span, name in SPANNED_FUNCTIONS.items():
            fn = self._find(name)
            if fn is not None:
                self._rebind(fn, self._span(span, fn, hooks.get(span)))

        series_cls = self._find("TruncatedSeries")
        if series_cls is not None:
            self._patch_method(series_cls, "__mul__",
                               self._span_mul(series_cls, series_cls.__dict__["__mul__"]))
            self._patch_method(series_cls, "terms",
                               self._span("series.terms", series_cls.__dict__["terms"], self._on_terms))

        vector_cls = self._find("LatticeVector")
        if vector_cls is not None:
            self._patch_method(vector_cls, "__init__",
                               self._counted("core.vectors", vector_cls.__dict__["__init__"]))
        matrix_cls = self._find("StepMatrix")
        if matrix_cls is not None:
            self._patch_method(matrix_cls, "apply",
                               self._counted("core.apply_calls", matrix_cls.__dict__["apply"]))
        evaluate = self._find("evaluate_weight")
        if evaluate is not None:
            self._rebind(evaluate, self._counted("core.weight_evals", evaluate))
        orthant = self._find("iter_orthant")
        if orthant is not None:
            self._rebind(orthant, self._counted_iter(orthant))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span_mul(self, series_cls, mul):
        traced = self._span("series.mul", mul, self._on_mul)
        tally = self.tally

        def dispatch(left, right):
            if isinstance(right, series_cls):
                tally["series.mul_pairs"] += len(left._coeffs) * len(right._coeffs)
                return traced(left, right)
            return mul(left, right)

        return dispatch

    def _counted_iter(self, fn):
        tally = self.tally

        def counted(*args, **kwargs):
            for point in fn(*args, **kwargs):
                tally["core.orthant_points"] += 1
                yield point

        counted.__wrapped__ = fn
        return counted

    # -------------------------------------------------------------- hooks

    def _on_solutions(self, args, result):
        self.tally["enumeration.solutions"] += len(result)
        return result

    def _on_table(self, args, result):
        A, bound = args[0], args[3]
        box = 1
        for i in range(A.dim):
            box *= 2 * bound * max(abs(col.coords[i]) for col in A.columns) + 1
        self.tally["enumeration.scan_box_points"] += box
        self.tally["enumeration.table_entries"] += len(result)
        return result

    def _on_contains(self, args, result):
        if result:
            self.tally["cone.contains_hits"] += 1
        return result

    def _on_mul(self, args, result):
        self.tally["series.mul_terms_out"] += len(result._coeffs)
        return result

    def _on_terms(self, args, result):
        # materialise the graded sort inside the span; callers only iterate
        terms = list(result)
        self.tally["series.terms_out"] += len(terms)
        return iter(terms)

    # ------------------------------------------------------------ reduction

    def set_job(self, job: int) -> None:
        self.job = job

    def reset(self) -> None:
        self.spans.clear()
        self.tally.clear()

    def metrics(self) -> dict:
        """Self times, call counts and tallies of the spans recorded since reset."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_time[name] += end - start - covered
            calls[name] += 1
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls[n] for n in names)
        for key in TALLIES:
            out[key] = self.tally[key]
        return out
