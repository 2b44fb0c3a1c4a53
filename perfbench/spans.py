"""Span tracing of matcomplete's layers, recorded from outside the package.

The solver modules bind their callees at import time (``from .svd import
truncated_svd``), so a span around a layer is installed by rebinding that
name in each calling module; the operator's ``matvec`` and ``rmatvec`` are
wrapped on the class.  Spans stay in memory, each with its parent's id, and
are written out once the benchmark is done.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from matcomplete import SpLrOperator, operators, shrinkage, solvers


# per-layer metric -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "factored.project.calls": "count",
    "factored.project_s": "s",
    "factored.project.entries": "count",
    "factored.project.bytes_computed": "B",
    "factored.project.diag_calls": "count",
    "factored.project.share": "fraction",
    "operators.assemble.calls": "count",
    "operators.assemble_s": "s",
    "operators.matvec.calls": "count",
    "operators.matvec_s": "s",
    "operators.rmatvec.calls": "count",
    "operators.rmatvec_s": "s",
    "svd.calls": "count",
    "svd.s": "s",
    "svd.self_s": "s",
    "svd.k_mean": "count",
    "svd.lanczos_steps": "count",
    "svd.steps_per_call": "count",
    "svd.useful_ratio": "fraction",
    "svd.share": "fraction",
    "factored.combine.calls": "count",
    "factored.combine_s": "s",
    "factored.distance.calls": "count",
    "factored.distance_s": "s",
    "solvers.iterations": "count",
    "solvers.phase1_iterations": "count",
    "solvers.phase2_iterations": "count",
    "solvers.objective.calls": "count",
    "solvers.objective_s": "s",
    "solvers.self_s": "s",
    "trace.solve_s": "s",
    "trace.base_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
}


# The root span of a solve starts after, and ends before, the solve's own
# wall clock; the gap is the root wrapper's work and a list slice.
SELF_SUM_SLACK_S = 5e-3


class Span:
    __slots__ = ("id", "parent", "solve", "name", "t0", "t1", "k", "entries")

    def __init__(self, id, parent, solve, name):
        self.id, self.parent, self.solve, self.name = id, parent, solve, name
        self.t0 = self.t1 = math.nan
        self.k = self.entries = 0


def _note_projection(span, args, kwargs):
    # project_omega(f, obs): k factor columns gathered at every observed entry
    f = args[0] if args else kwargs["f"]
    obs = args[1] if len(args) > 1 else kwargs["obs"]
    span.k, span.entries = f.k, obs.nnz


def _note_svd(span, args, kwargs):
    # truncated_svd(op, k, ...): k triplets requested
    span.k = args[1] if len(args) > 1 else kwargs["k"]


_NOTES = {"factored.project": _note_projection, "svd": _note_svd}

# (module, name the module calls, span name); a callee keeps one span name
# whichever module calls it.
_REBINDS = (
    (solvers, "objective", "solvers.objective"),
    (solvers, "truncated_svd", "svd"),
    (solvers, "assemble_iterate_operator", "operators.assemble"),
    (solvers, "project_omega", "factored.project"),
    (solvers, "combine", "factored.combine"),
    (solvers, "frobenius_distance", "factored.distance"),
    (shrinkage, "truncated_svd", "svd"),
    (shrinkage, "assemble_iterate_operator", "operators.assemble"),
    (shrinkage, "frobenius_distance", "factored.distance"),
    (operators, "project_omega", "factored.project"),
    (SpLrOperator, "matvec", "operators.matvec"),
    (SpLrOperator, "rmatvec", "operators.rmatvec"),
)


class Tracer:
    """Records nested spans around the rebound layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._solve = 0

    def wrap(self, name, fn):
        spans, open_, note = self.spans, self._open, _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), open_[-1] if open_ else -1, self._solve, name)
            if note is not None:
                note(span, args, kwargs)
            spans.append(span)
            open_.append(span.id)
            span.t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced layer function; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in _REBINDS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def solve(self, name, fn, *args):
        """Run ``fn(*args)`` as the root span of a new solve.

        Returns the result and the solve's spans, root first.  An exception
        from ``fn`` propagates; the spans recorded so far are kept.
        """
        self._solve += 1
        first = len(self.spans)
        result = self.wrap(name, fn)(*args)
        return result, self.spans[first:]

    def write_csv(self, path) -> None:
        origin = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w", encoding="ascii", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("id", "parent", "solve", "name", "start_s", "end_s", "k", "entries"))
            for s in self.spans:
                out.writerow((s.id, s.parent, s.solve, s.name, repr(s.t0 - origin),
                              repr(s.t1 - origin), s.k, s.entries))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.t1 - s.t0
    return {s.id: (s.t1 - s.t0) - child[s.id] for s in spans}


def check_tree(spans, wall_s: float) -> list[str]:
    """Inconsistencies in one solve's span tree; empty when there are none.

    ``wall_s`` is the solve's wall time measured outside the tracer.  The
    first span is the only root, every child lies inside its parent, siblings
    do not overlap, and the self times of all spans sum to ``wall_s``, less
    at most ``SELF_SUM_SLACK_S`` for the root span's own wrapper.
    """
    problems = []
    by_id = {s.id: s for s in spans}
    child_end = {}
    if spans[0].parent != -1:
        problems.append(f"first span {spans[0].name} {spans[0].id} is not a root")
    for s in spans[1:]:
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"{s.name} span {s.id} has no parent in its solve")
            continue
        if s.t0 < parent.t0 or s.t1 > parent.t1:
            problems.append(f"{s.name} span {s.id} outlasts its parent {parent.name} span {parent.id}")
        if s.t0 < child_end.get(parent.id, parent.t0):
            problems.append(f"{s.name} span {s.id} overlaps an earlier sibling")
        child_end[parent.id] = s.t1
    total = math.fsum(self_times(spans).values())
    if not 0.0 <= wall_s - total <= SELF_SUM_SLACK_S:
        problems.append(f"self times sum to {total!r} s, the solve took {wall_s!r} s")
    return problems


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the call, measured on a no-op.

    The median over ``repeats`` rounds of ``calls`` wrapped calls, less the
    same number of plain calls.
    """
    def noop():
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("noop", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_counts(spans) -> dict[str, int]:
    """Deterministic work counts of one solve, keyed by per-layer metric name."""
    names = {s.id: s.name for s in spans}
    calls = Counter(s.name for s in spans)
    projections = [s for s in spans if s.name == "factored.project"]
    svds = [s for s in spans if s.name == "svd"]
    return {
        "factored.project.calls": calls["factored.project"],
        "factored.project.entries": sum(s.entries for s in projections),
        # computed, not measured: each projected entry with k > 0 gathers one
        # k-row of u and of v (16 k bytes) and reads two int64 indices
        "factored.project.bytes_computed": sum(s.entries * (16 * s.k + 16) for s in projections if s.k),
        "factored.project.diag_calls": sum(names.get(s.parent, "").startswith("solvers.")
                                           for s in projections),
        "operators.assemble.calls": calls["operators.assemble"],
        "operators.matvec.calls": calls["operators.matvec"],
        "operators.rmatvec.calls": calls["operators.rmatvec"],
        "svd.calls": len(svds),
        "svd.k_total": sum(s.k for s in svds),
        "svd.lanczos_steps": sum(s.name == "operators.matvec" and names.get(s.parent) == "svd"
                                 for s in spans),
        "factored.combine.calls": calls["factored.combine"],
        "factored.distance.calls": calls["factored.distance"],
        "solvers.objective.calls": calls["solvers.objective"],
    }


def layer_seconds(spans) -> dict[str, float]:
    """Timings of one solve, keyed by per-layer metric name."""
    total = defaultdict(float)
    own = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        total[s.name] += s.t1 - s.t0
        own[s.name.split(".")[0]] += selfs[s.id]
    return {
        "factored.project_s": total["factored.project"],
        "operators.assemble_s": total["operators.assemble"],
        "operators.matvec_s": total["operators.matvec"],
        "operators.rmatvec_s": total["operators.rmatvec"],
        "svd.s": total["svd"],
        "svd.self_s": own["svd"],
        "factored.combine_s": total["factored.combine"],
        "factored.distance_s": total["factored.distance"],
        "solvers.objective_s": total["solvers.objective"],
        "solvers.self_s": own["solvers"],
    }


def per_layer_metrics(spans_per_solve, solver_counts: dict, base_s: float,
                      call_cost_s: float) -> dict[str, float]:
    """Every per-layer metric from the traced solves of one instance.

    Counts come from the first traced solve (they repeat exactly), seconds
    are medians over the traced solves, and the shares divide the median
    layer seconds by the median traced wall time.  ``base_s`` is the median
    wall time of the untraced solves of the same instance, run in turn with
    the traced ones in the same process.  ``call_cost_s`` is what one traced
    call costs (``span_cost_s``); times the span count it is the tracer's
    own cost per solve.
    """
    counts = layer_counts(spans_per_solve[0])
    seconds = [layer_seconds(spans) for spans in spans_per_solve]
    wall = statistics.median(spans[0].t1 - spans[0].t0 for spans in spans_per_solve)
    values = {key: value for key, value in counts.items() if key in PER_LAYER_UNITS}
    values.update({key: statistics.median(s[key] for s in seconds) for key in seconds[0]})
    svd_calls = counts["svd.calls"]
    n_spans = len(spans_per_solve[0])
    values.update({
        "factored.project.share": values["factored.project_s"] / wall,
        "svd.k_mean": counts["svd.k_total"] / svd_calls if svd_calls else 0.0,
        "svd.steps_per_call": counts["svd.lanczos_steps"] / svd_calls if svd_calls else 0.0,
        # solver iterations per SVD call: calls beyond one per iteration are
        # thrown away by the rank regrowth in _svd_exceeding
        "svd.useful_ratio": solver_counts["iterations"] / svd_calls if svd_calls else 0.0,
        "svd.share": values["svd.s"] / wall,
        "solvers.iterations": solver_counts["iterations"],
        "solvers.phase1_iterations": solver_counts["phase1_iterations"],
        "solvers.phase2_iterations": solver_counts["phase2_iterations"],
        "trace.solve_s": wall,
        "trace.base_solve_s": base_s,
        "trace.overhead_s": wall - base_s,
        "trace.spans": n_spans,
        "trace.span_cost_s": call_cost_s * n_spans,
    })
    return {key: values[key] for key in PER_LAYER_UNITS}
