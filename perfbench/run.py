"""Solver benchmark: time to a stated accuracy, with a traced per-layer split.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Builds the workload's seeded instance several times (``setup_s``), then
solves it one solve at a time for as many solves as fit in ``--seconds``
(at least one), checks every
solve against the workload's quality gate, and prints a report whose last
line is one JSON object.  With ``--trace 0`` that object carries the
end-to-end metrics.  With ``--trace 1`` the run alternates untraced solves
with solves that put a span around every layer call, checks the span trees,
and reports the per-layer split and the tracing overhead instead.

Deterministic counts (iterations, SVD calls, Lanczos steps, matvecs,
projections, rer) are kept apart from timings: both go to
``.perfbench-out/`` at the root of the checkout, together with the run
environment.  The run is marked incorrect when counts differ between
repeated solves, between traced and untraced solves, or from an earlier run
of the same workload, seed, source and numerical environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "matcomplete"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("table1", "hard", "svt")
SETUP_REPEATS = 11

# One solve runs at a time on one BLAS thread, so a solve keeps to one core
# and its time shows less of other load on a small shared machine.  The
# thread count the library reports back is recorded in env.json.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The result's bits depend on these as well as on the source: the library
# builds, and the CPU kernel OpenBLAS picks at run time (in blas_config).
_STORE_ENV_KEYS = ("machine", "numpy", "scipy", "blas_config")


@dataclass
class Solve:
    wall_s: float
    cpu_s: float
    counts: dict
    failure: str | None
    traced: bool = False
    spans: list = field(default_factory=list)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="solve for this long: as many solves as fit, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def digest(f) -> str:
    h = hashlib.sha256()
    for a in (f.u, f.sigma, f.v):
        h.update(a.tobytes())
    return h.hexdigest()


def store_key(env: dict) -> str:
    """Hash of the source and of the environment fields the results depend on."""
    h = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(json.dumps({k: env[k] for k in _STORE_ENV_KEYS}, sort_keys=True).encode())
    return h.hexdigest()[:16]


def solve_once(workload, inst, rer, tracer=None) -> Solve:
    """One solve: wall time, deterministic counts and the gate verdict."""
    t0, c0 = time.perf_counter(), time.process_time()
    spans = []
    try:
        if tracer is None:
            result = workload.solve(inst.obs)
        else:
            result, spans = tracer.solve("solvers." + workload.method, workload.solve, inst.obs)
    except Exception as exc:  # a raising solve counts as failed; the run goes on
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        traceback.print_exc()
        return Solve(wall, cpu, {"error": type(exc).__name__}, f"raised {type(exc).__name__}: {exc}",
                     tracer is not None)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    err = rer(inst.ground_truth, result.x)
    p1, p2 = result.phase_split or (result.iterations, 0)
    counts = {
        "iterations": result.iterations,
        "phase1_iterations": p1,
        "phase2_iterations": p2,
        "recovered_rank": result.recovered_rank,
        "status": result.status,
        "rer": err,
        "x_sha256": digest(result.x),
    }
    return Solve(wall, cpu, counts, workload.gate(result, err), tracer is not None, spans)


def compare_with_store(path: Path, counts: dict) -> list[str]:
    """Differences from the counts stored by earlier runs; then store these."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    diffs = [f"{key}: {stored[key]!r} in an earlier run, {counts[key]!r} now"
             for key in sorted(counts.keys() & stored.keys()) if stored[key] != counts[key]]
    stored.update(counts)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return diffs


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SOURCE.parent))
    try:
        import matcomplete
    except ImportError as exc:
        print(f"perfbench: cannot import matcomplete from {SOURCE.parent}: {exc}", file=sys.stderr)
        return 2
    if Path(matcomplete.__file__).resolve().parent != SOURCE.resolve():
        print(f"perfbench: matcomplete came from {matcomplete.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    # these import numpy, so they follow the BLAS thread pin
    import envinfo
    import spans as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        inst = None  # free the last build first, so the peak RSS is the solve's
        t0 = time.perf_counter()
        inst = workload.build(args.seed)
        setup_s.append(time.perf_counter() - t0)

    env = envinfo.environment()
    env["working_set"] = envinfo.working_set(inst.obs, workload.r)
    (run_dir / "env.json").write_text(json.dumps(env, indent=1, sort_keys=True) + "\n")

    # A traced run takes its solves in pairs, untraced then traced, so the
    # overhead compares solves made under the same load.
    tracer = tracing.Tracer() if args.trace else None
    per_round = 1 if tracer is None else 2
    solves = []
    start = time.perf_counter()
    # start another round only while it should end inside the window
    while not solves or (time.perf_counter() - start
                         + per_round * statistics.median(s.wall_s for s in solves) <= args.seconds):
        solves.append(solve_once(workload, inst, matcomplete.rer))
        if tracer is not None:
            with tracer.installed():
                solves.append(solve_once(workload, inst, matcomplete.rer, tracer))

    problems = []
    for i, s in enumerate(solves):
        if s.counts != solves[0].counts:
            problems.append(f"solve {i + 1} counts {s.counts} differ from solve 1 {solves[0].counts}")
    counts = dict(solves[0].counts)
    timings = {"setup_s": setup_s, "solve_s": [s.wall_s for s in solves],
               "solve_cpu_s": [s.cpu_s for s in solves], "traced": [s.traced for s in solves]}
    traced = [s for s in solves if s.traced and s.spans]
    if traced:
        tracer.write_csv(run_dir / "spans.csv")
        first = tracing.layer_counts(traced[0].spans)
        for i, s in enumerate(traced):
            problems += [f"traced solve {i + 1}: {p}" for p in tracing.check_tree(s.spans, s.wall_s)]
            if tracing.layer_counts(s.spans) != first:
                problems.append(f"traced solve {i + 1} layer counts differ from traced solve 1")
        counts.update(first)
        timings["layer_s"] = [tracing.layer_seconds(s.spans) for s in traced]
    store = OUT / f"counts-{workload.name}-seed{args.seed}-{store_key(env)}.json"
    problems += [f"counts changed across runs: {d}" for d in compare_with_store(store, counts)]
    (run_dir / "counts.json").write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    (run_dir / "timings.json").write_text(json.dumps(timings, indent=1, sort_keys=True) + "\n")

    failed = [s for s in solves if s.failure]
    rers = [s.counts["rer"] for s in solves if "rer" in s.counts]
    rer = statistics.median(rers) if rers else None
    gate = ", ".join(filter(None, (
        "converged",
        f"rank {workload.rank_gate}" if workload.rank_gate is not None else None,
        f"rer <= {workload.rer_gate:.0e}",
    )))
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.method} "
          f"n={workload.n} r={workload.r} p={workload.p}"
          + (f" beta={workload.beta}" if workload.beta is not None else "") + f"; gate: {gate}")
    print("env: " + " ".join(f"{k}={env[k]}" for k in (
        "nproc", "blas", "blas_version", "blas_threads", "python", "numpy", "scipy", "llc_bytes")))
    print("working set: " + " ".join(f"{k}={v}" for k, v in env["working_set"].items()))
    for i, s in enumerate(solves):
        kind = "traced" if s.traced else "untraced"
        detail = " ".join(f"{k}={v}" for k, v in s.counts.items() if k != "x_sha256")
        print(f"solve {i + 1} ({kind}): {s.wall_s:.3f} s (cpu {s.cpu_s:.3f} s) {detail} -> {s.failure or 'ok'}")
    for p in problems:
        print(f"PROBLEM: {p}")

    if tracer is None:
        walls = [math.inf if s.failure else s.wall_s for s in solves]
        solve_s = statistics.median(walls)
        metrics = {
            "solve_s": (solve_s if math.isfinite(solve_s) else None, "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "rer_digits": (-math.log10(max(rer, 2.0 ** -52)) if rer is not None else None, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {"solve_s": f"median of {len(solves)} solves", "setup_s": f"median of {SETUP_REPEATS} builds",
                 "rer_digits": "-log10(rer)", "peak_rss_mb": "peak resident set of this process"}
    elif not failed:
        call_cost_s = tracing.span_cost_s()
        base = [s.wall_s for s in solves if not s.traced]
        values = tracing.per_layer_metrics([s.spans for s in traced], counts,
                                           statistics.median(base), call_cost_s)
        metrics = {key: (value, tracing.PER_LAYER_UNITS[key]) for key, value in values.items()}
        notes = {"trace.solve_s": f"median of {len(traced)} traced solves",
                 "trace.base_solve_s": f"median of {len(base)} untraced solves, in turn with the traced",
                 "trace.overhead_s": "trace.solve_s - trace.base_solve_s",
                 "trace.span_cost_s": f"trace.spans x {call_cost_s * 1e6:.3g} us per traced no-op call"}
    else:
        metrics, notes = {}, {}
    shown = {"rer": (rer, "ratio"), "failed_frac": (len(failed) / len(solves), "fraction"), **metrics}
    notes.update(rer=f"median; gate {workload.rer_gate:.0e}",
                 failed_frac=f"{len(failed)} of {len(solves)} solves")
    for key, (value, unit) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{key:<32} {text:>14} {unit:<8} {notes.get(key, '')}".rstrip())

    result = {
        "correct": not failed and not problems and bool(metrics),
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
