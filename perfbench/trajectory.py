"""Record a trajectory point: run the benchmark on seeds 0-9 of every workload
and summarise every metric by its median and quartiles.

    python3 perfbench/trajectory.py --traced-seeds 0 --out point.json

Each run is its own process, started one at a time with the command and
``run_seconds`` from BENCHMARK.json.  Every point uses the same seeds and all
workloads listed there, so points stay comparable.  A metric's spread is
(q3 - q1) / median with quartiles from ``statistics.quantiles(values, n=4)``.
The output keeps every raw run next to the summary, so two points can be
compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
SEEDS = tuple(range(10))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    run_dir = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}"
    counts = json.loads((run_dir / "counts.json").read_text())
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "result": result, "counts": counts}


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list] = {}
    units = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        entry = {"unit": units[name], "n": len(vals), "median": med}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--traced-seeds", type=seed_list, default=seed_list("0"),
                    help="seeds of the traced runs, e.g. 0 or 0-1 or 0,3")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for name in names:
        for trace, seeds in ((0, SEEDS), (1, args.traced_seeds)):
            for seed in seeds:
                run = run_once(bench, name, seed, trace)
                runs.append(run)
                res = run["result"]
                print(f"{name} seed={seed} trace={trace} {run['elapsed_s']:.1f}s correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    for name in names:
        for trace in (0, 1):
            group = [r for r in runs if r["workload"] == name and r["trace"] == trace]
            if group:
                summary.setdefault(name, {})[f"trace{trace}"] = summarise(group)
    env = json.loads((ROOT / ".perfbench-out" / f"{names[0]}-seed{SEEDS[0]}-trace0" / "env.json").read_text())
    point = {"env": env, "bench": bench, "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    for name in names:
        for metric, entry in summary[name].get("trace0", {}).items():
            spread = entry.get("spread")
            print(f"{name:<8} {metric:<12} median {entry['median']:.6g} {entry['unit']:<7} "
                  f"spread {'n/a' if spread is None else f'{spread:.4f}'} (n={entry['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
