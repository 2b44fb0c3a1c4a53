"""Benchmark harness: synthetic sweeps, MovieLens runs and trace dumps.

Every command writes a deterministic ``results``/``sweep``/``trace`` CSV
(identical bytes for identical arguments and seeds), keeps the wall-clock time
of each solve, and of nothing else, in a separate ``timings.csv``, and records
run context in ``metadata.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import gen_synthetic, load_movielens, make_ratings_dataset, rer, rmse
from .observed import check_counts
from .solvers import SolverConfig, TraceRecord, fpc, frsi, phase_one, svt, two_phase

TOLERANCE_BUNDLES = {
    "paper-synth": dict(eps_rho=1e-4, eps_1=1e-4, eps_2=1e-4, eps_3=1e-3, eps_lambda=1e-6),
    "paper-ml": dict(eps_rho=1e-3, eps_1=1e-3, eps_2=1e-3, eps_3=1e-3, eps_lambda=1e-2),
}

METHODS = ("two_phase", "frsi", "svt", "fpc")

OUT_DIR_ENV = "MATCOMPLETE_OUT_DIR"


def build_config(r: int, bundle: str = "paper-synth", **overrides) -> SolverConfig:
    """Solver configuration from a named tolerance bundle plus overrides;
    every field neither sets is :class:`SolverConfig`'s default."""
    if bundle not in TOLERANCE_BUNDLES:
        raise ValueError(f"unknown tolerance bundle {bundle!r}; expected one of {sorted(TOLERANCE_BUNDLES)}")
    return SolverConfig(r=r, **{**TOLERANCE_BUNDLES[bundle], **overrides})


def _check_methods(methods) -> tuple:
    """The methods as a tuple, once each is known to :func:`solve_method`."""
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return methods


def solve_method(method: str, obs, config: SolverConfig, ground_truth=None):
    """Dispatch one benchmark method on an observed matrix."""
    if method == "two_phase":
        return two_phase(obs, config, ground_truth)
    if method == "frsi":
        return frsi(obs, config.r, config.eps_1, config.it_max, ground_truth=ground_truth)
    if method == "svt":
        return svt(obs, step=config.step_svt, eps_2=config.eps_2, it_max=config.it_max)
    if method == "fpc":
        return fpc(obs, config.eps_3, config.it_max)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _fmt(value) -> str:
    if isinstance(value, float):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metadata(command: str, params: dict) -> dict:
    return {
        "command": command,
        "params": params,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }


def _summary_stats(values) -> dict:
    arr = np.asarray([v for v in values if not (isinstance(v, float) and math.isnan(v))], dtype=float)
    if arr.size == 0:
        return {"median": math.nan, "mean": math.nan}
    return {"median": float(np.median(arr)), "mean": float(arr.mean())}


def _timed_solve(method: str, obs, config: SolverConfig):
    """``(result, time_s, error)`` of one :func:`solve_method` call, whose
    time covers the solve alone.  A failure is returned as the row's error
    text, with ``result`` None, so that the run goes on."""
    t0 = time.perf_counter()
    try:
        result = solve_method(method, obs, config)
    except Exception as exc:
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - t0, None


def _synth_job(args):
    """One (method, seed) benchmark run; regenerates the instance in-process."""
    method, n, r, p, seed, bundle, beta, w, it_max = args
    inst = gen_synthetic(n, r, p, seed)
    config = build_config(r, bundle, beta=beta, w=w, it_max=it_max)
    result, elapsed, error = _timed_solve(method, inst.obs, config)
    row = {"method": method, "seed": seed, "time_s": elapsed, "error": error}
    if error:
        return {**row, "IT": math.nan, "Rer": math.nan, "rank_hat": math.nan, "status": "error"}
    return {**row, "IT": result.iterations, "Rer": rer(inst.ground_truth, result.x),
            "rank_hat": result.recovered_rank, "status": result.status}


def run_synth(
    out_dir: str,
    n: int,
    r: int,
    p: float,
    seeds: int = 5,
    methods=METHODS,
    beta: float = 2.0,
    w: int = 500,
    it_max: int = 500,
    bundle: str = "paper-synth",
    threads: int = 1,
) -> int:
    """Benchmark the selected methods over seeded synthetic instances.

    Writes ``results.csv`` (method, n, r, p, seed, IT, Rer, rank_hat, status),
    ``timings.csv`` (the same keys plus time_s), and ``summary.json`` with
    per-method medians and means.  Returns the process exit code: zero when
    every run completed without error.
    """
    check_counts(seeds=seeds, threads=threads)
    methods = _check_methods(methods)
    os.makedirs(out_dir, exist_ok=True)
    jobs = [
        (method, n, r, p, seed, bundle, beta, w, it_max)
        for method in methods
        for seed in range(seeds)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_synth_job, jobs))
    else:
        outcomes = [_synth_job(job) for job in jobs]
    outcomes.sort(key=lambda row: (row["method"], row["seed"]))

    _write_csv(
        os.path.join(out_dir, "results.csv"),
        ("method", "n", "r", "p", "seed", "IT", "Rer", "rank_hat", "status"),
        [(o["method"], n, r, p, o["seed"], o["IT"], o["Rer"], o["rank_hat"], o["status"])
         for o in outcomes],
    )
    _write_csv(
        os.path.join(out_dir, "timings.csv"),
        ("method", "n", "r", "p", "seed", "time_s"),
        [(o["method"], n, r, p, o["seed"], o["time_s"]) for o in outcomes],
    )
    summary = {}
    for method in methods:
        rows = [o for o in outcomes if o["method"] == method]
        summary[method] = {
            "IT": _summary_stats([o["IT"] for o in rows]),
            "Rer": _summary_stats([o["Rer"] for o in rows]),
            "rank_hat": [o["rank_hat"] for o in rows],
            "time_s": _summary_stats([o["time_s"] for o in rows]),
            "statuses": [o["status"] for o in rows],
        }
    errors = [
        {"method": o["method"], "seed": o["seed"], "error": o["error"]}
        for o in outcomes if o["error"]
    ]
    _write_json(os.path.join(out_dir, "summary.json"), {"per_method": summary, "errors": errors})
    _write_json(
        os.path.join(out_dir, "metadata.json"),
        _metadata("synth", dict(n=n, r=r, p=p, seeds=seeds, methods=list(methods),
                                beta=beta, w=w, it_max=it_max, bundle=bundle,
                                threads=threads)),
    )
    return 0 if not errors else 1


def run_beta_sweep(
    out_dir: str,
    n: int,
    r: int,
    p: float,
    betas=tuple(float(b) for b in range(2, 31)),
    w: int = 1000,
    eps_rho: float = 1e-8,
    seed: int = 0,
) -> int:
    """Warm-start iteration counts across a grid of momentum parameters.

    One scenario per invocation; writes ``sweep.csv`` with (beta, iterations)
    rows, where iterations is the pass count at stabilization (or ``w`` when
    the budget ran out first).
    """
    os.makedirs(out_dir, exist_ok=True)
    inst = gen_synthetic(n, r, p, seed)
    rows = []
    timings = []
    for beta in betas:
        t0 = time.perf_counter()
        p1 = phase_one(inst.obs, r, eps_rho=eps_rho, w=w, beta=float(beta))
        timings.append((beta, time.perf_counter() - t0))
        rows.append((beta, p1.iterations))
    _write_csv(os.path.join(out_dir, "sweep.csv"), ("beta", "iterations"), rows)
    _write_csv(os.path.join(out_dir, "timings.csv"), ("beta", "time_s"), timings)
    _write_json(
        os.path.join(out_dir, "metadata.json"),
        _metadata("beta-sweep", dict(n=n, r=r, p=p, betas=[float(b) for b in betas],
                                     w=w, eps_rho=eps_rho, seed=seed)),
    )
    return 0


def run_movielens(
    out_dir: str,
    dataset: str,
    fmt: str = "ml100k",
    methods=METHODS,
    ranks=(130,),
    beta: float = 2.0,
    w: int = 500,
    it_max: int = 500,
    bundle: str = "paper-ml",
    holdout: float = 0.5,
    seed: int = 0,
) -> int:
    """Holdout evaluation on a MovieLens ratings file.

    Half the ratings (by default) are handed to each solver; RMSE is reported
    both over all known ratings and over the held-out half.  One result
    directory per requested rank (``r<rank>/results.csv`` when several ranks
    are swept, flat files for a single rank).
    """
    methods = _check_methods(methods)
    obs_full = load_movielens(dataset, fmt)
    data = make_ratings_dataset(obs_full, holdout, seed)
    os.makedirs(out_dir, exist_ok=True)
    exit_code = 0
    sweep = len(ranks) > 1
    for rank in ranks:
        rank_dir = os.path.join(out_dir, f"r{rank}") if sweep else out_dir
        os.makedirs(rank_dir, exist_ok=True)
        config = build_config(rank, bundle, beta=beta, w=w, it_max=it_max, step_svt=1.99)
        rows, timings, errors = [], [], []
        for method in methods:
            result, elapsed, error = _timed_solve(method, data.train, config)
            timings.append((method, elapsed))
            if error:
                rows.append((method, math.nan, math.nan, math.nan, "error"))
                errors.append({"method": method, "error": error})
                exit_code = 1
            else:
                rows.append((method, result.iterations, rmse(data.obs_full, result.x),
                             rmse(data.test, result.x), result.status))
        _write_csv(os.path.join(rank_dir, "results.csv"),
                   ("method", "IT", "RMSE_omega_hat", "RMSE_test", "status"), rows)
        _write_csv(os.path.join(rank_dir, "timings.csv"), ("method", "time_s"), timings)
        if errors:
            _write_json(os.path.join(rank_dir, "errors.json"), errors)
    _write_json(
        os.path.join(out_dir, "metadata.json"),
        _metadata("movielens", dict(dataset=dataset, format=fmt, methods=list(methods),
                                    ranks=[int(x) for x in ranks], beta=beta, w=w,
                                    it_max=it_max, bundle=bundle, holdout=holdout,
                                    seed=seed)),
    )
    return exit_code


def run_trace(
    out_dir: str,
    method: str,
    n: int = 1000,
    r: int = 10,
    p: float = 0.4,
    seed: int = 0,
    dataset: str | None = None,
    fmt: str = "ml100k",
    ground_truth: bool = False,
    beta: float = 2.0,
    w: int = 500,
    it_max: int = 500,
    bundle: str = "paper-synth",
) -> int:
    """Per-iteration trace of a single solve.

    Writes ``trace.csv`` with a row per :class:`TraceRecord` and a column
    per field but the clock's ``time_s``: iteration, phase, rho, objective,
    residual and change ratios, the rank estimate and the SVD tolerance the
    iterate was computed at.  The ``fejer_slack`` column comes last, and only
    when ``ground_truth`` is set, which requires a synthetic instance.
    """
    _check_methods((method,))
    if ground_truth and dataset is not None:
        raise ValueError("fejer slack requires a synthetic ground truth; drop --ground-truth for dataset runs")
    if ground_truth and method not in ("two_phase", "frsi"):
        raise ValueError("fejer slack is tracked by the fixed-rank methods only (two_phase, frsi)")
    if dataset is not None:
        obs = make_ratings_dataset(load_movielens(dataset, fmt), 0.5, seed).train
        truth = None
    else:
        inst = gen_synthetic(n, r, p, seed)
        obs = inst.obs
        truth = inst.ground_truth if ground_truth else None
    config = build_config(r, bundle, beta=beta, w=w, it_max=it_max,
                          step_svt=1.99 if dataset else None)
    result = solve_method(method, obs, config, truth)

    os.makedirs(out_dir, exist_ok=True)
    from dataclasses import fields

    columns = [f.name for f in fields(TraceRecord) if f.name not in ("time_s", "fejer_slack")]
    if ground_truth:
        columns.append("fejer_slack")
    rows = [[getattr(rec, name) for name in columns] for rec in result.trace]
    _write_csv(os.path.join(out_dir, "trace.csv"), tuple(columns), rows)
    _write_json(
        os.path.join(out_dir, "metadata.json"),
        _metadata("trace", dict(method=method, n=n, r=r, p=p, seed=seed,
                                dataset=dataset, format=fmt, ground_truth=ground_truth,
                                beta=beta, w=w, it_max=it_max, bundle=bundle,
                                iterations=result.iterations, status=result.status)),
    )
    return 0
