"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The MovieLens criterion is skipped unless a ratings file is
present (MOVIELENS_100K env var or ./data/ml-100k/u.data).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from matcomplete import (
    FactoredMatrix,
    ObservedMatrix,
    SolverConfig,
    dense_svd,
    fejer_slack,
    fixed_rank_step,
    fpc,
    frsi,
    gen_synthetic,
    load_movielens,
    make_ratings_dataset,
    make_spurious_fixed_point,
    objective,
    phase_two,
    project_omega,
    rer,
    rmse,
    soft_impute,
    truncated_svd,
    two_phase,
)
from matcomplete.bench import run_beta_sweep, run_synth
from matcomplete.operators import assemble_iterate_operator

from conftest import full_observed, random_factored, random_observed


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    """Criterion-2 protocol run, shared by criteria 2 and 10."""
    out = tmp_path_factory.mktemp("table1") / "run1"
    code = run_synth(str(out), n=1000, r=10, p=0.40, seeds=5,
                     methods=("two_phase", "frsi"), beta=13.0,
                     bundle="paper-synth")
    assert code == 0
    return out


def test_criterion_1_exact_recovery_fully_observed():
    inst = gen_synthetic(200, 5, 0.0, seed=0)
    t0 = time.perf_counter()
    res_tp = two_phase(inst.obs, SolverConfig(r=5))
    t_tp = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_fr = frsi(inst.obs, 5)
    t_fr = time.perf_counter() - t0
    rer_tp = rer(inst.ground_truth, res_tp.x)
    rer_fr = rer(inst.ground_truth, res_fr.x)
    ok = (
        rer_tp <= 1e-12 and res_tp.iterations <= 3 and t_tp < 1.0
        and rer_fr <= 1e-12 and res_fr.iterations <= 3 and t_fr < 1.0
    )
    report(1, ok,
           f"two_phase Rer={rer_tp:.2e} IT={res_tp.iterations} t={t_tp:.2f}s; "
           f"frsi Rer={rer_fr:.2e} IT={res_fr.iterations} t={t_fr:.2f}s")


def test_criterion_2_table1_reproduction(table1_run):
    rows = read_rows(table1_run / "results.csv")
    tp = [r for r in rows if r["method"] == "two_phase"]
    fr = [r for r in rows if r["method"] == "frsi"]
    assert len(tp) == 5 and len(fr) == 5
    med_rer = float(np.median([float(r["Rer"]) for r in tp]))
    med_it_tp = float(np.median([int(r["IT"]) for r in tp]))
    med_it_fr = float(np.median([int(r["IT"]) for r in fr]))
    ranks = [int(r["rank_hat"]) for r in tp]
    times = [float(r["time_s"]) for r in read_rows(table1_run / "timings.csv")]
    ok = (
        med_rer <= 1e-4
        and med_it_tp <= 60
        and all(rk == 10 for rk in ranks)
        and max(times) <= 60.0
        and med_it_tp < med_it_fr
    )
    report(2, ok,
           f"two_phase median Rer={med_rer:.2e} (<=1e-4), median IT={med_it_tp:.0f} "
           f"(<=60), ranks={ranks} (all 10), max solve {max(times):.1f}s (<=60), "
           f"direction {med_it_tp:.0f} < {med_it_fr:.0f} (frsi)")


def test_criterion_3_baselines_on_same_instances():
    svt_ok, fpc_ok, details = True, True, []
    from matcomplete import svt as svt_solver

    for seed in range(5):
        inst = gen_synthetic(1000, 10, 0.40, seed=seed)
        rs = svt_solver(inst.obs, eps_2=1e-4, it_max=200)
        rf = fpc(inst.obs, eps_3=1e-3, it_max=400)
        rer_s = rer(inst.ground_truth, rs.x)
        rer_f = rer(inst.ground_truth, rf.x)
        svt_ok &= rer_s <= 1e-3 and rs.iterations <= 200
        fpc_ok &= rer_f <= 1e-3 and rf.iterations <= 400
        details.append(f"seed{seed}: svt IT={rs.iterations} Rer={rer_s:.1e}, "
                       f"fpc IT={rf.iterations} Rer={rer_f:.1e}")
    report(3, svt_ok and fpc_ok, "; ".join(details))


def test_criterion_4_beta_sweep_effect(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sweep"
    run_beta_sweep(str(out), n=1000, r=5, p=0.92, betas=[2.0, 19.0], w=1000,
                   eps_rho=1e-8, seed=0)
    elapsed = time.perf_counter() - t0
    rows = read_rows(out / "sweep.csv")
    its = {float(r["beta"]): int(r["iterations"]) for r in rows}
    ok = its[19.0] <= 0.6 * its[2.0] and elapsed <= 600.0
    report(4, ok,
           f"phase-one iterations: beta=2 -> {its[2.0]}, beta=19 -> {its[19.0]} "
           f"(ratio {its[19.0] / its[2.0]:.2f} <= 0.6), sweep took {elapsed:.0f}s (<=600)")


def test_criterion_5_hard_regime_rank_fidelity():
    inst = gen_synthetic(2000, 20, 0.92, seed=0)
    res = two_phase(inst.obs, SolverConfig(r=20, beta=12.0))
    err = rer(inst.ground_truth, res.x)
    ok = res.recovered_rank == 20 and err <= 1e-2
    report(5, ok, f"recovered rank={res.recovered_rank} (=20), Rer={err:.2e} (<=1e-2), "
                  f"IT={res.iterations}")


def test_criterion_6_truncated_svd_oracle_equivalence():
    rng = np.random.default_rng(606)
    failures = 0
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(10, 61))
        n = int(rng.integers(10, 81))
        obs = random_observed(rng, m, n, 0.2)
        z = random_factored(rng, m, n, 3)
        op = assemble_iterate_operator(obs, z)
        k = min(5, min(m, n))
        f = truncated_svd(op, k)
        oracle = dense_svd(op.dense())
        dev = float(np.abs(f.sigma - oracle.sigma[:k]).max() / max(oracle.sigma[0], 1e-300))
        worst = max(worst, dev)
        failures += dev > 1e-8
    report(6, failures == 0, f"100 operators, worst sigma deviation {worst:.2e} "
                             f"(<=1e-8), {failures} failures")


def test_criterion_7a_nonexpansiveness():
    rng = np.random.default_rng(707)

    def shrink(a, tau):
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return (u * np.maximum(s - tau, 0.0)) @ vt

    worst = -np.inf
    for _ in range(200):
        m = int(rng.integers(2, 41))
        n = int(rng.integers(2, 41))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal((m, n))
        tau = float(rng.uniform(0, 4))
        gap = (np.linalg.norm(shrink(a, tau) - shrink(b, tau))
               - np.linalg.norm(a - b))
        worst = max(worst, gap)
    report("7a", worst <= 1e-10, f"200 pairs, worst expansion {worst:.2e} (<=1e-10)")


def test_criterion_7b_fixed_point_properties():
    rng = np.random.default_rng(708)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(12, 36))
        n = int(rng.integers(12, 36))
        r = int(rng.integers(2, 5))
        truth = random_factored(rng, m, n, r)
        dense = truth.dense()
        # omega misses one full column so P-consistent completions besides
        # the ground truth exist
        missing_col = int(rng.integers(0, n))
        rows, cols = np.divmod(np.arange(m * n), n)
        keep = cols != missing_col
        obs = ObservedMatrix(m, n, rows[keep], cols[keep], dense[rows[keep], cols[keep]])
        scale = truth.sigma[0]

        x_next, rho = fixed_rank_step(truth, obs, r)
        worst = max(worst, np.linalg.norm(x_next.dense() - dense) / scale)

        other = dense.copy()
        other[:, missing_col] = truth.u @ rng.standard_normal(r)
        b = dense_svd(other)
        b_next, _ = fixed_rank_step(b, obs, r)
        worst = max(worst, np.linalg.norm(b_next.dense() - other) / scale)

        comp = dense.copy()
        comp[rows[keep], cols[keep]] = 0.0
        c_next, _ = fixed_rank_step(dense_svd(comp), obs, r)
        worst = max(worst, np.linalg.norm(c_next.dense() - dense) / scale)

        from_zero, _ = fixed_rank_step(FactoredMatrix.zero(m, n), obs, r)
        from_obs, _ = fixed_rank_step(dense_svd(obs.dense()), obs, r)
        worst = max(worst, np.linalg.norm(from_zero.dense() - from_obs.dense()) / scale)
    report("7b", worst <= 1e-8, f"20 instances, worst fixed-point deviation {worst:.2e} (<=1e-8)")


def test_criterion_7c_fejer_slack_along_runs():
    worst = np.inf
    for seed in range(10):
        inst = gen_synthetic(60, 3, 0.70, seed=seed)
        res = frsi(inst.obs, 3, eps_1=1e-6, it_max=60, ground_truth=inst.ground_truth)
        slack = res.trace.column("fejer_slack")
        finite = slack[np.isfinite(slack)]
        assert finite.size == len(res.trace)
        worst = min(worst, float(finite.min()))
    report("7c", worst >= -1e-8, f"10 runs, smallest slack {worst:.2e} (>=-1e-8)")


def test_criterion_7d_spurious_fixed_point_algebra():
    rng = np.random.default_rng(710)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(6, 12))
        n = int(rng.integers(6, 12))
        r = int(rng.integers(1, 4))
        x, grad = make_spurious_fixed_point(m, n, r, gamma=1.0, rng=rng)
        y = x.dense() - grad
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        rho = s[r]
        thresholded = (u * np.maximum(s - rho, 0.0)) @ vt
        worst = max(worst, float(np.linalg.norm(thresholded - x.dense())))
    report("7d", worst <= 1e-10, f"10 constructions, worst |S(x - g) - x| = {worst:.2e} (<=1e-10)")


def test_criterion_7e_soft_impute_descent():
    worst = -np.inf
    for seed in range(10):
        inst = gen_synthetic(40, 2, 0.5, seed=seed)
        lam = 0.02 * float(inst.ground_truth.sigma[0])
        res = soft_impute(inst.obs, lam, eps=1e-12, it_max=40)
        objs = res.trace.column("f_lambda")
        rel_increase = np.diff(objs) / (1.0 + objs[:-1])
        worst = max(worst, float(rel_increase.max()))
    report("7e", worst <= 1e-10, f"10 runs, worst relative objective increase {worst:.2e} (<=1e-10)")


def test_criterion_8_equivalences():
    rng = np.random.default_rng(808)
    inst = gen_synthetic(40, 3, 0.5, seed=11)
    lam = 0.05 * float(inst.ground_truth.sigma[0])

    si = soft_impute(inst.obs, lam, eps=1e-300, it_max=20)
    fp = fpc(inst.obs, eps_3=1e-300, it_max=20, step=1.0, lambda0=lam, floor=lam)
    dev = 0.0
    for col in ("f_lambda", "rel_residual"):
        a, b = si.trace.column(col), fp.trace.column(col)
        dev = max(dev, float(np.abs(a - b).max() / max(1.0, np.abs(a).max())))
    iterate_gap = rer(si.x, fp.x)

    p2 = phase_two(inst.obs, 3, lam, FactoredMatrix.zero(40, 40), eps_lambda=1e-300,
                   it_max=20, momentum=False)
    si2 = soft_impute(inst.obs, lam, eps=1e-300, it_max=20, rank_start=3)
    wiring = (np.array_equal(p2.x.sigma, si2.x.sigma)
              and np.array_equal(p2.trace.column("f_lambda"), si2.trace.column("f_lambda")))

    ok = dev <= 1e-12 and iterate_gap <= 1e-12 and wiring
    report(8, ok, f"si-vs-fpc trace deviation {dev:.2e} (<=1e-12), final iterate gap "
                  f"{iterate_gap:.2e}; momentum-free phase two identical: {wiring}")


def _movielens_path():
    candidates = [os.environ.get("MOVIELENS_100K", "")]
    candidates.append(os.path.join("data", "ml-100k", "u.data"))
    for c in candidates:
        if c and os.path.exists(c):
            return c
    return None


def test_criterion_9_movielens_100k_optional():
    path = _movielens_path()
    if path is None:
        print("ACCEPTANCE 9: SKIP - MovieLens-100k file not present "
              "(set MOVIELENS_100K or place data/ml-100k/u.data)")
        pytest.skip("MovieLens-100k dataset not available")
    obs = load_movielens(path, "ml100k", min_shape=(943, 1682))
    data = make_ratings_dataset(obs, 0.5, seed=0)
    cfg = SolverConfig(r=130, beta=2.0, eps_rho=1e-3, eps_1=1e-3, eps_2=1e-3,
                       eps_3=1e-3, eps_lambda=1e-2)
    t0 = time.perf_counter()
    res = two_phase(data.train, cfg)
    elapsed = time.perf_counter() - t0
    score = rmse(data.obs_full, res.x)
    ok = score <= 0.82 and elapsed <= 900.0
    report(9, ok, f"RMSE over all ratings {score:.4f} (<=0.82), "
                  f"IT={res.iterations}, {elapsed:.0f}s (<=900)")


def test_criterion_10_determinism(table1_run, tmp_path):
    out2 = tmp_path / "run2"
    code = run_synth(str(out2), n=1000, r=10, p=0.40, seeds=5,
                     methods=("two_phase", "frsi"), beta=13.0,
                     bundle="paper-synth")
    assert code == 0
    same = (table1_run / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    report(10, same, "criterion-2 invocation repeated: results.csv bodies "
                     + ("identical" if same else "differ"))
