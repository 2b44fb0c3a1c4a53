import math

import numpy as np
import pytest

from matcomplete import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    FactoredMatrix,
    ObservedMatrix,
    SolverConfig,
    dense_svd,
    fpc,
    frsi,
    gen_synthetic,
    momentum_coefficient,
    objective,
    phase_one,
    phase_two,
    rer,
    scale,
    soft_impute,
    soft_threshold,
    svt,
    truncated_svd,
    two_phase,
)
from matcomplete import factored, solvers
from matcomplete.operators import assemble_iterate_operator
from matcomplete.solvers import _StallDetector

from conftest import full_observed, random_factored, random_observed


def observed_rank_r(rng, m, n, r, frac):
    truth = random_factored(rng, m, n, r)
    obs = random_observed(rng, m, n, frac)
    values = truth.dense()[obs.rows, obs.cols]
    return truth, ObservedMatrix(m, n, obs.rows, obs.cols, values)


# --- objective ---


def test_objective_zero_at_interpolant(rng):
    truth, obs = observed_rank_r(rng, 10, 8, 2, 0.5)
    assert objective(truth, obs, 0.0) <= 1e-20 * truth.norm() ** 2


def test_objective_at_zero_iterate(rng):
    obs = random_observed(rng, 9, 9, 0.4)
    expected = 0.5 * obs.norm() ** 2
    assert abs(objective(FactoredMatrix.zero(9, 9), obs, 0.0) - expected) <= 1e-12 * expected


def test_objective_matches_dense_evaluation(rng):
    obs = random_observed(rng, 12, 10, 0.4)
    x = random_factored(rng, 12, 10, 3)
    lam = 0.9
    mask = np.zeros((12, 10), dtype=bool)
    mask[obs.rows, obs.cols] = True
    dense = x.dense()
    expected = 0.5 * np.sum((obs.dense() - np.where(mask, dense, 0.0)) ** 2)
    expected += lam * np.linalg.svd(dense, compute_uv=False).sum()
    got = objective(x, obs, lam)
    assert abs(got - expected) <= 1e-10 * max(1.0, expected)
    with pytest.raises(ValueError, match="nonnegative"):
        objective(x, obs, -1.0)


# --- momentum ---


def test_momentum_coefficient_is_zero_at_first_step():
    for beta in (2.0, 5.0, 13.0, 19.0):
        assert momentum_coefficient(1, beta) == 0.0
    assert momentum_coefficient(2, 2.0) == pytest.approx(0.25)


# --- config ---


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(r=0)
    with pytest.raises(ValueError):
        SolverConfig(r=2, eps_rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(r=2, beta=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(r=2, fpc_decay=1.5)
    with pytest.raises(ValueError):
        SolverConfig(r=2, tau_svt=-3.0)
    for name in ("eps_rho", "beta", "fpc_floor", "svd_tol", "tau_svt"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(r=2, **{name: math.nan})


def test_config_text_round_trip(tmp_path):
    cfg = SolverConfig(r=7, beta=13.0, tau_svt=None, step_svt=1.99, svd_tol=1e-8)
    text = cfg.to_text()
    for key in ("r", "eps_rho", "eps_1", "eps_2", "eps_3", "eps_lambda", "w",
                "it_max", "beta", "tau_svt", "step_svt", "fpc_decay",
                "fpc_floor", "rank_bump", "svd_tol"):
        assert any(line.startswith(f"{key} =") for line in text.splitlines()), key
    back = SolverConfig.from_text(text)
    assert back == cfg
    path = tmp_path / "solver.cfg"
    cfg.save(path)
    assert SolverConfig.load(path) == cfg


def test_config_from_text_errors():
    with pytest.raises(ValueError, match="unknown key"):
        SolverConfig.from_text("r = 3\nbogus = 1\n")
    with pytest.raises(ValueError, match="missing required"):
        SolverConfig.from_text("beta = 2.0\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        SolverConfig.from_text("r 3\n")


# --- phase one ---


def test_phase_one_fully_observed_exits_at_two(rng):
    truth, obs = observed_rank_r(rng, 40, 40, 3, 0.0)
    obs = full_observed(truth.dense())
    p1 = phase_one(obs, 3, eps_rho=1e-4, w=50, beta=2.0)
    assert p1.iterations == 2
    assert p1.stabilized
    assert p1.rho <= 1e-10 * truth.sigma[0]
    assert np.allclose(p1.z.dense(), truth.dense(), atol=1e-8 * truth.sigma[0])


def test_phase_one_records_trace_and_respects_budget(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 2, 0.5)
    p1 = phase_one(obs, 2, eps_rho=1e-12, w=7, beta=2.0)
    assert p1.iterations == 7
    assert not p1.stabilized
    assert len(p1.trace) == 7
    times = p1.trace.column("time_s")
    assert (np.diff(times) >= 0).all()


def test_phase_one_slack_column_with_ground_truth(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 2, 0.4)
    p1 = phase_one(obs, 2, eps_rho=1e-6, w=30, beta=2.0, ground_truth=truth)
    slack = p1.trace.column("fejer_slack")
    finite = slack[np.isfinite(slack)]
    assert finite.size >= p1.iterations - 1
    assert (finite >= -1e-8).all()


# --- phase two ---


def test_phase_two_from_exact_start_converges_fast(rng):
    truth = random_factored(rng, 20, 20, 3, sigma_max=8.0)
    obs = full_observed(truth.dense())
    lam = 0.5 * truth.sigma[-1]
    res = phase_two(obs, 3, lam, truth, eps_lambda=1e-6, it_max=50)
    assert res.iterations <= 2
    assert res.status == CONVERGED
    assert objective(res.x, obs, lam) <= objective(truth, obs, lam)
    expected = soft_threshold(truth, lam)
    assert np.allclose(res.x.dense(), expected.dense(), atol=1e-8)


def test_phase_two_full_shrinkage_stops_immediately(rng):
    obs = random_observed(rng, 15, 15, 0.4)
    sigma1 = truncated_svd(assemble_iterate_operator(obs, FactoredMatrix.zero(15, 15)), 1).sigma[0]
    res = phase_two(obs, 1, 1.05 * sigma1, FactoredMatrix.zero(15, 15), it_max=30)
    assert res.iterations == 1
    assert res.recovered_rank == 0
    assert res.x.k == 0


def test_phase_two_budget_exhaustion_returns_best(rng):
    truth, obs = observed_rank_r(rng, 25, 25, 2, 0.5)
    res = phase_two(obs, 2, 1e-6, FactoredMatrix.zero(25, 25), eps_lambda=1e-300, it_max=4)
    assert res.status == BUDGET_EXHAUSTED
    assert res.iterations == 4
    objs = res.trace.column("f_lambda")
    assert objective(res.x, obs, 1e-6) <= objs[np.isfinite(objs)].min() + 1e-12


def test_phase_two_parameter_validation(rng):
    obs = random_observed(rng, 5, 5, 0.5)
    z = FactoredMatrix.zero(5, 5)
    with pytest.raises(ValueError, match="lam"):
        phase_two(obs, 1, 0.0, z)
    with pytest.raises(ValueError, match="shape mismatch"):
        phase_two(obs, 1, 1.0, FactoredMatrix.zero(6, 5))


# --- two phase ---


def test_two_phase_fully_observed_exact(rng):
    truth, _ = observed_rank_r(rng, 60, 60, 4, 0.0)
    obs = full_observed(truth.dense())
    res = two_phase(obs, SolverConfig(r=4))
    assert res.status == CONVERGED
    assert res.iterations <= 3
    assert res.phase_split == (res.iterations, 0)
    assert rer(truth, res.x) <= 1e-12


def test_two_phase_recovers_well_observed_instance(rng):
    inst = gen_synthetic(80, 3, 0.3, seed=5)
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0))
    assert res.recovered_rank == 3
    assert rer(inst.ground_truth, res.x) <= 1e-2
    phases = res.trace.column("phase")
    assert set(phases) == {1, 2}
    assert res.phase_split is not None
    assert res.phase_split[0] + res.phase_split[1] == res.iterations
    # phase two numbers its records after phase one's
    p1, p2 = res.phase_split
    assert res.trace.column("iteration").tolist() == list(range(1, res.iterations + 1))
    assert phases.tolist() == [1] * p1 + [2] * p2


def test_two_phase_warm_start_wiring(rng):
    # phase one capped at a single pass must hand S_rho(data) and rho to phase two
    inst = gen_synthetic(40, 2, 0.4, seed=9)
    cfg = SolverConfig(r=2, w=1, eps_lambda=1e-8)
    res = two_phase(inst.obs, cfg)

    op = assemble_iterate_operator(inst.obs, FactoredMatrix.zero(40, 40))
    f = truncated_svd(op, 3)
    rho1 = float(f.sigma[2])
    x0 = soft_threshold(f, rho1)
    ref = phase_two(inst.obs, 2, rho1, x0, eps_lambda=1e-8, it_max=500)

    assert res.phase_split[0] == 1
    assert res.iterations == 1 + ref.iterations
    assert res.status == ref.status
    assert np.allclose(res.x.dense(), ref.x.dense(), atol=1e-10 * max(1.0, ref.x.norm()))


# --- frsi ---


def test_frsi_fully_observed_is_immediate(rng):
    truth, _ = observed_rank_r(rng, 50, 50, 3, 0.0)
    obs = full_observed(truth.dense())
    res = frsi(obs, 3)
    assert res.status == CONVERGED
    assert res.iterations <= 3
    assert rer(truth, res.x) <= 1e-12


def test_frsi_budget_exhaustion(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 3, 0.6)
    res = frsi(obs, 3, eps_1=1e-14, it_max=5)
    assert res.status == BUDGET_EXHAUSTED
    assert res.iterations == 5
    assert len(res.trace) == 5


def test_frsi_rank_bound_and_slack(rng):
    truth, obs = observed_rank_r(rng, 40, 40, 3, 0.5)
    res = frsi(obs, 3, eps_1=1e-6, it_max=60, ground_truth=truth)
    ranks = res.trace.column("rank")
    assert (ranks <= 3).all()
    slack = res.trace.column("fejer_slack")
    assert (slack[np.isfinite(slack)] >= -1e-8).all()


# --- svt ---


def test_svt_zero_data_converges_at_once(rng):
    obs = random_observed(rng, 12, 12, 0.4, values=np.zeros(57))
    obs = ObservedMatrix(12, 12, obs.rows, obs.cols, np.zeros(obs.nnz))
    res = svt(obs)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert res.x.rank == 0


def test_svt_recovers_small_instance(rng):
    inst = gen_synthetic(60, 2, 0.4, seed=21)
    res = svt(inst.obs, eps_2=1e-4, it_max=300)
    assert res.status == CONVERGED
    assert rer(inst.ground_truth, res.x) <= 1e-3


def test_svt_parameter_validation(rng):
    obs = random_observed(rng, 6, 6, 0.5)
    with pytest.raises(ValueError, match="positive"):
        svt(obs, tau=-1.0)
    with pytest.raises(ValueError, match="positive"):
        svt(obs, step=0.0)


# --- fpc ---


def test_fpc_zero_data_is_immediate(rng):
    obs = ObservedMatrix(10, 10, np.arange(10), np.arange(10), np.zeros(10))
    res = fpc(obs)
    assert res.status == CONVERGED
    assert res.iterations == 1
    assert res.x.rank == 0


def test_fpc_recovers_small_instance(rng):
    inst = gen_synthetic(50, 2, 0.4, seed=22)
    res = fpc(inst.obs, eps_3=1e-3, it_max=400)
    assert res.status == CONVERGED
    assert rer(inst.ground_truth, res.x) <= 1e-2


def test_fpc_schedule_validation(rng):
    obs = random_observed(rng, 6, 6, 0.5)
    with pytest.raises(ValueError, match="decay"):
        fpc(obs, decay=1.0)
    with pytest.raises(ValueError, match="floor"):
        fpc(obs, floor=0.0)


# --- soft impute and equivalences ---


def test_soft_impute_full_shrinkage(rng):
    obs = random_observed(rng, 15, 15, 0.4)
    sigma1 = truncated_svd(assemble_iterate_operator(obs, FactoredMatrix.zero(15, 15)), 1).sigma[0]
    res = soft_impute(obs, 1.01 * sigma1, it_max=20)
    assert res.iterations == 1
    assert res.x.k == 0


def test_soft_impute_objective_monotone(rng):
    truth, obs = observed_rank_r(rng, 25, 25, 2, 0.4)
    lam = 0.05 * truth.sigma[0]
    res = soft_impute(obs, lam, eps=1e-10, it_max=40)
    objs = res.trace.column("f_lambda")
    assert (np.diff(objs) <= 1e-10 * (1.0 + objs[:-1])).all()


def test_soft_impute_equals_single_lambda_unit_step_fpc(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 3, 0.5)
    lam = 0.1 * truth.sigma[0]
    si = soft_impute(obs, lam, eps=1e-300, it_max=20)
    fp = fpc(obs, eps_3=1e-300, it_max=20, step=1.0, lambda0=lam, floor=lam, inner_max=100)
    for col in ("f_lambda", "rel_residual", "rho", "rank"):
        a, b = si.trace.column(col), fp.trace.column(col)
        mask = np.isfinite(a) | np.isfinite(b)
        assert np.allclose(a[mask], b[mask], rtol=1e-12, atol=1e-12, equal_nan=True), col
    assert np.allclose(si.x.dense(), fp.x.dense(), atol=1e-12 * max(1.0, si.x.norm()))


def test_soft_impute_equals_phase_two_without_momentum(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 3, 0.5)
    lam = 0.1 * truth.sigma[0]
    si = soft_impute(obs, lam, eps=1e-8, it_max=30, rank_start=3)
    p2 = phase_two(obs, 3, lam, FactoredMatrix.zero(30, 30), eps_lambda=1e-8,
                   it_max=30, momentum=False)
    assert si.iterations == p2.iterations
    assert np.array_equal(si.x.sigma, p2.x.sigma)
    assert np.array_equal(si.trace.column("f_lambda"), p2.trace.column("f_lambda"))


def test_phase_two_objective_nonnegative_and_best_monotone(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 3, 0.5)
    lam = 0.05 * truth.sigma[0]
    res = phase_two(obs, 3, lam, FactoredMatrix.zero(30, 30), eps_lambda=1e-300, it_max=12)
    objs = res.trace.column("f_lambda")
    assert (objs >= 0.0).all()
    best = np.minimum.accumulate(objs)
    assert (np.diff(best) <= 0.0).all()


def test_two_phase_cleanup_needs_few_iterations():
    inst = gen_synthetic(1000, 10, 0.40, seed=0)
    res = two_phase(inst.obs, SolverConfig(r=10, beta=13.0))
    assert res.phase_split is not None
    assert res.phase_split[1] <= 10


def test_momentum_changes_phase_two_trajectory(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 3, 0.6)
    lam = 0.05 * truth.sigma[0]
    on = phase_two(obs, 3, lam, FactoredMatrix.zero(30, 30), eps_lambda=1e-300, it_max=8)
    off = phase_two(obs, 3, lam, FactoredMatrix.zero(30, 30), eps_lambda=1e-300,
                    it_max=8, momentum=False)
    assert not np.allclose(on.trace.column("f_lambda"), off.trace.column("f_lambda"))


# --- bookkeeping ---


def test_recovered_rank_matches_iterate(rng):
    inst = gen_synthetic(50, 2, 0.4, seed=3)
    for res in (
        two_phase(inst.obs, SolverConfig(r=2)),
        frsi(inst.obs, 2),
        svt(inst.obs, it_max=300),
        fpc(inst.obs, it_max=300),
    ):
        assert res.recovered_rank == res.x.rank
        res.x.validate()


def test_stall_detector_requires_three_consecutive():
    det = _StallDetector()
    assert not det.update(0.0)
    assert not det.update(0.0)
    assert det.update(0.0)
    det = _StallDetector()
    assert not det.update(0.0)
    assert not det.update(1.0)
    assert not det.update(0.0)
    assert not det.update(0.0)
    assert det.update(0.0)


# --- one omega-gather per iteration ---


@pytest.fixture
def gather_count(monkeypatch):
    """Counts every gather of factor rows onto observed entries."""
    calls = []
    original = factored.project_entries

    def counting(f, rows, cols):
        calls.append(f.k)
        return original(f, rows, cols)

    monkeypatch.setattr(factored, "project_entries", counting)
    return calls


@pytest.mark.parametrize("solve", [
    lambda obs: two_phase(obs, SolverConfig(r=3, beta=5.0)),
    lambda obs: phase_two(obs, 3, 0.5, FactoredMatrix.zero(60, 60), eps_lambda=1e-8),
    lambda obs: soft_impute(obs, 0.5, eps=1e-8, rank_start=3),
    lambda obs: frsi(obs, 3, eps_1=1e-6),
    lambda obs: fpc(obs, eps_3=1e-4, step=1.5),
    lambda obs: svt(obs, it_max=300),
], ids=["two_phase", "phase_two", "soft_impute", "frsi", "fpc", "svt"])
def test_one_gather_per_iteration(gather_count, solve):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = solve(inst.obs)
    assert res.iterations >= 3
    assert len(gather_count) <= res.iterations + 1


@pytest.fixture
def checked_residuals(monkeypatch):
    """Verifies each operator's residual against a fresh gather before its SVD."""
    checked = []
    original = solvers.truncated_svd

    def checking(op, k, **kwargs):
        op.check_residual(1e-12)
        checked.append(op.z.k)
        return original(op, k, **kwargs)

    monkeypatch.setattr(solvers, "truncated_svd", checking)
    return checked


def test_momentum_residual_matches_fresh_gather(checked_residuals):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0))
    assert res.phase_split[0] >= 3 and res.phase_split[1] >= 2
    # operators at a momentum point carry a combined factorization of up to 2r columns
    assert max(checked_residuals) > 3
    assert len(checked_residuals) >= res.iterations


def test_fpc_blended_residual_matches_fresh_gather(checked_residuals):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = fpc(inst.obs, eps_3=1e-4, step=1.5)
    assert len(checked_residuals) >= res.iterations + 1


# --- scale invariance ---


def scaled_observed(obs, s):
    return ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, s * obs.values)


@pytest.mark.parametrize("s", [1e-150, 1e-20, 1e20, 1e150])
@pytest.mark.parametrize("solve", [
    lambda obs, s: two_phase(obs, SolverConfig(r=3)),
    lambda obs, s: frsi(obs, 3),
    lambda obs, s: soft_impute(obs, s),  # lam = 1 at unit scale
], ids=["two_phase", "frsi", "soft_impute"])
def test_solves_are_invariant_under_rescaling(solve, s):
    inst = gen_synthetic(80, 3, 0.5, seed=1)
    ref = solve(inst.obs, 1.0)
    got = solve(scaled_observed(inst.obs, s), s)
    assert (got.iterations, got.status, got.recovered_rank, got.phase_split) == (
        ref.iterations, ref.status, ref.recovered_rank, ref.phase_split)
    expected = rer(inst.ground_truth, ref.x)
    assert rer(inst.ground_truth, scale(1.0 / s, got.x)) == pytest.approx(expected, rel=1e-9)


# --- input checks at the solver boundary ---


@pytest.fixture
def no_svd(monkeypatch):
    """Fails the test as soon as a solver reaches an SVD."""
    def reached(*args, **kwargs):
        raise AssertionError("invalid input reached truncated_svd")

    monkeypatch.setattr(solvers, "truncated_svd", reached)


@pytest.mark.parametrize("solve", [
    lambda obs: phase_two(obs, 2, 1.0, FactoredMatrix.zero(*obs.shape), rank_bump=0),
    lambda obs: soft_impute(obs, 1.0, rank_bump=0),
    lambda obs: svt(obs, rank_bump=0),
    lambda obs: fpc(obs, rank_bump=0),
    lambda obs: svt(obs, tau=math.nan),
    lambda obs: svt(obs, step=math.nan),
    lambda obs: svt(obs, eps_2=math.nan),
    lambda obs: phase_two(obs, 2, math.nan, FactoredMatrix.zero(*obs.shape)),
    lambda obs: soft_impute(obs, 1.0, eps=math.nan),
    lambda obs: phase_one(obs, 2, eps_rho=math.nan),
    lambda obs: phase_one(obs, 2, beta=math.nan),
    lambda obs: frsi(obs, 2, eps_1=math.nan),
    lambda obs: fpc(obs, lambda0=math.nan),
    lambda obs: fpc(obs, floor=math.nan),
    lambda obs: fpc(obs, step=math.nan),
], ids=["phase_two-rank_bump", "soft_impute-rank_bump", "svt-rank_bump", "fpc-rank_bump",
        "svt-tau", "svt-step", "svt-eps_2", "phase_two-lam", "soft_impute-eps",
        "phase_one-eps_rho", "phase_one-beta", "frsi-eps_1", "fpc-lambda0", "fpc-floor",
        "fpc-step"])
def test_invalid_parameters_fail_before_any_svd(no_svd, solve):
    obs = gen_synthetic(20, 2, 0.5, seed=2).obs
    with pytest.raises(ValueError):
        solve(obs)


@pytest.mark.parametrize("solve", [
    lambda obs: two_phase(obs, SolverConfig(r=2)),
    lambda obs: phase_two(obs, 2, 1.0, FactoredMatrix.zero(*obs.shape)),
    lambda obs: frsi(obs, 2),
    lambda obs: svt(obs),
    lambda obs: fpc(obs),
], ids=["two_phase", "phase_two", "frsi", "svt", "fpc"])
def test_overflowing_data_norm_fails_before_any_svd(no_svd, solve):
    obs = scaled_observed(gen_synthetic(20, 2, 0.5, seed=2).obs, 1e200)
    with pytest.raises(ValueError, match="rescale"):
        solve(obs)
