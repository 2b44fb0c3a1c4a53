import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from matcomplete import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIVERGED,
    FactoredMatrix,
    ObservedMatrix,
    SolverConfig,
    dense_svd,
    fixed_rank_step,
    fpc,
    frsi,
    gen_synthetic,
    momentum_coefficient,
    objective,
    phase_one,
    phase_two,
    project_omega,
    rer,
    scale,
    soft_impute,
    soft_threshold,
    svt,
    truncated_svd,
    two_phase,
)
from matcomplete import factored, shrinkage, solvers
from matcomplete.operators import SpLrOperator, assemble_iterate_operator
from matcomplete.solvers import _Progress
from matcomplete.svd import DEFAULT_TOL, LanczosStart

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
        SolverConfig(r=2, step_svt=-3.0)
    for name in ("eps_rho", "beta", "step_svt"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(r=2, **{name: math.nan})
    # counts must be integers, and bools are not counts
    for kwargs, name in [(dict(r=3.5), "r"), (dict(r=3, w=2.5), "w"),
                         (dict(r=3, it_max=2.5), "it_max"), (dict(r=True), "r")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SolverConfig(**kwargs)


def test_config_text_round_trip(tmp_path):
    cfg = SolverConfig(r=7, beta=13.0, step_svt=1.99, eps_3=2e-5)
    text = cfg.to_text()
    keys = [line.split(" =")[0] for line in text.splitlines()]
    assert keys == ["r", "eps_rho", "eps_1", "eps_2", "eps_3", "eps_lambda", "w",
                    "it_max", "beta", "step_svt"]
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
    with pytest.raises(ValueError, match="line 2: unknown key 'svd_tol'"):
        SolverConfig.from_text("r = 3\nsvd_tol = 1e-8\n")
    for text, where in [
        ("r = auto\n", "line 1: r "),
        ("r = 3\nw = auto\n", "line 2: w "),
        ("r = 3\neps_rho = auto\n", "line 2: eps_rho "),
        ("r = 3\nit_max = 5.0\n", "line 2: it_max "),
        ("r = 3.5\n", "line 1: r "),
        ("r = 3\n# comment\nbeta = -1\n", "line 3: beta "),
        ("r = 2\neps_rho = inf\n", "line 2: eps_rho "),
    ]:
        with pytest.raises(ValueError, match=where):
            SolverConfig.from_text(text)
    assert SolverConfig.from_text("r = 3\nstep_svt = auto\n").step_svt is None
    with pytest.raises(ValueError, match="line 3: key 'r' repeats line 1"):
        SolverConfig.from_text("r = 3\nbeta = 2.0\nr = 4\n")


# --- phase one ---


def test_phase_one_fully_observed_exits_at_two(rng):
    truth, obs = observed_rank_r(rng, 40, 40, 3, 0.0)
    obs = full_observed(truth.dense())
    p1 = phase_one(obs, 3, eps_rho=1e-4, w=50, beta=2.0)
    assert p1.iterations == 2
    assert p1.stabilized
    assert p1.stabilized == (p1.first_iterate is not None)
    assert p1.rho <= 1e-10 * truth.sigma[0]
    assert np.allclose(p1.z.dense(), truth.dense(), atol=1e-8 * truth.sigma[0])


def test_phase_one_records_trace_and_respects_budget(rng):
    truth, obs = observed_rank_r(rng, 30, 30, 2, 0.5)
    p1 = phase_one(obs, 2, eps_rho=1e-12, w=7, beta=2.0)
    assert p1.iterations == 7
    assert not p1.stabilized
    assert p1.stabilized == (p1.first_iterate is not None)
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
    with pytest.raises(ValueError, match="shape mismatch: first iterate"):
        phase_two(obs, 1, 1.0, z, first_iterate=FactoredMatrix.zero(5, 6))
    # a non-finite iterate from the caller never reaches a gather or an SVD
    u = np.eye(5, 1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^x0 must have finite factors"):
            phase_two(obs, 1, 1.0, FactoredMatrix(u, np.array([bad]), u))
        v = u.copy()
        v[0, 0] = bad
        with pytest.raises(ValueError, match="^first_iterate must have finite factors"):
            phase_two(obs, 1, 1.0, z, first_iterate=FactoredMatrix(u, np.ones(1), v))


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
    # one clock across both phases
    assert (np.diff(res.trace.column("time_s")) >= 0).all()


def test_two_phase_warm_start_wiring(rng):
    # phase one capped at a single pass must hand S_rho(data) and rho to phase two
    inst = gen_synthetic(40, 2, 0.4, seed=9)
    cfg = SolverConfig(r=2, w=1, eps_lambda=1e-8)
    res = two_phase(inst.obs, cfg)

    # the call phase one's first step makes: the data start, at the rule's
    # cap min(eps_rho, 1e-3), with the third triplet read as a value
    op = assemble_iterate_operator(inst.obs, FactoredMatrix.zero(40, 40))
    f = truncated_svd(op, 3, tol=min(cfg.eps_rho, 1e-3), start=LanczosStart.from_data(inst.obs),
                      last_vector=False)
    rho1 = float(f.sigma[2])
    x0 = soft_threshold(f, rho1)
    ref = phase_two(inst.obs, 2, rho1, x0, eps_lambda=1e-8, it_max=500)

    assert res.phase_split[0] == 1
    assert res.iterations == 1 + ref.iterations
    assert res.status == ref.status
    assert np.allclose(res.x.dense(), ref.x.dense(), atol=1e-10 * max(1.0, ref.x.norm()))


@pytest.fixture
def svd_calls(monkeypatch):
    """Records every SVD call the solvers make, in order: its keywords, its
    result and its operator (regrowth calls within one iteration share it)."""
    calls = []
    original = solvers.truncated_svd

    def recording(op, k, **kwargs):
        f = original(op, k, **kwargs)
        calls.append((kwargs, f, op))
        return f

    monkeypatch.setattr(solvers, "truncated_svd", recording)
    return calls


def test_two_phase_reuses_phase_one_exit_svd(svd_calls):
    # phase one's p1 SVDs and the refine of its exit SVD, then phase two's
    # p2 - 1: its first iteration makes none
    inst = gen_synthetic(80, 3, 0.3, seed=5)
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0))
    p1, p2 = res.phase_split
    assert p1 >= 3 and p2 >= 2
    assert len(svd_calls) == p1 + p2


def test_phase_two_first_iterate_is_phase_one_exit_svd_shrunk(svd_calls):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    p1 = phase_one(inst.obs, 3, beta=5.0)
    assert p1.stabilized
    # the exit SVD refined at _HANDOFF_TOL on its own operator, from a block
    # of its own factor, not moved on
    (_, exit_svd, exit_op), (kwargs, refined, op) = svd_calls[-2:]
    assert op is exit_op and kwargs["tol"] == solvers._HANDOFF_TOL
    cold = LanczosStart.from_data(inst.obs)
    assert np.array_equal(kwargs["start"].block, cold.predicted(exit_svd, None, 1.0).block)
    # its top r triplets shrunk at the unrefined rho
    first = p1.first_iterate
    top = soft_threshold(FactoredMatrix(refined.u[:, :3], refined.sigma[:3], refined.v[:, :3]),
                         p1.rho)
    assert np.array_equal(first.sigma, top.sigma)
    assert np.array_equal(first.u, top.u)
    assert np.array_equal(first.v, top.v)
    assert first.rank <= 3
    # phase two takes it as its first iterate, with no SVD of its own
    svd_calls.clear()
    res = phase_two(inst.obs, 3, p1.rho, p1.z, it_max=1, first_iterate=first)
    assert svd_calls == []
    assert res.iterations == 1
    record = res.trace.records[0]
    assert record.rank == first.rank
    assert record.rho == p1.rho


@pytest.mark.parametrize("n, r, p", [(60, 3, 0.4), (80, 3, 0.3), (100, 4, 0.5), (200, 5, 0.5)])
def test_phase_one_handoff_is_the_first_step_of_phase_two(n, r, p):
    # what the handoff promises: the filled-in z's top r triplets shrunk at
    # rho, here from a dense SVD.  A fresh truncated SVD would not do as the
    # reference: its sigma_{r+1} sits above rho by phase one's value error,
    # and the shrink keeps that excess as an (r+1)-th column
    for seed in range(6):
        inst = gen_synthetic(n, r, p, seed=seed)
        p1 = phase_one(inst.obs, r, beta=5.0)
        assert p1.stabilized
        dense = dense_svd(assemble_iterate_operator(inst.obs, p1.z).dense())
        step = soft_threshold(FactoredMatrix(dense.u[:, :r], dense.sigma[:r], dense.v[:, :r]),
                              p1.rho)
        assert np.abs(p1.first_iterate.dense() - step.dense()).max() <= 1e-9 * p1.sigma_top


def test_phase_two_computes_its_first_svd_when_phase_one_exhausts_w(svd_calls):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    p1 = phase_one(inst.obs, 3, w=2, beta=5.0)
    assert not p1.stabilized
    assert p1.first_iterate is None
    svd_calls.clear()
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0, w=2))
    assert res.phase_split[0] == 2
    assert len(svd_calls) == res.iterations


def test_shrink_at_level_grows_until_the_shrink_drops_the_last_value(svd_calls):
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    sigma = np.linspace(10.0, 1.0, 20)
    obs = full_observed((u * sigma) @ v.T)
    op = assemble_iterate_operator(obs, FactoredMatrix.zero(20, 20))
    # below the 7th value and above the 8th: one regrowth from 3 triplets to 8
    level = 0.5 * (sigma[6] + sigma[7])
    x, beyond = solvers._shrink_at_level(_Progress(obs, 1e-4), op, level, 2)
    assert [f.k for _, f, _ in svd_calls] == [3, 8]
    assert x.k == 7 and beyond == svd_calls[-1][1].sigma[-1]
    # a level equal to the last computed value is a tie, which the shrink
    # drops: no further SVD, and that value is the largest shrunk to zero
    tie = svd_calls[0][1].sigma[-1]
    svd_calls.clear()
    x, beyond = solvers._shrink_at_level(_Progress(obs, 1e-4), op, tie, 2)
    assert len(svd_calls) == 1
    assert x.k == 2 and beyond == tie


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


def test_svt_holds_one_misfit_at_a_time():
    # the dual moves in place and a pass's misfit is dropped before the next
    # gather, so beside the 4.8 MB dual only one 4.8 MB misfit lives at a
    # time; holding the last one over the gather added a third
    inst = gen_synthetic(1000, 10, 0.4, 0)
    inst.obs.gather_plan  # built before tracing: omega keeps it
    tracemalloc.start()
    try:
        svt(inst.obs, it_max=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * inst.obs.nnz + 3_000_000, f"svt peak {peak / 1e6:.1f} MB"


def test_svt_stops_cleanly_when_its_dual_diverges():
    # the default step 1.2 mn / nnz is 24 on 5 entries of a 10x10 matrix, far
    # too large: the dual grows about 23-fold per pass
    rng = np.random.default_rng(1)
    rows, cols = np.divmod(rng.choice(100, 5, replace=False), 10)
    obs = ObservedMatrix(10, 10, rows, cols, 100 * rng.standard_normal(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = svt(obs)
    assert res.status == DIVERGED
    assert res.iterations < 10
    assert np.isfinite(res.x.sigma).all() and np.isfinite(res.x.u).all() and np.isfinite(res.x.v).all()
    ratios = res.trace.column("rel_residual")
    assert ratios[-1] > 1e4 and (ratios[:-1] <= 1e4).all()


def test_svt_parameter_validation(rng):
    obs = random_observed(rng, 6, 6, 0.5)
    with pytest.raises(ValueError, match="positive"):
        svt(obs, step=0.0)


# each solve at its stop level eps
STOP_LEVEL_SOLVES = {
    "svt": lambda obs, eps: svt(obs, eps_2=eps, it_max=150),
    "phase_one": lambda obs, eps: phase_one(obs, 3, eps_rho=eps, beta=5.0),
    "phase_two": lambda obs, eps: phase_two(obs, 3, 0.5, FactoredMatrix.zero(*obs.shape),
                                            eps_lambda=eps),
    "soft_impute": lambda obs, eps: soft_impute(obs, 0.5, eps=eps, rank_start=3),
    "fpc": lambda obs, eps: fpc(obs, eps_3=eps, step=1.5),
    "frsi": lambda obs, eps: frsi(obs, 3, eps_1=eps),
}


def rule_tols(records, eps):
    """The SVD tolerance of each record, as the rule sets it from the change
    ratios of the records before it: between ``floor = clamp(1e-2 eps,
    1e-10, 1e-6)`` and ``cap = max(floor, min(eps, 1e-3))``, at ``cap`` while
    the last change ``d`` is not finite, else at ``3e-2 d q`` with ``q = max(0,
    1 - d / d')`` for the change ``d'`` before it, or 1 when ``d'`` is not
    finite or zero."""
    floor = min(max(1e-2 * eps, 1e-10), 1e-6)
    cap = max(floor, min(eps, 1e-3))
    tols, d, d_before = [], math.nan, math.nan
    for record in records:
        if not math.isfinite(d):
            tols.append(cap)
        else:
            q = max(0.0, 1.0 - d / d_before) if math.isfinite(d_before) and d_before > 0 else 1.0
            tols.append(max(floor, min(cap, 3e-2 * d * q)))
        d, d_before = record.rel_change, d
    return tols


def assert_one_svd_rule(calls, data, tols):
    """The calls of each iteration, those sharing one operator, at that
    iteration's ``tols`` entry, reading the last triplet as a value, on the
    data-derived start's side; the first from that start itself, each later
    one, bit for bit, from the call before it: that call's factor on the
    run's side summed, divided by its largest magnitude and normalized, plus
    0.01 times the normalized data start.  The one call outside the rule's
    tolerances is fpc's lambda0 call, at DEFAULT_TOL, which the caller puts
    into ``tols``."""
    cold = LanczosStart.from_data(data)
    iterations = [list(group) for _, group in itertools.groupby(calls, key=lambda c: id(c[2]))]
    assert len(iterations) == len(tols)
    for group, tol in zip(iterations, tols):
        for kwargs, _, _ in group:
            assert kwargs["tol"] == tol
            assert kwargs["last_vector"] is False
            assert kwargs["start"].transposed == cold.transposed
    assert np.array_equal(calls[0][0]["start"].vector, cold.vector)
    mixed = 0.01 * (cold.vector / np.linalg.norm(cold.vector))
    for (kwargs, _, _), (_, previous, _) in zip(calls[1:], calls):
        s = (previous.u if cold.transposed else previous.v).sum(axis=1)
        s = s / np.abs(s).max()
        s /= np.linalg.norm(s)
        assert np.array_equal(kwargs["start"].vector, s + mixed)
    return cold


@pytest.mark.parametrize("name, eps", [
    ("svt", 1e-4), ("svt", 1e-3), ("svt", 1e-12), ("phase_one", 1e-4), ("phase_two", 1e-8),
    ("soft_impute", 1e-8), ("fpc", 1e-4), ("frsi", 1e-6),
], ids=["svt-0.0001", "svt-0.001", "svt-1e-12", "phase_one-0.0001", "phase_two-1e-08",
        "soft_impute-1e-08", "fpc-0.0001", "frsi-1e-06"])
def test_solver_svds_run_at_their_stop_accuracy_from_the_data_start(svd_calls, name, eps):
    # criterion 8 and the property tests' bounds rest on these: every call at
    # the tolerance the rule sets from the solver's own stop level and the
    # change ratios recorded before it, which each record carries; the first
    # cold and each later one warm from the one before; the data and its
    # transpose run on both sides
    obs = gen_synthetic(60, 3, 0.4, seed=4).obs
    sides = set()
    for data in (obs, ObservedMatrix(60, 60, obs.cols, obs.rows, obs.values)):
        svd_calls.clear()
        records = STOP_LEVEL_SOLVES[name](data, eps).trace.records
        assert len(svd_calls) >= 3
        tols = rule_tols(records, eps)
        if name == "phase_one":
            # its refine of the exit SVD, on the same operator at
            # _HANDOFF_TOL and warm from it, is the one call outside the
            # rule; the exit record carries its tolerance
            (kwargs, _, op), (_, exit_svd, exit_op) = svd_calls.pop(), svd_calls[-1]
            assert op is exit_op and kwargs["tol"] == solvers._HANDOFF_TOL
            assert np.array_equal(kwargs["start"].vector,
                                  LanczosStart.from_data(data).warm(exit_svd).vector)
            assert records[-1].svd_tol == solvers._HANDOFF_TOL
            records = records[:-1]
        assert [record.svd_tol for record in records] == tols[:len(records)]
        if name == "fpc":
            # its lambda0 SVD comes before any step, at DEFAULT_TOL: the one
            # exception to the rule
            tols = [DEFAULT_TOL] + tols
        sides.add(assert_one_svd_rule(svd_calls, data, tols).transposed)
    assert sides == {False, True}


def test_two_phase_svds_restart_cold_at_each_phase(svd_calls):
    # phase one makes one SVD per iteration under the rule at eps_rho, then
    # refines its exit SVD at _HANDOFF_TOL; phase two makes the rest at
    # eps_lambda.  Each phase starts cold, then warm from its own previous
    # SVD.  Phase one's exit record and phase two's first, the refined exit
    # SVD shrunk, carry the refine's tolerance.
    inst = gen_synthetic(80, 3, 0.3, seed=5)
    config = SolverConfig(r=3, beta=5.0, eps_rho=1e-5, eps_lambda=1e-7)
    res = two_phase(inst.obs, config)
    p1, p2 = res.phase_split
    (refine, _, _), phase_two_calls = svd_calls[p1], svd_calls[p1 + 1:]
    assert p1 >= 3 and len(phase_two_calls) >= p2 - 1 >= 2
    assert refine["tol"] == solvers._HANDOFF_TOL
    tols_1 = rule_tols(res.trace.records[:p1], config.eps_rho)
    tols_2 = rule_tols(res.trace.records[p1:], config.eps_lambda)[1:]
    handoff = [solvers._HANDOFF_TOL] * 2
    assert res.trace.column("svd_tol").tolist() == tols_1[:-1] + handoff + tols_2
    # the rule moved: each phase ran at more than one tolerance
    assert len(set(tols_1)) > 1 and len(set(tols_2)) > 1
    assert_one_svd_rule(svd_calls[:p1], inst.obs, tols_1)
    assert_one_svd_rule(phase_two_calls, inst.obs, tols_2)


@pytest.fixture
def block_products(monkeypatch):
    """Counts the block products of every fill-in operator."""
    counts = []
    for name in ("matmat", "rmatmat"):
        original = getattr(SpLrOperator, name)

        def counting(self, x, _original=original):
            counts.append(x.shape[1])
            return _original(self, x)

        monkeypatch.setattr(SpLrOperator, name, counting)
    return counts


def calls_by_iteration(calls):
    """``svd_calls`` grouped by iteration: the calls sharing one operator."""
    return [list(group) for _, group in itertools.groupby(calls, key=lambda c: id(c[2]))]


@pytest.mark.parametrize("name", ["phase_one", "frsi", "svt", "fpc", "phase_two", "soft_impute"])
def test_only_the_fixed_rank_loops_take_the_block_step(svd_calls, block_products, name):
    # phase_one, frsi and svt hand each SVD the previous one's factor as a
    # block once the last change ratio is at most 0.1; phase two,
    # soft_impute and fpc, whose rank moves with a weight, never do
    obs = gen_synthetic(60, 3, 0.4, seed=4).obs
    records = STOP_LEVEL_SOLVES[name](obs, 1e-4).trace.records
    blocks = [[kwargs["start"].block is not None for kwargs, _, _ in group]
              for group in calls_by_iteration(svd_calls)]
    if name in ("phase_one", "frsi", "svt"):
        # each SVD of an iteration, svt's regrowth calls included, reads the
        # change ratio of the step before it
        assert blocks == [[False] * len(blocks[0])] + [
            [r.rel_change <= 0.1] * len(group) for r, group in zip(records, blocks[1:])]
        assert block_products
        if name != "svt":
            # each block is the previous factor, 4 columns, plus 1 data column
            assert set(block_products) == {5}
    else:
        assert not any(map(any, blocks)) and block_products == []


@pytest.mark.parametrize("name", ["phase_one", "frsi", "svt"])
def test_fixed_rank_loops_take_the_predicted_block(svd_calls, name):
    # each block moves the previous factor's leading columns on by min(1, d /
    # d') of their last move; phase one's refine of its exit SVD, the one
    # call at _HANDOFF_TOL, takes that SVD's own factor, not moved on
    obs = gen_synthetic(60, 3, 0.4, seed=4).obs
    records = STOP_LEVEL_SOLVES[name](obs, 1e-4).trace.records
    cold = LanczosStart.from_data(obs)
    # the change ratios d' and d that each iteration's calls read, and the
    # results before and before that of each call
    changes = [math.nan, math.nan] + [r.rel_change for r in records]
    iteration = [i for i, group in enumerate(calls_by_iteration(svd_calls)) for _ in group]
    results = [None, None] + [f for _, f, _ in svd_calls]
    blocks = predicted = refines = 0
    for call, (kwargs, _, _) in enumerate(svd_calls):
        start = kwargs["start"]
        if start.block is None:
            continue
        blocks += 1
        d_before, d = changes[iteration[call]:iteration[call] + 2]
        before, previous = results[call:call + 2]
        if kwargs["tol"] == solvers._HANDOFF_TOL:
            refines += 1
            before = None
        weight = min(1.0, d / d_before) if math.isfinite(d_before) and d_before > 0 else 1.0
        assert np.array_equal(start.block, cold.predicted(previous, before, weight).block)
        predicted += not np.array_equal(start.block, cold.predicted(previous, None, 1.0).block)
    assert blocks and predicted
    assert refines == (name == "phase_one")


@pytest.mark.parametrize("solve", [
    lambda obs: two_phase(obs, SolverConfig(r=3, beta=5.0)),
    lambda obs: phase_one(obs, 3, beta=5.0),
], ids=["two_phase", "phase_one"])
def test_phase_one_svds_read_the_last_triplet_as_a_value(svd_calls, solve):
    # each shrinks its k-th triplet to zero or reads only its value; the
    # other solvers, fpc's lambda0 call included, are checked above
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    solve(inst.obs)
    assert len(svd_calls) >= 3
    assert all(kwargs["last_vector"] is False for kwargs, _, _ in svd_calls)


def test_fixed_rank_step_reads_the_last_triplet_as_a_value(monkeypatch):
    calls = []
    original = shrinkage.truncated_svd

    def recording(op, k, **kwargs):
        calls.append(kwargs)
        return original(op, k, **kwargs)

    monkeypatch.setattr(shrinkage, "truncated_svd", recording)
    inst = gen_synthetic(40, 2, 0.5, seed=3)
    x, rho = fixed_rank_step(FactoredMatrix.zero(40, 40), inst.obs, 2)
    assert calls == [{"last_vector": False}]
    assert x.rank <= 2 and rho > 0


@pytest.mark.parametrize("eps_2", [1e-4, 1e-3])
@pytest.mark.parametrize("n, r, p, seed", [
    (60, 2, 0.4, 21), (60, 3, 0.4, 4), (120, 4, 0.5, 3), (200, 5, 0.6, 1), (50, 2, 0.4, 3),
])
def test_svt_solves_as_with_cold_svds_at_default_tol(monkeypatch, n, r, p, seed, eps_2):
    inst = gen_synthetic(n, r, p, seed=seed)
    got = svt(inst.obs, eps_2=eps_2)
    original = solvers.truncated_svd

    def cold_at_default_tol(op, k, **kwargs):
        return original(op, k)

    monkeypatch.setattr(solvers, "truncated_svd", cold_at_default_tol)
    ref = svt(inst.obs, eps_2=eps_2)
    assert (got.iterations, got.status, got.recovered_rank) == (
        ref.iterations, ref.status, ref.recovered_rank)
    # each SVD leaves a residual of at most tol * sigma_1, so the iterate may
    # drift a few tol from the reference, but not ten (the worst measured
    # over these cases is 1.5 tol)
    tol = max(1e-2 * eps_2, DEFAULT_TOL)
    expected = ref.x.dense()
    assert np.abs(got.x.dense() - expected).max() <= 10 * tol * np.abs(expected).max()


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
    fp = fpc(obs, eps_3=1e-300, it_max=20, step=1.0, lambda0=lam, floor=lam)
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


def test_stall_detector_requires_three_consecutive(rng):
    obs = random_observed(rng, 6, 6, 0.5)
    progress = _Progress(obs, 1e-4)
    assert not progress.frozen(0.0)
    assert not progress.frozen(0.0)
    assert progress.frozen(0.0)
    progress = _Progress(obs, 1e-4)
    assert not progress.frozen(0.0)
    assert not progress.frozen(1.0)
    assert not progress.frozen(0.0)
    assert not progress.frozen(0.0)
    assert progress.frozen(0.0)


# --- one omega-gather per iteration ---


@pytest.fixture
def gather_count(monkeypatch):
    """Counts every gather of factor rows onto observed entries; building a
    synthetic instance gathers its values too, so tests clear it after that."""
    calls = []
    original = factored._gather

    def counting(f, plan):
        calls.append(f.k)
        return original(f, plan)

    monkeypatch.setattr(factored, "_gather", counting)
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
    gather_count.clear()
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


def test_stabilized_two_phase_gathers_once_per_iteration(gather_count):
    # phase two gathers its start itself; the first iterate it is handed
    # takes the place of an SVD, not of a gather
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    gather_count.clear()
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0))
    p1, p2 = res.phase_split
    assert p1 < 500 and p2 >= 2
    assert len(gather_count) == res.iterations


def test_phase_one_returns_an_orthonormal_momentum_point():
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    for w in (2, 500):
        p1 = phase_one(inst.obs, 3, w=w, beta=5.0)
        p1.z.validate()


def test_phase_one_refactors_its_momentum_point_only_at_the_exit(monkeypatch):
    calls = []
    original = solvers.combine

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solvers, "combine", counting)
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    p1 = phase_one(inst.obs, 3, beta=5.0)
    assert p1.iterations >= 4
    assert len(calls) == 1
    # with ground truth each pass from the third on (the first two have no
    # momentum) also refactors it for the Fejer slack
    calls.clear()
    p1 = phase_one(inst.obs, 3, beta=5.0, ground_truth=inst.ground_truth)
    assert len(calls) == p1.iterations - 2


def test_momentum_residual_matches_fresh_gather(checked_residuals):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = two_phase(inst.obs, SolverConfig(r=3, beta=5.0))
    assert res.phase_split[0] >= 3 and res.phase_split[1] >= 2
    # operators at a momentum point carry a combined factorization of up to 2r columns
    assert max(checked_residuals) > 3
    # phase two's first step is read off phase one's exit SVD, refined on the
    # exit operator
    assert len(checked_residuals) == res.phase_split[0] + res.phase_split[1]


@pytest.mark.parametrize("solve", [
    lambda obs: frsi(obs, 3, eps_1=1e-6),
    lambda obs: soft_impute(obs, 0.5, eps=1e-8, rank_start=3),
], ids=["frsi", "soft_impute"])
def test_fill_in_residual_matches_fresh_gather(checked_residuals, solve):
    # operators keep the misfit buffers they are given, uncopied, so a buffer
    # rewritten under a live operator would show up as a stale residual here
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = solve(inst.obs)
    assert res.iterations >= 3
    assert len(checked_residuals) >= res.iterations


def test_phase_two_checks_its_momentum_points_from_zero(checked_residuals):
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    res = phase_two(inst.obs, 3, 0.5, FactoredMatrix.zero(*inst.obs.shape), eps_lambda=1e-8)
    assert res.iterations >= 3
    assert len(checked_residuals) >= res.iterations
    # a momentum point carries both iterates' factor pairs
    assert max(checked_residuals) > res.x.rank


def test_fpc_blended_residual_matches_fresh_gather(monkeypatch):
    # the lambda0 operator is the data at zero, a plain misfit operator; each
    # pass then fills in x + step * P_omega(a - x), whose residual is the
    # step-scaled misfit; all of them on the data's own omega
    inst = gen_synthetic(60, 3, 0.4, seed=4)
    step = 1.5
    checked = []
    original = solvers.truncated_svd

    def checking(op, k, **kwargs):
        assert op.obs is inst.obs
        if checked:
            fresh = step * (op.obs.values - factored.project_omega(op.z, op.obs))
            bound = 1e-12 * max(np.abs(op.obs.values).max(), 1.0)
            assert np.abs(fresh - op.residual).max() <= bound
        else:
            op.check_residual(1e-12)
        checked.append(op.z.k)
        return original(op, k, **kwargs)

    monkeypatch.setattr(solvers, "truncated_svd", checking)
    res = fpc(inst.obs, eps_3=1e-4, step=step)
    assert len(checked) >= res.iterations + 1


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


@pytest.mark.parametrize("solve, name", [
    (lambda obs: svt(obs, step=math.nan), "step"),
    (lambda obs: svt(obs, eps_2=math.nan), "eps_2"),
    (lambda obs: phase_two(obs, 2, math.nan, FactoredMatrix.zero(*obs.shape)), "lam"),
    (lambda obs: soft_impute(obs, math.nan), "lam"),
    (lambda obs: soft_impute(obs, 1.0, eps=math.nan), "eps"),
    (lambda obs: phase_one(obs, 2, eps_rho=math.nan), "eps_rho"),
    (lambda obs: phase_one(obs, 2, beta=math.nan), "beta"),
    (lambda obs: frsi(obs, 2, eps_1=math.nan), "eps_1"),
    (lambda obs: fpc(obs, lambda0=math.nan), "lambda0"),
    (lambda obs: fpc(obs, floor=math.nan), "floor"),
    (lambda obs: fpc(obs, step=math.nan), "step"),
    (lambda obs: svt(obs, step=math.inf), "step"),
    (lambda obs: fpc(obs, step=math.inf), "step"),
    (lambda obs: fpc(obs, lambda0=math.inf), "lambda0"),
    (lambda obs: soft_impute(obs, math.inf), "lam"),
    (lambda obs: phase_one(obs, 2, beta=math.inf), "beta"),
    (lambda obs: two_phase(obs, SolverConfig(r=2, eps_rho=math.inf)), "eps_rho"),
    (lambda obs: two_phase(obs, SolverConfig(r=3.5)), "r"),
    (lambda obs: frsi(obs, 3.5), "r"),
    (lambda obs: frsi(obs, True), "r"),
    (lambda obs: phase_one(obs, 3, w=2.5), "w"),
    (lambda obs: phase_two(obs, 2, 1.0, FactoredMatrix.zero(*obs.shape), it_max=2.5), "it_max"),
    (lambda obs: soft_impute(obs, 1.0, rank_start=2.5), "rank_start"),
    (lambda obs: svt(obs, it_max=2.5), "it_max"),
    (lambda obs: fpc(obs, it_max=2.5), "it_max"),
], ids=["svt-step", "svt-eps_2", "phase_two-lam", "soft_impute-lam", "soft_impute-eps",
        "phase_one-eps_rho", "phase_one-beta", "frsi-eps_1", "fpc-lambda0", "fpc-floor",
        "fpc-step", "svt-step-inf", "fpc-step-inf", "fpc-lambda0-inf", "soft_impute-lam-inf",
        "phase_one-beta-inf", "two_phase-eps_rho-inf", "two_phase-r", "frsi-r", "frsi-r-bool",
        "phase_one-w", "phase_two-it_max", "soft_impute-rank_start", "svt-it_max", "fpc-it_max"])
def test_invalid_parameters_fail_before_any_svd(no_svd, solve, name):
    obs = gen_synthetic(20, 2, 0.5, seed=2).obs
    with pytest.raises(ValueError, match=rf"^{name} must be "):
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


# --- a non-finite SVD value ---


def poison_svd(monkeypatch, poisoned):
    """Puts a NaN into sigma_1 of every SVD call ``poisoned(kwargs, call)``
    selects, ``call`` counting from 1; returns the list of calls made."""
    calls = []
    original = solvers.truncated_svd

    def poisoning(op, k, **kwargs):
        f = original(op, k, **kwargs)
        calls.append(f)
        if poisoned(kwargs, len(calls)):
            f = FactoredMatrix(f.u, np.r_[math.nan, f.sigma[1:]], f.v)
        return f

    monkeypatch.setattr(solvers, "truncated_svd", poisoning)
    return calls


NAN_SOLVES = {
    "two_phase": lambda obs: two_phase(obs, SolverConfig(r=2)),
    "phase_two": lambda obs: phase_two(obs, 2, 1.0, FactoredMatrix.zero(*obs.shape)),
    "soft_impute": lambda obs: soft_impute(obs, 1.0, rank_start=2),
    "frsi": lambda obs: frsi(obs, 2),
    "svt": lambda obs: svt(obs),
    "fpc": lambda obs: fpc(obs),
}


@pytest.mark.parametrize("call", [1, 3])
@pytest.mark.parametrize("name", NAN_SOLVES)
def test_a_nan_svd_value_ends_the_solve_as_diverged(monkeypatch, name, call):
    # the stop tests used to read it: soft_threshold drops a NaN sigma_1, so
    # soft_impute and fpc saw a zero change and reported converged, and
    # phase one never stabilized on a NaN anchor before phase two converged
    obs = gen_synthetic(40, 2, 0.5, seed=1).obs
    calls = poison_svd(monkeypatch, lambda kwargs, i: i == call)
    res = NAN_SOLVES[name](obs)
    assert res.status == DIVERGED
    assert len(calls) == call
    # stopped at once: no record for the poisoned pass, and no SVD after it
    assert len(res.trace) == res.iterations < call
    assert all(np.isfinite(a).all() for a in (res.x.u, res.x.sigma, res.x.v))


def test_a_nan_in_phase_two_ends_two_phase_as_diverged(monkeypatch):
    obs = gen_synthetic(40, 2, 0.5, seed=1).obs
    ref = two_phase(obs, SolverConfig(r=2))
    assert ref.status == CONVERGED and ref.phase_split[1] >= 3
    # phase one makes one SVD per iteration and refines the last; phase
    # two's first is the call after that
    calls = poison_svd(monkeypatch, lambda kwargs, i: i == ref.phase_split[0] + 2)
    res = two_phase(obs, SolverConfig(r=2))
    assert res.status == DIVERGED
    # phase two's first step is phase one's exit SVD, so its first SVD is its second step
    assert res.phase_split == (ref.phase_split[0], 1)
    assert len(calls) == ref.phase_split[0] + 2


def test_a_nan_in_the_handoff_ends_two_phase_as_diverged(monkeypatch):
    # the refine of phase one's exit SVD is checked like every other SVD:
    # phase one stops at once, with no record for its exit pass, and the
    # solve returns phase one's last finite iterate
    obs = gen_synthetic(40, 2, 0.5, seed=1).obs
    ref = phase_one(obs, 2)
    assert ref.stabilized
    calls = poison_svd(monkeypatch, lambda kwargs, i: kwargs["tol"] == solvers._HANDOFF_TOL)
    res = two_phase(obs, SolverConfig(r=2))
    assert res.status == DIVERGED
    assert len(calls) == ref.iterations + 1
    assert res.phase_split == (ref.iterations - 1, 0) and len(res.trace) == res.iterations
    for a, b in zip((res.x.u, res.x.sigma, res.x.v), (ref.x_last.u, ref.x_last.sigma, ref.x_last.v)):
        assert np.array_equal(a, b)


def test_a_nan_ends_phase_one_as_diverged(monkeypatch):
    obs = gen_synthetic(40, 2, 0.5, seed=1).obs
    poison_svd(monkeypatch, lambda kwargs, i: i == 2)
    p1 = phase_one(obs, 2)
    assert p1.diverged and not p1.stabilized
    assert p1.stabilized == (p1.first_iterate is not None)
    assert p1.iterations == 1
    assert np.isfinite(p1.rho)
