"""Iterative completion schemes: the two-phase rank-based algorithm and the
FRSI, SVT, FPC and Soft-Impute baselines, with trace recording."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .factored import FactoredMatrix, combine, frobenius_distance, project_omega
from .observed import ObservedMatrix
from .operators import SpLrOperator, assemble_iterate_operator
from .shrinkage import fejer_slack, soft_threshold
from .svd import DEFAULT_TOL, truncated_svd

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"
STALLED = "stalled"

# Iterate-change level below which the iteration is considered frozen; three
# consecutive frozen steps without meeting the formal criterion mean a
# spurious fixed point rather than convergence.
_STALL_LEVEL = 1e-15
_STALL_RUNS = 3


@dataclass(frozen=True)
class SolverConfig:
    """All tolerances, budgets and parameters for the solvers.

    ``tau_svt``, ``step_svt`` and ``lam`` may be None, meaning "derive from
    the instance" (SVT defaults) or "take from the warm start" (lam).
    """

    r: int
    eps_rho: float = 1e-4
    eps_1: float = 1e-4
    eps_2: float = 1e-4
    eps_3: float = 1e-3
    eps_lambda: float = 1e-6
    w: int = 500
    it_max: int = 500
    beta: float = 2.0
    tau_svt: float | None = None
    step_svt: float | None = None
    lam: float | None = None
    fpc_decay: float = 0.25
    fpc_floor: float = 0.01
    rank_bump: int = 5
    svd_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("target rank must be at least 1")
        for name in ("eps_rho", "eps_1", "eps_2", "eps_3", "eps_lambda", "svd_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.w < 1 or self.it_max < 1:
            raise ValueError("iteration budgets must be at least 1")
        if self.beta <= 0:
            raise ValueError("momentum parameter beta must be positive")
        if self.rank_bump < 1:
            raise ValueError("rank_bump must be at least 1")
        if not 0 < self.fpc_decay < 1:
            raise ValueError("fpc_decay must lie in (0, 1)")
        if self.fpc_floor <= 0:
            raise ValueError("fpc_floor must be positive")
        for name in ("tau_svt", "step_svt", "lam"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when given")

    _TEXT_KEYS = (
        ("r", "r"),
        ("eps_rho", "eps_rho"),
        ("eps_1", "eps_1"),
        ("eps_2", "eps_2"),
        ("eps_3", "eps_3"),
        ("eps_lambda", "eps_lambda"),
        ("w", "w"),
        ("it_max", "it_max"),
        ("beta", "beta"),
        ("tau_svt", "tau_svt"),
        ("step_svt", "step_svt"),
        ("lambda", "lam"),
        ("fpc_decay", "fpc_decay"),
        ("fpc_floor", "fpc_floor"),
        ("rank_bump", "rank_bump"),
    )

    def to_text(self) -> str:
        """Flat ``key = value`` serialization; None renders as ``auto``."""
        lines = []
        for key, attr in self._TEXT_KEYS:
            val = getattr(self, attr)
            lines.append(f"{key} = {'auto' if val is None else repr(val)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SolverConfig":
        key_to_attr = dict(cls._TEXT_KEYS)
        ints = {"r", "w", "it_max", "rank_bump"}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = (t.strip() for t in line.partition("="))
            if key not in key_to_attr:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if val == "auto":
                kwargs[key_to_attr[key]] = None
            elif key in ints:
                kwargs[key_to_attr[key]] = int(val)
            else:
                kwargs[key_to_attr[key]] = float(val)
        if "r" not in kwargs:
            raise ValueError("missing required key 'r'")
        return cls(**kwargs)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "SolverConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


@dataclass
class TraceRecord:
    """Per-iteration diagnostics; unavailable quantities are NaN."""

    iteration: int
    phase: int
    rho: float
    f_lambda: float
    rel_residual: float
    rel_change: float
    rank: int
    time_s: float
    fejer_slack: float = math.nan


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)

    COLUMNS = ("iteration", "phase", "rho", "f_lambda", "rel_residual",
               "rel_change", "rank", "time_s", "fejer_slack")

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])


@dataclass
class SolveResult:
    """Final iterate plus bookkeeping for one solver run."""

    x: FactoredMatrix
    iterations: int
    recovered_rank: int
    status: str
    trace: SolveTrace
    phase_split: tuple[int, int] | None = None


@dataclass
class PhaseOneResult:
    """Warm-start output: momentum iterate, stabilized threshold, diagnostics."""

    z: FactoredMatrix
    rho: float
    x_last: FactoredMatrix
    iterations: int
    stabilized: bool
    sigma_top: float
    trace: SolveTrace


class _StallDetector:
    """Flags three consecutive iterate changes below the freeze level."""

    def __init__(self, level: float = _STALL_LEVEL, runs: int = _STALL_RUNS):
        self.level = level
        self.runs = runs
        self.count = 0

    def update(self, change: float) -> bool:
        self.count = self.count + 1 if change < self.level else 0
        return self.count >= self.runs


def momentum_coefficient(step: int, beta: float) -> float:
    """Extrapolation weight (step - 1) / (step + beta); exactly 0 at step 1."""
    return (step - 1) / (step + beta)


def objective(x: FactoredMatrix, obs: ObservedMatrix, lam: float) -> float:
    """Regularized data-fit value: half the squared omega-residual plus
    lam times the nuclear norm."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _objective_value(_misfit(x, obs), x, lam)


def _objective_value(misfit: np.ndarray, x: FactoredMatrix, lam: float) -> float:
    return 0.5 * float(misfit @ misfit) + lam * x.nuclear_norm()


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _misfit(x: FactoredMatrix, obs: ObservedMatrix) -> np.ndarray:
    """``a - P_omega(x)``: one gather, turned into the misfit in place."""
    out = project_omega(x, obs)
    np.subtract(obs.values, out, out=out)
    return out


def _momentum_operator(obs, theta, x, misfit, x_prev, misfit_prev) -> SpLrOperator:
    """The fill-in operator at the momentum point ``(1+theta) x - theta x_prev``.

    P_omega is linear, so the point's misfit is ``misfit + theta (misfit -
    misfit_prev)`` and needs no gather.  It is built in the buffer of
    ``misfit_prev``, which the caller must no longer need.
    """
    if theta == 0.0:
        return SpLrOperator(obs, x, misfit)
    z = combine(1.0 + theta, x, -theta, x_prev)
    np.subtract(misfit, misfit_prev, out=misfit_prev)
    misfit_prev *= theta
    misfit_prev += misfit
    return SpLrOperator(obs, z, misfit_prev)


def _svd_exceeding(op, threshold, r_est, bump, svd_tol):
    """Enough leading triplets that everything left out lies below threshold.

    Starts by asking for ``r_est + 1`` triplets and grows the request by
    ``bump`` (capped at min(m, n) - 1) until the last computed singular value
    drops below ``threshold``, the spectrum is numerically exhausted, or the
    full decomposition is reached.  The increment doubles on repeated growth
    within one call so a badly cold estimate costs O(log) recomputations.
    """
    p = min(op.shape)
    cap = p - 1
    r_try = min(max(r_est, 0), cap)
    grow = bump
    while True:
        kk = min(r_try + 1, p)
        f = truncated_svd(op, kk, tol=svd_tol)
        s_last = f.sigma[-1]
        if kk == p or s_last < threshold or s_last <= f.sigma[0] * 1e-15:
            return f
        if r_try >= cap:
            return f
        r_try = min(r_try + grow, cap)
        grow *= 2


def phase_one(
    obs: ObservedMatrix,
    r: int,
    eps_rho: float = 1e-4,
    w: int = 500,
    beta: float = 2.0,
    svd_tol: float = DEFAULT_TOL,
    ground_truth: FactoredMatrix | None = None,
    trace: SolveTrace | None = None,
) -> PhaseOneResult:
    """Accelerated fixed-rank warm start.

    Starting from zero, each pass fills in the momentum iterate, reads off
    the (r+1)-th singular value ``rho_j`` of the filled matrix, and exits as
    soon as consecutive rho values stabilize:
    ``|rho_j - rho_{j-1}| / (anchor + rho_{j-1}) < eps_rho`` (checked before
    the thresholded iterate is formed).  Otherwise the iterate is thresholded
    at ``rho_j`` and extrapolated with weight ``(j - 1) / (j + beta)``.

    The anchor is the leading singular value of the sparse data matrix (read
    off the first pass, where the filled iterate IS the data), which makes
    the test scale-invariant: it equals the textbook ``1 + rho`` form on data
    normalized to unit spectral norm, while on raw data a unit anchor would
    demand near-absolute stabilization of a quantity that lives at the data's
    scale.

    Returns the last momentum iterate and stabilized rho, which seed the
    regularized second phase, plus the last thresholded iterate for callers
    that stop here.
    """
    if r < 1:
        raise ValueError("target rank must be at least 1")
    if eps_rho <= 0 or w < 1 or beta <= 0:
        raise ValueError("need eps_rho > 0, w >= 1, beta > 0")
    m, n = obs.shape
    p = min(m, n)
    trace = trace if trace is not None else SolveTrace()
    obs_norm = obs.norm()
    z = FactoredMatrix.zero(m, n)
    x_prev = z
    misfit_prev = obs.values
    op = SpLrOperator(obs, z, misfit_prev)
    rho = 0.0
    rho_prev = math.inf
    sigma_top = 0.0
    anchor = np.finfo(float).tiny
    stabilized = False
    iterations = 0
    t0 = time.perf_counter()

    for j in range(1, w + 1):
        iterations = j
        f = truncated_svd(op, min(r + 1, p), tol=svd_tol)
        del op  # its residual copy would only add to the peak during the gather
        rho = float(f.sigma[r]) if r < p else 0.0
        sigma_top = float(f.sigma[0]) if f.k else 0.0
        if j == 1:
            anchor = max(sigma_top, anchor)
        if math.isfinite(rho_prev) and abs(rho - rho_prev) / (anchor + rho_prev) < eps_rho:
            stabilized = True
            trace.append(TraceRecord(j, 1, rho, math.nan, math.nan, math.nan,
                                     x_prev.rank, time.perf_counter() - t0))
            break
        x_j = soft_threshold(f, rho)
        misfit = _misfit(x_j, obs)
        slack = math.nan
        if ground_truth is not None:
            slack = fejer_slack(z, x_j, ground_truth, r, rho)
        trace.append(TraceRecord(
            j, 1, rho, math.nan,
            _ratio(float(np.linalg.norm(misfit)), obs_norm),
            _ratio(frobenius_distance(x_j, x_prev), x_prev.norm()),
            x_j.rank, time.perf_counter() - t0, slack,
        ))
        theta = momentum_coefficient(j, beta)
        op = _momentum_operator(obs, theta, x_j, misfit, x_prev, misfit_prev)
        z = op.z
        x_prev = x_j
        misfit_prev = misfit
        rho_prev = rho

    return PhaseOneResult(z, rho, x_prev, iterations, stabilized, sigma_top, trace)


def phase_two(
    obs: ObservedMatrix,
    r: int,
    lam: float,
    x0: FactoredMatrix,
    eps_lambda: float = 1e-6,
    it_max: int = 500,
    rank_bump: int = 5,
    svd_tol: float = DEFAULT_TOL,
    momentum: bool = True,
    trace: SolveTrace | None = None,
    iteration_offset: int = 0,
    phase: int = 2,
) -> SolveResult:
    """Accelerated proximal iteration for the fixed-lam regularized problem.

    Each pass shrinks the filled-in momentum iterate at ``lam`` and stops once
    ``min(|f(prev) - f(cur)| / f(prev), ||cur - prev||_F / ||prev||_F)``
    drops to ``eps_lambda``.  The truncation size follows an adaptive rank
    estimate: starting from ``r``, the request grows by ``rank_bump`` whenever
    the smallest computed singular value still exceeds ``lam``, and the next
    estimate is the number of positive shifted values.  With ``momentum``
    false the extrapolation weight is pinned to zero, which recovers the
    plain fixed-point iteration.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if eps_lambda <= 0 or it_max < 1 or r < 1:
        raise ValueError("need eps_lambda > 0, it_max >= 1, r >= 1")
    if x0.shape != obs.shape:
        raise ValueError(f"shape mismatch: start {x0.shape} vs observed {obs.shape}")
    trace = trace if trace is not None else SolveTrace()
    obs_norm = obs.norm()
    x_prev = x0
    misfit_prev = _misfit(x0, obs)
    f_prev = _objective_value(misfit_prev, x0, lam)
    op = SpLrOperator(obs, x0, misfit_prev)
    best_f, best_x = f_prev, x0
    r_est = r
    status = BUDGET_EXHAUSTED
    stall = _StallDetector()
    iterations = 0
    x_final = x0
    t0 = time.perf_counter()

    for k in range(1, it_max + 1):
        iterations = k
        f = _svd_exceeding(op, lam, r_est, rank_bump, svd_tol)
        del op
        sigma_beyond = f.sigma[-1] if f.sigma.size and f.sigma[-1] < lam else math.nan
        x_k = soft_threshold(f, lam)
        r_est = x_k.rank
        misfit = _misfit(x_k, obs)
        f_k = _objective_value(misfit, x_k, lam)
        dist = frobenius_distance(x_k, x_prev)
        change = _ratio(dist, x_prev.norm())
        crit = min(_ratio(abs(f_prev - f_k), f_prev), change)
        trace.append(TraceRecord(
            iteration_offset + k, phase, sigma_beyond, f_k,
            _ratio(float(np.linalg.norm(misfit)), obs_norm), change,
            x_k.rank, time.perf_counter() - t0,
        ))
        if f_k < best_f:
            best_f, best_x = f_k, x_k
        if crit <= eps_lambda:
            status = CONVERGED
            x_final = x_k
            break
        if stall.update(_ratio(dist, max(1.0, x_prev.norm()))):
            status = STALLED
            x_final = x_k
            break
        theta = momentum_coefficient(k, 2.0) if momentum else 0.0
        op = _momentum_operator(obs, theta, x_k, misfit, x_prev, misfit_prev)
        x_prev = x_k
        misfit_prev = misfit
        f_prev = f_k
    else:
        x_final = best_x

    return SolveResult(x_final, iterations, x_final.rank, status, trace)


def two_phase(
    obs: ObservedMatrix,
    config: SolverConfig,
    ground_truth: FactoredMatrix | None = None,
) -> SolveResult:
    """Two-phase rank-based completion: warm start, then regularized cleanup.

    Runs the accelerated fixed-rank warm start; its stabilized threshold
    becomes the regularization weight and its momentum iterate the starting
    point of the accelerated second phase.  Reported iterations are the sum
    over both phases.  If the warm start already drove the (r+1)-th singular
    value to numerical zero the filled matrix has rank at most r and the last
    warm-start iterate is returned as converged.
    """
    trace = SolveTrace()
    p1 = phase_one(
        obs, config.r, config.eps_rho, config.w, config.beta,
        config.svd_tol, ground_truth, trace,
    )
    if p1.rho <= 1e-12 * max(p1.sigma_top, 1.0):
        x = p1.x_last
        return SolveResult(x, p1.iterations, x.rank, CONVERGED, trace,
                           phase_split=(p1.iterations, 0))
    p2 = phase_two(
        obs, config.r, p1.rho, p1.z, config.eps_lambda, config.it_max,
        config.rank_bump, config.svd_tol, momentum=True, trace=trace,
        iteration_offset=p1.iterations, phase=2,
    )
    total = p1.iterations + p2.iterations
    return SolveResult(p2.x, total, p2.recovered_rank, p2.status, trace,
                       phase_split=(p1.iterations, p2.iterations))


def frsi(
    obs: ObservedMatrix,
    r: int,
    eps_1: float = 1e-4,
    it_max: int = 500,
    svd_tol: float = DEFAULT_TOL,
    ground_truth: FactoredMatrix | None = None,
) -> SolveResult:
    """Plain fixed-rank iteration from zero.

    Repeats the fill-in/threshold step and stops once
    ``min(omega-residual ratio, iterate-change ratio) <= eps_1``.  The two
    ratios pair adjacent iterates: at the step that produced ``x_new`` the
    residual is the previous iterate's and the change spans the pair, so the
    test first fires one step after the residual criterion is met.
    """
    if r < 1 or eps_1 <= 0 or it_max < 1:
        raise ValueError("need r >= 1, eps_1 > 0 and it_max >= 1")
    trace = SolveTrace()
    obs_norm = obs.norm()
    p = min(obs.shape)
    x = FactoredMatrix.zero(*obs.shape)
    misfit = obs.values
    resid_prev = math.inf
    status = BUDGET_EXHAUSTED
    stall = _StallDetector()
    iterations = 0
    t0 = time.perf_counter()

    for k in range(1, it_max + 1):
        iterations = k
        # the fixed-rank step, on the misfit carried over from the last pass
        f = truncated_svd(SpLrOperator(obs, x, misfit), min(r + 1, p), tol=svd_tol)
        rho = float(f.sigma[r]) if r < p else 0.0
        x_next = soft_threshold(f, rho)
        misfit = _misfit(x_next, obs)
        resid = _ratio(float(np.linalg.norm(misfit)), obs_norm)
        dist = frobenius_distance(x_next, x)
        change = _ratio(dist, x.norm())
        slack = math.nan
        if ground_truth is not None:
            slack = fejer_slack(x, x_next, ground_truth, r, rho)
        trace.append(TraceRecord(k, 1, rho, math.nan, resid, change,
                                 x_next.rank, time.perf_counter() - t0, slack))
        frozen = stall.update(_ratio(dist, max(1.0, x.norm())))
        x = x_next
        if min(resid_prev, change) <= eps_1:
            status = CONVERGED
            break
        if frozen:
            status = STALLED
            break
        resid_prev = resid

    return SolveResult(x, iterations, x.rank, status, trace)


def svt(
    obs: ObservedMatrix,
    tau: float | None = None,
    step: float | None = None,
    eps_2: float = 1e-4,
    it_max: int = 500,
    svd_tol: float = DEFAULT_TOL,
    rank_bump: int = 5,
) -> SolveResult:
    """Singular value thresholding with a sparse dual iterate.

    The dual variable lives only on omega (it starts at zero and accumulates
    step-scaled residuals there), so each pass shrinks a purely sparse matrix
    at the fixed threshold ``tau``.  Defaults follow common practice:
    ``tau = 5n`` for square problems (``8 sqrt(mn)`` otherwise) and
    ``step = 1.2 mn / nnz``; pass ``step=1.99`` for the conservative choice.
    Stops when the omega residual ratio reaches ``eps_2``.
    """
    m, n = obs.shape
    if tau is None:
        tau = 5.0 * n if m == n else 8.0 * math.sqrt(m * n)
    if step is None:
        step = 1.2 * m * n / obs.nnz if obs.nnz else 1.99
    if tau <= 0 or step <= 0:
        raise ValueError("tau and step must be positive")
    if eps_2 <= 0 or it_max < 1:
        raise ValueError("need eps_2 > 0 and it_max >= 1")

    trace = SolveTrace()
    obs_norm = obs.norm()
    zero = FactoredMatrix.zero(m, n)
    y = np.zeros(obs.nnz)
    x = zero
    r_est = 0
    status = BUDGET_EXHAUSTED
    stall = _StallDetector()
    iterations = 0
    t0 = time.perf_counter()

    for k in range(1, it_max + 1):
        iterations = k
        dual = ObservedMatrix._from_sorted(obs, y)
        op = assemble_iterate_operator(dual, zero)
        f = _svd_exceeding(op, tau, r_est, rank_bump, svd_tol)
        sigma_beyond = f.sigma[-1] if f.sigma.size and f.sigma[-1] < tau else math.nan
        x_next = soft_threshold(f, tau)
        r_est = x_next.rank
        misfit = _misfit(x_next, obs)
        resid = _ratio(float(np.linalg.norm(misfit)), obs_norm)
        dist = frobenius_distance(x_next, x)
        trace.append(TraceRecord(k, 1, sigma_beyond, math.nan, resid,
                                 _ratio(dist, x.norm()), x_next.rank,
                                 time.perf_counter() - t0))
        # the dual keeps moving while x sits at zero during the ramp-up, so a
        # freeze requires both the primal and the dual update to be tiny
        dual_move = step * float(np.linalg.norm(misfit)) / max(1.0, float(np.linalg.norm(y)))
        frozen = stall.update(max(_ratio(dist, max(1.0, x.norm())), dual_move))
        x = x_next
        if resid <= eps_2:
            status = CONVERGED
            break
        if frozen:
            status = STALLED
            break
        y = y + step * misfit

    return SolveResult(x, iterations, x.rank, status, trace)


def fpc(
    obs: ObservedMatrix,
    eps_3: float = 1e-3,
    it_max: int = 500,
    step: float = 1.99,
    lambda0: float | None = None,
    decay: float = 0.25,
    floor: float = 0.01,
    inner_max: int = 100,
    svd_tol: float = DEFAULT_TOL,
    rank_bump: int = 5,
) -> SolveResult:
    """Fixed-point continuation over a decreasing regularization path.

    For each weight on the path (``lambda0`` defaulting to the spectral norm
    of the sparse data, then ``max(decay * lam, floor)``), iterates the
    step-scaled shrinkage ``x <- S_{lam * step}(x + step * P_omega(a - x))``
    until ``||x_new - x||_F / max(1, ||x||_F) <= eps_3`` or ``inner_max``
    passes, warm-starting the next weight from the last iterate.  Terminates
    once the floor weight has been solved, within a global ``it_max`` budget
    over all inner iterations.
    """
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    if floor <= 0:
        raise ValueError("floor must be positive")
    if step <= 0 or eps_3 <= 0 or it_max < 1 or inner_max < 1:
        raise ValueError("need positive step, eps_3 and budgets")
    m, n = obs.shape
    if lambda0 is None:
        sparse_op = SpLrOperator(obs, FactoredMatrix.zero(m, n), obs.values)
        lambda0 = float(truncated_svd(sparse_op, 1, tol=svd_tol).sigma[0])
    if lambda0 < 0:
        raise ValueError("lambda0 must be nonnegative")

    trace = SolveTrace()
    obs_norm = obs.norm()
    x = FactoredMatrix.zero(m, n)
    misfit = obs.values
    lam = lambda0
    r_est = 1
    total = 0
    status = BUDGET_EXHAUSTED
    t0 = time.perf_counter()

    while total < it_max:
        inner_done = False
        for _ in range(inner_max):
            if total >= it_max:
                break
            total += 1
            # x filled in with the data blended toward it, a - (1 - step) * misfit,
            # whose residual on omega is step * misfit
            blended = ObservedMatrix._from_sorted(obs, obs.values - (1.0 - step) * misfit)
            op = SpLrOperator(blended, x, step * misfit)
            threshold = lam * step
            f = _svd_exceeding(op, threshold, r_est, rank_bump, svd_tol)
            del op, blended
            sigma_beyond = f.sigma[-1] if f.sigma.size and f.sigma[-1] < threshold else math.nan
            x_next = soft_threshold(f, threshold)
            r_est = max(x_next.rank, 1)
            misfit = _misfit(x_next, obs)
            dist = frobenius_distance(x_next, x)
            change = _ratio(dist, max(1.0, x.norm()))
            trace.append(TraceRecord(total, 1, sigma_beyond, _objective_value(misfit, x_next, lam),
                                     _ratio(float(np.linalg.norm(misfit)), obs_norm), change,
                                     x_next.rank, time.perf_counter() - t0))
            x = x_next
            if change <= eps_3:
                inner_done = True
                break
        if inner_done and lam <= floor:
            status = CONVERGED
            break
        lam = max(decay * lam, floor)

    return SolveResult(x, total, x.rank, status, trace)


def soft_impute(
    obs: ObservedMatrix,
    lam: float,
    eps: float = 1e-6,
    it_max: int = 500,
    rank_start: int = 1,
    rank_bump: int = 5,
    svd_tol: float = DEFAULT_TOL,
) -> SolveResult:
    """Unaccelerated fixed-lam shrinkage iteration from zero.

    Identical to :func:`phase_two` with the extrapolation weight pinned to
    zero (unit step on the smooth part, so the objective is nonincreasing).
    """
    x0 = FactoredMatrix.zero(*obs.shape)
    return phase_two(
        obs, rank_start, lam, x0, eps_lambda=eps, it_max=it_max,
        rank_bump=rank_bump, svd_tol=svd_tol, momentum=False, phase=1,
    )
