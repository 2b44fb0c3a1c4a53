"""Iterative completion schemes: the two-phase rank-based algorithm and the
FRSI, SVT, FPC and Soft-Impute baselines, with trace recording."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .factored import (FactoredMatrix, FactoredSum, check_finite_factors, combine,
                       frobenius_distance, project_omega)
from .observed import ObservedMatrix, check_counts, check_positive
# assemble_iterate_operator is not called here; it stays bound in this module
# because perfbench/spans.py traces it by rebinding solvers.assemble_iterate_operator
from .operators import SpLrOperator, assemble_iterate_operator  # noqa: F401
from .shrinkage import fejer_slack, soft_threshold
from .svd import DEFAULT_TOL, LanczosStart, truncated_svd

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"
STALLED = "stalled"
DIVERGED = "diverged"

# Iterate-change level below which the iteration is considered frozen; three
# consecutive frozen steps without meeting the formal criterion mean a
# spurious fixed point rather than convergence.
_STALL_LEVEL = 1e-15
_STALL_RUNS = 3

# Rank regrowth step of _shrink_at_level, and the FPC path: each weight is
# 0.25 times the last (down to the floor), with at most 100 passes per weight.
_RANK_BUMP = 5
_FPC_DECAY = 0.25
_FPC_INNER_MAX = 100

# The SVD tolerance rule of _Progress.svd, relative to sigma_1.  Its floor is
# this fraction of the solver's own stop level, clamped to [DEFAULT_TOL,
# _SVD_TOL_MAX]: a stop test reads its ratios only to that level, so digits
# far below it go unused.  Above the floor it follows the solve's progress,
# at _SVD_PROGRESS times the last change ratio, up to the stop level itself
# and at most _SVD_TOL_CAP.
_SVD_ACCURACY = 1e-2
_SVD_TOL_MAX = 1e-6
_SVD_PROGRESS = 3e-2
_SVD_TOL_CAP = 1e-3

# phase_one, frsi and svt hand each SVD the previous one's factor as a block
# start once the last change ratio is at most this: the warm block step then
# converges in 3-5 block products, where Lanczos takes about as many steps as
# triplets.  Earlier, and in the loops whose rank moves with a weight (phase
# two, soft_impute, fpc), the SVDs run Lanczos from the summed factor alone.
_BLOCK_SETTLED = 0.1

# phase one refines its exit SVD to this tolerance before handing it to phase
# two as its first step: phase two's floor at the default eps_lambda
_HANDOFF_TOL = 1e-8

# svt has diverged once its iterate misfits the data by this many times the
# data's own norm (the zero matrix misfits it by exactly once): the dual then
# grows geometrically until it overflows.
_SVT_DIVERGED_RATIO = 1e4


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, budgets and parameters for the solvers.

    ``step_svt`` may be None (``auto`` in a config file), meaning "derive
    from the instance" (the SVT default).  Each solver's SVD tolerances
    follow its own stop level ``eps`` and its progress, between ``clamp(1e-2
    eps, 1e-10, 1e-6)`` and ``min(eps, 1e-3)`` (see :class:`_Progress`); the
    rule, the rank regrowth step, the FPC path and SVT's threshold are
    fixed; see :func:`svt` and :func:`fpc`.
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
    step_svt: float | None = None

    def __post_init__(self):
        # each message starts with the field's name, which from_text reads
        check_counts(r=self.r, w=self.w, it_max=self.it_max)
        check_positive(eps_rho=self.eps_rho, eps_1=self.eps_1, eps_2=self.eps_2,
                       eps_3=self.eps_3, eps_lambda=self.eps_lambda, beta=self.beta)
        if self.step_svt is not None:
            check_positive(step_svt=self.step_svt)

    def to_text(self) -> str:
        """Flat ``key = value`` serialization, one line per field; None
        renders as ``auto``."""
        lines = []
        for fld in fields(self):
            val = getattr(self, fld.name)
            lines.append(f"{fld.name} = {'auto' if val is None else repr(val)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SolverConfig":
        """Parse :meth:`to_text` output; ``auto`` is only for fields that may
        be None, and a bad value is reported with its line and key."""
        types = {fld.name: fld.type for fld in fields(cls)}
        kwargs, linenos = {}, {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = (t.strip() for t in line.partition("="))
            if key not in types:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in linenos:
                raise ValueError(f"line {lineno}: key {key!r} repeats line {linenos[key]}")
            linenos[key] = lineno
            parse = int if types[key] == "int" else float
            try:
                kwargs[key] = None if val == "auto" and "None" in types[key] else parse(val)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be {types[key]}, got {val!r}") from None
        if "r" not in kwargs:
            raise ValueError("missing required key 'r'")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            key = str(exc).split()[0]
            raise ValueError(f"line {linenos[key]}: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "SolverConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


@dataclass
class TraceRecord:
    """Per-iteration diagnostics; unavailable quantities are NaN.  ``iteration``
    counts from 1 within the trace, and ``time_s`` from the trace's creation.
    ``svd_tol`` is the tolerance, relative to sigma_1, of the SVD that
    produced the record's iterate (see :class:`_Progress`)."""

    iteration: int
    phase: int
    rho: float
    f_lambda: float
    rel_residual: float
    rel_change: float
    rank: int
    time_s: float
    fejer_slack: float = math.nan
    svd_tol: float = math.nan


@dataclass
class SolveTrace:
    """The per-iteration records of one solve.

    Its clock starts when the trace is created.  A solver creates its trace
    before its first SVD, and :func:`two_phase` hands one trace to both
    phases, so ``time_s`` counts from the start of the solve throughout.
    """

    records: list[TraceRecord] = field(default_factory=list)
    t0: float = field(init=False, default_factory=time.perf_counter)

    def append(self, phase: int, rho: float, f_lambda: float, rel_residual: float,
               rel_change: float, rank: int, fejer_slack: float = math.nan,
               svd_tol: float = math.nan) -> TraceRecord:
        """Add the next record, numbered after those already here and stamped
        with the time since the trace was created; returns it."""
        record = TraceRecord(len(self.records) + 1, phase, rho, f_lambda, rel_residual,
                             rel_change, rank, time.perf_counter() - self.t0, fejer_slack,
                             svd_tol)
        self.records.append(record)
        return record

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
    status: str
    trace: SolveTrace
    phase_split: tuple[int, int] | None = None

    @property
    def recovered_rank(self) -> int:
        return self.x.rank


@dataclass
class PhaseOneResult:
    """Warm-start output: momentum iterate, stabilized threshold, diagnostics.

    ``first_iterate`` is ``S_rho`` of the filled-in momentum iterate ``z``,
    read off the exit SVD once it is refined to ``_HANDOFF_TOL``: phase
    two's first step at ``lam = rho`` from ``z``.  It is None when phase one
    did not stabilize.  ``diverged`` is set when an SVD, the refine
    included, returned a non-finite value; phase one then stopped at once,
    and ``x_last`` is the last finite iterate.
    """

    z: FactoredMatrix
    rho: float
    x_last: FactoredMatrix
    iterations: int
    sigma_top: float
    trace: SolveTrace
    first_iterate: FactoredMatrix | None = None
    diverged: bool = False

    @property
    def stabilized(self) -> bool:
        """Whether rho stabilized, which is when phase one hands on ``first_iterate``."""
        return self.first_iterate is not None


class _Progress:
    """One solver's per-iteration bookkeeping: its SVDs, each new iterate's
    misfit and trace record, and the run of consecutive frozen steps.  It is
    built before the first SVD, so data whose norm overflows fails first.

    Every SVD a solver makes goes through :meth:`svd`, under one rule.  It
    starts from the data-derived start (:meth:`LanczosStart.from_data`); the
    first SVD starts cold and each later one, rank regrowths included, warm
    from the one before, ``cold.warm(f)``, since consecutive fill-in
    matrices differ little.  It converges its triplets to ``tol sigma_1``,
    where ``tol`` follows the solver's own stop level ``eps`` and the last
    two change ratios that :meth:`step` recorded, ``d`` and ``d'`` before it:

    - ``floor = clamp(1e-2 eps, 1e-10, 1e-6)``: the stop test reads its
      ratios only to that level;
    - ``cap = max(floor, min(eps, 1e-3))``: the value-only k-th triplet is
      then within ``0.1 cap sigma_1``, a tenth of what phase one's ratio test
      at ``eps_rho`` resolves;
    - ``tol = cap`` while ``d`` is not finite (before the first step, or
      right after a step from zero); otherwise ``tol = max(floor, min(cap,
      3e-2 d q))`` with ``q = max(0, 1 - d / d')``, or 1 when ``d'`` is not
      finite or zero.  An SVD error of ``e`` at a step that contracts by
      ``d / d'`` leaves about ``e / q`` in the limit, so ``q`` tightens the
      SVDs as the iteration slows down.

    Regrowth calls within one iteration share its ``tol``, and a solve whose
    iterate does not move (svt's ramp-up from zero) stays at ``floor``.
    The tolerance of the last SVD is recorded with each step; one handed a
    trace starts from that of the trace's last record, the SVD that
    produced phase two's handed-over first iterate.

    With ``block`` (phase one, frsi and svt) the warm start also carries a
    block once ``d`` is at most ``_BLOCK_SETTLED``, and
    :func:`truncated_svd` then tries its warm block step before Lanczos
    from the same vector: ``cold.predicted(f, f', w)``, the previous
    factor's converged columns moved on along their last move, away from
    ``f'``, the SVD before ``f``, with weight ``w = min(1, d / d')`` (1 while
    ``d'`` is not finite or zero), since between SVDs the subspace moves on
    much as the iterate does.  A block pass that meets the contract in all
    but the k-th triplet ends in a deflated Lanczos finish for that one.  A
    call at a given ``tol`` refines the last SVD instead: its block is that
    SVD's own factor, not moved on, ``cold.predicted(f, None, w)``.
    """

    def __init__(self, obs: ObservedMatrix, eps: float, trace: SolveTrace | None = None, *,
                 block: bool = False):
        self.obs = obs
        self.obs_norm = _data_norm(obs)
        self.trace = trace if trace is not None else SolveTrace()
        self._first = len(self.trace)
        self._frozen_runs = 0
        self._cold = self._start = LanczosStart.from_data(obs)
        self._block = block
        # the last SVD's result and the one before, kept only with block: a
        # few factor columns each
        self._last = self._before = None
        self._floor = min(max(_SVD_ACCURACY * eps, DEFAULT_TOL), _SVD_TOL_MAX)
        self._cap = max(self._floor, min(eps, _SVD_TOL_CAP))
        self._changes = (math.nan, math.nan)
        self.tol = self.trace.records[-1].svd_tol if self.trace.records else math.nan

    def svd(self, op, k: int, tol: float | None = None) -> FactoredMatrix | None:
        """The leading ``k`` triplets of ``op``, at the tolerance the progress
        so far sets, or at ``tol`` when it is given (with ``block``, from the
        last SVD's unmoved factor).  The k-th is read as a value only
        (``last_vector=False``), still within the tolerance: every caller
        shrinks it to zero or reads only its value.  None when a value
        is not finite; the solver then stops as diverged, since its stop test
        would read the NaN, or an iterate that :func:`soft_threshold` shrank
        to zero by dropping it, and could pass."""
        change, before = self._changes
        # d / d', how much the last step contracted; NaN until two are known
        ratio = change / before if math.isfinite(before) and before > 0 else math.nan
        self.tol = self._cap
        if math.isfinite(change):
            slowing = 1.0 if math.isnan(ratio) else 1.0 - ratio
            self.tol = max(self._floor, min(self._cap, _SVD_PROGRESS * change * max(0.0, slowing)))
        if tol is not None:
            self.tol = tol
        start = self._start
        if self._last is not None and (tol is not None or change <= _BLOCK_SETTLED):
            before = None if tol is not None else self._before
            weight = 1.0 if math.isnan(ratio) else min(1.0, ratio)
            start = self._cold.predicted(self._last, before, weight)
        f = truncated_svd(op, k, tol=self.tol, start=start, last_vector=False)
        if not np.isfinite(f.sigma).all():
            return None
        self._start = self._cold.warm(f)
        if self._block:
            self._before, self._last = self._last, f
        return f

    @property
    def iterations(self) -> int:
        """The records this solver appended, after any an earlier phase left."""
        return len(self.trace) - self._first

    def step(self, x, phase, rho, change, *, lam=None, slack=math.nan):
        """Gather the new iterate ``x`` and record it: ``(misfit, record)``.

        ``misfit`` is ``a - P_omega(x)``; the record carries its ratio to the
        data's norm, when ``lam`` is given the objective at ``lam``, and the
        last SVD's tolerance.  ``change`` sets the next SVD's tolerance.
        """
        misfit = _misfit(x, self.obs)
        f = math.nan if lam is None else _objective_value(misfit, x, lam)
        resid = _ratio(float(np.linalg.norm(misfit)), self.obs_norm)
        self._changes = (change, self._changes[0])
        return misfit, self.trace.append(phase, rho, f, resid, change, x.rank, slack, self.tol)

    def frozen(self, change: float) -> bool:
        """Whether ``change`` is the third in a row below the freeze level."""
        self._frozen_runs = self._frozen_runs + 1 if change < _STALL_LEVEL else 0
        return self._frozen_runs >= _STALL_RUNS


def momentum_coefficient(step: int, beta: float) -> float:
    """Extrapolation weight (step - 1) / (step + beta); exactly 0 at step 1."""
    return (step - 1) / (step + beta)


def objective(x: FactoredMatrix, obs: ObservedMatrix, lam: float) -> float:
    """Regularized data-fit value: half the squared omega-residual plus
    lam times the nuclear norm."""
    if not lam >= 0:
        raise ValueError("lam must be nonnegative")
    return _objective_value(_misfit(x, obs), x, lam)


def _objective_value(misfit: np.ndarray, x: FactoredMatrix, lam: float) -> float:
    return 0.5 * float(misfit @ misfit) + lam * x.nuclear_norm()


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _data_norm(obs: ObservedMatrix) -> float:
    """Frobenius norm of the data, which every solver's ratios divide by."""
    with np.errstate(over="ignore"):
        norm = obs.norm()
    if not math.isfinite(norm):
        raise ValueError("the Frobenius norm of the observed values overflows; "
                         "rescale the data (divide it by its largest magnitude)")
    return norm


def _misfit(x: FactoredMatrix, obs: ObservedMatrix) -> np.ndarray:
    """``a - P_omega(x)``: one gather, turned into the misfit in place."""
    out = project_omega(x, obs)
    np.subtract(obs.values, out, out=out)
    return out


def _momentum_operator(obs, theta, x, misfit, x_prev, misfit_prev) -> SpLrOperator:
    """The fill-in operator at the momentum point ``(1+theta) x - theta x_prev``.

    The point stays a :class:`FactoredSum` of the two iterates: only the
    operator's products read it, so it is not refactored into one
    orthonormal factorization.  P_omega is linear, so the point's misfit is
    ``misfit + theta (misfit - misfit_prev)`` and needs no gather.  It is
    built in the buffer of ``misfit_prev``, which neither the caller nor a
    live operator may still read: operators keep their residual uncopied.
    Reusing that buffer keeps one nnz-sized array per iteration off the
    peak: a fresh array per point, with the operator kept alive over the next
    gather, raised the Table-1 solve's peak RSS from 95.0 to 104.8 MB (seed
    0) for bitwise the same iterates.
    """
    if theta == 0.0:
        return SpLrOperator(obs, x, misfit)
    np.subtract(misfit, misfit_prev, out=misfit_prev)
    misfit_prev *= theta
    misfit_prev += misfit
    return SpLrOperator(obs, FactoredSum(1.0 + theta, x, -theta, x_prev), misfit_prev)


def _combined(z: FactoredMatrix | FactoredSum) -> FactoredMatrix:
    """A momentum point as one orthonormal factorization."""
    return combine(z.alpha, z.f, z.beta, z.g) if isinstance(z, FactoredSum) else z


def _shrink_at_level(progress, op, level, r_est):
    """Shrink the operator's matrix by ``level``: ``(S_level(op), sigma_beyond)``,
    or None when an SVD returned a non-finite value.

    Computes enough leading triplets that everything left out lies below
    ``level``: starts by asking for ``r_est + 1`` triplets and grows the
    request by ``_RANK_BUMP``, doubling the increment on each growth within
    one call, so a badly cold estimate costs O(log) recomputations.  The
    loop ends when :func:`soft_threshold` drops the last computed value, or
    at the full decomposition (``k == min(m, n)``), which is exact.
    ``sigma_beyond`` is that dropped value (the largest value shrunk to
    zero), else NaN.  The SVDs are ``progress.svd``'s, so the last triplet's
    vectors are not converged; they enter the result only from the full
    decomposition.
    """
    cap = min(op.shape) - 1
    r_try = min(r_est, cap)
    grow = _RANK_BUMP
    while True:
        f = progress.svd(op, r_try + 1)
        if f is None:
            return None
        x = soft_threshold(f, level)
        if x.k < f.k or r_try == cap:
            return x, (f.sigma[-1] if x.k < f.k else math.nan)
        r_try = min(r_try + grow, cap)
        grow *= 2


def phase_one(
    obs: ObservedMatrix,
    r: int,
    eps_rho: float = 1e-4,
    w: int = 500,
    beta: float = 2.0,
    *,
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

    The SVDs follow :class:`_Progress`'s rule at ``eps_rho``: the first two
    run at ``min(eps_rho, 1e-3)``, since the first step starts from zero,
    and later ones follow the iterate's change.  Once that change is at most
    ``_BLOCK_SETTLED`` each SVD first tries the warm block step from a
    predicted block, with a deflated finish for the (r+1)-th triplet, as
    frsi and svt do (see :class:`_Progress`).  The (r+1)-th triplet is read
    only as a value, since ``rho`` feeds the stop test and the shrinkage
    that sends that triplet to zero; at that cap its value is within a
    tenth of what the stop test resolves, ``eps_rho`` times the anchor.  An
    SVD with a non-finite value stops phase one at once, as ``diverged``.
    The momentum point reaches the SVD as the two iterates' factor pairs
    (:class:`FactoredSum`); it is refactored into one orthonormal
    factorization only at the exit, as the returned ``z``, and for the
    Fejer slack when ``ground_truth`` is given.

    Returns the last momentum iterate and stabilized rho, which seed the
    regularized second phase, plus the last thresholded iterate for callers
    that stop here.  On stabilizing it also returns ``first_iterate``: the
    exit SVD is of the matrix that phase two's first step shrinks at ``lam =
    rho``, so it is computed once more at ``_HANDOFF_TOL``, phase two's
    floor, from a block of its own factor, and its top r triplets shrunk at
    the unrefined rho are :func:`phase_two`'s first iterate.  Its refined
    ``sigma_{r+1}`` is left out: it sits above rho by phase one's value
    error, which the shrink would keep as an (r+1)-th column.  The exit
    record carries the refine's tolerance.
    """
    check_counts(r=r, w=w)
    check_positive(eps_rho=eps_rho, beta=beta)
    m, n = obs.shape
    p = min(m, n)
    progress = _Progress(obs, eps_rho, trace, block=True)
    x_prev = FactoredMatrix.zero(m, n)
    misfit_prev = obs.values
    op = SpLrOperator(obs, x_prev, misfit_prev)
    rho = 0.0
    rho_prev = math.inf
    sigma_top = 0.0
    anchor = np.finfo(float).tiny
    diverged = False
    first_iterate = None

    for j in range(1, w + 1):
        f = progress.svd(op, min(r + 1, p))
        if f is None:
            diverged = True
            break
        rho = float(f.sigma[r]) if r < p else 0.0
        sigma_top = float(f.sigma[0])
        if j == 1:
            anchor = max(sigma_top, anchor)
        if math.isfinite(rho_prev) and abs(rho - rho_prev) / (anchor + rho_prev) < eps_rho:
            g = progress.svd(op, f.k, tol=_HANDOFF_TOL)
            if g is None:
                diverged = True
                break
            first_iterate = soft_threshold(FactoredMatrix(g.u[:, :r], g.sigma[:r], g.v[:, :r]), rho)
            progress.trace.append(1, rho, math.nan, math.nan, math.nan, x_prev.rank,
                                  svd_tol=progress.tol)
            break
        x_j = soft_threshold(f, rho)
        z = op.z
        del op  # frees its residual buffer before the gather allocates the next
        slack = math.nan
        if ground_truth is not None:
            slack = fejer_slack(_combined(z), x_j, ground_truth, r, rho)
        change = _ratio(frobenius_distance(x_j, x_prev), x_prev.norm())
        misfit, _ = progress.step(x_j, 1, rho, change, slack=slack)
        theta = momentum_coefficient(j, beta)
        op = _momentum_operator(obs, theta, x_j, misfit, x_prev, misfit_prev)
        x_prev = x_j
        misfit_prev = misfit
        rho_prev = rho

    return PhaseOneResult(_combined(op.z), rho, x_prev, progress.iterations, sigma_top,
                          progress.trace, first_iterate, diverged=diverged)


def phase_two(
    obs: ObservedMatrix,
    r: int,
    lam: float,
    x0: FactoredMatrix,
    eps_lambda: float = 1e-6,
    it_max: int = 500,
    *,
    momentum: bool = True,
    trace: SolveTrace | None = None,
    phase: int = 2,
    first_iterate: FactoredMatrix | None = None,
) -> SolveResult:
    """Accelerated proximal iteration for the fixed-lam regularized problem.

    Each pass shrinks the filled-in momentum iterate at ``lam`` and stops once
    ``min(|f(prev) - f(cur)| / f(prev), ||cur - prev||_F / ||prev||_F)``
    drops to ``eps_lambda``.  The truncation size follows an adaptive rank
    estimate: starting from ``r``, the request grows by ``_RANK_BUMP``
    whenever the shrink at ``lam`` keeps the smallest computed singular value,
    and the next estimate is the number of positive shifted values.  With
    ``momentum`` false the extrapolation weight is pinned to zero, which
    recovers the plain fixed-point iteration.  Records are numbered after
    those already in ``trace``.

    ``first_iterate``, when given, must be the first step's result, ``lam``
    shrunk off the filled-in ``x0``, as :class:`PhaseOneResult` carries it
    from phase one's exit SVD.  The first iteration then takes it instead of
    building that operator and computing its SVD again; it still counts as
    an iteration, and its trace record reports ``lam`` as the largest value
    shrunk to zero.

    The SVDs follow :class:`_Progress`'s rule at ``eps_lambda``.  An SVD
    with a non-finite value ends the run at once as ``diverged``, with the
    last finite iterate.
    """
    check_counts(r=r, it_max=it_max)
    check_positive(lam=lam, eps_lambda=eps_lambda)
    if x0.shape != obs.shape:
        raise ValueError(f"shape mismatch: start {x0.shape} vs observed {obs.shape}")
    if first_iterate is not None and first_iterate.shape != obs.shape:
        raise ValueError(f"shape mismatch: first iterate {first_iterate.shape} "
                         f"vs observed {obs.shape}")
    check_finite_factors(x0=x0)
    if first_iterate is not None:
        check_finite_factors(first_iterate=first_iterate)
    progress = _Progress(obs, eps_lambda, trace)
    x_prev = x0
    misfit_prev = _misfit(x0, obs)
    f_prev = _objective_value(misfit_prev, x0, lam)
    # op is None at the top of the loop only when the first step is handed in
    op = None if first_iterate is not None else SpLrOperator(obs, x0, misfit_prev)
    best_f, best_x = f_prev, x0
    r_est = r
    status = BUDGET_EXHAUSTED

    for k in range(1, it_max + 1):
        if op is None:
            x_k, sigma_beyond = first_iterate, lam
        else:
            shrunk = _shrink_at_level(progress, op, lam, r_est)
            if shrunk is None:
                x_k, status = x_prev, DIVERGED
                break
            x_k, sigma_beyond = shrunk
        # frees its residual buffer before the gather, and leaves no live
        # operator reading the misfit_prev that _momentum_operator rewrites
        op = None
        r_est = x_k.rank
        change = _ratio(frobenius_distance(x_k, x_prev), x_prev.norm())
        misfit, record = progress.step(x_k, phase, sigma_beyond, change, lam=lam)
        f_k = record.f_lambda
        if f_k < best_f:
            best_f, best_x = f_k, x_k
        if min(_ratio(abs(f_prev - f_k), f_prev), change) <= eps_lambda:
            status = CONVERGED
            break
        if progress.frozen(change):
            status = STALLED
            break
        theta = momentum_coefficient(k, 2.0) if momentum else 0.0
        op = _momentum_operator(obs, theta, x_k, misfit, x_prev, misfit_prev)
        x_prev = x_k
        misfit_prev = misfit
        f_prev = f_k

    x_final = best_x if status == BUDGET_EXHAUSTED else x_k
    return SolveResult(x_final, progress.iterations, status, progress.trace)


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
    value to numerical zero (1e-12 times the leading one) the filled matrix
    has rank at most r and the last warm-start iterate is returned as
    converged.  Otherwise phase two's first iterate is the one phase one read
    off its refined exit SVD (``PhaseOneResult.first_iterate``), so phase
    two's first iteration makes no SVD call of its own.  When phase one
    diverged, so does the solve, with phase one's last finite iterate.
    """
    trace = SolveTrace()
    p1 = phase_one(obs, config.r, config.eps_rho, config.w, config.beta,
                   ground_truth=ground_truth, trace=trace)
    if p1.diverged or p1.rho <= 1e-12 * p1.sigma_top:
        return SolveResult(p1.x_last, p1.iterations, DIVERGED if p1.diverged else CONVERGED,
                           trace, phase_split=(p1.iterations, 0))
    p2 = phase_two(obs, config.r, p1.rho, p1.z, config.eps_lambda, config.it_max, trace=trace,
                   first_iterate=p1.first_iterate)
    total = p1.iterations + p2.iterations
    return SolveResult(p2.x, total, p2.status, trace,
                       phase_split=(p1.iterations, p2.iterations))


def frsi(
    obs: ObservedMatrix,
    r: int,
    eps_1: float = 1e-4,
    it_max: int = 500,
    *,
    ground_truth: FactoredMatrix | None = None,
) -> SolveResult:
    """Plain fixed-rank iteration from zero.

    Repeats the fill-in/threshold step and stops once
    ``min(omega-residual ratio, iterate-change ratio) <= eps_1``.  The two
    ratios pair adjacent iterates: at the step that produced ``x_new`` the
    residual is the previous iterate's and the change spans the pair, so the
    test first fires one step after the residual criterion is met.  The
    SVDs follow :class:`_Progress`'s rule at ``eps_1``, with the warm block
    step once the change is at most ``_BLOCK_SETTLED``, from a predicted
    block and with a deflated finish for the (r+1)-th triplet (see
    :class:`_Progress`); one with a non-finite value ends the run at once
    as ``diverged``, with the last finite iterate.
    """
    check_counts(r=r, it_max=it_max)
    check_positive(eps_1=eps_1)
    progress = _Progress(obs, eps_1, block=True)
    p = min(obs.shape)
    x = FactoredMatrix.zero(*obs.shape)
    misfit = obs.values
    resid_prev = math.inf
    status = BUDGET_EXHAUSTED

    for _ in range(it_max):
        # the fixed-rank step, on the misfit carried over from the last pass
        f = progress.svd(SpLrOperator(obs, x, misfit), min(r + 1, p))
        if f is None:
            status = DIVERGED
            break
        rho = float(f.sigma[r]) if r < p else 0.0
        x_next = soft_threshold(f, rho)
        change = _ratio(frobenius_distance(x_next, x), x.norm())
        slack = math.nan
        if ground_truth is not None:
            slack = fejer_slack(x, x_next, ground_truth, r, rho)
        misfit, record = progress.step(x_next, 1, rho, change, slack=slack)
        x = x_next
        if min(resid_prev, change) <= eps_1:
            status = CONVERGED
            break
        if progress.frozen(change):
            status = STALLED
            break
        resid_prev = record.rel_residual

    return SolveResult(x, progress.iterations, status, progress.trace)


def svt(
    obs: ObservedMatrix,
    *,
    step: float | None = None,
    eps_2: float = 1e-4,
    it_max: int = 500,
) -> SolveResult:
    """Singular value thresholding with a sparse dual iterate.

    The dual variable lives only on omega (it starts at zero and accumulates
    step-scaled residuals there), so each pass shrinks a purely sparse matrix
    at the fixed threshold ``tau``, which follows common practice: ``tau =
    5n`` for square problems and ``8 sqrt(mn)`` otherwise.  ``step`` defaults
    to ``1.2 mn / nnz``; pass ``step=1.99`` for the conservative choice.
    Stops when the omega residual ratio reaches ``eps_2``.  A step too
    large for the sampling makes the dual grow geometrically; once the
    residual ratio exceeds ``1e4`` (or is not finite) svt stops with status
    ``diverged`` and the iterate of that pass, before anything overflows.

    The SVDs follow :class:`_Progress`'s rule at ``eps_2``: each warm start
    reads the previous SVD in full, the triplet below ``tau`` included, also
    while the iterate is still zero.  While the change is at most
    ``_BLOCK_SETTLED`` (it is 0 during the ramp-up) each SVD first tries the
    warm block step from a predicted block, with a deflated finish for the
    triplet below ``tau`` (see :class:`_Progress`); a regrowth call asks for
    more triplets than the block holds and runs Lanczos.  An SVD with a
    non-finite value also ends the run as ``diverged``, with the last finite
    iterate.
    """
    m, n = obs.shape
    tau = 5.0 * n if m == n else 8.0 * math.sqrt(m * n)
    if step is None:
        step = 1.2 * m * n / obs.nnz if obs.nnz else 1.99
    check_counts(it_max=it_max)
    check_positive(step=step, eps_2=eps_2)
    progress = _Progress(obs, eps_2, block=True)
    zero = FactoredMatrix.zero(m, n)
    y = np.zeros(obs.nnz)
    x = zero
    r_est = 0
    status = BUDGET_EXHAUSTED

    for _ in range(it_max):
        # the sparse dual itself: zero plus P_omega(y)
        op = SpLrOperator(obs, zero, y)
        shrunk = _shrink_at_level(progress, op, tau, r_est)
        if shrunk is None:
            status = DIVERGED
            break
        x_next, sigma_beyond = shrunk
        r_est = x_next.rank
        change = _ratio(frobenius_distance(x_next, x), x.norm())
        misfit, record = progress.step(x_next, 1, sigma_beyond, change)
        x = x_next
        if not record.rel_residual <= _SVT_DIVERGED_RATIO:
            status = DIVERGED
            break
        if record.rel_residual <= eps_2:
            status = CONVERGED
            break
        # the dual keeps moving while x sits at zero during the ramp-up, so a
        # freeze requires both the primal and the dual update to be tiny
        dual_move = step * float(np.linalg.norm(misfit)) / max(1.0, float(np.linalg.norm(y)))
        if progress.frozen(max(change, dual_move)):
            status = STALLED
            break
        # in place, and the misfit dropped before the next gather makes its
        # successor: the same bits as y + step * misfit
        misfit *= step
        y += misfit
        del misfit

    return SolveResult(x, progress.iterations, status, progress.trace)


def fpc(
    obs: ObservedMatrix,
    eps_3: float = 1e-3,
    it_max: int = 500,
    step: float = 1.99,
    lambda0: float | None = None,
    *,
    floor: float = 0.01,
) -> SolveResult:
    """Fixed-point continuation over a decreasing regularization path.

    For each weight on the path (``lambda0`` defaulting to the spectral norm
    of the sparse data, then ``max(0.25 * lam, floor)``), iterates the
    step-scaled shrinkage ``x <- S_{lam * step}(x + step * P_omega(a - x))``
    until ``||x_new - x||_F / max(1, ||x||_F) <= eps_3`` or 100 passes,
    warm-starting the next weight from the last iterate.  Terminates once the
    floor weight has been solved, within a global ``it_max`` budget over all
    inner iterations.  The SVDs follow :class:`_Progress`'s rule at
    ``eps_3``, except ``lambda0``'s, at ``DEFAULT_TOL``: the first pass from
    zero shrinks ``step P_omega(a)`` at ``lambda0 * step``, a tie that leaves
    zero only with ``lambda0`` at the data's sigma_1 to rounding.  An SVD
    with a non-finite value ends the run at once as ``diverged``, with the
    last finite iterate.
    """
    check_counts(it_max=it_max)
    check_positive(floor=floor, step=step, eps_3=eps_3)
    m, n = obs.shape
    progress = _Progress(obs, eps_3)
    x = FactoredMatrix.zero(m, n)
    if lambda0 is None:
        f = progress.svd(SpLrOperator(obs, x, obs.values), 1, tol=DEFAULT_TOL)
        if f is None:
            return SolveResult(x, 0, DIVERGED, progress.trace)
        lambda0 = float(f.sigma[0])
    if not (lambda0 >= 0 and math.isfinite(lambda0)):
        raise ValueError(f"lambda0 must be nonnegative and finite, got {lambda0}")

    misfit = obs.values
    lam = lambda0
    r_est = 1
    status = BUDGET_EXHAUSTED

    while progress.iterations < it_max:
        for _ in range(min(_FPC_INNER_MAX, it_max - progress.iterations)):
            # the gradient step x + step * P_omega(a - x)
            op = SpLrOperator(obs, x, step * misfit)
            shrunk = _shrink_at_level(progress, op, lam * step, r_est)
            del op  # frees the step-scaled misfit before the gather allocates the next
            if shrunk is None:
                return SolveResult(x, progress.iterations, DIVERGED, progress.trace)
            x_next, sigma_beyond = shrunk
            r_est = max(x_next.rank, 1)
            change = _ratio(frobenius_distance(x_next, x), max(1.0, x.norm()))
            misfit, _ = progress.step(x_next, 1, sigma_beyond, change, lam=lam)
            x = x_next
            if change <= eps_3:
                break
        # the inner loop ended on its stop test, not on a budget
        if change <= eps_3 and lam <= floor:
            status = CONVERGED
            break
        lam = max(_FPC_DECAY * lam, floor)

    return SolveResult(x, progress.iterations, status, progress.trace)


def soft_impute(
    obs: ObservedMatrix,
    lam: float,
    eps: float = 1e-6,
    it_max: int = 500,
    rank_start: int = 1,
) -> SolveResult:
    """Unaccelerated fixed-lam shrinkage iteration from zero.

    Identical to :func:`phase_two` with the extrapolation weight pinned to
    zero (unit step on the smooth part, so the objective is nonincreasing),
    its SVDs included: at ``eps`` they follow :class:`_Progress`'s rule as
    single-lambda :func:`fpc`'s do at ``eps_3 = eps``.
    """
    check_counts(rank_start=rank_start)
    check_positive(lam=lam, eps=eps)
    x0 = FactoredMatrix.zero(*obs.shape)
    return phase_two(obs, rank_start, lam, x0, eps_lambda=eps, it_max=it_max,
                     momentum=False, phase=1)
