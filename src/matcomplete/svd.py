"""Truncated SVD of implicit operators via Lanczos bidiagonalization.

The driver runs Golub-Kahan-Lanczos bidiagonalization with full classical
Gram-Schmidt reorthogonalization at every step, its second pass run only when
the first one needs it (the DGKS criterion), and thick restarting that
retains the leading Ritz triplets plus the coupling vector.  A start that
carries a block of vectors first tries a warm block step (subspace iteration
with a Rayleigh-Ritz step, which may end in a deflated single-triplet Lanczos
run for its last triplet) before any Lanczos step.  The driver only touches
the operator through ``matvec``/``rmatvec`` and, for a block, ``matmat``/
``rmatmat``, so sparse-plus-low-rank iterates are never densified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factored import FactoredMatrix
from .observed import ObservedMatrix, check_counts, check_positive

DEFAULT_TOL = 1e-10
_RESTART_BUFFER = 10
_BREAKDOWN_REL = 1e-13
# weight of the cold start vector mixed into a warm start vector, so that
# every direction, not only the previous factor's span, enters the Krylov space
_WARM_PERTURBATION = 0.01
# a value-only k-th triplet is accepted once the refined bound res^2 / (gap -
# res) puts its value within this fraction of tol * sigma_1
_VALUE_BOUND_FRACTION = 0.1
# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 1976): Gram-Schmidt needs a
# second pass only when the first kept less than this share of the norm
_DGKS_KEEP = 1.0 / np.sqrt(2.0)
# the block step's power steps: each takes two block products after the first
# one, so a block call takes 3 or 5 products before it accepts or falls back
_BLOCK_POWER_STEPS = 2
# CholeskyQR counts a block as rank deficient, and so fails, when a diagonal
# entry of its Cholesky factor is at most this fraction of the largest
_CHOLESKY_FLOOR = 1e-6
# CholeskyQR loses orthogonality with the square of the block's condition
# number, so a block result is accepted only with factors this orthonormal
_ORTHONORMAL_TOL = 1e-12


class TruncatedSvdError(RuntimeError):
    """Lanczos step budget exhausted before the requested triplets converged.

    Attributes
    ----------
    best : FactoredMatrix
        The best-so-far triplets at the time of failure.
    converged : ndarray of bool
        Per-requested-triplet convergence flags.
    """

    def __init__(self, message: str, best: FactoredMatrix, converged: np.ndarray):
        super().__init__(message)
        self.best = best
        self.converged = converged


def dense_svd(a: np.ndarray) -> FactoredMatrix:
    """Full SVD of a small dense matrix; the brute-force oracle for tests.

    Guarded at ``min(m, n) <= 512`` to prevent misuse at scale.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if min(a.shape) > 512:
        raise ValueError(f"dense SVD limited to min(m, n) <= 512, got {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return FactoredMatrix(u, s, vt.T)


def _phi(t):
    """The elementwise pseudo-random map that turns a probe into a start."""
    return np.cos(997.0 * t + 0.3) + 0.5 * np.sin(3137.0 * t * t + 1.1)


def _probe(a, at):
    """``a^T (a 1) / ||a 1||``: zero when ``a 1`` is."""
    s = a @ np.ones(a.shape[1])
    norm = np.linalg.norm(s)
    return at @ (s / norm) if norm > 0.0 else np.zeros(a.shape[1])


@dataclass(frozen=True, eq=False)
class LanczosStart:
    """The vector a Lanczos run starts from, and the side the run takes.

    ``vector`` lies along the data's columns (length n), or with
    ``transposed`` along its rows (length m), where the run decomposes the
    transposed operator.  It is checked once, when the start is built: it
    must be 1-d, finite and not all zero.  A read-only copy is kept, divided
    by its largest magnitude only when its norm would overflow.

    A Krylov space never leaves an invariant subspace its start lies in:
    started on one block of a block-diagonal operator, a run never finds the
    other block.  The cold start :meth:`from_data` has a component on every
    direction the data does not make exchangeable, and ``cold.warm(f)``,
    called on it, is the form that mixes it into each warm start.

    ``block``, when given, is a 2-d array of vectors on the same side, one
    per column, from which :func:`truncated_svd` tries a warm block step
    before it runs Lanczos from ``vector``; ``cold.predicted(f, f', w)``
    builds it.  It is checked, and a read-only copy kept, like ``vector``.
    """

    vector: np.ndarray
    transposed: bool
    block: np.ndarray | None = None

    def __post_init__(self):
        vector = np.array(self.vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(f"start must be a 1-d vector, got shape {vector.shape}")
        if not np.isfinite(vector).all():
            raise ValueError("start must be finite")
        if not vector.any():
            raise ValueError("start must not be the zero vector")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(vector)):
                vector /= np.abs(vector).max()
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)
        if self.block is not None:
            block = np.array(self.block, dtype=np.float64)
            if block.ndim != 2 or block.shape[0] != vector.size:
                raise ValueError(f"start block must have {vector.size} rows, "
                                 f"got shape {block.shape}")
            if not np.isfinite(block).all():
                raise ValueError("start block must be finite")
            block.setflags(write=False)
            object.__setattr__(self, "block", block)

    @classmethod
    def from_data(cls, obs: ObservedMatrix) -> "LanczosStart":
        """The cold start for a solve on ``obs``.

        With ``A`` the data divided by its largest magnitude (rounded up to
        a power of two, which keeps the division exact), the probe is
        ``A^T (A 1) / ||A 1||`` on the column side and ``A (A^T 1) /
        ||A^T 1||`` on the row side.  The runs take the wider side, and for
        square data the side whose probe has the larger norm (columns on a
        tie).  The start is ``phi(t)`` normalized, with ``t`` the probe
        divided by its largest magnitude (zero for a zero probe) and ``phi(t)
        = cos(997 t + 0.3) + 0.5 sin(3137 t^2 + 1.1)`` elementwise: a
        deterministic, scale-free spread over every direction.  Unlike the
        seeded Gaussian of :func:`truncated_svd`'s default, it follows the
        data: permuting the data's rows or columns permutes it the same way
        or leaves it alone, and transposing the data keeps it while
        switching the side, so a solve on permuted or transposed data runs
        the same Lanczos iteration.
        """
        # a power of two, so that data whose rows or columns sum to exactly
        # zero keeps those sums zero
        amax = np.abs(obs.values).max(initial=0.0)
        a = obs.sparse_with(np.ldexp(obs.values, -np.frexp(amax)[1]))
        m, n = obs.shape
        right = _probe(a, a.T) if m <= n else None
        left = _probe(a.T, a) if m >= n else None
        transposed = right is None or (left is not None
                                       and np.linalg.norm(left) > np.linalg.norm(right))
        probe = left if transposed else right
        pmax = np.abs(probe).max()
        vector = _phi(probe / pmax if pmax > 0.0 else probe)
        vector /= np.linalg.norm(vector)
        return cls(vector, bool(transposed))

    def _factor(self, f: FactoredMatrix, name: str) -> np.ndarray:
        """``f``'s factor on this start's side, checked to hold a triplet
        and to have the vector's length; ``name`` is the argument reported."""
        factor = f.u if self.transposed else f.v
        if not f.k or factor.shape[0] != self.vector.size:
            side = "rows" if self.transposed else "columns"
            raise ValueError(f"{name} must hold a triplet and have {self.vector.size} {side} to "
                             f"match the start, got shape {f.shape} with {f.k} triplets")
        return factor

    def warm(self, f: FactoredMatrix) -> "LanczosStart":
        """The start of the run after the one that returned ``f``, on this
        start's side.

        ``s``, ``f``'s factor on that side summed over its columns, is
        divided by its largest magnitude and then normalized; the new vector
        is ``s + 0.01 c/||c||``, with ``c`` this start's vector.  The mixed-in
        ``c`` keeps every direction of a cold start in the Krylov space, so
        the run meets the same ``tol`` wherever ``s`` lies.  ``f`` must hold
        a triplet and have the vector's length on this side.
        """
        s = self._factor(f, "f").sum(axis=1)
        # divided by its largest magnitude, then normalized: the order fixes
        # the start's last bits, and so every warm-started solve's
        s = s / np.abs(s).max()
        s /= np.linalg.norm(s)
        return LanczosStart(s + _WARM_PERTURBATION * (self.vector / np.linalg.norm(self.vector)),
                            self.transposed)

    def predicted(self, f: FactoredMatrix, before: FactoredMatrix | None,
                  weight: float) -> "LanczosStart":
        """``warm(f)`` carrying a block: ``f``'s factor on this start's side,
        its leading columns predicted, followed by ``c``, this start's
        vector normalized.

        With ``V`` the first ``k - 1`` columns of the factor (its converged
        ones, k being ``f``'s column count) and ``V'`` those of ``before``,
        the result of the run before ``f``, the block's first ``k - 1``
        columns are ``V + weight (V - V' (V'^T V))``: ``V`` moved on along
        the part of its last move that left ``V'``'s span.  They stay ``V``
        when ``before`` is None or has fewer than ``k`` columns, as ``V'``
        would then hold its value-only column.  ``c`` follows the data and
        reaches the directions the factor misses.  ``before``, when given,
        is checked as ``f`` is.
        """
        block = np.column_stack((self._factor(f, "f"), self.vector / np.linalg.norm(self.vector)))
        lead = f.k - 1
        prev = None if before is None else self._factor(before, "before")[:, :lead]
        if lead and prev is not None and before.k >= f.k:
            v = block[:, :lead]
            v += weight * (v - prev @ (prev.T @ v))
        return LanczosStart(self.warm(f).vector, self.transposed, block)


class _Transposed:
    """The transpose of a matrix-free operator; its block products are
    forwarded too when the operator has them."""

    def __init__(self, op):
        self.shape = op.shape[::-1]
        self.matvec, self.rmatvec = op.rmatvec, op.matvec
        if hasattr(op, "matmat"):
            self.matmat, self.rmatmat = op.rmatmat, op.matmat


def _orthogonalize(w, basis, j):
    """Classical Gram-Schmidt of w against basis[:, :j]: ``(w, coefficients, ||w||)``.

    A second pass runs only when the first one kept less than ``1/sqrt(2)``
    of the norm: only then can cancellation have left w measurably out of
    orthogonality.
    """
    b = basis[:, :j]
    before = np.linalg.norm(w)
    c = b.T @ w
    w = w - b @ c
    after = np.linalg.norm(w)
    if after < _DGKS_KEEP * before:
        c2 = b.T @ w
        w = w - b @ c2
        c = c + c2
        after = np.linalg.norm(w)
    return w, c, float(after)


def _fresh_direction(rng, basis, j):
    """A unit vector orthogonal to basis[:, :j], or None if none exists."""
    size = basis.shape[0]
    if j >= size:
        return None
    for _ in range(5):
        w = rng.standard_normal(size)
        w, _, nrm = _orthogonalize(w, basis, j)
        if nrm > 1e-6 * np.sqrt(size):
            return w / nrm
    return None


def _extend(w, basis, j, scale, rng):
    """Orthogonalize w into basis column j: ``(coefficients, norm, scale)``.

    A norm at or below ``_BREAKDOWN_REL`` times ``scale``, the run's largest
    norm, is a breakdown: it is returned as zero and column j gets a fresh
    direction, or zeros once the basis spans its whole space.
    """
    w, c, nrm = _orthogonalize(w, basis, j)
    scale = max(scale, nrm)
    if nrm > scale * _BREAKDOWN_REL:
        basis[:, j] = w / nrm
    else:
        nrm = 0.0
        fresh = _fresh_direction(rng, basis, j)
        basis[:, j] = 0.0 if fresh is None else fresh
    return c, nrm, scale


def _value_certified(s, residuals, k, bound):
    """Whether the refined bound puts the k-th Ritz value within
    ``_VALUE_BOUND_FRACTION * bound`` of a singular value.

    The bound ``res^2 / (gap - res)``, with ``gap`` the distance to the
    neighbouring Ritz values, holds only once a lower Ritz value exists and
    the gap exceeds the residual; otherwise this returns False and the
    residual test decides.
    """
    i = k - 1
    if s.size <= k:
        return False
    gap = s[i] - s[k]
    if i:
        gap = min(gap, s[i - 1] - s[i])
    res = residuals[i]
    return gap > res and res * res / (gap - res) <= _VALUE_BOUND_FRACTION * bound


def _converged(s, residuals, k, tol, last_vector):
    """Which of the leading ``k`` Ritz triplets, with values ``s`` (in
    descending order, and any beyond the k-th) and ``residuals``, meet
    :func:`truncated_svd`'s contract: the residual within ``tol * sigma_1``,
    or for the k-th without ``last_vector`` a certified value."""
    sref = max(s[0], np.finfo(float).tiny)
    converged = residuals[:k] <= tol * sref
    if not last_vector and not converged[k - 1]:
        converged[k - 1] = _value_certified(s, residuals, k, tol * sref)
    return converged


def _cholesky_qr(y):
    """CholeskyQR of a block: ``(q, l)`` with ``y = q l^T``, ``q`` having
    orthonormal columns and ``l`` lower triangular, or None when ``y`` is
    numerically rank deficient (the Cholesky factorization of its Gram matrix
    fails, or a diagonal entry of ``l`` is at most ``_CHOLESKY_FLOOR`` times
    the largest).  It reads ``y`` only through its Gram matrix and one
    product, so permuting ``y``'s rows permutes ``q``'s with no sign to pick.
    """
    try:
        l = np.linalg.cholesky(y.T @ y)
    except np.linalg.LinAlgError:
        return None
    d = np.diagonal(l)
    if not d.min() > _CHOLESKY_FLOOR * d.max():
        return None
    return y @ np.linalg.inv(l).T, l


def _block_svd(op, block, k, tol, last_vector):
    """The warm block step: the leading ``k`` triplets when they meet
    :func:`truncated_svd`'s contract, else None.

    With ``Q_v`` the orthonormalized block, each pass takes ``A Q_v = Q_u
    l_u^T``, ``A^T Q_u = Q_v' l^T`` and ``W = A Q_v'``; then ``Q_u^T A Q_v' =
    l``, whose SVD ``P Sigma G^T`` gives ``U = Q_u P`` and ``V = Q_v' G``.
    ``A^T U - V Sigma`` is zero by construction, so ``||W g_i - sigma_i
    u_i||`` is each triplet's whole residual.  A pass that fails the
    contract only in the k-th triplet ends in :func:`_deflated_finish`; one
    that fails it earlier is followed by one more power step from ``W``.
    """
    qr = _cholesky_qr(block)
    if qr is None:
        return None
    y = op.matmat(qr[0])
    for _ in range(_BLOCK_POWER_STEPS):
        qr = _cholesky_qr(y)
        if qr is None:
            return None
        qu = qr[0]
        qr = _cholesky_qr(op.rmatmat(qu))
        if qr is None:
            return None
        qv, l = qr
        y = op.matmat(qv)
        p, s, gt = np.linalg.svd(l)
        u = qu @ p[:, :k]
        residuals = np.linalg.norm(y @ gt[:k].T - u * s[:k], axis=0)
        converged = _converged(s, residuals, k, tol, last_vector)
        if converged.all():
            return _orthonormal_result(u, s[:k], qv @ gt[:k].T)
        if converged[:k - 1].all():
            return _deflated_finish(op, u, s, qv @ gt[:k].T, tol)
    return None


class _Deflated:
    """``(I - U U^T) A (I - V V^T)`` for orthonormal ``U`` and ``V``: the
    operator with the accepted triplets' spans projected out on both sides,
    whose leading triplet is the next one of ``A``."""

    def __init__(self, op, u, v):
        self.shape = op.shape
        self._op, self._u, self._v = op, u, v

    def matvec(self, x):
        y = self._op.matvec(x - self._v @ (self._v.T @ x))
        return y - self._u @ (self._u.T @ y)

    def rmatvec(self, y):
        x = self._op.rmatvec(y - self._u @ (self._u.T @ y))
        return x - self._v @ (self._v.T @ x)


def _deflated_finish(op, u, s, v, tol):
    """The k-th triplet from a single-triplet Lanczos run on the operator
    deflated by the first ``k - 1`` Ritz pairs of ``u`` and ``v``, which met
    the contract, or None; ``s`` holds the block's Ritz values.

    The run starts from the k-th right Ritz vector at ``tol s_1 / s_k``,
    which is ``tol s_1`` on the deflated operator's scale.  Its triplet is
    accepted only when its value is at most ``s_{k-1}`` (a larger one is a
    triplet the block missed), both its residuals on ``op`` itself, ``||A v
    - sigma u||`` and ``||A^T u - sigma v||``, are within ``tol s_1``, and
    both k-column factors are orthonormal to 1e-12.
    """
    k = u.shape[1]
    bound = tol * s[0]
    with np.errstate(over="ignore", divide="ignore"):
        run_tol = bound / s[k - 1]
    if not 0.0 < run_tol < np.inf:
        return None
    lead_u, lead_v = u[:, :k - 1], v[:, :k - 1]
    try:
        f = truncated_svd(_Deflated(op, lead_u, lead_v), 1, tol=run_tol,
                          start=LanczosStart(v[:, k - 1], False))
    except TruncatedSvdError:
        return None
    sigma = f.sigma[0]
    if not (k == 1 or sigma <= s[k - 2]):
        return None
    # the recurrence amplifies the rounding a run leaves along the deflated
    # directions, which its operator does not see (by 8x a step on a
    # cluster), so they are taken out once more
    last_u = f.u[:, 0] - lead_u @ (lead_u.T @ f.u[:, 0])
    last_v = f.v[:, 0] - lead_v @ (lead_v.T @ f.v[:, 0])
    last_u /= np.linalg.norm(last_u)
    last_v /= np.linalg.norm(last_v)
    if not (np.linalg.norm(op.matvec(last_v) - sigma * last_u) <= bound
            and np.linalg.norm(op.rmatvec(last_u) - sigma * last_v) <= bound):
        return None
    return _orthonormal_result(np.column_stack((lead_u, last_u)), np.append(s[:k - 1], sigma),
                               np.column_stack((lead_v, last_v)))


def _orthonormal_result(u, sigma, v):
    """``U diag(sigma) V^T`` when both factors' columns are orthonormal to
    ``_ORTHONORMAL_TOL``, else None."""
    return FactoredMatrix(u, sigma, v) if _orthonormal(u) and _orthonormal(v) else None


def _orthonormal(q):
    """Whether ``q``'s columns are orthonormal to ``_ORTHONORMAL_TOL``."""
    return np.abs(q.T @ q - np.eye(q.shape[1])).max() <= _ORTHONORMAL_TOL


def truncated_svd(op, k: int, tol: float = DEFAULT_TOL, max_steps: int | None = None, *,
                  start: LanczosStart | None = None, last_vector: bool = True) -> FactoredMatrix:
    """Leading ``k`` singular triplets of a matrix-free operator.

    Parameters
    ----------
    op : object with ``shape``, ``matvec`` and ``rmatvec``
        The operator to decompose, typically an :class:`SpLrOperator`.
    k : int
        Number of triplets, ``1 <= k <= min(m, n)``.
    tol : float
        Convergence tolerance relative to the leading singular value: a Ritz
        pair is accepted once its residual drops below ``tol * sigma_1``.
    max_steps : int, optional
        Lanczos step budget across restarts, an integer of at least ``k``
        (a run checks its triplets only once it has taken ``k`` steps);
        defaults to ``10 * k + 100``.  Exhaustion raises
        :class:`TruncatedSvdError` carrying the best triplets found so far.
    start : LanczosStart, optional
        The run's start vector and side: a cold start derived from the data
        (:meth:`LanczosStart.from_data`), or a warm one from an earlier call
        (:meth:`LanczosStart.warm`, or :meth:`LanczosStart.predicted` with a
        block).  The run starts from its vector normalized, and with
        ``start.transposed`` decomposes the transposed operator, the vector
        having length ``m``; the factors come back the right way round.  A
        start confined to an invariant subspace stays in it; ``cold.warm(f)``
        mixes the cold start back in, so every direction stays in the Krylov
        space.  Without ``start`` the run starts from a seeded Gaussian of
        length ``n``.  The result is deterministic either way.

        A start that carries a ``block`` of at least ``k`` and at most
        ``min(m, n)`` columns first takes a warm block step on an operator
        with ``matmat`` and ``rmatmat``: the block is orthonormalized by
        CholeskyQR, and three block products and a Rayleigh-Ritz step follow.
        A pass that meets the contract below in all but the k-th triplet is
        finished by a single-triplet Lanczos run on the operator deflated by
        the other ``k - 1``, started from the k-th Ritz vector, whose triplet
        is returned only when its value is at most the (k-1)-th, both its
        residuals on the operator itself are within ``tol * sigma_1`` and
        both factors are orthonormal to 1e-12; a pass that misses earlier is
        followed by one more power step of two products.  When neither pass
        nor finish meets the contract, or a block turns out rank deficient,
        the Lanczos run from ``start.vector`` follows, and returns what it
        returns without a block.  A block confined to an invariant subspace
        finds triplets only there; ``cold.predicted(f, f', w)`` adds one
        column, the cold start's vector, that reaches what it reaches.
    last_vector : bool
        With the default True every triplet meets the residual test.  With
        False only the first ``k - 1`` do; the k-th is accepted as soon as
        its *value* is certified by the refined bound ``res_k^2 / (gap -
        res_k) <= 0.1 * tol * sigma_1``, where ``gap`` is the distance to the
        neighbouring Ritz values (the residual test still accepts it when
        that comes first, and decides alone while ``gap <= res_k`` or no
        lower Ritz value exists yet).  Its value stays within ``tol *
        sigma_1``, but its vectors are not converged: for callers that read
        the k-th triplet only as a number, such as a shrinkage level, and
        shrink it away.  The full decomposition (``k = min(m, n)``) is exact
        either way.
    """
    m, n = op.shape
    p = min(m, n)
    check_counts(k=k)
    if k > p:
        raise ValueError(f"requested {k} triplets from a {m}x{n} operator")
    check_positive(tol=tol)
    if max_steps is None:
        max_steps = 10 * k + 100
    check_counts(max_steps=max_steps)
    if max_steps < k:
        raise ValueError(f"max_steps ({max_steps}) must be at least k ({k})")
    rng = np.random.default_rng(0x1B1D)
    if start is None:
        start = LanczosStart(rng.standard_normal(n), False)
    if start.transposed:
        op = _Transposed(op)
        m, n = n, m
    if start.vector.shape != (n,):
        raise ValueError(f"start must be a vector of length {n}, got shape {start.vector.shape}")
    if start.block is not None and k <= start.block.shape[1] <= p and hasattr(op, "matmat"):
        f = _block_svd(op, start.block, k, tol, last_vector)
        if f is not None:
            return FactoredMatrix(f.v, f.sigma, f.u) if start.transposed else f
    keep = min(k + _RESTART_BUFFER, p)
    max_dim = min(p, max(2 * keep, keep + 20))

    bu = np.zeros((m, max_dim))
    bv = np.zeros((n, max_dim + 1))
    # the spare column holds the last coupling beta until the next step overwrites it
    bmat = np.zeros((max_dim, max_dim + 1))

    bv[:, 0] = start.vector / np.linalg.norm(start.vector)

    j = 0
    steps = 0
    scale = 0.0
    last_check = -1

    def extract(pl, s, prt, count):
        uu = bu[:, :j] @ pl[:, :count]
        vv = bv[:, :prt.shape[1]] @ prt[:count, :].T
        if start.transposed:
            uu, vv = vv, uu
        return FactoredMatrix(uu, s[:count].copy(), vv)

    while True:
        # expand the left basis with A v_j, then the right one with A^T u_j
        g, alpha, scale = _extend(op.matvec(bv[:, j]), bu, j, scale, rng)
        bmat[:j, j] = g
        bmat[j, j] = alpha
        _, beta, scale = _extend(op.rmatvec(bu[:, j]), bv, j + 1, scale, rng)
        bmat[j, j + 1] = beta
        j += 1
        steps += 1

        if j == p:
            # the smaller side's basis is complete, so A = U B V^T exactly,
            # plus beta u_{j-1} v_j^T when beta is nonzero: a wide run's unit
            # coupling vector v_j, orthogonal to V.  _extend returns beta as
            # exactly 0.0 on a breakdown, which every square or tall run
            # reaches here; B alone is then exact, with orthonormal U and V
            cols = j + 1 if beta else j
            return extract(*np.linalg.svd(bmat[:j, :cols], full_matrices=False), k)

        if j < k:
            continue
        stride = 1 if j <= 32 else max(2, j // 16)
        at_boundary = j == max_dim or steps >= max_steps
        if not at_boundary and j - last_check < stride:
            continue
        last_check = j

        pl, s, prt = np.linalg.svd(bmat[:j, :j])
        converged = _converged(s, beta * np.abs(pl[j - 1, :]), k, tol, last_vector)
        if converged.all():
            return extract(pl, s, prt, k)
        if steps >= max_steps:
            raise TruncatedSvdError(
                f"Lanczos SVD stalled at {steps} steps: "
                f"{int(converged.sum())}/{k} triplets converged",
                extract(pl, s, prt, k),
                converged,
            )
        if j == max_dim:
            # thick restart: keep the leading Ritz pairs plus the residual
            # direction; the Ritz-to-residual couplings re-enter the projected
            # matrix through the Gram-Schmidt coefficients of the next step.
            # j == max_dim < p here (at j == p the exact branch returned), so
            # max_dim >= keep + 20 and all keep pairs fit.
            bu[:, :keep] = bu[:, :j] @ pl[:, :keep]
            bv[:, :keep] = bv[:, :j] @ prt[:keep, :].T
            bv[:, keep] = bv[:, j]
            bmat[:, :] = 0.0
            bmat[:keep, :keep] = np.diag(s[:keep])
            j = keep
            last_check = -1
