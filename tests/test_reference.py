"""The solvers against the dense references of ``reference.py``.

A solver's SVDs meet ``tol * sigma_1``, where ``tol`` follows its progress
but never drops below ``floor = clamp(1e-2 eps, 1e-10, 1e-6)`` of its stop
level (see ``matcomplete.solvers._Progress``).  The looser early SVDs are
forgotten as the iteration contracts, so the iterate may drift from the
reference's by a few ``floor``; ten, relative to the reference's norm, is the
bound.  A stop ratio within that bound of its threshold, relative to the
threshold, could fall either way; such a near tie is reported, and the
counts are still compared.

svt's row-centered instance exhausts its budget in both runs; its dual sums
every pass's SVD error without contracting it, so there only the count and
the status are compared.  fpc runs at the stop level of frsi and svt, and at
its default ``eps_3 = 1e-3`` on one instance.  two_phase is checked end to end
for its phase split, iterations and status; its phase one's ``rho`` to the
resolution of its own stop test, ``eps_rho`` times the anchor; and its phase
two against the reference's phase two run from the solver's own ``(rho,
z)``, to ten ``floor`` of ``eps_lambda``.
"""

import warnings

import numpy as np
import pytest

from matcomplete import (ObservedMatrix, SolverConfig, fpc, frsi, gen_synthetic, phase_one,
                         soft_impute, svt, two_phase)

import reference


def low_rank(seed, m, n, centered=False):
    """A rank-3 product of Gaussian factors, half observed; with ``centered``
    each row's observed entries are shifted to mean zero."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    flat = np.sort(rng.choice(m * n, size=m * n // 2, replace=False))
    rows, cols = np.divmod(flat, n)
    values = a[rows, cols]
    if centered:
        values = values - (np.bincount(rows, values, m) / np.bincount(rows, minlength=m))[rows]
    return ObservedMatrix(m, n, rows, cols, values)


INSTANCES = {
    **{f"square-seed{s}": (lambda s=s: gen_synthetic(60, 3, 0.5, seed=s).obs) for s in range(4)},
    "wide-40x70": lambda: low_rank(1, 40, 70),
    "tall-70x40": lambda: low_rank(2, 70, 40),
    "row-centered-50x60": lambda: low_rank(3, 50, 60, centered=True),
}

# (solver, reference, its stop level, the SVD tolerance floor that level sets)
SCHEMES = {
    "frsi": (lambda obs: frsi(obs, 3, eps_1=1e-4), lambda obs: reference.frsi(obs, 3, 1e-4),
             1e-4, 1e-6),
    "soft_impute": (lambda obs: soft_impute(obs, 1.0, eps=1e-6),
                    lambda obs: reference.soft_impute(obs, 1.0, 1e-6), 1e-6, 1e-8),
    "svt": (lambda obs: svt(obs, eps_2=1e-4), lambda obs: reference.svt(obs, 1e-4), 1e-4, 1e-6),
    "fpc": (lambda obs: fpc(obs, eps_3=1e-4), lambda obs: reference.fpc(obs, 1e-4), 1e-4, 1e-6),
}


def warn_near_ties(name, ratios, eps, bound):
    """Report each stop ratio within ``bound`` of ``eps``, relative to ``eps``."""
    ties = [k for k, q in enumerate(ratios, 1) if abs(q - eps) <= bound * eps]
    if ties:
        warnings.warn(f"{name}: the stop ratio lies within {bound:g} of {eps:g}, relative, "
                      f"at iteration(s) {ties}", stacklevel=2)


def relative_gap(x, ref):
    return np.linalg.norm(x.dense() - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_solver_follows_its_dense_reference(scheme, instance):
    solve, solve_reference, eps, floor = SCHEMES[scheme]
    obs = INSTANCES[instance]()
    got, ref = solve(obs), solve_reference(obs)
    bound = 10 * floor
    warn_near_ties(f"{scheme} on {instance}", ref.ratios, eps, bound)
    assert (got.iterations, got.status) == (ref.iterations, ref.status)
    if ref.status != "budget-exhausted":
        assert relative_gap(got.x, ref.x) <= bound


def test_fpc_at_its_default_eps_follows_its_dense_reference():
    # fpc's first weight, the data's sigma_1, is read at DEFAULT_TOL: at the
    # rule's 1e-3 it lay below the exact value, the first pass left a rank-1
    # iterate of norm 1.4e-3 where the reference's stays zero, and one more
    # pass followed
    obs = INSTANCES["square-seed3"]()
    got, ref = fpc(obs), reference.fpc(obs, 1e-3)
    assert (got.iterations, got.status) == (ref.iterations, ref.status)


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("beta", [2.0, 5.0])
def test_two_phase_follows_its_dense_reference(instance, beta):
    config = SolverConfig(r=3, beta=beta)
    # the SVD tolerance floors that eps_rho = 1e-4 and eps_lambda = 1e-6 set
    floor_1, floor = 1e-6, 1e-8
    obs = INSTANCES[instance]()
    got = two_phase(obs, config)
    ref_1, ref_2 = reference.two_phase(obs, 3, config.eps_rho, config.eps_lambda, beta)
    assert ref_2 is not None, "phase one drove rho to zero; no phase two to compare"
    name = f"two_phase (beta {beta:g}) on {instance}"
    warn_near_ties(f"{name}, phase one", ref_1.ratios, config.eps_rho, 10 * floor_1)
    warn_near_ties(f"{name}, phase two", ref_2.ratios, config.eps_lambda, 10 * floor)
    assert got.phase_split == (ref_1.iterations, ref_2.iterations)
    assert (got.iterations, got.status) == (ref_1.iterations + ref_2.iterations, ref_2.status)

    p1 = phase_one(obs, 3, config.eps_rho, config.w, beta)
    assert abs(p1.rho - ref_1.rho) <= config.eps_rho * ref_1.anchor
    own = reference.phase_two(obs, p1.rho, p1.z.dense(), config.eps_lambda)
    assert (got.phase_split[1], got.status) == (own.iterations, own.status)
    assert relative_gap(got.x, own.x) <= 10 * floor
