"""The solvers against the dense references of ``reference.py``.

A solver's SVDs meet ``tol * sigma_1`` (``tol = clamp(1e-2 eps, 1e-10, 1e-6)``
of its stop level), so its iterate may drift from the reference's by a few
``tol``; ten, relative to the reference's norm, is the bound.  A stop ratio
within that bound of its threshold, relative to the threshold, could fall
either way; such a near tie is reported, and the counts are still compared.
"""

import warnings

import numpy as np
import pytest

from matcomplete import ObservedMatrix, frsi, gen_synthetic, soft_impute

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

# (solver, reference, its stop level, the SVD tolerance that level sets)
SCHEMES = {
    "frsi": (lambda obs: frsi(obs, 3, eps_1=1e-4), lambda obs: reference.frsi(obs, 3, 1e-4),
             1e-4, 1e-6),
    "soft_impute": (lambda obs: soft_impute(obs, 1.0, eps=1e-6),
                    lambda obs: reference.soft_impute(obs, 1.0, 1e-6), 1e-6, 1e-8),
}


@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_solver_follows_its_dense_reference(scheme, instance):
    solve, solve_reference, eps, tol = SCHEMES[scheme]
    obs = INSTANCES[instance]()
    got, ref = solve(obs), solve_reference(obs)
    bound = 10 * tol
    ties = [k for k, q in enumerate(ref.ratios, 1) if abs(q - eps) <= bound * eps]
    if ties:
        warnings.warn(f"{scheme} on {instance}: the stop ratio lies within {bound:g} of "
                      f"{eps:g}, relative, at iteration(s) {ties}", stacklevel=1)
    assert (got.iterations, got.status) == (ref.iterations, ref.status)
    gap = np.linalg.norm(got.x.dense() - ref.x)
    assert gap <= bound * np.linalg.norm(ref.x)
