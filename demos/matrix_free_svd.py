"""The sparse-plus-low-rank operator and its matrix-free truncated SVD.

Solver iterates are never densified: the filled-in matrix is represented by
the sampled data plus a low-rank correction, and the Lanczos driver touches
it only through products.  This script checks the leading singular triplets
against a dense decomposition on a size where both are feasible.
"""

import numpy as np

from matcomplete import (
    FactoredMatrix,
    assemble_iterate_operator,
    dense_svd,
    gen_synthetic,
    truncated_svd,
)


def run_demo(n=300, r=8, p=0.7, seed=3, k=10):
    inst = gen_synthetic(n, r, p, seed)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    iterate = FactoredMatrix(u, np.sort(rng.uniform(1, 50, r))[::-1], v)

    op = assemble_iterate_operator(inst.obs, iterate)
    print(f"operator: {n}x{n}, {inst.obs.nnz} sparse residual entries "
          f"+ rank-{iterate.k} iterate")

    leading = truncated_svd(op, k)
    oracle = dense_svd(op.dense())

    print(f"{'i':>3} {'lanczos':>14} {'dense oracle':>14} {'rel diff':>10}")
    for i in range(k):
        diff = abs(leading.sigma[i] - oracle.sigma[i]) / oracle.sigma[0]
        print(f"{i + 1:>3} {leading.sigma[i]:>14.8f} {oracle.sigma[i]:>14.8f} {diff:>10.1e}")

    residual = max(
        np.linalg.norm(op.matvec(leading.v[:, i]) - leading.sigma[i] * leading.u[:, i])
        for i in range(k)
    )
    print(f"worst product residual |op v - sigma u|: {residual:.2e}")


if __name__ == "__main__":
    run_demo()
