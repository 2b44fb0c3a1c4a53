"""The benchmark's workloads: one synthetic instance family, one solver call
and one quality gate each.

Every workload builds its instance with ``gen_synthetic(n, r, p, seed)`` from
the seed handed to the benchmark, and solves it through matcomplete's public
API.  The gates are the acceptance-criterion bounds for the same solves.
"""

from __future__ import annotations

from dataclasses import dataclass

from matcomplete import CONVERGED, SolverConfig, gen_synthetic, svt, two_phase
from matcomplete.bench import TOLERANCE_BUNDLES


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    n: int
    r: int
    p: float
    beta: float | None
    rank_gate: int | None
    rer_gate: float

    def build(self, seed: int):
        """The seeded synthetic instance (ground truth plus observed entries)."""
        return gen_synthetic(self.n, self.r, self.p, seed)

    def solve(self, obs):
        if self.method == "two_phase":
            config = SolverConfig(r=self.r, beta=self.beta, **TOLERANCE_BUNDLES["paper-synth"])
            return two_phase(obs, config)
        return svt(obs, eps_2=1e-4, it_max=200)

    def gate(self, result, err: float) -> str | None:
        """Why a solve fails this workload's quality gate, or None if it passes."""
        if result.status != CONVERGED:
            return f"status {result.status!r}, not {CONVERGED!r}"
        if self.rank_gate is not None and result.recovered_rank != self.rank_gate:
            return f"recovered rank {result.recovered_rank}, not {self.rank_gate}"
        if not err <= self.rer_gate:
            return f"rer {err:.3e} above {self.rer_gate:.0e}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        # Table-1 solve: 600k observed entries, short SVD calls, so the
        # omega-projections dominate; a projection-count change shows here.
        Workload("table1", "two_phase", n=1000, r=10, p=0.40, beta=13.0,
                 rank_gate=10, rer_gate=1e-4),
        # Hard regime: 320k entries, ~125 iterations of long Lanczos runs,
        # so SVD steps, matvecs and combine dominate.
        Workload("hard", "two_phase", n=2000, r=20, p=0.92, beta=12.0,
                 rank_gate=20, rer_gate=1e-2),
        # SVT on the Table-1 instance: a purely sparse operator whose rank
        # grows from zero by regrowth calls, with no momentum or combine.
        Workload("svt", "svt", n=1000, r=10, p=0.40, beta=None,
                 rank_gate=None, rer_gate=1e-3),
    )
}
