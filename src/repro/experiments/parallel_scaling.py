"""Partition-parallel speedup curve: join-phase time vs worker count.

Not a figure from the paper — the paper's testbed is strictly serial —
but the natural extension its partitioned structure invites: DCJ/PSJ/LSJ
reduce the join to independent partition pairs, so the joining phase
should scale with workers while the x/y accounting stays *identical* to
the serial run (each pair is joined by exactly one worker).

The experiment runs DCJ and PSJ over the case-study workload (scaled)
for workers ∈ {1, 2, 4} on a file-backed testbed, verifies result-set
and comparison-count invariance, and reports the join-phase speedup
relative to workers=1.  Actual speedup is hardware-dependent (bounded
by physical cores and, for the thread backend, the GIL); the invariance
checks are what must always hold.
"""

from __future__ import annotations

import os
import tempfile

from ..core.config import JoinConfig, resolve_partitioner
from ..core.operator import run_disk_join
from ..data.workloads import case_study
from .base import ExperimentResult, register

__all__ = ["run"]

WORKER_COUNTS = (1, 2, 4)
THETA_R, THETA_S = 50, 100
K = 32


@register("parallel")
def run(
    scale: float = 0.05,
    seed: int = 7,
    backend: str = "process",
    engine: str = "numpy",
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="parallel",
        title=f"Partition-parallel join speedup ({backend} backend, "
        f"k={K}, scale {scale})",
        columns=["algorithm", "workers", "t_join_s", "speedup",
                 "comparisons", "results"],
    )
    lhs, rhs = case_study(scale=scale, seed=seed).materialize()
    with tempfile.TemporaryDirectory(prefix="setjoins-parallel-") as tmpdir:
        for algorithm in ("DCJ", "PSJ"):
            baseline = None
            baseline_join_seconds = None
            for workers in WORKER_COUNTS:
                # Fresh partitioner per run: PSJ draws from its RNG per
                # tuple, so a reused instance would partition each run
                # differently and the invariance checks would be vacuous.
                partitioner = resolve_partitioner(algorithm, K, THETA_R,
                                               THETA_S, seed=seed)
                path = os.path.join(tmpdir, f"{algorithm}-{workers}.db")
                pairs, metrics = run_disk_join(
                    lhs, rhs, partitioner,
                    JoinConfig(engine=engine, workers=workers, backend=backend),
                    path=path,
                )
                if baseline is None:
                    baseline = (pairs, metrics.signature_comparisons,
                                metrics.replicated_signatures)
                    baseline_join_seconds = metrics.joining.seconds
                else:
                    result.check(
                        f"{algorithm}: workers={workers} result set and "
                        "x/y counts identical to workers=1",
                        pairs == baseline[0]
                        and metrics.signature_comparisons == baseline[1]
                        and metrics.replicated_signatures == baseline[2],
                    )
                speedup = (
                    baseline_join_seconds / metrics.joining.seconds
                    if metrics.joining.seconds else 0.0
                )
                result.rows.append(
                    {
                        "algorithm": algorithm,
                        "workers": workers,
                        "t_join_s": metrics.joining.seconds,
                        "speedup": round(speedup, 3),
                        "comparisons": metrics.signature_comparisons,
                        "results": len(pairs),
                    }
                )
    cores = os.cpu_count() or 1
    result.notes.append(
        f"measured on {cores} core(s); join-phase speedup is bounded by "
        "physical parallelism, while the invariance checks hold on any "
        "machine"
    )
    result.paper_claims = [
        "The partitioned join structure is shared-nothing over partition "
        "pairs, so the joining phase parallelizes without changing the "
        "x/y accounting the paper's time model is calibrated on.",
    ]
    return result
