#!/usr/bin/env python
"""Large-cardinality sets: the biochemical scenario that motivates DCJ.

The paper argues PSJ breaks down when sets are large: "biochemical
databases contain sets with many thousands [of] elements each ... the
fruit fly has around 14000 genes, 70-80% of which are active at any time.
A snapshot of active genes can thus be represented as a set of around
10000 elements."

This example builds gene-expression snapshots (scaled down so pure Python
stays quick), plus a relation of pathway gene-signatures (smaller sets),
and asks: which pathways are fully active in which snapshots?  That is a
set containment join with large supersets — DCJ's home regime.  The
script compares DCJ against PSJ on comparisons and replication, and shows
the optimizer picking DCJ.

Run:  python examples/gene_expression.py
"""

import random

from repro import PAPER_TIME_MODEL, Relation, choose_plan, run_disk_join
from repro.analysis.factors import comp_dcj, comp_psj, repl_dcj, repl_psj
from repro.core import resolve_partitioner
from repro.core.sets import SetTuple

NUM_GENES = 4_000          # scaled-down genome
PATHWAY_SIZE = (20, 60)    # genes per pathway signature
SNAPSHOT_ACTIVE = 0.75     # fraction of genes active per snapshot
NUM_PATHWAYS = 150
NUM_SNAPSHOTS = 60
SEED = 5


def main() -> None:
    rng = random.Random(SEED)

    pathways = Relation(name="Pathways")
    for pathway_id in range(NUM_PATHWAYS):
        size = rng.randint(*PATHWAY_SIZE)
        pathways.add(SetTuple(pathway_id, frozenset(rng.sample(range(NUM_GENES), size))))

    snapshots = Relation(name="Snapshots")
    for snapshot_id in range(NUM_SNAPSHOTS):
        active_count = int(NUM_GENES * rng.uniform(SNAPSHOT_ACTIVE - 0.05,
                                                   SNAPSHOT_ACTIVE + 0.05))
        snapshots.add(
            SetTuple(snapshot_id, frozenset(rng.sample(range(NUM_GENES), active_count)))
        )

    theta_r = pathways.average_cardinality()
    theta_s = snapshots.average_cardinality()
    print(f"{NUM_PATHWAYS} pathway signatures (θ_R ≈ {theta_r:.0f} genes), "
          f"{NUM_SNAPSHOTS} snapshots (θ_S ≈ {theta_s:.0f} active genes)")

    # What the analytical model says about this regime (k = 64):
    print("\nanalytical factors at k = 64:")
    print(f"  comp_DCJ = {comp_dcj(64, theta_r, theta_s):.4f}   "
          f"comp_PSJ = {comp_psj(64, theta_s):.4f}")
    print(f"  repl_DCJ = {repl_dcj(64, theta_r, theta_s):.1f}     "
          f"repl_PSJ = {repl_psj(64, theta_s):.1f}   <- PSJ replicates "
          f"every snapshot to ~every partition")

    plan = choose_plan(pathways, snapshots, PAPER_TIME_MODEL)
    print(f"\noptimizer: {plan.algorithm} with k = {plan.k}")

    results = {}
    for algorithm in ("DCJ", "PSJ"):
        partitioner = resolve_partitioner(algorithm, 64, theta_r, theta_s, seed=SEED)
        pairs, metrics = run_disk_join(pathways, snapshots, partitioner)
        results[algorithm] = pairs
        print(f"\n{algorithm}: {len(pairs)} fully-active (pathway, snapshot) pairs")
        print(f"  comparisons: {metrics.signature_comparisons:9d} "
              f"(factor {metrics.comparison_factor:.3f})")
        print(f"  replicated : {metrics.replicated_signatures:9d} "
              f"(factor {metrics.replication_factor:.1f})")
        print(f"  page I/O   : {metrics.total_page_reads} reads / "
              f"{metrics.total_page_writes} writes")
        print(f"  time       : {metrics.total_seconds:.2f}s")
    assert results["DCJ"] == results["PSJ"]
    print("\nboth algorithms agree on the result ✓")


if __name__ == "__main__":
    main()
