#!/usr/bin/env python
"""Vendors and construction projects — containment and intersection joins.

The paper's second motivating scenario: "if our first relation contained
sets of parts used in construction projects, and the second one contained
sets of parts offered by each equipment vendor, we could determine which
construction projects can be supplied by a single vendor using a set
containment join."

This example answers that question with the containment join, then uses
the intersection-join extension (the paper's Section 7 future work) for
the complementary sourcing question: which vendors can supply *at least
part* of a project (useful for multi-vendor procurement).

Run:  python examples/vendor_parts.py
"""

import random

from repro.core import JoinConfig
from repro import Relation, run_disk_join
from repro.core import SetTuple, dcj_with_any_k, recommend_signature_bits
from repro.core.intersection import intersection_join

NUM_PARTS = 2_000
NUM_VENDORS = 120
NUM_PROJECTS = 200
SEED = 17


def main() -> None:
    rng = random.Random(SEED)

    # Vendors stock 50-400 parts each, specialized around a home range.
    vendors = Relation(name="Vendors")
    for vendor_id in range(NUM_VENDORS):
        base = rng.randrange(NUM_PARTS)
        count = rng.randint(50, 400)
        catalog = {
            (base + int(rng.gauss(0, NUM_PARTS // 6))) % NUM_PARTS
            for __ in range(count)
        }
        vendors.add(SetTuple(vendor_id, frozenset(catalog)))

    # Projects need 5-40 parts; some are built from a single vendor's
    # catalog so the containment join has non-trivial answers.
    projects = Relation(name="Projects")
    for project_id in range(NUM_PROJECTS):
        need = rng.randint(5, 40)
        if rng.random() < 0.4:
            source = sorted(vendors[rng.randrange(NUM_VENDORS)].elements)
            parts = frozenset(rng.sample(source, min(need, len(source))))
        else:
            parts = frozenset(rng.sample(range(NUM_PARTS), need))
        projects.add(SetTuple(project_id, parts))

    theta_r = projects.average_cardinality()
    theta_s = vendors.average_cardinality()
    print(f"{NUM_PROJECTS} projects (need ≈ {theta_r:.0f} parts each), "
          f"{NUM_VENDORS} vendors (stock ≈ {theta_s:.0f} parts each)\n")

    # Single-vendor sourcing: project parts ⊆ vendor catalog.  k = 48
    # exercises the modulo-folding extension (non-power-of-two k), and the
    # signature width comes from the advisor (with head-room, since the
    # clustered catalogs violate the uniform-elements estimate).
    bits = 2 * recommend_signature_bits(
        theta_r, theta_s, pairs_compared=len(projects) * len(vendors)
    )
    print(f"signature width: {bits} bits (advisor x2 head-room)\n")
    partitioner = dcj_with_any_k(48, theta_r, theta_s)
    single, metrics = run_disk_join(
        projects, vendors, partitioner, JoinConfig(signature_bits=bits),
    )
    suppliable = {project for project, __ in single}
    print(f"single-vendor sourcing (containment join, {partitioner.describe()}):")
    print(f"  {len(single)} (project, vendor) pairs; "
          f"{len(suppliable)}/{NUM_PROJECTS} projects fully suppliable")
    print(f"  {metrics.signature_comparisons} signature comparisons, "
          f"{metrics.false_positives} false positives, "
          f"{metrics.total_seconds:.2f}s\n")

    # Partial sourcing: vendors sharing >= 5 needed parts with a project.
    partial, overlap_metrics = intersection_join(
        projects, vendors, threshold=5, num_partitions=64
    )
    print("partial sourcing (intersection join, ≥5 shared parts):")
    print(f"  {len(partial)} (project, vendor) pairs; "
          f"{overlap_metrics.candidates} candidates after the "
          f"shared-bit filter, {overlap_metrics.total_seconds:.2f}s")

    # Single-vendor pairs must also appear as partial-sourcing pairs
    # whenever the project needs at least the threshold.
    for project, vendor in single:
        if projects[project].cardinality >= 5:
            assert (project, vendor) in partial
    print("\ncontainment ⇒ overlap cross-check passed ✓")


if __name__ == "__main__":
    main()
