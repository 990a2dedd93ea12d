#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the two relations of Table 1, runs the set containment join with
each algorithm (DCJ, PSJ, LSJ on the disk testbed; SHJ in memory), and
prints the result together with the metrics the paper's analysis is
about: signature comparisons, replicated signatures, false positives.

Run:  python examples/quickstart.py
"""

from repro.core import JoinConfig
from repro import (
    DCJPartitioner,
    LSJPartitioner,
    PSJPartitioner,
    Relation,
    paper_example_family,
    run_disk_join,
    shj_join,
)

SET_NAMES = {
    "R": ["a", "b", "c", "d"],
    "S": ["A", "B", "C", "D"],
}


def main() -> None:
    # Table 1: two relations with one set-valued attribute each.
    r = Relation.from_sets([{1, 5}, {10, 13}, {1, 3}, {8, 19}], name="R")
    s = Relation.from_sets(
        [{1, 5, 7}, {8, 10, 13}, {1, 3, 13}, {2, 3, 4}], name="S"
    )

    print("Relation R:", {SET_NAMES['R'][t.tid]: sorted(t.elements) for t in r})
    print("Relation S:", {SET_NAMES['S'][t.tid]: sorted(t.elements) for t in s})
    print()

    partitioners = [
        DCJPartitioner(paper_example_family()),   # k = 8, Table 3's hashes
        PSJPartitioner(8, seed=1),                # k = 8, random elements
        LSJPartitioner(paper_example_family()),   # k = 8, lattice layout
    ]
    for partitioner in partitioners:
        result, metrics = run_disk_join(
            r, s, partitioner, JoinConfig(signature_bits=4),
        )
        named = sorted(
            (SET_NAMES["R"][r_tid], SET_NAMES["S"][s_tid])
            for r_tid, s_tid in result
        )
        print(f"{partitioner.describe()}")
        print(f"  result               : {named}")
        print(f"  signature comparisons: {metrics.signature_comparisons}"
              f"  (factor {metrics.comparison_factor:.3f})")
        print(f"  replicated signatures: {metrics.replicated_signatures}"
              f"  (factor {metrics.replication_factor:.3f})")
        print(f"  false positives      : {metrics.false_positives}")
        print()

    # The main-memory baseline the disk algorithms replace.
    result, metrics = shj_join(r, s, signature_bits=4)
    named = sorted(
        (SET_NAMES["R"][r_tid], SET_NAMES["S"][s_tid]) for r_tid, s_tid in result
    )
    print(f"SHJ (main memory): {named}, "
          f"{metrics.set_comparisons} set comparisons")


if __name__ == "__main__":
    main()
