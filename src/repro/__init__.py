"""setjoins — set containment joins, reproducing Melnik & Garcia-Molina (EDBT 2002).

A from-scratch implementation of the Divide-and-Conquer Set Join (DCJ) and
every system it is evaluated against in the paper: the PSJ and LSJ
partitioning algorithms, the main-memory SHJ baseline, a disk-based
testbed (paged storage, buffer pool, B-trees), the full analytical model
(Table 7 factors, selectivity, calibrated time model, optimizer), and
[GEBW94]-style synthetic data generation.

Quickstart::

    from repro import Relation, DCJPartitioner, run_disk_join

    r = Relation.from_sets([{1, 5}, {10, 13}, {1, 3}, {8, 19}], name="R")
    s = Relation.from_sets([{1, 5, 7}, {8, 10, 13}, {1, 3, 13}, {2, 3, 4}], name="S")
    dcj = DCJPartitioner.for_cardinalities(8, theta_r=2, theta_s=3)
    result, metrics = run_disk_join(r, s, dcj)
    # result == {(0, 0), (1, 1), (2, 2)}  — i.e. a⊆A, b⊆B, c⊆C
"""

from .core import (
    DCJPartitioner,
    JoinConfig,
    JoinMetrics,
    JoinPlan,
    LSJPartitioner,
    PartitionAssignment,
    Partitioner,
    PSJPartitioner,
    Relation,
    SetContainmentJoin,
    SetTuple,
    Testbed,
    analyze_containment_join,
    bitwise_included,
    choose_plan,
    containment_join,
    containment_pairs_nested_loop,
    explain_containment_join,
    hybrid_join,
    naive_join,
    paper_example_family,
    resolve_partitioner,
    run_disk_join,
    shj_join,
    signature_nested_loop_join,
    signature_of,
)
from .analysis import (
    comp_dcj,
    comp_lsj,
    comp_psj,
    expected_selectivity,
    repl_dcj,
    repl_lsj,
    repl_psj,
)
from .analysis.timemodel import PAPER_TIME_MODEL, TimeModel, calibrate
from .data import Workload, case_study, uniform_workload
from .database import SetJoinDatabase
from .errors import SetJoinError

__version__ = "1.0.0"

__all__ = [
    "DCJPartitioner",
    "JoinConfig",
    "JoinMetrics",
    "JoinPlan",
    "LSJPartitioner",
    "PartitionAssignment",
    "Partitioner",
    "PSJPartitioner",
    "Relation",
    "SetContainmentJoin",
    "SetTuple",
    "Testbed",
    "analyze_containment_join",
    "bitwise_included",
    "choose_plan",
    "containment_join",
    "containment_pairs_nested_loop",
    "explain_containment_join",
    "hybrid_join",
    "naive_join",
    "paper_example_family",
    "resolve_partitioner",
    "run_disk_join",
    "shj_join",
    "signature_nested_loop_join",
    "signature_of",
    "comp_dcj",
    "comp_lsj",
    "comp_psj",
    "expected_selectivity",
    "repl_dcj",
    "repl_lsj",
    "repl_psj",
    "PAPER_TIME_MODEL",
    "TimeModel",
    "calibrate",
    "SetJoinDatabase",
    "Workload",
    "case_study",
    "uniform_workload",
    "SetJoinError",
    "__version__",
]
