"""Core library: signatures, hash families, partitioners, join operators."""

from .api import (
    analyze_containment_join,
    containment_join,
    explain_containment_join,
    overlap_join,
    self_containment_join,
    set_equality_join,
    superset_join,
)
from .config import JoinConfig, resolve_partitioner
from .dcj import ALTERNATION_PATTERNS, DCJPartitioner
from .hashing import (
    BitstringHashFamily,
    BooleanHashFamily,
    ExplicitHashFamily,
    PrimeHashFamily,
    make_family,
    optimal_bitstring_length,
    optimal_firing_probability,
    optimal_no_fire_probability,
    paper_example_family,
    paper_table4_family,
    step_comparison_factor,
)
from .hybrid import HybridOutcome, hybrid_join, split_by_cardinality
from .intersection import (
    intersection_join,
    intersection_join_nested_loop,
    run_disk_intersection_join,
)
from .lsj import LSJPartitioner, submasks
from .modulo import ModuloFoldPartitioner, dcj_with_any_k, lsj_with_any_k
from .metrics import JoinMetrics, PhaseMetrics
from .nested_loop import naive_join, signature_nested_loop_join
from .operator import SetContainmentJoin, Testbed, run_disk_join
from .optimizer import CandidatePlan, JoinPlan, choose_plan
from .partitioning import PartitionAssignment, Partitioner
from .psj import PSJPartitioner
from .sets import (
    Relation,
    SetTuple,
    containment_pairs_nested_loop,
    elements_from_values,
    hash_value_to_element,
)
from .shj import estimate_memory_bytes, shj_join
from .unnested import sql_unnested_join, unnest
from .signatures import (
    DEFAULT_SIGNATURE_BITS,
    recommend_signature_bits,
    bitwise_included,
    expected_bit_density,
    false_positive_probability,
    signature_of,
    signatures_of,
)

__all__ = [
    "analyze_containment_join",
    "containment_join",
    "explain_containment_join",
    "self_containment_join",
    "overlap_join",
    "set_equality_join",
    "superset_join",
    "JoinConfig",
    "resolve_partitioner",
    "ALTERNATION_PATTERNS",
    "DCJPartitioner",
    "BitstringHashFamily",
    "BooleanHashFamily",
    "PrimeHashFamily",
    "ExplicitHashFamily",
    "make_family",
    "optimal_bitstring_length",
    "optimal_firing_probability",
    "optimal_no_fire_probability",
    "paper_example_family",
    "paper_table4_family",
    "step_comparison_factor",
    "HybridOutcome",
    "hybrid_join",
    "split_by_cardinality",
    "intersection_join",
    "intersection_join_nested_loop",
    "run_disk_intersection_join",
    "ModuloFoldPartitioner",
    "dcj_with_any_k",
    "lsj_with_any_k",
    "LSJPartitioner",
    "submasks",
    "JoinMetrics",
    "PhaseMetrics",
    "naive_join",
    "signature_nested_loop_join",
    "SetContainmentJoin",
    "Testbed",
    "run_disk_join",
    "CandidatePlan",
    "JoinPlan",
    "choose_plan",
    "PartitionAssignment",
    "Partitioner",
    "PSJPartitioner",
    "Relation",
    "SetTuple",
    "containment_pairs_nested_loop",
    "elements_from_values",
    "hash_value_to_element",
    "estimate_memory_bytes",
    "shj_join",
    "sql_unnested_join",
    "unnest",
    "DEFAULT_SIGNATURE_BITS",
    "bitwise_included",
    "expected_bit_density",
    "false_positive_probability",
    "recommend_signature_bits",
    "signature_of",
    "signatures_of",
]
