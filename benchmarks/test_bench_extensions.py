"""Benchmarks for the extension features.

Covers the paper's closing remarks: modulo folding for arbitrary k
(Section 5), the Section 6 implementation options, and the intersection
join (Section 7 future work).
"""

import pytest

from repro.core import JoinConfig
from repro.core.intersection import (
    intersection_join,
    intersection_join_nested_loop,
)
from repro.core.modulo import dcj_with_any_k
from repro.core.operator import run_disk_join
from repro.core.psj import PSJPartitioner
from repro.data.workloads import uniform_workload


@pytest.fixture(scope="module")
def workload():
    return uniform_workload(
        500, 500, 15, 30, domain_size=20_000, seed=31, planted_pairs=4
    ).materialize()


@pytest.mark.parametrize("k", [32, 48, 64])
def test_bench_dcj_modulo_folding(benchmark, workload, k):
    lhs, rhs = workload

    def run():
        return run_disk_join(lhs, rhs, dcj_with_any_k(k, 15, 30))

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.num_partitions == k
    assert metrics.result_size >= 4
    benchmark.extra_info["comp_factor"] = round(metrics.comparison_factor, 4)


@pytest.mark.parametrize(
    "label,options",
    [
        ("baseline", {}),
        ("resident", {"resident_partitions": 16}),
        ("spill", {"spill_candidates": True}),
    ],
)
def test_bench_operator_options(benchmark, workload, label, options):
    lhs, rhs = workload

    def run():
        return run_disk_join(
            lhs, rhs, PSJPartitioner(32, seed=3), JoinConfig(**options),
        )

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.result_size >= 4


def test_bench_intersection_join(benchmark, workload):
    lhs, rhs = workload
    result, metrics = benchmark.pedantic(
        lambda: intersection_join(lhs, rhs, threshold=2, num_partitions=64),
        rounds=1, iterations=1,
    )
    assert metrics.result_size == len(result)


def test_bench_intersection_nested_loop(benchmark, workload):
    lhs, rhs = workload
    fast, __ = intersection_join(lhs, rhs, threshold=2, num_partitions=64)
    slow, __ = benchmark.pedantic(
        lambda: intersection_join_nested_loop(lhs, rhs, threshold=2),
        rounds=1, iterations=1,
    )
    assert slow == fast
