"""Head-to-head algorithm benchmarks on one workload.

Not a single paper figure, but the cross-cutting comparison the whole
evaluation builds toward: all five algorithms (DCJ, PSJ, LSJ, SHJ,
signature nested loop) on the same input, checked for identical output.
"""

import pytest

from repro.core import resolve_partitioner
from repro.core.nested_loop import signature_nested_loop_join
from repro.core.operator import run_disk_join
from repro.core.sets import containment_pairs_nested_loop
from repro.core.shj import shj_join
from repro.data.workloads import uniform_workload

K = 32
THETA_R, THETA_S = 20, 40


@pytest.fixture(scope="module")
def workload():
    lhs, rhs = uniform_workload(
        600, 600, THETA_R, THETA_S, domain_size=20_000, seed=21,
        planted_pairs=5,
    ).materialize()
    return lhs, rhs, containment_pairs_nested_loop(lhs, rhs)


@pytest.mark.parametrize("algorithm", ["DCJ", "PSJ", "LSJ"])
def test_bench_disk_algorithm(benchmark, workload, algorithm):
    lhs, rhs, expected = workload

    def run():
        partitioner = resolve_partitioner(algorithm, K, THETA_R, THETA_S, seed=2)
        return run_disk_join(lhs, rhs, partitioner)

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result == expected
    benchmark.extra_info["comp_factor"] = round(metrics.comparison_factor, 4)
    benchmark.extra_info["repl_factor"] = round(metrics.replication_factor, 4)


def test_bench_shj_main_memory(benchmark, workload):
    lhs, rhs, expected = workload
    result, __ = benchmark.pedantic(
        lambda: shj_join(lhs, rhs, signature_bits=10), rounds=1, iterations=1
    )
    assert result == expected


def test_bench_signature_nested_loop(benchmark, workload):
    lhs, rhs, expected = workload
    result, __ = benchmark.pedantic(
        lambda: signature_nested_loop_join(lhs, rhs), rounds=1, iterations=1
    )
    assert result == expected
