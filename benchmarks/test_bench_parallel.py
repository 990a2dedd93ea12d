"""Benchmark for the partition-parallel join: speedup vs worker count.

Times the full disk-based join for workers in {1, 2, 4} under DCJ and
PSJ on the case-study workload, and regenerates the ``parallel``
experiment's speedup curve.  Result sets and the paper's x/y accounting
must be identical at every worker count; the speedup assertions are
guarded on the machine's core count since fork overhead makes parallel
runs *slower* on a single-core box.
"""

import os
import tempfile

import pytest

from repro.core import JoinConfig, resolve_partitioner
from repro.core.operator import run_disk_join
from repro.experiments.parallel_scaling import run as parallel_experiment

WORKER_COUNTS = (1, 2, 4)
CORES = os.cpu_count() or 1


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("algorithm", ["DCJ", "PSJ"])
def test_bench_parallel_join(benchmark, case_study_relations, tmp_path,
                             algorithm, workers):
    lhs, rhs = case_study_relations

    def run():
        partitioner = resolve_partitioner(algorithm, 32, 50, 100, seed=7)
        return run_disk_join(
            lhs, rhs, partitioner,
            JoinConfig(workers=workers, backend="process"),
            path=str(tmp_path / f"{algorithm}-{workers}.db"),
        )

    result, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.result_size >= 5  # planted pairs all found
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["t_join_s"] = round(metrics.joining.seconds, 4)
    benchmark.extra_info["comparisons"] = metrics.signature_comparisons
    benchmark.extra_info["cores"] = CORES


def test_parallel_speedup_curve(bench_scale):
    """The experiment's invariance checks must pass everywhere; the
    join-phase speedup target only binds where cores exist to use."""
    result = parallel_experiment(scale=bench_scale)
    failed = [name for name, ok in result.checks if not ok]
    assert not failed, f"invariance checks failed: {failed}"

    by_key = {(row["algorithm"], row["workers"]): row for row in result.rows}
    for algorithm in ("DCJ", "PSJ"):
        assert by_key[(algorithm, 1)]["results"] == \
            by_key[(algorithm, 4)]["results"]

    if CORES >= 4:
        # The acceptance target: >1.5x join-phase speedup at 4 workers
        # for DCJ at paper scale.
        assert by_key[("DCJ", 4)]["speedup"] > 1.5
    elif CORES >= 2:
        assert by_key[("DCJ", 2)]["speedup"] > 1.1
    # Single-core machines: the curve is recorded, nothing to assert.
