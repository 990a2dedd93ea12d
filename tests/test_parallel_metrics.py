"""Cross-backend metrics-registry invariance (the aggregation contract).

The process backend ships each worker's registry delta back to the
parent and merges it (``repro.parallel.worker`` / ``engine``); serial
and thread workers increment the parent's registry directly.  Whatever
the mechanism, the *parent* registry must end up with identical
``setjoin_buffer_*``, ``setjoin_wal_*`` and ``setjoin_worker_*`` totals
for the same join on every backend — under fork, a worker's registry
copy starts with the parent's counts, so an unbaselined delta would
double-count everything the parent did before the join (the regression
this file pins down).
"""

import pytest

from repro.core import JoinConfig
from repro.core.operator import SetContainmentJoin, Testbed
from repro.core.psj import PSJPartitioner
from repro.data.workloads import uniform_workload
from repro.obs.registry import get_registry, record_join
from repro.storage.buffer import BufferPool
from repro.storage.pager import FileDiskManager
from repro.storage.wal import WALDiskManager, WriteAheadLog

BACKENDS = ("serial", "thread", "process")

#: The counter families whose parent totals must be backend-invariant.
INVARIANT_PREFIXES = (
    "setjoin_buffer_",
    "setjoin_wal_",
    "setjoin_worker_",
    "setjoin_signature_comparisons_total",
    "setjoin_replicated_signatures_total",
    "setjoin_page_",
)


@pytest.fixture(scope="module")
def workload():
    return uniform_workload(
        100, 130, 6, 14, domain_size=2_000, seed=7, planted_pairs=4
    ).materialize()


def run_join(tmp_path, workload, backend):
    """One WAL-backed, file-backed join; returns the parent registry's
    counter increments attributable to this run."""
    lhs, rhs = workload
    path = str(tmp_path / f"{backend}.db")
    disk = WALDiskManager(
        FileDiskManager(path, 4096), WriteAheadLog(path + ".wal", 4096)
    )
    pool = BufferPool(disk, capacity=128)
    testbed = Testbed.from_components(disk, pool, None, None)
    registry = get_registry()
    before = registry.snapshot()
    # Load under a WAL transaction so the parent increments
    # setjoin_wal_commits_total/fsyncs_total *before* any worker forks —
    # exactly the state a naive (unbaselined) delta would re-add.
    disk.begin()
    testbed.load(lhs, rhs)
    disk.commit()
    join = SetContainmentJoin(
        testbed, PSJPartitioner(8, seed=1),
        JoinConfig(workers=3, backend=backend),
    )
    pairs, metrics = join.run(cold_cache=False)
    record_join(metrics)
    testbed.close()
    delta = registry.delta(before)
    counters = {
        name: entry["value"]
        for name, entry in delta.items()
        if entry["kind"] == "counter"
        and name.startswith(INVARIANT_PREFIXES)
        # Timing counters (worker wall seconds) are real work the
        # deltas must carry home, but their *values* are clock reads —
        # only the integer counters can be bit-identical.
        and not name.endswith("_seconds_total")
    }
    timings = {
        name: entry["value"]
        for name, entry in delta.items()
        if entry["kind"] == "counter" and name.endswith("_seconds_total")
        and name.startswith(INVARIANT_PREFIXES)
    }
    return pairs, metrics, counters, timings


def test_parent_registry_identical_across_backends(tmp_path, workload):
    runs = {
        backend: run_join(tmp_path, workload, backend)
        for backend in BACKENDS
    }
    serial_pairs, serial_metrics, serial_counters, serial_timings = (
        runs["serial"]
    )

    assert serial_counters.get("setjoin_wal_commits_total", 0) >= 1
    assert serial_counters.get("setjoin_worker_shards_total", 0) >= 1
    assert serial_counters.get("setjoin_buffer_hits_total", 0) > 0
    assert serial_timings.get("setjoin_worker_seconds_total", 0) > 0

    for backend in ("thread", "process"):
        pairs, metrics, counters, timings = runs[backend]
        assert pairs == serial_pairs
        assert metrics.signature_comparisons == (
            serial_metrics.signature_comparisons
        )
        assert counters == serial_counters, (
            f"{backend} backend perturbed the parent registry"
        )
        # Worker wall time must still come home through the delta merge
        # (a dropped delta would leave it at zero) even though its value
        # cannot be bit-identical across backends.
        assert timings.get("setjoin_worker_seconds_total", 0) > 0


def test_worker_counters_cover_all_shards(tmp_path, workload):
    __, __, counters, __ = run_join(tmp_path, workload, "process")
    assert counters["setjoin_worker_shards_total"] == 3
    assert counters["setjoin_worker_partitions_total"] == 8
    assert counters["setjoin_worker_comparisons_total"] > 0
