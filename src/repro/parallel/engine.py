"""Orchestration: shard, dispatch, merge — for one joining phase.

:func:`run_parallel_join` is called by
``SetContainmentJoin._parallel_join_phase`` between the (serial)
partitioning and verification phases.  It

1. reads the per-partition entry counts the partitioning phase already
   produced and builds LPT-balanced shards (:mod:`.scheduler`),
2. describes each shard as a self-contained :class:`~.worker.ShardSpec`
   — file-backed testbeds are described by path + meta page ids so each
   worker reopens its own read-only storage view; memory-backed
   testbeds (and memory-resident partitions) ship their entries inline,
3. dispatches the shards on the configured backend (:mod:`.executor`),
   falling back to serial execution when the backend cannot start here,
4. merges the per-worker results deterministically (:mod:`.merge`).

Worker failures are re-raised as
:class:`~repro.errors.ParallelExecutionError`; the operator's existing
failure path then drops the temporary partition stores, so an aborted
parallel join leaves no orphaned spill pages behind.
"""

from __future__ import annotations

from ..core.metrics import JoinMetrics
from ..errors import ParallelExecutionError
from ..obs.registry import get_registry
from ..obs.trace import current_tracer
from ..storage.pager import FileDiskManager
from .executor import resolve_backend
from .merge import merge_shard_pairs, merge_worker_metrics
from .scheduler import build_shards
from .worker import FileSource, ShardSpec

__all__ = ["run_parallel_join"]


def run_parallel_join(
    join, parts_r, parts_s
) -> tuple[list[tuple[int, int]], JoinMetrics]:
    """Run the joining phase of ``join`` across its configured workers.

    Returns ``(pairs, worker_metrics)``: the deduplicated candidate
    pairs sorted by tid, and the workers' aggregated metric shares
    (signature comparisons, worker-side page I/O, summed worker
    seconds).  Raises :class:`ParallelExecutionError` if any worker
    fails or times out.
    """
    k = join.partitioner.num_partitions
    r_sizes = [join._partition_size_r(parts_r, p) for p in range(k)]
    s_sizes = [join._partition_size_s(parts_s, p) for p in range(k)]
    template = JoinMetrics(
        algorithm=join.partitioner.name,
        num_partitions=k,
        r_size=len(join.testbed.relation_r),
        s_size=len(join.testbed.relation_s),
        signature_bits=join.config.signature_bits,
    )

    shards = build_shards(r_sizes, s_sizes, join.config.workers)
    join._parallel_fallback_reason = None
    if not shards:
        return [], template

    backend, fallback = resolve_backend(join.config.backend, len(shards))
    join._parallel_fallback_reason = fallback

    # Prefer the tracer the operator's run() installed over the ambient
    # global: under the coordinator's thread fanout several joins run
    # concurrently and the ambient slot is a shared race, while
    # ``join._run_tracer`` is unambiguous.
    tracer = getattr(join, "_run_tracer", None)
    if tracer is None:
        tracer = current_tracer()
    file_source = _describe_file_source(join, parts_r, parts_s)
    # Only process workers snapshot-and-ship registry deltas: serial and
    # thread workers share the parent's registry, so their increments
    # are already here and a merged delta would double-count.
    collect_metrics = backend.name == "process"
    specs = [
        _build_spec(join, parts_r, parts_s, shard, file_source,
                    collect_metrics, trace=tracer.enabled,
                    query_id=getattr(join, "query_id", None))
        for shard in shards
    ]
    # The chaos hook (see repro.service.chaos) gets one look at every
    # spec before dispatch; it may arm delays, I/O faults, or kills.
    shard_hook = getattr(join, "shard_hook", None)
    if shard_hook is not None:
        for spec in specs:
            shard_hook(spec)
    results = backend.run(specs, timeout=join.shard_timeout)

    for shard, result in zip(shards, results):
        if result.error is not None:
            raise ParallelExecutionError(
                f"join worker for shard {shard.index} "
                f"(partitions {shard.partitions}) failed with "
                f"{result.error_type}: {result.error}"
            )
    if collect_metrics:
        registry = get_registry()
        for result in sorted(results, key=lambda r: r.index):
            if result.registry_delta:
                registry.merge_delta(result.registry_delta)
    # Stitch the workers' serialized span trees under the parent's
    # current span (the joining phase), in shard order, so a k-way run
    # yields one coherent tree with true per-shard wall times.  Each
    # adopted shard span is annotated with the scheduler's predicted
    # comparison count (exact under block nested loop: Σ |R_p|·|S_p|)
    # so EXPLAIN ANALYZE can show per-shard predicted-vs-observed skew.
    if tracer.enabled:
        predicted = {
            shard.index: (
                sum(r_sizes[p] * s_sizes[p] for p in shard.partitions),
                shard.cost,
            )
            for shard in shards
        }
        for result in sorted(results, key=lambda r: r.index):
            for span in tracer.adopt(result.spans):
                if span.name == "shard" and span.attrs.get("index") in predicted:
                    comparisons, cost = predicted[span.attrs["index"]]
                    span.set(
                        predicted_comparisons=comparisons,
                        scheduled_cost=cost,
                    )
    return merge_shard_pairs(results), merge_worker_metrics(results, template)


def _describe_file_source(join, parts_r, parts_s) -> FileSource | None:
    """A file-backed testbed is described by reference, not by value."""
    disk = join.testbed.disk
    if not isinstance(disk, FileDiskManager):
        return None
    # The partitioning phase flushed the pool after sealing the stores,
    # and the joining phase performs no writes, so the on-disk image the
    # workers reopen is complete and stable.  Flush down to the OS as
    # well: workers read through their own file descriptors, which do
    # not see bytes still sitting in the parent's userspace file buffer.
    join.testbed.pool.flush_all()
    disk.flush()
    return FileSource(
        path=disk.path,
        page_size=disk.page_size,
        buffer_pages=join.testbed.pool.capacity,
        r_meta_page=parts_r.meta_page_id,
        s_meta_page=parts_s.meta_page_id,
    )


def _build_spec(join, parts_r, parts_s, shard, file_source,
                collect_metrics=False, trace=False,
                query_id=None) -> ShardSpec:
    inline_r: dict[int, list[tuple[int, int]]] = {}
    inline_s: dict[int, list[tuple[int, int]]] = {}
    resident = join.resident_partitions
    for partition in shard.partitions:
        if partition < resident:
            # Memory-resident partitions exist only in the parent's
            # lists — ship them by value regardless of the source.
            inline_r[partition] = join._resident_r[partition]
            inline_s[partition] = join._resident_s[partition]
        elif file_source is None:
            inline_r[partition] = list(parts_r.scan_partition(partition))
            inline_s[partition] = list(parts_s.scan_partition(partition))
    import os

    return ShardSpec(
        partitions=list(shard.partitions),
        config=join.config,
        file_source=file_source,
        inline_r=inline_r,
        inline_s=inline_s,
        fail_after=join._worker_fault_after,
        parent_pid=os.getpid(),
        index=shard.index,
        trace=trace,
        collect_metrics=collect_metrics,
        query_id=query_id,
    )
