"""The disk-based set-containment-join operator.

This is the reproduction of the paper's testbed operator: it is built so
that "just the actual partitioning algorithm can be exchanged, other
conditions remaining equal".  A join runs in three phases:

1. **Partitioning** -- scan each stored relation once, compute each
   tuple's signature, ask the partitioner for its partition(s) and append
   ``(signature, tid)`` entries to the per-relation partition stores
   (portioned B-trees, as in the paper).

2. **Joining** -- for each partition pair, compare signatures with a block
   nested loop.  Portions are read in batches to avoid random I/O; if a
   partition's R side exceeds the in-memory block budget, the S side is
   re-scanned per block (classic block-nested-loop behaviour, matching the
   paper's "large partitions that do not fit into the memory available").
   Pairs passing the bitwise-inclusion filter become candidates.

3. **Verification** -- candidate tuple identifiers are sorted and the
   corresponding tuples fetched from the relation B-trees (sorted fetches
   avoid random I/O, as in the paper), then tested with the real subset
   predicate to eliminate false positives.

Two comparison engines are provided: ``"python"`` (pure-Python loop over
integer signatures, faithful to the per-comparison accounting) and
``"numpy"`` (vectorized bitwise inclusion over packed 64-bit words; same
comparison counts, much faster at paper scale).
"""

from __future__ import annotations

import time
from contextlib import suppress
from typing import Iterable

import numpy as np

from ..errors import ConfigurationError, SetJoinError
from ..obs.registry import get_registry
from ..obs.trace import current_tracer, use_tracer
from ..storage.buffer import BufferPool
from ..storage.pager import DiskManager, FileDiskManager, InMemoryDiskManager
from ..storage.partition_store import PartitionStore
from ..storage.relation_store import DEFAULT_PAYLOAD_SIZE, RelationStore
from .config import JoinConfig
from .metrics import JoinMetrics, PhaseMetrics
from .partitioning import Partitioner
from .sets import Relation
from .signatures import pack_signatures, signature_of

__all__ = ["Testbed", "SetContainmentJoin", "run_disk_join", "compare_block"]

#: R-side entries compared per in-memory block; a larger partition
#: re-scans its S side once per block.
BLOCK_ENTRIES = 200_000
#: Partition portions read per batch ("to avoid random I/O").
BATCH_PORTIONS = 8


def compare_block(
    engine: str,
    signature_bits: int,
    r_block: "list[tuple[int, int]]",
    s_batches: "Iterable[list[tuple[int, int]]]",
    add,
) -> int:
    """Compare one R block against an S partition's batches.

    The single block-nested-loop kernel shared by the serial operator and
    the partition-parallel workers (:mod:`repro.parallel.worker`), so both
    paths perform bit-for-bit the same comparisons.  ``add(r_tid, s_tid)``
    is called for every pair passing the bitwise-inclusion filter; the
    number of signature comparisons performed is returned.
    """
    comparisons = 0
    if engine == "numpy":
        packed_r = pack_signatures(
            [signature for signature, __ in r_block], signature_bits
        )
        r_tids = np.array([tid for __, tid in r_block], dtype=np.int64)
        words = packed_r.shape[1]
        mask64 = (1 << 64) - 1
        zero = np.uint64(0)
        for s_batch in s_batches:
            for s_sig, s_tid in s_batch:
                comparisons += len(r_block)
                # sig(r) ⊆ᵇ sig(s)  ⟺  r_words & ~s_words == 0, per word.
                included = np.ones(len(r_block), dtype=bool)
                for word in range(words):
                    not_s = np.uint64(~(s_sig >> (64 * word)) & mask64)
                    included &= (packed_r[:, word] & not_s) == zero
                for r_tid in r_tids[included]:
                    add(int(r_tid), s_tid)
        return comparisons
    for s_batch in s_batches:
        for s_sig, s_tid in s_batch:
            not_s = ~s_sig
            for r_sig, r_tid in r_block:
                comparisons += 1
                if r_sig & not_s == 0:
                    add(r_tid, s_tid)
    return comparisons


class Testbed:
    """A disk, a buffer pool and the two stored input relations.

    ``path=None`` keeps pages in memory (fast, identical I/O accounting);
    a file path gives real on-disk storage.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        path: str | None = None,
        page_size: int = 4096,
        buffer_pages: int = 512,
    ):
        if path is None:
            self.disk: DiskManager = InMemoryDiskManager(page_size)
        else:
            self.disk = FileDiskManager(path, page_size)
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        self.relation_r: RelationStore | None = None
        self.relation_s: RelationStore | None = None

    @classmethod
    def from_components(
        cls,
        disk: DiskManager,
        pool: BufferPool,
        relation_r: RelationStore,
        relation_s: RelationStore,
    ) -> "Testbed":
        """Wrap pre-existing storage components (e.g. a database's) so the
        operator can run over already-stored relations."""
        testbed = cls.__new__(cls)
        testbed.disk = disk
        testbed.pool = pool
        testbed.relation_r = relation_r
        testbed.relation_s = relation_s
        return testbed

    def load(
        self,
        lhs: Relation,
        rhs: Relation,
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
    ) -> None:
        """Store both input relations (R = subset side, S = superset side).

        Loads in tid order through the B-tree bulk loader (pages written
        once, no splits).
        """
        self.relation_r = RelationStore.create_sorted(
            self.pool,
            sorted((row.tid, row.elements) for row in lhs),
            payload_size,
            name=lhs.name or "R",
        )
        self.relation_s = RelationStore.create_sorted(
            self.pool,
            sorted((row.tid, row.elements) for row in rhs),
            payload_size,
            name=rhs.name or "S",
        )
        self.pool.flush_all()

    def close(self) -> None:
        self.pool.flush_all()
        self.disk.close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SetContainmentJoin:
    """Executes R ⋈⊆ S on a :class:`Testbed` with a pluggable partitioner."""

    def __init__(
        self,
        testbed: Testbed,
        partitioner: Partitioner,
        config: JoinConfig = JoinConfig(),
        *,
        shard_timeout: float | None = None,
        shard_hook=None,
        tracer=None,
        query_id: int | None = None,
    ):
        """Configure the operator.

        ``partitioner`` is the exchangeable part; ``config`` holds the
        conditions that remain equal: signature width, comparison
        engine, parallel workers/backend and the implementation options
        from the paper's Section 6 discussion (its algorithm,
        partition-count and seed fields only matter to the entry points
        that build a partitioner from them):

        * ``resident_partitions`` — keep the first ``m`` partitions of
          both relations permanently in main memory instead of writing
          them to disk ("keeping a fixed number of partitions permanently
          in main memory improves the execution time when much memory is
          available").  Resident entries are counted separately in the
          metrics since they cost no partition I/O.
        * ``spill_candidates`` — separate the joining and verification
          phases by writing candidate tuple-identifier pairs to a
          temporary B-tree instead of holding them in memory ("first
          writing out potentially joining tuple identifiers of all
          partitions to disk may improve performance").
        * ``verify_per_partition`` — verify candidates as soon as each
          partition pair finishes, interleaving verification with joining
          the way the paper's testbed does ("After comparing all
          signatures in two partition batches, the identifiers of
          potentially joining tuples ... are sorted, and the
          corresponding tuples are fetched from disk").

        ``workers``/``backend`` engage the partition-parallel execution
        engine (:mod:`repro.parallel`): with ``workers > 1`` the joining
        phase's partition pairs are sharded across workers
        (largest-partition-first) and executed by the named backend
        (``"serial"``, ``"thread"`` or ``"process"``), each shard within
        ``shard_timeout`` seconds.  ``workers=1`` (the default) takes the
        original single-threaded code path untouched.

        ``tracer`` is an optional :class:`repro.obs.trace.Tracer`; when
        given (or when an ambient tracer is active, see
        :func:`repro.obs.trace.use_tracer`) the run produces a span tree
        covering the three phases, every partition pair, buffer-pool
        misses and — for parallel runs — per-shard worker spans stitched
        under the joining phase.  Tracing never changes results or the
        paper's x/y accounting.
        """
        if testbed.relation_r is None or testbed.relation_s is None:
            raise ConfigurationError("testbed has no loaded relations")
        self.testbed = testbed
        self.partitioner = partitioner
        self.config = config
        self.signature_bytes = (config.signature_bits + 7) // 8
        self.resident_partitions = min(
            config.resident_partitions, partitioner.num_partitions
        )
        self.shard_timeout = shard_timeout
        #: optional callable receiving every ShardSpec just before
        #: dispatch; the chaos layer (repro.service.chaos) uses it to arm
        #: per-shard delays, I/O faults and worker kills.
        self.shard_hook = shard_hook
        self.tracer = tracer
        #: service-level query this run serves; stamped on the join span
        #: and threaded into worker shard specs so every span of the run
        #: stitches back to one query trace.
        self.query_id = query_id
        #: the tracer run() resolved for the current execution.  Phases
        #: and the parallel engine read this instead of the ambient
        #: global, which is a shared slot and races under the dist
        #: coordinator's thread fanout.
        self._run_tracer = None
        #: test hook threaded into parallel workers: fail the worker's own
        #: disk manager after N physical I/Os (see repro.parallel.worker).
        self._worker_fault_after: int | None = None
        self._resident_r: list[list[tuple[int, int]]] = []
        self._resident_s: list[list[tuple[int, int]]] = []

    # ------------------------------------------------------------------

    def run(self, cold_cache: bool = True) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Execute the join; returns (result pairs, metrics).

        ``cold_cache`` drops the buffer pool first, reproducing the paper's
        "cold cache" measurement protocol.
        """
        if cold_cache:
            self.testbed.pool.drop_all()
        metrics = JoinMetrics(
            algorithm=self.partitioner.name,
            num_partitions=self.partitioner.num_partitions,
            r_size=len(self.testbed.relation_r),
            s_size=len(self.testbed.relation_s),
            signature_bits=self.config.signature_bits,
        )
        tracer = self.tracer if self.tracer is not None else current_tracer()
        self._run_tracer = tracer
        pool_before = self.testbed.pool.stats.snapshot()
        root_attrs = dict(
            algorithm=metrics.algorithm,
            k=metrics.num_partitions,
            r_size=metrics.r_size,
            s_size=metrics.s_size,
            engine=self.config.engine,
            workers=self.config.workers,
        )
        if self.query_id is not None:
            root_attrs["query_id"] = self.query_id
        with use_tracer(tracer), tracer.span("join", **root_attrs) as root:
            parts_r, parts_s = self._partition_phase(metrics)
            candidates: _CandidateSink | None = None
            try:
                if self.config.verify_per_partition:
                    result = self._join_and_verify_phase(
                        parts_r, parts_s, metrics
                    )
                    self._drop_partitions(parts_r, parts_s)
                else:
                    if self.config.workers > 1:
                        candidates = self._parallel_join_phase(
                            parts_r, parts_s, metrics
                        )
                    else:
                        candidates = self._join_phase(parts_r, parts_s, metrics)
                    # Partition data is temporary ("stored on disk
                    # temporarily"); reclaim its pages before verification.
                    self._drop_partitions(parts_r, parts_s)
                    result = self._verification_phase(candidates, metrics)
            except BaseException:
                # Spill cleanup must run on the failure path too, so an
                # aborted join never strands temporary pages in a long-lived
                # database session.
                self._drop_partitions(parts_r, parts_s)
                if candidates is not None:
                    with suppress(SetJoinError):
                        candidates.dispose()
                raise
            metrics.result_size = len(result)
            pool_delta = self.testbed.pool.stats.delta(pool_before)
            metrics.buffer_hits += pool_delta.hits
            metrics.buffer_misses += pool_delta.misses
            root.set(
                results=metrics.result_size,
                signature_comparisons=metrics.signature_comparisons,
                replicated_signatures=metrics.replicated_signatures,
                candidates=metrics.candidates,
                buffer_hits=metrics.buffer_hits,
                buffer_misses=metrics.buffer_misses,
            )
        return result, metrics

    def _drop_partitions(
        self, parts_r: "PartitionStore | None", parts_s: "PartitionStore | None"
    ) -> None:
        """Best-effort, idempotent reclamation of temporary partition pages."""
        for store in (parts_r, parts_s):
            if store is not None and not store.dropped:
                with suppress(SetJoinError):
                    store.drop()
        self._resident_r = []
        self._resident_s = []

    def _active_tracer(self):
        """The tracer run() resolved, falling back to the ambient one.

        Phases must not read the ambient global directly: under the dist
        coordinator's thread fanout several operators run concurrently
        and the ambient slot is last-writer-wins, which would nest one
        shard's phases under another shard's tree.
        """
        if self._run_tracer is not None:
            return self._run_tracer
        return current_tracer()

    # ------------------------------------------------------------------
    # Phase 1: partitioning
    # ------------------------------------------------------------------

    def _partition_phase(
        self, metrics: JoinMetrics
    ) -> tuple[PartitionStore, PartitionStore]:
        disk = self.testbed.disk
        pool = self.testbed.pool
        before = disk.stats.snapshot()
        started = time.perf_counter()

        resident = self.resident_partitions
        self._resident_r = [[] for __ in range(resident)]
        self._resident_s = [[] for __ in range(resident)]

        tracer = self._active_tracer()
        bits = self.config.signature_bits
        self.partitioner.reset_route_stats()
        parts_r: PartitionStore | None = None
        parts_s: PartitionStore | None = None
        with tracer.span(
            "phase.partition", k=self.partitioner.num_partitions
        ) as span:
            try:
                with tracer.span("partition.scan_r", tuples=metrics.r_size):
                    parts_r = self._make_store()
                    for tid, elements, __ in self.testbed.relation_r.scan():
                        signature = signature_of(elements, bits)
                        for index in self.partitioner.assign_r(elements):
                            if index < resident:
                                self._resident_r[index].append(
                                    (signature, tid)
                                )
                            else:
                                parts_r.append(index, signature, tid)
                    parts_r.seal()

                with tracer.span("partition.scan_s", tuples=metrics.s_size):
                    parts_s = self._make_store()
                    for tid, elements, __ in self.testbed.relation_s.scan():
                        signature = signature_of(elements, bits)
                        for index in self.partitioner.assign_s(elements):
                            if index < resident:
                                self._resident_s[index].append(
                                    (signature, tid)
                                )
                            else:
                                parts_s.append(index, signature, tid)
                    parts_s.seal()

                pool.flush_all()
            except BaseException:
                self._drop_partitions(parts_r, parts_s)
                raise
            metrics.replicated_signatures = (
                parts_r.total_entries + parts_s.total_entries
            )
            metrics.resident_signatures = sum(map(len, self._resident_r)) + sum(
                map(len, self._resident_s)
            )
            metrics.partitioning = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                replicated_signatures=metrics.replicated_signatures,
                resident_signatures=metrics.resident_signatures,
                page_reads=metrics.partitioning.page_reads,
                page_writes=metrics.partitioning.page_writes,
            )
            route_stats = self.partitioner.route_stats()
            if route_stats:
                span.set(**route_stats)
                registry = get_registry()
                for name, value in route_stats.items():
                    registry.counter(
                        f"setjoin_dcj_{name}_total",
                        f"DCJ routing: {name.replace('_', ' ')}",
                    ).inc(value)
        return parts_r, parts_s

    def _make_store(self) -> PartitionStore:
        return PartitionStore(
            self.testbed.pool,
            signature_bytes=self.signature_bytes,
            num_partitions=self.partitioner.num_partitions,
            monolithic=self.config.monolithic_partitions,
        )

    # ------------------------------------------------------------------
    # Phase 2: joining
    # ------------------------------------------------------------------

    def _join_phase(
        self,
        parts_r: PartitionStore,
        parts_s: PartitionStore,
        metrics: JoinMetrics,
    ) -> "_CandidateSink":
        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        tracer = self._active_tracer()
        if self.config.spill_candidates:
            candidates: _CandidateSink = _SpilledCandidates(self.testbed.pool)
        else:
            candidates = _SetCandidates()
        with tracer.span("phase.join") as span:
            for partition in range(self.partitioner.num_partitions):
                r_entries = self._partition_size_r(parts_r, partition)
                if not r_entries:
                    continue
                s_entries = self._partition_size_s(parts_s, partition)
                if not s_entries:
                    continue
                with tracer.span(
                    "join.partition",
                    partition=partition,
                    r_entries=r_entries,
                    s_entries=s_entries,
                ) as partition_span:
                    comparisons_before = metrics.signature_comparisons
                    for block in self._r_blocks(parts_r, partition):
                        self._join_block(
                            block, parts_s, partition, metrics, candidates
                        )
                    partition_span.set(
                        comparisons=metrics.signature_comparisons
                        - comparisons_before
                    )
            metrics.candidates = len(candidates)
            metrics.joining = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                comparisons=metrics.signature_comparisons,
                candidates=metrics.candidates,
                page_reads=metrics.joining.page_reads,
                page_writes=metrics.joining.page_writes,
            )
        return candidates

    def _parallel_join_phase(
        self,
        parts_r: PartitionStore,
        parts_s: PartitionStore,
        metrics: JoinMetrics,
    ) -> "_CandidateSink":
        """Joining phase over the partition-parallel engine.

        Shards the partition pairs across ``config.workers`` workers
        (largest-partition-first), runs them on the configured backend
        and merges the per-worker results deterministically.  The x/y
        accounting is preserved exactly: each partition pair is joined
        by exactly one worker with the same block-nested-loop kernel the
        serial path uses, so summed signature comparisons equal the
        serial count and the result set is identical.
        """
        from ..parallel.engine import run_parallel_join

        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        with self._active_tracer().span(
            "phase.join",
            workers=self.config.workers,
            backend=self.config.backend,
        ) as span:
            pairs, worker_metrics = run_parallel_join(self, parts_r, parts_s)
            candidates = _SetCandidates()
            for r_tid, s_tid in pairs:
                candidates.add(r_tid, s_tid)
            metrics.signature_comparisons += worker_metrics.signature_comparisons
            metrics.candidates = len(candidates)
            metrics.buffer_hits += worker_metrics.buffer_hits
            metrics.buffer_misses += worker_metrics.buffer_misses
            delta = disk.stats.delta(before)
            # Parent-side I/O (inline shard materialization) plus the I/O the
            # workers did through their own read-only storage views.
            metrics.joining = PhaseMetrics(
                time.perf_counter() - started,
                delta.page_reads + worker_metrics.joining.page_reads,
                delta.page_writes + worker_metrics.joining.page_writes,
            )
            # The per-shard timings the merge used to discard: each
            # shard's true wall seconds and worker-side page I/O.
            metrics.shard_joining = worker_metrics.shard_joining
            span.set(
                shards=len(metrics.shard_joining),
                comparisons=metrics.signature_comparisons,
                candidates=metrics.candidates,
                page_reads=metrics.joining.page_reads,
                page_writes=metrics.joining.page_writes,
            )
        return candidates

    def _join_and_verify_phase(
        self,
        parts_r: PartitionStore,
        parts_s: PartitionStore,
        metrics: JoinMetrics,
    ) -> set[tuple[int, int]]:
        """Interleaved mode: verify each partition's candidates right after
        joining it, as the paper's testbed does.

        A pair replicated into several partitions (possible under DCJ) is
        verified only the first time it appears.
        """
        disk = self.testbed.disk
        tracer = self._active_tracer()
        result: set[tuple[int, int]] = set()
        seen: set[tuple[int, int]] = set()
        join_seconds = 0.0
        with tracer.span("phase.join+verify") as phase_span:
            for partition in range(self.partitioner.num_partitions):
                r_entries = self._partition_size_r(parts_r, partition)
                if not r_entries:
                    continue
                s_entries = self._partition_size_s(parts_s, partition)
                if not s_entries:
                    continue
                before = disk.stats.snapshot()
                started = time.perf_counter()
                fresh = _SetCandidates()
                with tracer.span(
                    "join.partition",
                    partition=partition,
                    r_entries=r_entries,
                    s_entries=s_entries,
                ):
                    for block in self._r_blocks(parts_r, partition):
                        self._join_block(
                            block, parts_s, partition, metrics, fresh
                        )
                join_seconds += time.perf_counter() - started
                join_delta = disk.stats.delta(before)
                metrics.joining.page_reads += join_delta.page_reads
                metrics.joining.page_writes += join_delta.page_writes

                before = disk.stats.snapshot()
                started = time.perf_counter()
                with tracer.span(
                    "verify.partition", partition=partition
                ) as verify_span:
                    new_pairs = [
                        pair for pair in fresh.sorted_pairs()
                        if pair not in seen
                    ]
                    seen.update(new_pairs)
                    r_sets = self.testbed.relation_r.fetch_many(
                        tid for tid, __ in new_pairs
                    )
                    s_sets = self.testbed.relation_s.fetch_many(
                        tid for __, tid in new_pairs
                    )
                    for r_tid, s_tid in new_pairs:
                        metrics.set_comparisons += 1
                        if r_sets[r_tid] <= s_sets[s_tid]:
                            result.add((r_tid, s_tid))
                        else:
                            metrics.false_positives += 1
                    verify_span.set(candidates=len(new_pairs))
                metrics.verification.seconds += time.perf_counter() - started
                verify_delta = disk.stats.delta(before)
                metrics.verification.page_reads += verify_delta.page_reads
                metrics.verification.page_writes += verify_delta.page_writes
            metrics.joining.seconds = join_seconds
            metrics.candidates = len(seen)
            phase_span.set(
                candidates=metrics.candidates,
                false_positives=metrics.false_positives,
            )
        return result

    def _partition_size_r(self, parts_r: PartitionStore, partition: int) -> int:
        if partition < self.resident_partitions:
            return len(self._resident_r[partition])
        return parts_r.partition_size(partition)

    def _partition_size_s(self, parts_s: PartitionStore, partition: int) -> int:
        if partition < self.resident_partitions:
            return len(self._resident_s[partition])
        return parts_s.partition_size(partition)

    def _r_blocks(
        self, parts_r: PartitionStore, partition: int
    ) -> Iterable[list[tuple[int, int]]]:
        """Group the R side of a partition into memory-bounded blocks."""
        if partition < self.resident_partitions:
            entries = self._resident_r[partition]
            for start in range(0, len(entries), BLOCK_ENTRIES):
                yield entries[start : start + BLOCK_ENTRIES]
            return
        block: list[tuple[int, int]] = []
        for batch in parts_r.scan_partition_batches(partition, BATCH_PORTIONS):
            block.extend(batch)
            if len(block) >= BLOCK_ENTRIES:
                yield block
                block = []
        if block:
            yield block

    def _s_batches(
        self, parts_s: PartitionStore, partition: int
    ) -> Iterable[list[tuple[int, int]]]:
        if partition < self.resident_partitions:
            yield self._resident_s[partition]
            return
        yield from parts_s.scan_partition_batches(partition, BATCH_PORTIONS)

    def _join_block(
        self,
        r_block: list[tuple[int, int]],
        parts_s: PartitionStore,
        partition: int,
        metrics: JoinMetrics,
        candidates: "_CandidateSink",
    ) -> None:
        metrics.signature_comparisons += compare_block(
            self.config.engine,
            self.config.signature_bits,
            r_block,
            self._s_batches(parts_s, partition),
            candidates.add,
        )

    # ------------------------------------------------------------------
    # Phase 3: verification
    # ------------------------------------------------------------------

    def _verification_phase(
        self,
        candidates: "_CandidateSink",
        metrics: JoinMetrics,
    ) -> set[tuple[int, int]]:
        disk = self.testbed.disk
        before = disk.stats.snapshot()
        started = time.perf_counter()
        with self._active_tracer().span("phase.verify") as span:
            pairs = list(candidates.sorted_pairs())
            candidates.dispose()
            r_sets = self.testbed.relation_r.fetch_many(
                tid for tid, __ in pairs
            )
            s_sets = self.testbed.relation_s.fetch_many(
                tid for __, tid in pairs
            )
            result: set[tuple[int, int]] = set()
            for r_tid, s_tid in pairs:
                metrics.set_comparisons += 1
                if r_sets[r_tid] <= s_sets[s_tid]:
                    result.add((r_tid, s_tid))
                else:
                    metrics.false_positives += 1
            metrics.verification = PhaseMetrics.from_io_delta(
                time.perf_counter() - started, disk.stats.delta(before)
            )
            span.set(
                candidates=len(pairs),
                false_positives=metrics.false_positives,
                results=len(result),
                page_reads=metrics.verification.page_reads,
            )
        return result


class _CandidateSink:
    """Deduplicating collector of candidate (r_tid, s_tid) pairs."""

    def add(self, r_tid: int, s_tid: int) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        raise NotImplementedError

    def dispose(self) -> None:
        """Release any resources; the sink must not be used afterwards."""


class _SetCandidates(_CandidateSink):
    """Default: candidates kept in a main-memory set."""

    def __init__(self):
        self._pairs: set[tuple[int, int]] = set()

    def add(self, r_tid: int, s_tid: int) -> None:
        self._pairs.add((r_tid, s_tid))

    def __len__(self) -> int:
        return len(self._pairs)

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        return sorted(self._pairs)

    def dispose(self) -> None:
        self._pairs = set()


class _SpilledCandidates(_CandidateSink):
    """Candidates written to a temporary B-tree (Section 6's option of
    separating the joining and verification phases through disk).

    The B-tree key is the concatenated (r_tid, s_tid) pair, so duplicates
    collapse and a scan yields pairs in verification order for free.
    """

    def __init__(self, pool):
        from ..storage.btree import BTree

        self._pool = pool
        self._tree: BTree | None = BTree.create(pool)
        self._count = 0

    def add(self, r_tid: int, s_tid: int) -> None:
        assert self._tree is not None
        key = r_tid.to_bytes(8, "big") + s_tid.to_bytes(8, "big")
        if self._tree.get(key) is None:
            self._tree.insert(key, b"")
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def sorted_pairs(self) -> Iterable[tuple[int, int]]:
        assert self._tree is not None
        for key, __ in self._tree.items():
            yield int.from_bytes(key[:8], "big"), int.from_bytes(key[8:], "big")

    def dispose(self) -> None:
        if self._tree is not None:
            self._tree.destroy()
            self._tree = None


def run_disk_join(
    lhs: Relation,
    rhs: Relation,
    partitioner: Partitioner,
    config: JoinConfig = JoinConfig(),
    *,
    buffer_pages: int = 512,
    payload_size: int = DEFAULT_PAYLOAD_SIZE,
    path: str | None = None,
    shards: int = 1,
    shard_fanout: str = "thread",
    shard_timeout: float | None = None,
    tracer=None,
) -> tuple[set[tuple[int, int]], JoinMetrics]:
    """Convenience wrapper: build a testbed, load, join, tear down.

    ``config`` configures the operator as on :class:`SetContainmentJoin`;
    the result set and the paper's x/y counts are identical for any
    worker count.  ``shards > 1`` distributes the relations across that
    many independent in-memory databases behind the dist coordinator
    (:mod:`repro.dist`) instead, with ``shard_fanout`` selecting the
    coordinator-level dispatch; results and x/y stay bit-identical.
    ``tracer`` enables span tracing of the run (see :mod:`repro.obs`).
    """
    if shards > 1:
        from ..dist.coordinator import ShardedDatabase

        with ShardedDatabase.open(
            None, shards=shards, fanout=shard_fanout, buffer_pages=buffer_pages,
        ) as db:
            db.create_relation(lhs.name or "R", lhs)
            db.create_relation(rhs.name or "S", rhs)
            return db.join(
                lhs.name or "R", rhs.name or "S", config,
                partitioner=partitioner, shard_timeout=shard_timeout,
                tracer=tracer,
            )
    with Testbed(path=path, buffer_pages=buffer_pages) as testbed:
        testbed.load(lhs, rhs, payload_size=payload_size)
        join = SetContainmentJoin(
            testbed, partitioner, config,
            shard_timeout=shard_timeout, tracer=tracer,
        )
        return join.run()
