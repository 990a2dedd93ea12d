"""End-to-end observability tests: instrumented joins, metric merging,
and cross-process span stitching.

Also home to the metric-merging edge cases: ``PhaseMetrics.__add__``
against foreign types, ``JoinMetrics.merge`` on empty/singleton input,
and the per-shard timing list the parallel merge must preserve.
"""

import pytest

from repro.core import JoinConfig
from repro.core.metrics import JoinMetrics, PhaseMetrics
from repro.core.operator import run_disk_join
from repro.core.psj import PSJPartitioner
from repro.errors import ConfigurationError
from repro.obs.export import validate_trace_records
from repro.obs.trace import Tracer


@pytest.fixture(scope="module")
def workload():
    from repro.data.workloads import uniform_workload

    return uniform_workload(
        100, 120, 8, 16, domain_size=4_000, seed=7, planted_pairs=5
    ).materialize()


class TestPhaseMetricsAdd:
    def test_sums_componentwise(self):
        total = PhaseMetrics(1.0, 10, 5) + PhaseMetrics(0.5, 3, 2)
        assert total == PhaseMetrics(1.5, 13, 7)

    def test_add_foreign_type_returns_notimplemented(self):
        phase = PhaseMetrics(1.0, 10, 5)
        assert phase.__add__(42) is NotImplemented
        assert phase.__add__("x") is NotImplemented

    def test_add_foreign_type_raises_typeerror(self):
        with pytest.raises(TypeError):
            PhaseMetrics() + 42


class TestJoinMetricsMerge:
    def header(self):
        return dict(algorithm="PSJ", num_partitions=8, r_size=10, s_size=20,
                    signature_bits=64)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ConfigurationError):
            JoinMetrics.merge([])

    def test_singleton_merge_copies_everything(self):
        part = JoinMetrics(**self.header())
        part.signature_comparisons = 123
        part.replicated_signatures = 45
        part.candidates = 6
        part.buffer_hits = 9
        part.buffer_misses = 1
        part.joining = PhaseMetrics(2.0, 7, 3)
        part.shard_joining = [PhaseMetrics(2.0, 7, 3)]
        merged = JoinMetrics.merge([part])
        assert merged.algorithm == "PSJ"
        assert merged.signature_comparisons == 123
        assert merged.replicated_signatures == 45
        assert merged.candidates == 6
        assert merged.buffer_hits == 9
        assert merged.buffer_misses == 1
        assert merged.joining == PhaseMetrics(2.0, 7, 3)
        assert merged.shard_joining == [PhaseMetrics(2.0, 7, 3)]
        assert merged is not part

    def test_merge_sums_buffer_stats(self):
        a = JoinMetrics(**self.header())
        b = JoinMetrics(**self.header())
        a.buffer_hits, a.buffer_misses = 30, 10
        b.buffer_hits, b.buffer_misses = 10, 10
        merged = JoinMetrics.merge([a, b])
        assert merged.buffer_hits == 40
        assert merged.buffer_misses == 20
        assert merged.buffer_hit_rate == pytest.approx(40 / 60)

    def test_hit_rate_with_no_fetches_is_zero(self):
        assert JoinMetrics().buffer_hit_rate == 0.0

    def test_as_row_includes_buffer_hit_rate(self):
        metrics = JoinMetrics(**self.header())
        metrics.buffer_hits, metrics.buffer_misses = 3, 1
        assert metrics.as_row()["buffer_hit_rate"] == 0.75


class TestSerialInstrumentation:
    def test_buffer_stats_surface_in_join_metrics(self, workload):
        lhs, rhs = workload
        __, metrics = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))
        assert metrics.buffer_misses > 0  # cold pool: first reads miss
        assert 0.0 <= metrics.buffer_hit_rate <= 1.0

    def test_trace_covers_phases_and_partitions(self, workload):
        lhs, rhs = workload
        tracer = Tracer()
        run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1), tracer=tracer)
        records = tracer.export()
        validate_trace_records(records)
        names = [record["name"] for record in records]
        assert names.count("join") == 1
        assert "phase.partition" in names
        assert "phase.join" in names
        assert "phase.verify" in names
        assert names.count("join.partition") == 8
        root = tracer.roots[0]
        assert root.attrs["signature_comparisons"] > 0
        assert root.attrs["buffer_misses"] > 0

    def test_tracing_does_not_change_results_or_accounting(self, workload):
        lhs, rhs = workload
        plain_pairs, plain = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))
        traced_pairs, traced = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), tracer=Tracer()
        )
        assert traced_pairs == plain_pairs
        assert traced.signature_comparisons == plain.signature_comparisons
        assert traced.replicated_signatures == plain.replicated_signatures
        assert traced.candidates == plain.candidates
        assert traced.false_positives == plain.false_positives


class TestWalInstrumentation:
    def test_commit_spans_and_fsync_counter(self, tmp_path):
        from repro.database import SetJoinDatabase
        from repro.core.sets import Relation, SetTuple
        from repro.obs.registry import get_registry
        from repro.obs.trace import use_tracer

        registry = get_registry()
        fsyncs_before = registry.counter("setjoin_wal_fsyncs_total").value
        relation = Relation(name="r")
        for tid in range(20):
            relation.add(SetTuple(tid, {tid, tid + 1, tid + 2}))
        tracer = Tracer()
        with use_tracer(tracer):
            with SetJoinDatabase.open(str(tmp_path / "wal.db")) as db:
                db.create_relation("r", relation)
        names = [record["name"] for record in tracer.export()]
        assert "wal.commit" in names
        assert "wal.log" in names
        assert "wal.checkpoint" in names
        assert (registry.counter("setjoin_wal_fsyncs_total").value
                > fsyncs_before)


class TestParallelStitching:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_stitched_tree_with_a_span_per_shard(self, workload, backend):
        lhs, rhs = workload
        tracer = Tracer()
        workers = 3
        __, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            JoinConfig(workers=workers, backend=backend), tracer=tracer,
        )
        records = tracer.export()
        validate_trace_records(records)  # no dangling edges: one tree
        assert len(tracer.roots) == 1
        shard_spans = [span for span in tracer.roots[0].walk()
                       if span.name == "shard"]
        assert len(shard_spans) == workers
        assert sorted(span.attrs["index"] for span in shard_spans) == [0, 1, 2]
        # Every shard span hangs under the joining phase and carried its
        # partition-level children across the process boundary.
        phase_names = {span.name for span in tracer.roots[0].children}
        assert "phase.join" in phase_names
        for span in shard_spans:
            assert span.duration > 0
            assert any(child.name == "join.partition"
                       for child in span.children)
        total_partitions = sum(
            sum(1 for child in span.children
                if child.name == "join.partition")
            for span in shard_spans
        )
        assert total_partitions == 8

    def test_merged_metrics_keep_per_shard_timings(self, workload):
        lhs, rhs = workload
        workers = 3
        __, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            JoinConfig(workers=workers, backend="thread"),
        )
        assert len(metrics.shard_joining) == workers
        for share in metrics.shard_joining:
            assert isinstance(share, PhaseMetrics)
            assert share.seconds >= 0
        # The aggregate joining phase holds the parent's wall clock, not
        # the sum of the shares; the shares preserve what merge used to
        # discard.
        assert metrics.joining.seconds <= sum(
            share.seconds for share in metrics.shard_joining
        ) + metrics.joining.seconds

    def test_parallel_buffer_stats_include_worker_pools(self, workload):
        lhs, rhs = workload
        __, serial = run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))
        __, parallel = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            JoinConfig(workers=2, backend="process"),
        )
        assert parallel.buffer_misses > 0
        # Workers re-read partition data in their own pools, so the
        # parallel run can only see as many or more fetches overall.
        assert (parallel.buffer_hits + parallel.buffer_misses
                >= serial.buffer_hits + serial.buffer_misses)

    def test_parallel_tracing_keeps_results_identical(self, workload):
        lhs, rhs = workload
        plain_pairs, plain = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            JoinConfig(workers=3, backend="process"),
        )
        traced_pairs, traced = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            JoinConfig(workers=3, backend="process"), tracer=Tracer(),
        )
        assert traced_pairs == plain_pairs
        assert traced.signature_comparisons == plain.signature_comparisons
        assert traced.replicated_signatures == plain.replicated_signatures
