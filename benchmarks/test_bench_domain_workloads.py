"""Benchmarks on the two domain workloads from the paper's introduction.

* text corpus — tiny queries against documents (small θ_R, the regime
  where element-value partitioning stays competitive);
* biochemical — pathway signatures against near-genome-sized expression
  snapshots ("the fruit fly has around 14000 genes, 70-80% of which are
  active at any time"), the headline regime where PSJ's per-element
  replication collapses and DCJ wins.
"""

import pytest

from repro.core import resolve_partitioner
from repro.core.operator import run_disk_join
from repro.data.workloads import biochemical_workload, text_corpus_workload

K = 32


@pytest.fixture(scope="module")
def text_corpus():
    workload = text_corpus_workload(
        num_queries=150, num_documents=200, vocabulary=10_000, seed=3
    )
    lhs, rhs = workload.materialize()
    return lhs, rhs, workload


@pytest.fixture(scope="module")
def biochemical():
    workload = biochemical_workload(
        num_signatures=80, num_snapshots=40, num_genes=2_000, seed=3
    )
    lhs, rhs = workload.materialize()
    return lhs, rhs, workload


@pytest.mark.parametrize("algorithm", ["DCJ", "PSJ"])
def test_bench_text_corpus(benchmark, text_corpus, algorithm):
    lhs, rhs, workload = text_corpus
    partitioner = resolve_partitioner(
        algorithm, K, workload.theta_r, workload.theta_s, seed=3
    )
    __, metrics = benchmark.pedantic(
        lambda: run_disk_join(lhs, rhs, partitioner), rounds=1, iterations=1
    )
    assert metrics.result_size >= 5
    benchmark.extra_info["repl_factor"] = round(metrics.replication_factor, 2)


@pytest.mark.parametrize("algorithm", ["DCJ", "PSJ"])
def test_bench_biochemical(benchmark, biochemical, algorithm):
    lhs, rhs, workload = biochemical
    partitioner = resolve_partitioner(
        algorithm, K, workload.theta_r, workload.theta_s, seed=3
    )
    __, metrics = benchmark.pedantic(
        lambda: run_disk_join(lhs, rhs, partitioner), rounds=1, iterations=1
    )
    assert metrics.result_size >= 5
    benchmark.extra_info["repl_factor"] = round(metrics.replication_factor, 2)


def test_biochemical_psj_replication_collapse(biochemical):
    """The paper's headline: "the algorithm suggested in [RPNK00] is
    ineffective for such data sets" — on near-genome snapshots PSJ
    replicates each snapshot to essentially every partition."""
    lhs, rhs, workload = biochemical
    psj = resolve_partitioner("PSJ", K, workload.theta_r, workload.theta_s, 3)
    dcj = resolve_partitioner("DCJ", K, workload.theta_r, workload.theta_s, 3)
    __, psj_metrics = run_disk_join(lhs, rhs, psj)
    __, dcj_metrics = run_disk_join(lhs, rhs, dcj)
    s_share = len(rhs) / (len(lhs) + len(rhs))
    # PSJ stores each S-tuple in ~all K partitions and prunes nothing.
    assert psj_metrics.replication_factor > 0.9 * (s_share * K)
    assert psj_metrics.comparison_factor > 0.99
    # DCJ replicates less — though at this extreme λ (≈30) its margin is
    # thinner than at the paper's λ = 2 (cf. the λ-flip note in
    # EXPERIMENTS.md); the decisive DCJ advantage here is pruning room as
    # k grows, which PSJ simply does not have (comp stuck at 1.0).
    assert dcj_metrics.replication_factor < psj_metrics.replication_factor
