"""Benchmarks for the database shell: stored-relation joins and loading."""

import pytest

from repro.core import JoinConfig
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase


@pytest.fixture(scope="module")
def relations():
    return uniform_workload(
        400, 400, 15, 30, domain_size=20_000, seed=29, planted_pairs=4
    ).materialize()


def test_bench_database_load(benchmark, relations):
    lhs, rhs = relations

    def load():
        with SetJoinDatabase.open() as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
            return db.relation_size("r") + db.relation_size("s")

    total = benchmark.pedantic(load, rounds=1, iterations=1)
    assert total == len(lhs) + len(rhs)


def test_bench_database_join(benchmark, relations):
    lhs, rhs = relations
    with SetJoinDatabase.open() as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)

        pairs, metrics = benchmark.pedantic(
            lambda: db.join("r", "s"), rounds=1, iterations=1
        )
        assert metrics.result_size >= 4


def test_bench_database_repeated_joins(benchmark, relations):
    """Steady-state joins over a warm database (no reload between runs)."""
    lhs, rhs = relations
    with SetJoinDatabase.open() as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
        db.join("r", "s", JoinConfig(algorithm="PSJ", num_partitions=16))  # warm up

        def run():
            return db.join(
                "r", "s", JoinConfig(algorithm="PSJ", num_partitions=16),
            )

        pairs, __ = benchmark.pedantic(run, rounds=3, iterations=1)
        assert len(pairs) >= 4
