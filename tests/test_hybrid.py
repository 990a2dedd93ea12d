"""Tests for the cardinality-split hybrid join (future-work §7)."""

import pytest

from repro.core import JoinConfig
from repro.analysis.timemodel import PAPER_TIME_MODEL
from repro.core.hybrid import hybrid_join, split_by_cardinality
from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.errors import ConfigurationError


class TestSplit:
    def test_split_preserves_tids(self):
        relation = Relation.from_sets([{1}, {1, 2, 3}, {1, 2, 3, 4, 5}])
        small, large = split_by_cardinality(relation, tau=3)
        assert small.tids() == [0]
        assert large.tids() == [1, 2]

    def test_large_r_cannot_join_small_s(self):
        """The dropped quadrant really is empty: |r| >= τ > |s| forbids r ⊆ s."""
        lhs = Relation.from_sets([{1, 2, 3, 4}, {5, 6, 7, 8, 9}])
        rhs = Relation.from_sets([{1, 2}, {5, 6, 7}])
        r_small, r_large = split_by_cardinality(lhs, tau=4)
        s_small, s_large = split_by_cardinality(rhs, tau=4)
        assert containment_pairs_nested_loop(r_large, s_small) == set()


class TestHybridJoin:
    def test_matches_brute_force(self, small_workload):
        lhs, rhs = small_workload
        outcome = hybrid_join(
            lhs, rhs, PAPER_TIME_MODEL, config=JoinConfig(signature_bits=64),
        )
        assert outcome.result == containment_pairs_nested_loop(lhs, rhs)

    def test_mixed_cardinalities(self):
        lhs = Relation.from_sets(
            [{1, 2}, {3}, set(range(100, 140)), set(range(200, 260))]
        )
        rhs = Relation.from_sets(
            [{1, 2, 3}, set(range(100, 150)), set(range(200, 270)), {3, 4}]
        )
        outcome = hybrid_join(
            lhs, rhs, PAPER_TIME_MODEL, config=JoinConfig(signature_bits=64),
        )
        assert outcome.result == containment_pairs_nested_loop(lhs, rhs)
        assert outcome.tau >= 1
        assert 1 <= len(outcome.quadrants) <= 3

    def test_explicit_tau(self, small_workload):
        lhs, rhs = small_workload
        outcome = hybrid_join(lhs, rhs, PAPER_TIME_MODEL, tau=10)
        assert outcome.tau == 10
        assert outcome.result == containment_pairs_nested_loop(lhs, rhs)

    def test_invalid_tau(self, small_workload):
        lhs, rhs = small_workload
        with pytest.raises(ConfigurationError):
            hybrid_join(lhs, rhs, PAPER_TIME_MODEL, tau=0)

    def test_empty_inputs(self):
        outcome = hybrid_join(Relation(), Relation(), PAPER_TIME_MODEL)
        assert outcome.result == set()
        assert outcome.quadrants == []

    def test_aggregate_metrics(self, small_workload):
        lhs, rhs = small_workload
        outcome = hybrid_join(lhs, rhs, PAPER_TIME_MODEL)
        assert outcome.total_seconds > 0
        assert outcome.total_comparisons > 0
        assert outcome.total_replicated > 0

    def test_quadrant_plans_recorded(self, small_workload):
        lhs, rhs = small_workload
        outcome = hybrid_join(lhs, rhs, PAPER_TIME_MODEL)
        for label, plan, metrics in outcome.quadrants:
            assert label in ("small⋈small", "small⋈large", "large⋈large")
            assert plan.algorithm in ("DCJ", "PSJ")
            assert metrics.result_size >= 0
