"""Tests for the high-level one-call join API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinConfig
from repro.core.api import (
    containment_join,
    self_containment_join,
    overlap_join,
    set_equality_join,
    superset_join,
)
from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.errors import ConfigurationError


class TestContainmentJoin:
    def test_auto(self, small_workload):
        lhs, rhs = small_workload
        result, metrics = containment_join(lhs, rhs)
        assert result == containment_pairs_nested_loop(lhs, rhs)
        assert metrics.algorithm in ("DCJ", "PSJ")

    @pytest.mark.parametrize("algorithm", ["DCJ", "PSJ", "LSJ"])
    def test_forced_algorithm(self, small_workload, algorithm):
        lhs, rhs = small_workload
        result, metrics = containment_join(
            lhs, rhs, JoinConfig(algorithm=algorithm),
        )
        assert result == containment_pairs_nested_loop(lhs, rhs)

    @pytest.mark.parametrize("algorithm", ["DCJ", "LSJ"])
    def test_non_power_of_two_k(self, small_workload, algorithm):
        lhs, rhs = small_workload
        result, metrics = containment_join(
            lhs, rhs, JoinConfig(algorithm=algorithm, num_partitions=12),
        )
        assert result == containment_pairs_nested_loop(lhs, rhs)
        assert metrics.num_partitions == 12

    def test_empty_relations(self):
        result, metrics = containment_join(Relation(), Relation())
        assert result == set()
        assert metrics.result_size == 0

    def test_unknown_algorithm(self, small_workload):
        lhs, rhs = small_workload
        with pytest.raises(ConfigurationError):
            containment_join(lhs, rhs, JoinConfig(algorithm="SHJ"))


class TestSupersetJoin:
    def test_swapped_semantics(self):
        big = Relation.from_sets([{1, 2, 3}, {9}])
        small = Relation.from_sets([{1, 2}, {3}, {9}])
        result, __ = superset_join(big, small, JoinConfig(algorithm="PSJ"))
        assert result == {(0, 0), (0, 1), (1, 2)}

    def test_inverse_of_containment(self, small_workload):
        lhs, rhs = small_workload
        forward, __ = containment_join(lhs, rhs, JoinConfig(algorithm="PSJ"))
        backward, __ = superset_join(rhs, lhs, JoinConfig(algorithm="PSJ"))
        assert backward == {(s, r) for r, s in forward}


class TestSelfContainmentJoin:
    def test_strict_drops_reflexive_pairs(self):
        relation = Relation.from_sets([{1}, {1, 2}, {1, 2, 3}, {9}])
        pairs, metrics = self_containment_join(
            relation, JoinConfig(algorithm="PSJ"),
        )
        assert pairs == {(0, 1), (0, 2), (1, 2)}
        assert metrics.result_size == 3

    def test_non_strict_keeps_reflexive_pairs(self):
        relation = Relation.from_sets([{1}, {2}])
        pairs, __ = self_containment_join(
            relation, JoinConfig(algorithm="PSJ"), strict=False,
        )
        assert pairs == {(0, 0), (1, 1)}

    def test_duplicate_sets_both_directions(self):
        relation = Relation.from_sets([{5, 6}, {5, 6}])
        pairs, __ = self_containment_join(
            relation, JoinConfig(algorithm="PSJ"),
        )
        assert pairs == {(0, 1), (1, 0)}


class TestEqualityJoin:
    def test_exact_matches_only(self):
        lhs = Relation.from_sets([{1, 2}, {3}, {4, 5}])
        rhs = Relation.from_sets([{1, 2}, {4, 5, 6}, {3}])
        result, metrics = set_equality_join(lhs, rhs)
        assert result == {(0, 0), (1, 2)}
        assert metrics.false_positives == 0  # wide signatures, tiny sets

    def test_duplicates(self):
        lhs = Relation.from_sets([{7}] * 3)
        rhs = Relation.from_sets([{7}] * 2)
        result, __ = set_equality_join(lhs, rhs)
        assert len(result) == 6

    def test_narrow_signature_false_positives_verified_away(self):
        lhs = Relation.from_sets([{0}, {4}])
        rhs = Relation.from_sets([{4}])
        result, metrics = set_equality_join(lhs, rhs, signature_bits=4)
        assert result == {(1, 0)}
        assert metrics.false_positives == 1  # {0} collides with {4} mod 4

    def test_empty_sets_equal(self):
        lhs = Relation.from_sets([set()])
        rhs = Relation.from_sets([set(), {1}])
        result, __ = set_equality_join(lhs, rhs)
        assert result == {(0, 0)}


class TestOverlapExport:
    def test_overlap_join_reexported(self):
        lhs = Relation.from_sets([{1, 2}])
        rhs = Relation.from_sets([{2, 3}, {4}])
        result, __ = overlap_join(lhs, rhs)
        assert result == {(0, 0)}


@settings(max_examples=20, deadline=None)
@given(
    r_sets=st.lists(st.frozensets(st.integers(0, 80), max_size=6), max_size=8),
    s_sets=st.lists(st.frozensets(st.integers(0, 80), max_size=8), max_size=8),
)
def test_equality_join_is_exact(r_sets, s_sets):
    lhs = Relation.from_sets(r_sets)
    rhs = Relation.from_sets(s_sets)
    result, __ = set_equality_join(lhs, rhs)
    expected = {
        (r.tid, s.tid) for r in lhs for s in rhs if r.elements == s.elements
    }
    assert result == expected
