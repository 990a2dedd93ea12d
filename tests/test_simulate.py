"""Tests for the in-memory factor simulator."""

import pytest

from repro.analysis.simulate import (
    FactorObservation,
    monte_carlo_selectivity,
    simulate_factors,
)
from repro.core import resolve_partitioner
from repro.core.dcj import DCJPartitioner
from repro.core.lsj import LSJPartitioner
from repro.core.psj import PSJPartitioner
from repro.data.workloads import uniform_workload
from repro.errors import ConfigurationError


class TestMakePartitioner:
    def test_builds_each_kind(self):
        assert isinstance(resolve_partitioner("PSJ", 8, 10, 20), PSJPartitioner)
        assert isinstance(resolve_partitioner("DCJ", 8, 10, 20), DCJPartitioner)
        assert isinstance(resolve_partitioner("LSJ", 8, 10, 20), LSJPartitioner)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_partitioner("SHJ", 8, 10, 20)


class TestSimulateFactors:
    def test_observation_fields(self):
        lhs, rhs = uniform_workload(
            200, 200, 10, 20, domain_size=50_000, seed=2
        ).materialize()
        observation = simulate_factors("DCJ", lhs, rhs, 16, seed=1)
        assert observation.algorithm == "DCJ"
        assert observation.k == 16
        assert 0 < observation.measured_comparison <= 1
        assert observation.measured_replication >= 1
        assert observation.comparison_error >= 0
        assert observation.replication_error >= 0

    def test_defaults_use_measured_cardinalities(self):
        lhs, rhs = uniform_workload(
            100, 100, 10, 20, domain_size=50_000, seed=2
        ).materialize()
        default = simulate_factors("PSJ", lhs, rhs, 8, seed=1)
        explicit = simulate_factors(
            "PSJ", lhs, rhs, 8, seed=1, theta_r=10, theta_s=20
        )
        assert default.predicted_comparison == pytest.approx(
            explicit.predicted_comparison, rel=1e-6
        )

    def test_zero_measured_errors(self):
        observation = FactorObservation("DCJ", 8, 0.0, 0.0, 0.5, 1.5)
        assert observation.comparison_error == 0.0
        assert observation.replication_error == 0.0


class TestMonteCarlo:
    def test_subset_always_when_equal_domain(self):
        assert monte_carlo_selectivity(3, 3, 3, trials=100) == 1.0

    def test_seeded_reproducibility(self):
        a = monte_carlo_selectivity(2, 4, 10, trials=2000, seed=5)
        b = monte_carlo_selectivity(2, 4, 10, trials=2000, seed=5)
        assert a == b
