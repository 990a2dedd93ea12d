"""Tests for JoinConfig, resolve_partitioner, and one config driven
through every join entry point."""

import re

import pytest

from repro.cli import main
from repro.core import JoinConfig, resolve_partitioner
from repro.core.api import containment_join
from repro.core.modulo import ModuloFoldPartitioner
from repro.core.psj import PSJPartitioner
from repro.core.sets import Relation, containment_pairs_nested_loop
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.errors import ConfigurationError
from repro.obs.explain import analyze_join
from repro.service import QueryService
from repro.service.capture import read_capture, replay_capture


class TestJoinConfig:
    def test_defaults(self):
        config = JoinConfig()
        assert config.algorithm == "auto"
        assert config.num_partitions is None
        assert config.k == 32
        assert config.signature_bits == 160
        assert (config.engine, config.workers, config.backend) == (
            "numpy", 1, "serial")

    @pytest.mark.parametrize("settings", [
        {"algorithm": "SHJ"},
        {"num_partitions": 0},
        {"signature_bits": 0},
        {"engine": "cuda"},
        {"workers": 0},
        {"backend": "gpu"},
        {"resident_partitions": -1},
        {"spill_candidates": True, "verify_per_partition": True},
        {"workers": 2, "spill_candidates": True},
    ])
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(ConfigurationError):
            JoinConfig(**settings)

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            JoinConfig().replace(workers=0)
        assert JoinConfig().replace(seed=3).seed == 3

    def test_params_round_trip(self):
        config = JoinConfig(algorithm="LSJ", num_partitions=48, seed=2,
                            signature_bits=64, engine="python")
        assert JoinConfig.from_params(config.to_params()) == config

    def test_from_params_ignores_other_keys_and_defaults_the_rest(self):
        config = JoinConfig.from_params(
            {"r": "R", "s": "S", "deadline": 1.0, "algorithm": "PSJ"}
        )
        assert config == JoinConfig(algorithm="PSJ")

    def test_from_params_rejects_mistyped_values_as_configuration(self):
        with pytest.raises(ConfigurationError):
            JoinConfig.from_params({"num_partitions": "48"})

    def test_auto_has_no_partitioner_without_a_plan(self):
        with pytest.raises(ConfigurationError):
            JoinConfig().build_partitioner(4.0, 8.0)


class TestResolvePartitioner:
    @pytest.mark.parametrize("algorithm", ["DCJ", "LSJ"])
    def test_folds_k_that_is_not_a_power_of_two(self, algorithm):
        partitioner = resolve_partitioner(algorithm, 48, 4.0, 12.0)
        assert isinstance(partitioner, ModuloFoldPartitioner)
        assert partitioner.num_partitions == 48
        assert partitioner.base.num_partitions == 64

    @pytest.mark.parametrize("algorithm", ["DCJ", "LSJ"])
    def test_power_of_two_is_native(self, algorithm):
        partitioner = resolve_partitioner(algorithm, 16, 4.0, 12.0)
        assert partitioner.name == algorithm
        assert partitioner.num_partitions == 16

    def test_psj_takes_any_k_and_the_seed(self):
        partitioner = resolve_partitioner("PSJ", 48, 4.0, 12.0, seed=7)
        assert isinstance(partitioner, PSJPartitioner)
        assert partitioner.num_partitions == 48

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_partitioner("SHJ", 16, 4.0, 12.0)

    def test_config_floors_cardinalities_at_one(self):
        config = JoinConfig(algorithm="DCJ", num_partitions=16)
        floored = config.build_partitioner(0.0, 0.5)
        assert floored.describe() == resolve_partitioner(
            "DCJ", 16, 1.0, 1.0).describe()


# ----------------------------------------------------------------------
# One config through every entry point
# ----------------------------------------------------------------------

CASES = [(algorithm, k) for algorithm in ("DCJ", "PSJ", "LSJ")
         for k in (16, 48)]


@pytest.fixture(scope="module")
def relations():
    # Under 200 tuples per side, so the database's sampled statistics
    # equal the exact averages every other entry point computes.
    lhs, rhs = uniform_workload(
        120, 180, 3, 12, domain_size=80, seed=21, planted_pairs=6
    ).materialize()
    return (Relation.from_sets([row.elements for row in lhs], name="R"),
            Relation.from_sets([row.elements for row in rhs], name="S"))


def _outcome(pairs, metrics):
    return {
        "algorithm": metrics.algorithm,
        "k": metrics.num_partitions,
        "pairs": set(pairs),
        "x": metrics.signature_comparisons,
        "y": metrics.replicated_signatures,
    }


def _set_file(path, relation):
    path.write_text("".join(
        " ".join(map(str, sorted(row.elements))) + "\n" for row in relation
    ))
    return str(path)


def _cli(tmp_path, relations, config, capsys):
    lhs, rhs = relations
    assert main([
        "join", _set_file(tmp_path / "r.txt", lhs),
        _set_file(tmp_path / "s.txt", rhs),
        "--algorithm", config.algorithm.lower(),
        "-k", str(config.num_partitions),
    ]) == 0
    captured = capsys.readouterr()
    summary = re.search(
        r"# (\d+) pairs \((\S+), k=(\d+)\); (\d+) signature comparisons, "
        r"(\d+) replicated signatures", captured.err,
    )
    assert summary is not None, captured.err
    return {
        "algorithm": summary.group(2),
        "k": int(summary.group(3)),
        "pairs": {tuple(map(int, line.split()))
                  for line in captured.out.splitlines()},
        "x": int(summary.group(4)),
        "y": int(summary.group(5)),
    }


@pytest.mark.parametrize("algorithm,k", CASES)
def test_one_config_through_every_entry_point(
    tmp_path, relations, capsys, algorithm, k
):
    lhs, rhs = relations
    config = JoinConfig(algorithm=algorithm, num_partitions=k)
    outcomes = {}
    db_path = str(tmp_path / "db")
    with SetJoinDatabase.open(db_path) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        outcomes["database"] = _outcome(*db.join("R", "S", config))
    with SetJoinDatabase.open_sharded(None, shards=2) as sharded:
        sharded.create_relation("R", lhs)
        sharded.create_relation("S", rhs)
        outcomes["sharded"] = _outcome(*sharded.join("R", "S", config))
    outcomes["api"] = _outcome(*containment_join(lhs, rhs, config))
    analysis = analyze_join(lhs, rhs, config)
    outcomes["analyze"] = _outcome(analysis.pairs, analysis.metrics)

    capture_path = str(tmp_path / "capture.jsonl")
    with QueryService(db_path, capture_path=capture_path) as service:
        outcomes["service"] = _outcome(
            *service.join("R", "S", **config.to_params())
        )
    (record,) = read_capture(capture_path)
    resources = record.ledger["resources"]
    outcomes["capture"] = {
        "algorithm": outcomes["service"]["algorithm"],
        "k": record.params["num_partitions"],
        "pairs": outcomes["service"]["pairs"],
        "x": resources["signature_comparisons"],
        "y": resources["replicated_signatures"],
    }
    assert JoinConfig.from_params(record.params) == config
    with SetJoinDatabase.open(db_path) as db:
        report = replay_capture([record], db)
    assert report.replayed == report.matched == 1, report.to_dict()

    outcomes["cli"] = _cli(tmp_path, relations, config, capsys)

    reference = outcomes["database"]
    assert reference["pairs"] == containment_pairs_nested_loop(lhs, rhs)
    assert reference["k"] == k
    for entry, outcome in outcomes.items():
        expected = dict(reference)
        if entry == "sharded" and algorithm == "PSJ":
            # Across shards PSJ routes R by a content-deterministic
            # element choice instead of the seeded scan-order RNG, so
            # its comparison count (not its answer or y) differs.
            expected["x"] = outcome["x"]
        assert outcome == expected, entry
