"""Workload capture records, rotation discipline, deterministic replay."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.signatures import DEFAULT_SIGNATURE_BITS
from repro.database import SetJoinDatabase
from repro.errors import ConfigurationError, SetJoinError
from repro.service import QueryService
from repro.service.capture import (
    CAPTURE_SCHEMA,
    WorkloadCapture,
    WorkloadRecord,
    answer_digest,
    read_capture,
    replay_capture,
)


class TestAnswerDigest:
    def test_join_digest_is_order_free(self):
        class Metrics:
            signature_comparisons = 9
            replicated_signatures = 2

        a = answer_digest("join", ({(1, 2), (0, 0)}, Metrics()))
        b = answer_digest("join", ({(0, 0), (1, 2)}, Metrics()))
        assert a == b
        assert a["pairs"] == 2 and a["x"] == 9 and a["y"] == 2

    def test_join_digest_detects_a_changed_pair(self):
        class Metrics:
            signature_comparisons = 9
            replicated_signatures = 2

        a = answer_digest("join", ({(1, 2)}, Metrics()))
        b = answer_digest("join", ({(1, 3)}, Metrics()))
        assert a["sha256"] != b["sha256"]

    def test_probe_digest_sorts_tids(self):
        assert answer_digest("probe", [3, 1, 2]) == \
            answer_digest("probe", [1, 2, 3])

    def test_create_digest_is_the_row_count(self):
        assert answer_digest("create", 7) == {"rows": 7}

    def test_unknown_kind_is_empty(self):
        assert answer_digest("drop", None) == {}


def make_record(**overrides):
    data = {
        "query_id": 1, "kind": "join", "fingerprint": "abc123",
        "label": "join r=r s=s", "params": {"r": "r", "s": "s"},
        "status": "ok", "seconds": 0.5, "attempts": 1,
        "digest": {"sha256": "0" * 64, "pairs": 0, "x": 0, "y": 0},
        "ledger": {"wall_seconds": 0.5, "resources": {}},
    }
    data.update(overrides)
    return WorkloadRecord(**data)


class TestWorkloadRecord:
    def test_round_trips_through_dict(self):
        record = make_record()
        clone = WorkloadRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_to_dict_carries_the_schema(self):
        assert make_record().to_dict()["schema"] == CAPTURE_SCHEMA

    def test_future_schema_is_refused(self):
        data = make_record().to_dict()
        data["schema"] = CAPTURE_SCHEMA + 1
        with pytest.raises(ConfigurationError, match="schema"):
            WorkloadRecord.from_dict(data)

    def test_missing_fields_raise_typed(self):
        with pytest.raises(ConfigurationError, match="malformed|schema"):
            WorkloadRecord.from_dict({"schema": CAPTURE_SCHEMA})

    def test_non_object_raises_typed(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            WorkloadRecord.from_dict([1, 2, 3])


class TestWorkloadCapture:
    def test_append_requires_open(self, tmp_path):
        capture = WorkloadCapture(str(tmp_path / "cap.jsonl"))
        with pytest.raises(ConfigurationError, match="not open"):
            capture.append(make_record())

    def test_double_open_is_refused(self, tmp_path):
        capture = WorkloadCapture(str(tmp_path / "cap.jsonl"))
        capture.open_()
        try:
            with pytest.raises(ConfigurationError, match="already open"):
                capture.open_()
        finally:
            capture.close()

    def test_open_writes_the_fingerprint_sidecar(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        capture = WorkloadCapture(path)
        capture.open_()
        capture.close()
        meta = json.loads(open(path + ".meta.json").read())
        assert "fingerprint" in meta

    def test_oversize_capture_keeps_newest_records(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with open(path, "w") as handle:
            for query_id in range(50):
                handle.write(json.dumps(
                    make_record(query_id=query_id).to_dict()
                ) + "\n")
        capture = WorkloadCapture(path, max_bytes=64, keep=10)
        rotation = capture.open_()
        capture.close()
        assert rotation["rotated"] is True
        kept = [record.query_id for record in read_capture(path)]
        assert kept == list(range(40, 50))

    def test_rotation_sheds_malformed_lines(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps(make_record().to_dict()) + "\n")
            handle.write("this is not a workload record\n")
            handle.write(json.dumps(make_record(query_id=2).to_dict()) + "\n")
        capture = WorkloadCapture(path, max_bytes=16, keep=100)
        rotation = capture.open_()
        capture.close()
        assert rotation["dropped"] == 0  # dropped counts only keep-overflow
        assert [r.query_id for r in read_capture(path)] == [1, 2]

    def test_read_capture_is_strict(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        with open(path, "w") as handle:
            handle.write("garbage\n")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_capture(path)


@pytest.fixture()
def captured_run(tmp_path, small_workload):
    """A chaos-free service run with capture on: db path, capture path,
    and the answers the live service produced."""
    lhs, rhs = small_workload
    db_path = str(tmp_path / "cap.db")
    capture_path = str(tmp_path / "cap.jsonl")
    with SetJoinDatabase.open(db_path) as db:
        db.create_relation("r", lhs)
        db.create_relation("s", rhs)
    service = QueryService(
        db_path, workers=2, backend="thread", capture_path=capture_path,
    ).start()
    answers = {}
    try:
        pairs, __ = service.join("r", "s")
        answers["auto"] = sorted(pairs)
        pairs, __ = service.join("r", "s", algorithm="PSJ", num_partitions=4)
        answers["psj"] = sorted(pairs)
        answers["probe"] = sorted(service.probe("s", [1, 2, 3]))
        service.submit("create", name="scratch_1",
                       rows=[(0, [1, 2])]).result()
        service.submit("drop", name="scratch_1").result()
        with pytest.raises(SetJoinError):
            service.join("r", "missing_relation")
    finally:
        service.stop()
    return db_path, capture_path, answers


class TestCaptureFromLiveService:
    def test_every_query_lands_in_the_capture(self, captured_run):
        __, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        assert [r.kind for r in records] == \
            ["join", "join", "probe", "create", "drop", "join"]
        assert [r.status for r in records][:5] == ["ok"] * 5
        assert records[-1].status != "ok"

    def test_join_records_store_the_resolved_plan(self, captured_run):
        __, capture_path, __answers = captured_run
        auto_join = read_capture(capture_path)[0]
        assert auto_join.params["algorithm"] in ("DCJ", "PSJ", "LSJ", "SHJ")
        assert auto_join.params["algorithm"] != "auto"
        assert isinstance(auto_join.params["num_partitions"], int)
        assert auto_join.digest["sha256"]
        assert auto_join.ledger["resources"]["signature_comparisons"] > 0

    def test_failed_queries_carry_no_digest(self, captured_run):
        __, capture_path, __answers = captured_run
        failed = read_capture(capture_path)[-1]
        assert failed.digest == {}
        assert failed.ledger  # still billed

    def test_capture_on_or_off_answers_identical(self, tmp_path,
                                                 small_workload):
        lhs, rhs = small_workload
        db_path = str(tmp_path / "bit.db")
        with SetJoinDatabase.open(db_path) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        answers = []
        for capture_path in (str(tmp_path / "bit.jsonl"), None):
            service = QueryService(
                db_path, workers=2, backend="thread",
                capture_path=capture_path,
            ).start()
            try:
                pairs, metrics = service.join("r", "s")
                answers.append((
                    sorted(pairs),
                    metrics.signature_comparisons,
                    metrics.replicated_signatures,
                ))
            finally:
                service.stop()
        assert answers[0] == answers[1]


class TestReplay:
    def test_clean_replay_matches_every_record(self, captured_run):
        db_path, capture_path, answers = captured_run
        records = read_capture(capture_path)
        with SetJoinDatabase.open(db_path) as db:
            report = replay_capture(records, db)
        assert report.clean
        report.assert_clean()
        assert report.total == 6
        # ok joins + probe replay; churn and the failed join are skipped.
        assert report.replayed == 3
        assert report.matched == 3
        assert report.skipped["kind_create"] == 1
        assert report.skipped["kind_drop"] == 1
        assert sum(
            count for reason, count in report.skipped.items()
            if reason.startswith("status_")
        ) == 1

    def test_replay_at_other_worker_counts_still_matches(self, captured_run):
        db_path, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        with SetJoinDatabase.open(db_path) as db:
            report = replay_capture(records, db, workers=3,
                                    backend="thread")
        assert report.clean and report.matched == 3

    def test_tampered_digest_is_a_mismatch(self, captured_run):
        db_path, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        records[0].digest["sha256"] = "f" * 64
        with SetJoinDatabase.open(db_path) as db:
            report = replay_capture(records, db)
        assert not report.clean
        (entry,) = report.digest_mismatches
        assert entry["query_id"] == records[0].query_id
        with pytest.raises(ConfigurationError, match="diverged"):
            report.assert_clean()

    def test_tampered_deterministic_resource_is_a_mismatch(
            self, captured_run):
        db_path, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        records[0].ledger["resources"]["signature_comparisons"] += 1
        with SetJoinDatabase.open(db_path) as db:
            report = replay_capture(records, db)
        (entry,) = report.ledger_mismatches
        assert entry["resource"] == "signature_comparisons"

    def test_missing_relation_is_skipped_not_failed(self, captured_run):
        db_path, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        with SetJoinDatabase.open(db_path) as db:
            db.drop_relation("r")
            report = replay_capture(records, db)
        assert report.clean  # nothing replayable diverged
        assert report.skipped["missing_relation"] == 2
        assert report.replayed == 1  # the probe still runs

    def test_record_without_signature_bits_replays_at_the_default(
            self, captured_run):
        db_path, capture_path, __answers = captured_run
        join = next(record for record in read_capture(capture_path)
                    if record.kind == "join" and record.status == "ok")
        del join.params["signature_bits"]
        widths = []
        with SetJoinDatabase.open(db_path) as db:
            run_join = db.join

            def recording_join(*args, **kwargs):
                pairs, metrics = run_join(*args, **kwargs)
                widths.append(metrics.signature_bits)
                return pairs, metrics

            db.join = recording_join
            report = replay_capture([join], db)
        assert widths == [DEFAULT_SIGNATURE_BITS]
        assert report.clean and report.matched == 1

    def test_unresolved_auto_algorithm_is_refused(self, captured_run):
        db_path, capture_path, __answers = captured_run
        records = read_capture(capture_path)
        records[0].params["algorithm"] = "auto"
        with SetJoinDatabase.open(db_path) as db:
            with pytest.raises(ConfigurationError, match="unresolved"):
                replay_capture(records, db)


class TestCaptureCLI:
    def test_workload_command_reports_heavy_hitters(self, captured_run,
                                                    capsys):
        __, capture_path, __answers = captured_run
        assert cli_main(["workload", capture_path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "6 queries" in out
        assert "top by wall:" in out
        assert "top by comparisons:" in out

    def test_workload_command_json(self, captured_run, capsys):
        __, capture_path, __answers = captured_run
        assert cli_main(["workload", capture_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 6
        assert "reconciliation" not in report

    def test_replay_command_clean_run_exits_zero(self, captured_run,
                                                 capsys):
        db_path, capture_path, __answers = captured_run
        assert cli_main(["replay", capture_path, db_path]) == 0
        out = capsys.readouterr().out
        assert "replay clean" in out

    def test_replay_command_mismatch_exits_nonzero(self, captured_run,
                                                   tmp_path, capsys):
        db_path, capture_path, __answers = captured_run
        tampered = str(tmp_path / "tampered.jsonl")
        with open(capture_path) as src, open(tampered, "w") as dst:
            for line in src:
                record = json.loads(line)
                if record["kind"] == "join" and record["status"] == "ok":
                    record["digest"]["sha256"] = "f" * 64
                dst.write(json.dumps(record) + "\n")
        assert cli_main(["replay", tampered, db_path]) == 1
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_replay_command_json(self, captured_run, capsys):
        db_path, capture_path, __answers = captured_run
        assert cli_main(["replay", capture_path, db_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True


class TestShardedCaptureReplay:
    def test_sharded_capture_replays_clean(self, tmp_path, small_workload):
        lhs, rhs = small_workload
        db_path = str(tmp_path / "sh.db")
        capture_path = str(tmp_path / "sh.jsonl")
        with SetJoinDatabase.open_sharded(db_path, shards=2) as db:
            db.create_relation("r", lhs)
            db.create_relation("s", rhs)
        service = QueryService(
            db_path, workers=2, backend="thread", shards=2,
            capture_path=capture_path,
        ).start()
        try:
            expected, __ = service.join("r", "s")
            service.probe("s", [4, 5])
        finally:
            service.stop()
        records = read_capture(capture_path)
        with SetJoinDatabase.open_sharded(db_path) as db:
            report = replay_capture(records, db)
        report.assert_clean()
        assert report.matched == 2
        # The CLI path autodetects the shard layout from FILE.shards.json.
        assert os.path.exists(db_path + ".shards.json")
        assert cli_main(["replay", capture_path, db_path]) == 0
