"""Sharded-execution scaling: wall time and replication vs shard count.

Not a figure from the paper — its testbed is a single machine — but the
question its divide-and-conquer structure raises at the next level of
division: distribute the relations over N independent databases
(:mod:`repro.dist`) and measure (a) that the result set *and* the
paper's x/y accounting stay bit-identical at every shard count (the
default occupancy pruning is provably exact — see ``docs/sharding.md``),
(b) how wall time moves as shards absorb the work, and (c) what the
containment-aware R replication costs (copies shipped per R row).

With ``history=`` the snapshot is appended to ``BENCH_history.jsonl``
(kind ``dist_scaling``), giving the bench harness a recorded multi-shard
speedup curve to compare across PRs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from ..core.config import JoinConfig, resolve_partitioner
from ..data.workloads import case_study
from ..dist import ShardedDatabase, deterministic_partitioner
from .base import ExperimentResult, register

__all__ = ["run"]

SHARD_COUNTS = (1, 2, 4)
THETA_R, THETA_S = 50, 100
K = 32


@register("dist")
def run(
    scale: float = 0.05,
    seed: int = 7,
    fanout: str = "thread",
    engine: str = "numpy",
    history: "str | None" = None,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="dist",
        title=f"Sharded-execution scaling ({fanout} fan-out, k={K}, "
        f"scale {scale})",
        columns=["algorithm", "shards", "t_total_s", "speedup",
                 "repl_factor", "comparisons", "results"],
    )
    lhs, rhs = case_study(scale=scale, seed=seed).materialize()
    snapshot_rows = []
    with tempfile.TemporaryDirectory(prefix="setjoins-dist-") as tmpdir:
        for algorithm in ("DCJ", "PSJ"):
            baseline = None
            baseline_seconds = None
            for shards in SHARD_COUNTS:
                # The coordinator would sanitize the partitioner itself;
                # doing it here keeps the shards=1 baseline and the
                # multi-shard runs on the identical assignment function.
                partitioner = deterministic_partitioner(resolve_partitioner(
                    algorithm, K, THETA_R, THETA_S, seed=seed
                ))
                path = os.path.join(tmpdir, f"{algorithm}-{shards}.db")
                with ShardedDatabase.open(
                    path, shards=shards, fanout=fanout
                ) as db:
                    db.create_relation("R", lhs)
                    db.create_relation("S", rhs)
                    started = time.perf_counter()
                    pairs, metrics = db.join(
                        "R", "S", JoinConfig(engine=engine),
                        partitioner=partitioner,
                    )
                    seconds = time.perf_counter() - started
                    report = db.last_placement
                if baseline is None:
                    baseline = (pairs, metrics.signature_comparisons,
                                metrics.replicated_signatures)
                    baseline_seconds = seconds
                else:
                    result.check(
                        f"{algorithm}: shards={shards} result set and "
                        "x/y counts identical to shards=1",
                        pairs == baseline[0]
                        and metrics.signature_comparisons == baseline[1]
                        and metrics.replicated_signatures == baseline[2],
                    )
                speedup = baseline_seconds / seconds if seconds else 0.0
                row = {
                    "algorithm": algorithm,
                    "shards": shards,
                    "t_total_s": seconds,
                    "speedup": round(speedup, 3),
                    "repl_factor": round(report.replication_factor, 3),
                    "comparisons": metrics.signature_comparisons,
                    "results": len(pairs),
                }
                result.rows.append(row)
                snapshot_rows.append(dict(row))
    cores = os.cpu_count() or 1
    result.notes.append(
        f"measured on {cores} core(s); shard fan-out is {fanout}-level "
        "while each shard's own join may use the parallel backends, so "
        "wall-time scaling is hardware-bound — the invariance checks "
        "hold on any machine"
    )
    result.notes.append(
        "repl_factor = average shard copies shipped per R row (1.0 = no "
        "replication, N = full broadcast); the replication overhead the "
        "containment semantics force"
    )
    result.paper_claims = [
        "Divide-and-conquer extends across databases: hash-placing S and "
        "replicating R by partition occupancy keeps the result and the "
        "x/y accounting the time model is calibrated on bit-identical at "
        "every shard count.",
    ]
    if history is not None:
        _append_history(history, scale, seed, fanout, snapshot_rows)
        result.notes.append(f"snapshot appended to {history}")
    return result


def _append_history(path: str, scale: float, seed: int, fanout: str,
                    rows: "list[dict]", now=time.time) -> None:
    # ``now`` is the injected wall clock (default-reference idiom the CI
    # clock lint sanctions): tests can pin the timestamp.
    record = {
        "kind": "dist_scaling",
        "scale": scale,
        "seed": seed,
        "fanout": fanout,
        "rows": rows,
        "recorded_at": now(),
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
