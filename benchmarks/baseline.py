"""Benchmark baselines: canonical-workload snapshots and regression checks.

``python benchmarks/baseline.py`` runs a small canonical workload suite
(uniform workloads through the public join API — optimizer-chosen, forced
DCJ, forced PSJ, and a parallel DCJ run) and writes a ``BENCH_joins.json``
snapshot: per workload, the wall time, the paper's x/y counts, page I/O
and result sizes.

``--check BASELINE`` compares the fresh run against a stored snapshot:

* deterministic counters (signature comparisons ``x``, replicated
  signatures ``y``, candidates, results, page reads/writes) must match
  **exactly** — any drift means the join's accounting changed;
* wall time may regress at most ``--time-threshold`` (default 25%) per
  workload — unless ``--counters-only``, which skips the timing check
  (CI compares against the committed machine-agnostic seed baseline,
  where another machine's absolute times are meaningless).

``--history BENCH_history.jsonl`` additionally appends every run's
snapshot as one JSON line, building a local time series.  When a check
runs with history present, wall times are *also* compared against the
rolling median of the last ``--rolling-window`` compatible runs — a
single-run baseline is one noisy sample, while the rolling median
absorbs scheduler jitter and only trips on sustained slowdowns.

Exit status: 0 on pass, 1 on regression — so it wires directly into
``make bench`` and the ``explain-regression`` CI job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

if __package__ in (None, ""):  # executed as a script from a checkout
    _SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

SCHEMA_VERSION = 1

#: Snapshot keys that must match a baseline exactly (all deterministic:
#: same seeds → same partitions → same comparisons and page traffic).
COUNTER_KEYS = (
    "signature_comparisons",
    "replicated_signatures",
    "candidates",
    "results",
    "page_reads",
    "page_writes",
)


def canonical_workloads(scale: float = 1.0) -> list[dict]:
    """The fixed workload suite a snapshot covers.

    All inputs are seeded uniform workloads (deterministic across
    machines); ``scale`` shrinks the relation sizes for quick checks.
    """
    r_size = max(int(240 * scale), 20)
    s_size = max(int(360 * scale), 30)
    # Small cardinalities over a tight domain so genuine containments
    # exist — the snapshot then covers verification and result counts,
    # not just the signature-filter path.
    base = {
        "r_size": r_size,
        "s_size": s_size,
        "theta_r": 4,
        "theta_s": 24,
        "domain_size": 150,
        "seed": 11,
    }
    return [
        dict(base, name="auto_uniform", algorithm="auto", k=None),
        dict(base, name="dcj_k16", algorithm="DCJ", k=16),
        dict(base, name="psj_k16", algorithm="PSJ", k=16),
        dict(base, name="dcj_k16_workers2", algorithm="DCJ", k=16,
             workers=2, backend="serial"),
    ]


def run_workload(spec: dict, tracer=None) -> dict:
    """Run one canonical workload; returns its snapshot record."""
    from repro.core import JoinConfig, containment_join
    from repro.data.workloads import uniform_workload

    lhs, rhs = uniform_workload(
        r_size=spec["r_size"],
        s_size=spec["s_size"],
        theta_r=spec["theta_r"],
        theta_s=spec["theta_s"],
        domain_size=spec["domain_size"],
        seed=spec["seed"],
    ).materialize()
    started = time.perf_counter()
    pairs, metrics = containment_join(
        lhs, rhs,
        JoinConfig(
            algorithm=spec["algorithm"], num_partitions=spec["k"],
            **{key: spec[key] for key in ("workers", "backend") if key in spec},
        ),
        tracer=tracer,
    )
    wall = time.perf_counter() - started
    return {
        "algorithm": metrics.algorithm,
        "k": metrics.num_partitions,
        "r_size": metrics.r_size,
        "s_size": metrics.s_size,
        "wall_seconds": wall,
        "signature_comparisons": metrics.signature_comparisons,
        "replicated_signatures": metrics.replicated_signatures,
        "candidates": metrics.candidates,
        "results": len(pairs),
        "page_reads": metrics.total_page_reads,
        "page_writes": metrics.total_page_writes,
        "comparison_factor": metrics.comparison_factor,
        "replication_factor": metrics.replication_factor,
    }


def run_suite(scale: float = 1.0, trace_path: str | None = None) -> dict:
    """Run every canonical workload; returns the snapshot document.

    ``trace_path`` additionally records a span trace of the first
    workload's join (the CI job uploads it as an inspectable artifact).
    """
    workloads: dict = {}
    for index, spec in enumerate(canonical_workloads(scale)):
        tracer = None
        if trace_path is not None and index == 0:
            from repro.obs import Tracer

            tracer = Tracer()
        workloads[spec["name"]] = run_workload(spec, tracer=tracer)
        if tracer is not None:
            from repro.obs import write_trace_jsonl

            write_trace_jsonl(tracer, trace_path)
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "workloads": workloads,
    }


def write_baseline(snapshot: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def append_history(snapshot: dict, path: str) -> None:
    """Append one snapshot as a JSON line to the rolling history file."""
    record = dict(snapshot)
    record["recorded_at"] = time.time()
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path: str) -> list[dict]:
    """Load every snapshot from a history file (oldest first)."""
    if not os.path.exists(path):
        return []
    records: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def rolling_medians(
    history: list[dict], current: dict, window: int = 5
) -> dict[str, float]:
    """Per-workload median wall time over the last ``window`` runs.

    Only snapshots compatible with ``current`` (same schema and scale)
    contribute; an empty dict means there is no usable history yet.
    """
    compatible = [
        record for record in history
        if record.get("schema") == current.get("schema")
        and record.get("scale") == current.get("scale")
    ][-window:]
    medians: dict[str, float] = {}
    names = {
        name
        for record in compatible
        for name in record.get("workloads", {})
    }
    for name in names:
        samples = sorted(
            record["workloads"][name]["wall_seconds"]
            for record in compatible
            if name in record.get("workloads", {})
        )
        if not samples:
            continue
        mid = len(samples) // 2
        if len(samples) % 2:
            medians[name] = samples[mid]
        else:
            medians[name] = (samples[mid - 1] + samples[mid]) / 2.0
    return medians


def check_regression(
    current: dict,
    baseline: dict,
    time_threshold: float = 0.25,
    counters_only: bool = False,
    history: list[dict] | None = None,
    rolling_window: int = 5,
) -> list[str]:
    """Compare a fresh snapshot against a stored baseline.

    Returns a list of human-readable failures (empty = pass).  Counters
    are compared exactly; wall time fails when the current run is more
    than ``time_threshold`` (fraction) slower than the baseline.  When
    ``history`` is given, wall time is also checked against the rolling
    median of the last ``rolling_window`` compatible snapshots — the
    median is a far less noisy reference than any single stored run.
    """
    failures: list[str] = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current={current.get('schema')} "
            f"baseline={baseline.get('schema')}"
        )
        return failures
    if current.get("scale") != baseline.get("scale"):
        failures.append(
            f"scale mismatch: current={current.get('scale')} "
            f"baseline={baseline.get('scale')} (rerun with matching --scale)"
        )
        return failures
    for name, expected in sorted(baseline.get("workloads", {}).items()):
        actual = current.get("workloads", {}).get(name)
        if actual is None:
            failures.append(f"{name}: missing from current run")
            continue
        for key in COUNTER_KEYS:
            if actual.get(key) != expected.get(key):
                failures.append(
                    f"{name}: {key} changed: expected {expected.get(key)}, "
                    f"got {actual.get(key)}"
                )
        if counters_only:
            continue
        allowed = expected["wall_seconds"] * (1.0 + time_threshold)
        if actual["wall_seconds"] > allowed:
            failures.append(
                f"{name}: wall time regressed: {actual['wall_seconds']:.4f}s "
                f"vs baseline {expected['wall_seconds']:.4f}s "
                f"(threshold {time_threshold:.0%})"
            )
    if history and not counters_only:
        medians = rolling_medians(history, current, window=rolling_window)
        for name, median in sorted(medians.items()):
            actual = current.get("workloads", {}).get(name)
            if actual is None:
                continue
            allowed = median * (1.0 + time_threshold)
            if actual["wall_seconds"] > allowed:
                failures.append(
                    f"{name}: wall time above rolling median: "
                    f"{actual['wall_seconds']:.4f}s vs median "
                    f"{median:.4f}s of last {rolling_window} runs "
                    f"(threshold {time_threshold:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the canonical join workloads and snapshot/check "
        "their performance counters.",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH_joins.json",
        help="write the snapshot here (default BENCH_joins.json)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the fresh run against this stored snapshot; "
        "exit 1 on regression",
    )
    parser.add_argument(
        "--time-threshold", type=float, default=0.25,
        help="allowed fractional wall-time regression (default 0.25)",
    )
    parser.add_argument(
        "--counters-only", action="store_true",
        help="compare only deterministic counters, not wall time "
        "(for cross-machine baselines)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size scale (default 1.0; must match the baseline)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also write a span trace of the first workload (JSON Lines)",
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="sample the suite with the stack profiler and write the "
        "hot-path report here",
    )
    parser.add_argument(
        "--profile-repeats", type=int, default=5,
        help="extra suite repetitions while profiling, so short suites "
        "still accumulate enough samples (default 5)",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="append this run to a JSONL history file and, with --check, "
        "also compare wall time against the rolling median of prior runs",
    )
    parser.add_argument(
        "--rolling-window", type=int, default=5,
        help="number of recent history runs the rolling median covers "
        "(default 5)",
    )
    arguments = parser.parse_args(argv)

    profiler = None
    if arguments.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()
    snapshot = run_suite(scale=arguments.scale, trace_path=arguments.trace)
    if profiler is not None:
        # The canonical suite runs in about a second; repeat it so the
        # sampler sees enough of the hot loops to rank them stably.
        for __ in range(max(arguments.profile_repeats, 0)):
            run_suite(scale=arguments.scale)
        profiler.stop()
        report = profiler.report()
        with open(arguments.profile, "w") as handle:
            handle.write(profiler.render() + "\n")
        print(
            f"profile: {report['attributed']} samples attributed "
            f"({report['unknown_share'] * 100:.1f}% unknown, "
            f"overhead {report['overhead'] * 100:.2f}%) -> "
            f"{arguments.profile}"
        )
    write_baseline(snapshot, arguments.out)
    prior_runs: list[dict] = []
    if arguments.history:
        # Load before appending so the fresh run is judged against its
        # predecessors, not against itself.
        prior_runs = load_history(arguments.history)
        append_history(snapshot, arguments.history)
        print(
            f"history: run {len(prior_runs) + 1} appended to "
            f"{arguments.history}"
        )
    for name, record in sorted(snapshot["workloads"].items()):
        print(
            f"{name}: {record['algorithm']} k={record['k']} "
            f"x={record['signature_comparisons']} "
            f"y={record['replicated_signatures']} "
            f"results={record['results']} "
            f"{record['wall_seconds']:.4f}s"
        )
    print(f"snapshot written to {arguments.out}")
    if arguments.trace:
        print(f"trace written to {arguments.trace}")

    if arguments.check:
        failures = check_regression(
            snapshot,
            load_baseline(arguments.check),
            time_threshold=arguments.time_threshold,
            counters_only=arguments.counters_only,
            history=prior_runs,
            rolling_window=arguments.rolling_window,
        )
        if failures:
            print(f"REGRESSION vs {arguments.check}:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        mode = "counters" if arguments.counters_only else "counters + time"
        print(f"no regression vs {arguments.check} ({mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
