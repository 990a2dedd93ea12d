"""Layer-scale benchmark of the set-containment-join database.

    python3 perfbench/run.py --workload large_sets --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Workloads, sizes and rates are in
``perfbench/workloads.json``; the metric names and units are read from
``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` runs the workload loop half untraced
and half with every layer wrapped, and reports the per-layer figures, the
tracing overhead and the self-time split (also written, with the spans,
under ``.perfbench/``).

Every answer is checked against an oracle built before timing; a wrong
answer prints ``"correct": false`` and exits 1.  The last line of
standard output is the JSON result.  Without the program's sources next
to the benchmark the command exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Inclusive call times reported as shares of the traced join time.
JOIN_PARTS = ("optimizer.plan_s", "signatures.sign_s", "partitioning.assign_s",
              "partition_store.append_s", "partition_store.scan_s",
              "operator.compare_s", "relation_store.fetch_s",
              "parallel.join_s")


def declared_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics, as
    ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return tuple({metric["name"]: metric["unit"] for metric in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def load_spec(toy: bool) -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if toy:
        spec["create"]["tuples"] = 10
        for workload in spec["workloads"].values():
            for side in ("r", "s"):
                workload[side]["size"] = max(20, workload[side]["size"] // 10)
            workload["planted_pairs"] = min(5, workload["planted_pairs"])
            if workload["kind"] == "service":
                workload["buffer_pages"] = max(3, workload["buffer_pages"] // 10)
    return spec


def end_to_end(out) -> dict:
    from loops import percentile

    return {
        "setup_s": statistics.median(out.times("setup")),
        "join_s_p50": percentile(out.times("join"), 0.5),
        "probe_s_p50": percentile(out.times("probe"), 0.5),
        "probe_s_p90": percentile(out.times("probe"), 0.9),
        "create_s_p50": percentile(out.times("create"), 0.5),
        "create_s_p90": percentile(out.times("create"), 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (out.attempted - out.failed) / out.attempted,
        "space_amp": out.info["space_amp"],
        "write_amp": out.info["write_amp"],
    }


def per_layer(out, join: dict, relation_tuples: int) -> dict:
    layers = dict(out.layers)
    layers["operator.comparisons"] = join["x"]
    layers["operator.candidates"] = join["candidates"]
    layers["operator.precision"] = join["results"] / max(join["candidates"], 1)
    layers["partitioning.repl_factor"] = join["y"] / relation_tuples
    return dict(sorted(layers.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every relation tenfold (self-check)")
    parser.add_argument("--split-out",
                        help="merge this run's layer split into a JSON file")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import loops

    spec = load_spec(args.toy)
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    scratch = os.path.join(ROOT, ".perfbench")
    ws = loops.Workspace(scratch)
    spans_path = (
        os.path.join(scratch, f"spans-{args.workload}-s{args.seed}.jsonl")
        if args.trace else None)
    try:
        runner = (loops.run_service if workload["kind"] == "service"
                  else loops.run_batch)
        out = runner(workload, spec, args.seed, args.seconds, ws, spans_path)
    finally:
        ws.close()

    counters = out.counters
    join = counters["round"] if "round" in counters else counters["schedule"]["join"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print("samples " + json.dumps({k: len(v) for k, v in out.samples.items()}
                                  | {"reference": len(out.speed.seconds)}))
    out.info["reference_s_p50"] = out.speed.median()
    out.info["unscaled_s_p50"] = {kind: statistics.median(out.raw(kind))
                                  for kind in out.samples if out.samples[kind]}
    print("counters " + json.dumps(counters, sort_keys=True))
    print("info " + json.dumps(out.info, sort_keys=True))
    end_to_end_units, per_layer_units = declared_units()
    if args.trace:
        tuples = workload["r"]["size"] + workload["s"]["size"]
        values = per_layer(out, join, tuples)
        units = per_layer_units
        split = dict(out.split, workload=args.workload, seed=args.seed,
                     layers=values)
        path = os.path.join(scratch, f"split-{args.workload}-s{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(split, f, indent=1, sort_keys=True)
        if args.split_out:
            record_split(args.split_out, args.workload, split)
    else:
        values = end_to_end(out)
        units = end_to_end_units
    if set(values) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if out.wrong == 0 else 1


def record_split(path: str, workload: str, split: dict) -> None:
    """Merge one workload's traced split into a committed summary file,
    adding each layer's share of the traced wall time."""
    try:
        with open(path, encoding="utf-8") as f:
            summary = json.load(f)
    except FileNotFoundError:
        summary = {}
    wall = split["wall_s"]
    summary[workload] = {
        "seed": split["seed"],
        "rounds": split["rounds"],
        "wall_s": wall,
        "self_s": split["self_s"],
        "unattributed_s": split["unattributed_s"],
        "share_of_wall": {
            **{layer: s / wall for layer, s in split["self_s"].items()},
            "unattributed": split["unattributed_s"] / wall,
        },
        "other_threads_self_s": split["other_threads_self_s"],
        "share_of_join": {
            name: split["layers"][name] / split["layers"]["database.join_s"]
            for name in JOIN_PARTS
        },
        "layers": split["layers"],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
