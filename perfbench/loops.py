"""The benchmark's workload loops: closed-loop batch rounds and the
open-loop service schedule, with set-up, answer checks and counters.

Each loop returns a :class:`Outcome`: latency samples per operation
kind with the host-speed reference taken around them (``hostspeed.py``),
failure counts, the deterministic counter record and, for a traced
run, the per-layer figures.  ``run.py`` turns it into the result line.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import threading
import time

from repro import SetJoinDatabase
from repro.obs.registry import get_registry
from repro.service import QueryService
from repro.errors import AdmissionRejected

import inputs
from hostspeed import HostSpeed
from tracing import Recorder, Tracing

clock = time.monotonic

REGISTRY_COUNTERS = {
    "wal.commits": "setjoin_wal_commits_total",
    "wal.bytes": "setjoin_wal_bytes_total",
    "wal.fsyncs": "setjoin_wal_fsyncs_total",
    "service.retries": "setjoin_service_retries_total",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _registry_values() -> dict:
    registry = get_registry()
    out = {}
    for key, name in REGISTRY_COUNTERS.items():
        metric = registry.get(name)
        out[key] = metric.value if metric is not None else 0
    return out


class PhysicalIO:
    """Counts the page reads and writes that reach a database's file.

    The pager's ``IOStats`` are shared with the WAL disk manager, which
    also counts a page written inside a transaction when it is buffered,
    before its checkpoint writes it; a buffered read is counted too.  So
    the benchmark counts at the physical layer of the file disk manager
    itself: every page read, page write and zero-filled page growth.

    It also keeps the bytes written inside ``create_relation`` and
    ``drop_relation``, which run on whichever thread executes them (the
    service lane, on ``service_mix``), apart from the join's spill.
    """

    def __init__(self, db):
        disk = getattr(db.disk, "inner", db.disk)
        self.page_size = disk.page_size
        self.reads = 0
        self.writes = 0
        self.create_bytes = 0
        self._lock = threading.Lock()
        read, write, grow = (disk._read_physical, disk._write_physical,
                             disk._grow_physical)

        def counted_read(page_id):
            with self._lock:
                self.reads += 1
            return read(page_id)

        def counted_write(page_id, raw):
            with self._lock:
                self.writes += 1
            return write(page_id, raw)

        def counted_grow():
            with self._lock:
                self.writes += 1
            return grow()

        disk._read_physical = counted_read
        disk._write_physical = counted_write
        disk._grow_physical = counted_grow
        for name in ("create_relation", "drop_relation"):
            setattr(db, name, self._counting(db, name))

    def _counting(self, db, name: str):
        def call(*args, **kwargs):
            before = self.bytes_written()
            try:
                # looked up per call, so a traced run's wrapper is used
                return getattr(type(db), name)(db, *args, **kwargs)
            finally:
                self.create_bytes += self.bytes_written() - before
        return call

    def snapshot(self) -> tuple[int, int]:
        return self.reads, self.writes

    def delta(self, earlier: tuple[int, int]) -> tuple[int, int]:
        return self.reads - earlier[0], self.writes - earlier[1]

    def bytes_written(self) -> int:
        """Database-file page bytes plus WAL bytes written so far."""
        return self.writes * self.page_size + _registry_values()["wal.bytes"]


class Outcome:
    def __init__(self):
        #: kind -> ``(start, seconds)`` of each timed operation
        self.samples: dict[str, list[tuple[float, float]]] = {
            "setup": [], "join": [], "probe": [], "create": []}
        self.speed = HostSpeed(clock)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.shed = 0
        self.counters: dict = {}
        self.info: dict = {}
        self.layers: dict = {}
        self.split: dict = {}

    def check(self, ok: bool) -> None:
        if not ok:
            self.failed += 1
            self.wrong += 1

    def times(self, kind: str) -> list[float]:
        """The ``kind`` samples scaled to the reference host speed."""
        return [self.speed.scaled(start, seconds)
                for start, seconds in self.samples[kind]]

    def raw(self, kind: str) -> list[float]:
        """The ``kind`` samples as measured."""
        return [seconds for __, seconds in self.samples[kind]]


class Inputs:
    """Everything a workload needs, generated before anything is timed."""

    def __init__(self, spec: dict, common: dict, seed: int):
        self.r_rows, self.s_rows = inputs.join_pair(
            seed, spec["r"], spec["s"], spec["planted_pairs"])
        self.probes = inputs.probe_sets(
            seed + 1, self.s_rows, common["probe"]["elements"],
            common["probe"]["pool"])
        self.creates = inputs.create_rows(seed + 2, common["create"], 8)
        oracle = inputs.Oracle(self.s_rows)
        self.expected_pairs = oracle.join(self.r_rows)
        self.expected_probes = [oracle.supersets(p) for p in self.probes]
        self.user_bytes = (inputs.user_bytes(self.r_rows)
                           + inputs.user_bytes(self.s_rows))


class Workspace:
    """Fresh database directories under the checkout's scratch area."""

    def __init__(self, root: str):
        os.makedirs(root, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="work-", dir=root)

    def new_db_path(self) -> str:
        return os.path.join(tempfile.mkdtemp(dir=self.path), "bench.db")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _warm_up(ws: Workspace) -> None:
    """Exercise every public call once on a toy database so lazy imports
    and first-use initialisation are not charged to a timed region, then
    freeze the heap: the benchmark's own inputs and oracle stay out of the
    garbage collector's scans, so its pauses reflect the program's
    allocations only."""
    rows = [(tid, frozenset({tid, tid + 1, tid + 2})) for tid in range(8)]
    with SetJoinDatabase.open(ws.new_db_path()) as db:
        db.create_relation("R", rows[:4])
        db.create_relation("S", rows)
        db.join("R", "S")
        db.probe("S", [1])
        service = QueryService(db).start()
        try:
            service.join("R", "S", timeout=60)
            service.probe("S", [1], timeout=60)
            service.create_relation("T", rows, timeout=60)
            service.drop_relation("T", timeout=60)
        finally:
            service.stop()
    gc.collect()
    gc.freeze()


def _setup(ws: Workspace, data: Inputs, spec: dict, out: Outcome,
           common: dict, seconds: float):
    """Time fresh set-ups for the workload's ``setup_share`` of the run's
    ``seconds``, at least ``setup_min`` of them; keep the last database
    open.  Returns the database and the rest of ``seconds`` for the
    workload loop (a fixed share, so that a schedule's length does not
    depend on set-up speed).  Host-speed reference passes run before,
    between the two loads of, and after each set-up; the pause between
    the loads is not part of the set-up's time."""
    buffer_pages = spec["buffer_pages"]
    share = spec["setup_share"]
    db = None
    deadline = clock() + share * seconds
    while len(out.samples["setup"]) < common["setup_min"] or clock() < deadline:
        if db is not None:
            db.close()
        path = ws.new_db_path()
        out.speed.measure(3)
        started = clock()
        db = SetJoinDatabase.open(path, buffer_pages=buffer_pages)
        io = PhysicalIO(db)
        bytes_before = io.bytes_written()
        db.create_relation("R", data.r_rows)
        loaded_r = clock()
        out.speed.measure(3)
        resumed = clock()
        pages_before_s = db.disk.num_pages
        db.create_relation("S", data.s_rows)
        out.samples["setup"].append(
            (started, loaded_r - started + clock() - resumed))
        out.counters["setup"] = {
            "page_reads": io.reads,
            "page_writes": io.writes,
            "io_bytes": io.bytes_written() - bytes_before,
        }
        out.info["s_pages"] = db.disk.num_pages - pages_before_s
        out.info["data_pages"] = db.disk.num_pages
        stored = os.path.getsize(path) + os.path.getsize(path + ".wal")
        out.info["space_amp"] = stored / data.user_bytes
    out.speed.measure(3)
    out.info["buffer_pages"] = buffer_pages
    out.info["s_pages_per_buffer_page"] = out.info["s_pages"] / buffer_pages
    out.info["data_pages_per_buffer_page"] = out.info["data_pages"] / buffer_pages
    return db, io, seconds * (1.0 - share)


def _join_counters(metrics) -> dict:
    return {
        "algorithm": metrics.algorithm,
        "k": metrics.num_partitions,
        "x": metrics.signature_comparisons,
        "y": metrics.replicated_signatures,
        "candidates": metrics.candidates,
        "results": metrics.result_size,
    }


# ----------------------------------------------------------------------
# Batch workloads: closed loop, one client
# ----------------------------------------------------------------------

class _Batch:
    def __init__(self, db, io: PhysicalIO, data: Inputs, spec: dict,
                 out: Outcome):
        self.db = db
        self.io = io
        self.data = data
        self.spec = spec
        self.out = out
        self.probe_index = 0
        self.create_index = 0
        self.rounds_run = 0
        self.rec: Recorder | None = None

    def _checked(self, test) -> None:
        if self.rec is None:
            self.out.check(test())
            return
        frame = self.rec.enter("bench.check")
        self.out.check(test())
        self.rec.exit(frame)

    def _reference(self, passes: int = 1) -> None:
        """Host-speed reference passes; bench self time in a traced run."""
        if self.rec is None:
            self.out.speed.measure(passes)
            return
        frame = self.rec.enter("bench.reference")
        self.out.speed.measure(passes)
        self.rec.exit(frame)

    def round(self, timed: bool) -> dict:
        """One join, its probes and its creates; returns the round's
        deterministic counters."""
        db, io, data, out = self.db, self.io, self.data, self.out
        self.rounds_run += 1
        if self.rec is not None:
            self.rec.set_query(self.rounds_run)
        io_before = io.snapshot()
        reg_before = _registry_values()
        self._reference()
        started = clock()
        pairs, metrics = db.join("R", "S")
        elapsed = clock() - started
        self._checked(lambda: pairs == data.expected_pairs)
        counters = _join_counters(metrics)
        if timed:
            out.samples["join"].append((started, elapsed))
        for __ in range(self.spec["probes_per_round"]):
            index = self.probe_index % len(data.probes)
            self.probe_index += 1
            self._reference()
            started = clock()
            tids = db.probe("S", data.probes[index])
            elapsed = clock() - started
            self._checked(lambda: tids == data.expected_probes[index])
            if timed:
                out.samples["probe"].append((started, elapsed))
        create_bytes = io.create_bytes
        create_user = 0
        for __ in range(self.spec["creates_per_round"]):
            rows = data.creates[self.create_index % len(data.creates)]
            name = f"c{self.create_index}"
            self.create_index += 1
            self._reference()
            started = clock()
            count = db.create_relation(name, rows)
            elapsed = clock() - started
            db.drop_relation(name)
            create_user += inputs.user_bytes(rows)
            self._checked(lambda: count == len(rows))
            if timed:
                out.samples["create"].append((started, elapsed))
        reads, writes = io.delta(io_before)
        reg = _registry_values()
        counters.update(
            page_reads=reads, page_writes=writes,
            wal_bytes=reg["wal.bytes"] - reg_before["wal.bytes"],
            create_io_bytes=io.create_bytes - create_bytes,
            create_user_bytes=create_user)
        if timed:
            ops = 1 + self.spec["probes_per_round"] + self.spec["creates_per_round"]
            out.attempted += ops
        return counters

    def rounds(self, seconds: float) -> int:
        deadline = clock() + seconds
        count = 0
        while count == 0 or clock() < deadline:
            counters = self.round(timed=True)
            if "round" not in self.out.counters:
                self.out.counters["round"] = counters
            count += 1
        self._reference(3)
        return count


def run_batch(spec: dict, common: dict, seed: int, seconds: float,
              ws: Workspace, spans_path: str | None) -> Outcome:
    """Closed-loop rounds for ``seconds``; with ``spans_path`` the second
    half runs traced and its spans are written there."""
    out = Outcome()
    data = Inputs(spec, common, seed)
    _warm_up(ws)
    db, io, seconds = _setup(ws, data, spec, out, common, seconds)
    try:
        batch = _Batch(db, io, data, spec, out)
        batch.round(timed=False)  # warm-up round
        batch.rounds(seconds / 2 if spans_path else seconds)
        if spans_path:
            def traced(rec):
                batch.rec = rec
                return batch.rounds(seconds / 2)

            _traced_half(out, db, io, traced, "MainThread", "join", spans_path)
        round_counters = out.counters["round"]
        out.info["write_amp"] = (
            (out.counters["setup"]["io_bytes"] + round_counters["create_io_bytes"])
            / (data.user_bytes + round_counters["create_user_bytes"]))
    finally:
        db.close()
    return out


# ----------------------------------------------------------------------
# Service workload: open loop through QueryService.submit
# ----------------------------------------------------------------------

def schedule(spec: dict, seconds: float) -> list[tuple[float, str]]:
    """Whole blocks of ``spec["block"]`` (``[offset_s, kind]`` pairs), one
    every ``block_seconds``, as many as fit ``seconds`` (at least one).

    The schedule is fixed, not random: with joins about seven times longer
    than probes on one execution lane, how many short operations land
    behind a join, and of which kind, would vary from seed to seed so much
    that a run's p90 latency mostly measured the schedule, not the
    program.  Each block sends three probes and two creates just after its
    join, so a quarter of the probes and creates queue behind a join on
    every run and the p90s read that wait; the other operations come far
    enough after the join that they do not wait even on a slow host, and
    the p50s read them.
    """
    period = spec["block_seconds"]
    blocks = max(1, round(seconds / period))
    return [(index * period + offset, kind)
            for index in range(blocks) for offset, kind in spec["block"]]


class _Submitted:
    __slots__ = ("kind", "due", "ticket", "drop", "index", "error")

    def __init__(self, kind, due, index):
        self.kind = kind
        self.due = due
        self.index = index
        self.ticket = None
        self.drop = None
        self.error = None

    def settled(self) -> bool:
        return (self.ticket is None or self.ticket.done()) and (
            self.drop is None or self.drop.done())


#: A reference pass starts only if the next submission is due later than
#: this, so that the pass never delays a submission.
REFERENCE_MARGIN_S = 0.02


def _run_schedule(db, io: PhysicalIO, data: Inputs, plan, out: Outcome,
                  lags: list, rec: Recorder | None, counters: dict) -> None:
    service = QueryService(db)
    service.start()
    submitted: list[_Submitted] = []
    creates = 0
    probes = 0
    io_before = io.snapshot()
    create_bytes = io.create_bytes
    reg_before = _registry_values()
    start = clock() + 0.05
    pending = 0  # index of the oldest submission that may still be running
    try:
        for offset, kind in plan:
            due = start + offset
            # host-speed reference passes, only once every submitted
            # operation has settled and only as many as end well before
            # the next due time
            while pending < len(submitted):
                if submitted[pending].settled():
                    pending += 1
                elif due - clock() > REFERENCE_MARGIN_S:
                    time.sleep(0.005)
                else:
                    break
            passes = 0
            while (pending == len(submitted) and passes < 3
                   and due - clock() > REFERENCE_MARGIN_S):
                out.speed.measure()
                passes += 1
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            if kind == "probe":
                item = _Submitted(kind, due, probes % len(data.probes))
                probes += 1
                params = {"name": "S", "elements": data.probes[item.index]}
            elif kind == "create":
                item = _Submitted(kind, due, creates)
                creates += 1
                params = {"name": f"c{item.index}",
                          "rows": data.creates[item.index % len(data.creates)]}
            else:
                item = _Submitted(kind, due, 0)
                params = {"r": "R", "s": "S"}
            lags.append(clock() - due)
            try:
                item.ticket = service.submit(kind, **params)
                if kind == "create":
                    item.drop = service.submit("drop", name=params["name"])
            except AdmissionRejected as error:
                item.error = error
                out.shed += 1
            submitted.append(item)
        for item in submitted:
            out.attempted += 1
            if item.error is not None:
                out.failed += 1
                continue
            try:
                result = item.ticket.result(timeout=120)
                if item.drop is not None:
                    item.drop.result(timeout=120)
            except Exception as error:  # noqa: BLE001 — counted, reported
                out.failed += 1
                out.info.setdefault("errors", []).append(repr(error))
                continue
            latency = item.ticket.query.admitted_at - item.due + item.ticket.seconds
            out.samples[item.kind].append((item.due, latency))
            if rec is not None:
                frame = rec.enter("bench.check")
            if item.kind == "join":
                pairs, metrics = result
                out.check(pairs == data.expected_pairs)
                counters.setdefault("join", _join_counters(metrics))
            elif item.kind == "probe":
                out.check(result == data.expected_probes[item.index])
            else:
                rows = data.creates[item.index % len(data.creates)]
                out.check(result == len(rows))
                counters["create_user_bytes"] = counters.get(
                    "create_user_bytes", 0) + inputs.user_bytes(rows)
            if rec is not None:
                rec.exit(frame)
        out.speed.measure(3)
    finally:
        service.stop()
    reads, writes = io.delta(io_before)
    reg = _registry_values()
    counters.update(
        operations=len(plan), creates=creates, probes=probes,
        page_reads=reads, page_writes=writes,
        wal_bytes=reg["wal.bytes"] - reg_before["wal.bytes"],
        create_io_bytes=io.create_bytes - create_bytes)


def run_service(spec: dict, common: dict, seed: int, seconds: float,
                ws: Workspace, spans_path: str | None) -> Outcome:
    """The open-loop schedule over ``seconds``; with ``spans_path`` the
    second half runs traced and its spans are written there."""
    out = Outcome()
    data = Inputs(spec, common, seed)
    _warm_up(ws)
    db, io, seconds = _setup(ws, data, spec, out, common, seconds)
    lags: list[float] = []
    counters: dict = {}
    try:
        plan = schedule(spec, seconds / 2 if spans_path else seconds)
        _run_schedule(db, io, data, plan, out, lags, None, counters)
        if spans_path:
            lags.clear()
            counters.clear()
            shed_before = out.shed
            plan = schedule(spec, seconds / 2)

            def traced(rec):
                _run_schedule(db, io, data, plan, out, lags, rec, counters)
                return len(plan) / len(spec["block"])

            _traced_half(out, db, io, traced, "setjoin-service-lane", "probe",
                         spans_path)
            out.layers["service.shed"] = out.shed - shed_before
            out.layers["loadgen.lag_s_p90"] = percentile(lags, 0.9)
        out.counters["schedule"] = counters
        out.info["loadgen_lag_p90"] = percentile(lags, 0.9)
        out.info["write_amp"] = (
            (out.counters["setup"]["io_bytes"] + counters["create_io_bytes"])
            / (data.user_bytes + counters.get("create_user_bytes", 0)))
    finally:
        db.close()
    return out


# ----------------------------------------------------------------------
# Per-layer figures of a traced window
# ----------------------------------------------------------------------

def _traced_half(out: Outcome, db, io: PhysicalIO, body, thread: str,
                 reference: str, spans_path: str) -> None:
    """Run ``body(recorder)`` with every layer wrapped and fill in the
    per-layer figures; ``body`` returns how many rounds it ran.  The
    tracing overhead compares the median ``reference`` latency with the
    untraced half that ran just before."""
    untraced = statistics.median(out.times(reference))
    out.samples = {key: [] for key in out.samples}
    rec = Recorder(clock)
    window = _Window(db, io)
    with Tracing(rec) as tracing:
        rounds = body(rec)
    window.close()
    overhead = statistics.median(out.times(reference)) / untraced - 1.0
    out.layers, out.split = _layer_metrics(rec, tracing, window, rounds,
                                           thread, overhead)
    rec.write_spans(spans_path)


class _Window:
    """Program counters and wall time over one traced window."""

    def __init__(self, db, io: PhysicalIO):
        self.db = db
        self.physical = io
        self.pool = db.pool.stats.snapshot()
        self.io = io.snapshot()
        self.reg = _registry_values()
        self.started = clock()

    def close(self) -> None:
        self.wall = clock() - self.started
        self.pool = self.db.pool.stats.delta(self.pool)
        self.io = self.physical.delta(self.io)
        reg = _registry_values()
        self.reg = {key: reg[key] - self.reg[key] for key in reg}


SELF_LAYERS = ("database", "optimizer", "operator", "signatures",
               "partitioning", "partition_store", "relation_store", "btree",
               "buffer", "pager", "wal", "parallel", "service", "bench")


def _layer_metrics(rec: Recorder, tracing: Tracing, window: _Window,
                   rounds: float, thread: str, overhead: float):
    """Per-layer figures and the self-time split of one traced window.

    Times are seconds per round (batch: one join with its probes and
    creates; service: one block of the operation mix).  ``*.self_s``
    and ``unattributed_s`` come from the timeline ``thread`` and add up
    to its wall time; other ``*_s`` figures are inclusive call times
    summed over all threads.
    """
    split = rec.split(thread, window.wall)
    split["rounds"] = rounds
    split["missing_wrappers"] = tracing.missing

    def incl(name):
        return rec.total("incl_s", name) / rounds

    def calls(name):
        return rec.total("calls", name) / rounds

    joins = {span[5]: span for span in rec.spans if span[1] == "database.join"}
    ratios = [
        span[7]["predicted_s"] / (joins[span[5]][3] - joins[span[5]][2])
        for span in rec.spans
        if span[1] == "optimizer.plan" and span[5] in joins
        and span[7]["predicted_s"] is not None
    ]
    lane = {}
    for state in rec.threads(thread):
        for name, seconds in state.self_s.items():
            lane[name] = lane.get(name, 0.0) + seconds
    pool, io = window.pool, window.io
    out = {
        "database.join_s": incl("database.join"),
        "optimizer.plan_s": incl("optimizer.plan"),
        "optimizer.pred_ratio": statistics.median(ratios) if ratios else 0.0,
        "signatures.sign_s": incl("signatures.sign"),
        "partitioning.assign_s": incl("partitioning.assign"),
        "partition_store.append_s": incl("partition_store.append"),
        "partition_store.scan_s": incl("partition_store.scan"),
        "partition_store.entries": calls("partition_store.append"),
        "operator.compare_s": incl("operator.compare"),
        "relation_store.fetch_s": incl("relation_store.fetch"),
        "relation_store.fetched_tids": sum(
            span[7]["tids"] for span in rec.spans
            if span[1] == "relation_store.fetch") / rounds,
        "relation_store.scan_s": incl("relation_store.scan"),
        "relation_store.scanned_tuples": calls("relation_store.scan.items"),
        "relation_store.load_s": incl("relation_store.load"),
        "btree.calls": sum(calls(name) for name in (
            "btree.get", "btree.insert", "btree.destroy", "btree.scan")),
        "buffer.fetches": (pool.hits + pool.misses) / rounds,
        "buffer.hit_rate": pool.hit_rate,
        "buffer.evictions": pool.evictions / rounds,
        "pager.page_reads": io[0] / rounds,
        "pager.page_writes": io[1] / rounds,
        "pager.read_s": incl("pager.read"),
        "pager.write_s": incl("pager.write"),
        "wal.commit_s": incl("wal.commit"),
        "parallel.join_s": incl("parallel.join"),
        "service.queue_wait_s_p90": (
            percentile(rec.queue_waits, 0.9) if rec.queue_waits else 0.0),
        "service.overhead_s": sum(lane.get(name, 0.0) for name in (
            "service.execute", "service.ledger", "service.observe")) / rounds,
        "service.busy_share": (
            1.0 - lane["service.idle"] / window.wall
            if "service.idle" in lane else 0.0),
        "service.shed": 0,
        "loadgen.lag_s_p90": 0.0,
        "unattributed_s": split["unattributed_s"] / rounds,
        "trace.overhead_share": overhead,
    }
    for key, value in window.reg.items():
        out[key] = value / rounds
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = split["self_s"].get(layer, 0.0) / rounds
    return out, split
