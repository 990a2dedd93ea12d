"""In-memory span tracing of the program's layers, from outside the program.

The benchmark does not rely on the program's own tracer.  It wraps the
calls into each layer with :class:`Recorder` spans (name, start, end,
parent, query id, thread), keeps them in memory, and writes them out at
the end of the run.  A layer's self time is its spans' duration minus
the time of wrapped calls made inside them on the same thread (a span
name never nests inside itself, so inclusive times add up); the self
times of one thread plus an *unattributed* remainder add up to that
thread's wall time exactly.

Hot calls (per tuple, per page, per B-tree node) are aggregated online
into per-name totals instead of being stored one by one, which keeps the
span list small; the leaves below them (varint decoding and the like)
are not wrapped at all and show in their callers' self time.

Wrapping is tolerant: a target the program no longer has is listed in
:attr:`Tracing.missing` and its time falls into the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

#: (module, attribute path, span name, kind).  ``kind`` is ``call`` for a
#: plain call and ``gen`` for a generator, whose every step is a span.
TARGETS = (
    ("repro.database", "SetJoinDatabase.create_relation", "database.create", "call"),
    ("repro.database", "SetJoinDatabase.drop_relation", "database.drop", "call"),
    ("repro.database", "SetJoinDatabase.join", "database.join", "call"),
    ("repro.database", "SetJoinDatabase.probe", "database.probe", "call"),
    ("repro.database", "SetJoinDatabase.plan", "optimizer.plan", "call"),
    ("repro.core.operator", "SetContainmentJoin.run", "operator.run", "call"),
    ("repro.core.operator", "compare_block", "operator.compare", "call"),
    ("repro.core.operator", "signature_of", "signatures.sign", "call"),
    ("repro.storage.partition_store", "PartitionStore.append", "partition_store.append", "call"),
    ("repro.storage.partition_store", "PartitionStore.seal", "partition_store.seal", "call"),
    ("repro.storage.partition_store", "PartitionStore.drop", "partition_store.drop", "call"),
    ("repro.storage.partition_store", "PartitionStore.scan_partition_batches", "partition_store.scan", "gen"),
    ("repro.storage.relation_store", "RelationStore.fetch_many", "relation_store.fetch", "call"),
    ("repro.storage.relation_store", "RelationStore.scan", "relation_store.scan", "gen"),
    ("repro.storage.relation_store", "RelationStore.bulk_load", "relation_store.load", "call"),
    ("repro.storage.btree", "BTree.get", "btree.get", "call"),
    ("repro.storage.btree", "BTree.insert", "btree.insert", "call"),
    ("repro.storage.btree", "BTree.destroy", "btree.destroy", "call"),
    ("repro.storage.btree", "BTree.scan", "btree.scan", "gen"),
    ("repro.storage.buffer", "BufferPool.fetch", "buffer.fetch", "call"),
    ("repro.storage.buffer", "BufferPool.new_page", "buffer.new_page", "call"),
    ("repro.storage.buffer", "BufferPool.flush_all", "buffer.flush_all", "call"),
    ("repro.storage.pager", "DiskManager.read_page", "pager.read", "call"),
    ("repro.storage.pager", "DiskManager.write_page", "pager.write", "call"),
    ("repro.storage.wal", "WALDiskManager.read_page", "wal.read", "call"),
    ("repro.storage.wal", "WALDiskManager.write_page", "wal.write", "call"),
    ("repro.storage.wal", "WALDiskManager.commit", "wal.commit", "call"),
    ("repro.parallel.engine", "run_parallel_join", "parallel.join", "call"),
    ("repro.service.core", "QueryService.submit", "service.submit", "call"),
    ("repro.service.core", "QueryService._execute", "service.execute", "call"),
    ("repro.service.core", "QueryService._settle_ledger", "service.ledger", "call"),
    ("repro.service.core", "QueryService._observe_outcome", "service.observe", "call"),
    ("repro.service.queue", "AdmissionQueue.take", "service.idle", "call"),
)

#: Partitioner subclasses get ``assign_r``/``assign_s`` wrapped wherever
#: a class defines them.
PARTITIONER_MODULES = ("repro.core.dcj", "repro.core.psj", "repro.core.lsj",
                       "repro.core.modulo")

#: Spans under these prefixes are aggregated online and never stored.
HOT = ("signatures.", "partitioning.", "partition_store.append",
       "partition_store.scan", "relation_store.scan", "btree.", "buffer.",
       "pager.", "wal.read", "wal.write")

#: Name prefix of the parallel engine's thread-backend workers.
WORKER_THREADS = "setjoins-shard"

#: Spans after which a query's queue wait ends (its first db.* call).
_DB_CALLS = ("database.", "optimizer.")


def layer_of(name: str) -> str:
    """Split bucket of a span: its prefix, with lane idling apart."""
    return "idle" if name == "service.idle" else name.split(".", 1)[0]


class _ThreadState:
    __slots__ = ("thread", "stack", "self_s", "incl_s", "calls", "qid",
                 "admitted_at")

    def __init__(self, thread: str):
        self.thread = thread
        #: open frames: [name, start, child seconds, stored id, parent id]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.qid = None
        self.admitted_at = None


class Recorder:
    """Per-thread span stacks with online self-time accounting."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[tuple] = []
        self.queue_waits: list[float] = []
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stored: dict[str, bool] = {}
        #: open span that threads without a span of their own (pool
        #: workers of a parallel join) report as their parent
        self._cross_parent = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def set_query(self, qid, admitted_at=None) -> None:
        state = self._state()
        state.qid = qid
        state.admitted_at = admitted_at

    def count(self, name: str) -> None:
        calls = self._state().calls
        calls[name] = calls.get(name, 0) + 1

    def enter(self, name: str, counted: bool = True) -> list:
        try:
            state = self._local.state
        except AttributeError:
            state = self._state()
        now = self.clock()
        if state.admitted_at is not None and name.startswith(_DB_CALLS):
            self.queue_waits.append(now - state.admitted_at)
            state.admitted_at = None
        stack = state.stack
        if stack:
            top = stack[-1]
            parent = top[4] if top[3] is None else top[3]
        elif state.thread.startswith(WORKER_THREADS):
            parent = self._cross_parent
        else:
            parent = None
        stored = self._stored.get(name)
        if stored is None:
            stored = self._stored[name] = not name.startswith(HOT)
        sid = next(self._ids) if stored else None
        if name == "parallel.join":
            self._cross_parent = sid
        if counted:
            calls = state.calls
            calls[name] = calls.get(name, 0) + 1
        frame = [name, now, 0.0, sid, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list, attrs: dict | None = None) -> None:
        end = self.clock()
        state = self._local.state
        stack = state.stack
        stack.pop()
        name, start, child, sid, parent = frame
        duration = end - start
        self_s = state.self_s
        self_s[name] = self_s.get(name, 0.0) + duration - child
        incl_s = state.incl_s
        incl_s[name] = incl_s.get(name, 0.0) + duration
        if stack:
            stack[-1][2] += duration
        if sid is not None:
            if name == "parallel.join":
                self._cross_parent = None
            self.spans.append(
                (sid, name, start, end, parent, state.qid, state.thread,
                 attrs or {}))

    # -- aggregation -------------------------------------------------------

    def threads(self, name: str) -> list[_ThreadState]:
        return [state for state in self._threads if state.thread == name]

    def total(self, field: str, name: str) -> float:
        """``incl_s``/``self_s``/``calls`` for one span name, all threads."""
        return sum(getattr(state, field).get(name, 0)
                   for state in self._threads)

    def split(self, thread: str, wall: float) -> dict:
        """Per-layer self seconds on ``thread`` plus the unattributed rest,
        which together equal ``wall``; other threads' self time is listed
        apart (it overlaps the timeline thread's)."""
        on: dict[str, float] = {}
        off: dict[str, float] = {}
        for state in self._threads:
            target = on if state.thread == thread else off
            for name, seconds in state.self_s.items():
                layer = layer_of(name)
                target[layer] = target.get(layer, 0.0) + seconds
        return {
            "thread": thread,
            "wall_s": wall,
            "self_s": dict(sorted(on.items())),
            "unattributed_s": wall - sum(on.values()),
            "other_threads_self_s": dict(sorted(off.items())),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, qid, thread, attrs in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "query_id": qid, "thread": thread,
                    **({"attrs": attrs} if attrs else {}),
                }) + "\n")


#: Span attributes taken from a wrapped call's return value.
ANNOTATE = {
    "optimizer.plan": lambda plan: {
        "algorithm": getattr(plan, "algorithm", None),
        "k": getattr(plan, "k", None),
        "predicted_s": getattr(plan, "predicted_seconds", None)},
    "relation_store.fetch": lambda sets: {"tids": len(sets)},
}


def _wrap_call(fn, name: str, rec: Recorder):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs = annotate(result)
            return result
        finally:
            rec.exit(frame, attrs)
    return traced


def _wrap_execute(fn, name: str, rec: Recorder):
    """The service lane's per-query call: tags the thread with the query
    and starts its queue-wait clock (admission to first db.* call)."""
    @functools.wraps(fn)
    def traced(self, ticket):
        rec.set_query(ticket.query_id, ticket.query.admitted_at)
        frame = rec.enter(name)
        try:
            return fn(self, ticket)
        finally:
            rec.exit(frame)
            rec.set_query(None)
    return traced


def _wrap_gen(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.count(name)
        return _steps(fn(*args, **kwargs), name, rec)
    return traced


def _steps(iterator, name: str, rec: Recorder):
    items = name + ".items"
    while True:
        frame = rec.enter(name, counted=False)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.exit(frame)
        rec.count(items)
        yield item


class Tracing:
    """Install the wrappers for the lifetime of a ``with`` block."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def _patch(self, owner, attr: str, name: str, kind: str) -> None:
        original = owner.__dict__[attr]
        if kind == "gen":
            wrapper = _wrap_gen(original, name, self.rec)
        elif name == "service.execute":
            wrapper = _wrap_execute(original, name, self.rec)
        else:
            wrapper = _wrap_call(original, name, self.rec)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracing":
        for module_name, path, name, kind in TARGETS:
            owner_path, __, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, name, kind)
        try:
            for module_name in PARTITIONER_MODULES:
                importlib.import_module(module_name)
            from repro.core.partitioning import Partitioner
        except ImportError as error:
            self.missing.append(f"partitioners: {error}")
            return self
        pending = list(Partitioner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("assign_r", "assign_s"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, "partitioning.assign", "call")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
