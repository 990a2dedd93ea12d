"""Execution backends: one interface, three interchangeable engines.

``serial`` runs shards in-process in order; ``thread`` uses a
``ThreadPoolExecutor`` (useful when the numpy kernel dominates and
releases the GIL, and as a sanity backend with zero setup cost);
``process`` uses a ``ProcessPoolExecutor``, the backend that actually
scales CPU-bound signature comparison across cores.

Failures are normalized: a shard that exceeds its per-shard timeout, a
pool whose workers died, or a backend that cannot start on this platform
all surface as :class:`~repro.errors.ParallelExecutionError` (or fall
back to ``serial`` where that is safe), never as backend-specific
exceptions like ``BrokenProcessPool``.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import Sequence

from ..core.config import BACKENDS
from ..errors import ConfigurationError, ParallelExecutionError
from .worker import ShardResult, ShardSpec, run_shard

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
]


class ExecutionBackend:
    """Runs a batch of shard specs and returns their results in order."""

    name = "abstract"

    def available(self) -> bool:
        """Whether this backend can start on the current platform."""
        return True

    def run(
        self, specs: Sequence[ShardSpec], timeout: float | None = None
    ) -> list[ShardResult]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution.

    The zero-dependency default: same shard kernel, no concurrency, no
    pickling.  Per-shard timeouts are not enforceable without preemption
    and are ignored here (documented behaviour).
    """

    name = "serial"

    def run(
        self, specs: Sequence[ShardSpec], timeout: float | None = None
    ) -> list[ShardResult]:
        return [run_shard(spec) for spec in specs]


class _PoolBackend(ExecutionBackend):
    """Shared submit/collect logic for the executor-pool backends."""

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigurationError(
                f"need >= 1 worker, got {max_workers}"
            )
        self.max_workers = max_workers

    def _make_pool(self):
        raise NotImplementedError

    def run(
        self, specs: Sequence[ShardSpec], timeout: float | None = None
    ) -> list[ShardResult]:
        """Run all shards; ``timeout`` is a batch deadline in seconds.

        The deadline starts when the batch is dispatched and covers the
        whole batch (all shards run concurrently, so one budget bounds
        the caller's wait).  On expiry every not-yet-started future is
        cancelled and the pool is shut down with ``cancel_futures``;
        shards already running cannot be preempted and are *abandoned*
        — see :class:`~repro.errors.ParallelExecutionError` for the
        exact semantics per backend.
        """
        try:
            pool = self._make_pool()
        except Exception as error:  # noqa: BLE001 — platform-dependent startup
            raise ParallelExecutionError(
                f"could not start {self.name} backend: {error}",
                kind="startup",
            ) from error
        try:
            futures = [pool.submit(run_shard, spec) for spec in specs]
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            results = []
            for index, future in enumerate(futures):
                try:
                    remaining = None
                    if deadline is not None:
                        remaining = max(0.0, deadline - time.monotonic())
                    results.append(future.result(timeout=remaining))
                except concurrent.futures.TimeoutError:
                    cancelled = sum(
                        1 for pending in futures[index:] if pending.cancel()
                    )
                    abandoned = len(futures) - index - cancelled
                    raise ParallelExecutionError(
                        f"shard {index} exceeded its {timeout:.3f}s timeout "
                        f"on the {self.name} backend ({cancelled} queued "
                        f"shard(s) cancelled, {abandoned} running shard(s) "
                        "abandoned — they finish in the background but "
                        "their results are discarded)",
                        kind="timeout",
                    ) from None
                except concurrent.futures.process.BrokenProcessPool as error:
                    raise ParallelExecutionError(
                        f"{self.name} backend worker died: {error}",
                        kind="worker_death",
                    ) from error
                except concurrent.futures.BrokenExecutor as error:
                    raise ParallelExecutionError(
                        f"{self.name} backend pool broke: {error}",
                        kind="worker_death",
                    ) from error
            return results
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


class ThreadBackend(_PoolBackend):
    name = "thread"

    def _make_pool(self):
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="setjoins-shard",
        )


class ProcessBackend(_PoolBackend):
    """Worker processes via ``ProcessPoolExecutor``.

    Prefers the ``fork`` start method where the platform offers it (the
    children inherit ``sys.path`` and loaded modules, so shard dispatch
    is cheap); falls back to the platform default otherwise.
    """

    name = "process"

    @staticmethod
    def _context():
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def available(self) -> bool:
        # Sandboxes without a working semaphore implementation (no
        # /dev/shm, seccomp'd sem_open) fail at pool construction; probe
        # cheaply so callers can fall back to serial instead of dying.
        try:
            self._context().Semaphore(1)
            return True
        except Exception:  # noqa: BLE001 — any failure means "unavailable"
            return False

    def _make_pool(self):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=self._context()
        )


def resolve_backend(
    name: str, workers: int
) -> tuple[ExecutionBackend, str | None]:
    """Instantiate the named backend, falling back to serial when it
    cannot run here.

    Returns ``(backend, fallback_reason)`` — ``fallback_reason`` is
    ``None`` when the requested backend was used, otherwise a short
    human-readable explanation of why serial was substituted.
    """
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "serial" or workers <= 1:
        return SerialBackend(), None
    if name == "thread":
        return ThreadBackend(workers), None
    backend = ProcessBackend(workers)
    if backend.available():
        return backend, None
    return (
        SerialBackend(),
        "process backend unavailable on this platform "
        "(multiprocessing semaphores cannot be created); ran serially",
    )
