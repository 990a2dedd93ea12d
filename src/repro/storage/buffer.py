"""Buffer pool: a bounded page cache between callers and the disk manager.

The paper's testbed relies on Berkeley DB's buffering; this module provides
the equivalent mechanism with explicit, inspectable behaviour.  Pages are
cached in frames, fetches pin frames (pinned frames are never evicted),
writes mark frames dirty, and evictions write dirty frames back.  The
replacement policy is LRU, held constant across algorithms as the paper
holds "the buffer management policy of the database system".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import BufferPoolError
from ..obs.trace import current_tracer
from .pager import DiskManager

__all__ = ["BufferStats", "Frame", "BufferPool"]


@dataclass
class BufferStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> "BufferStats":
        """Return an independent copy of the current counters."""
        return BufferStats(
            self.hits, self.misses, self.evictions, self.dirty_writebacks
        )

    def delta(self, earlier: "BufferStats") -> "BufferStats":
        """Return the counter increments since ``earlier``."""
        return BufferStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.dirty_writebacks - earlier.dirty_writebacks,
        )


class Frame:
    """One cached page: mutable data plus pin/dirty bookkeeping."""

    __slots__ = ("page_id", "data", "pin_count", "dirty")

    def __init__(self, page_id: int, data: bytes):
        self.page_id = page_id
        self.data = bytearray(data)
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """Bounded LRU page cache with pin/unpin semantics.

    Typical usage::

        frame = pool.fetch(page_id)       # pinned on return
        ... read or mutate frame.data ...
        pool.unpin(page_id, dirty=True)   # eligible for eviction again

    The pool writes dirty pages back on eviction and on :meth:`flush_all`.
    """

    def __init__(self, disk: DiskManager, capacity: int = 256):
        if capacity < 1:
            raise BufferPoolError(f"buffer pool capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferStats()
        # Least recently used first: every access moves a frame to the end.
        self._frames: OrderedDict[int, Frame] = OrderedDict()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def memory_bytes(self) -> int:
        """Approximate memory footprint of cached page data."""
        return len(self._frames) * self.disk.payload_size

    def new_page(self) -> Frame:
        """Allocate a page on disk and return its pinned, zeroed frame."""
        page_id = self.disk.allocate_page()
        self._make_room()
        frame = Frame(page_id, bytes(self.disk.payload_size))
        frame.pin_count = 1
        frame.dirty = True
        self._frames[page_id] = frame
        return frame

    def fetch(self, page_id: int) -> Frame:
        """Return the frame for ``page_id``, pinned; reads from disk on miss."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
        else:
            self.stats.misses += 1
            self._make_room()
            # A miss is the interesting event (it is the disk read); a
            # per-hit span would swamp any trace for no information.
            tracer = current_tracer()
            if tracer.enabled:
                with tracer.span("buffer.miss", page_id=page_id):
                    frame = Frame(page_id, self.disk.read_page(page_id))
            else:
                frame = Frame(page_id, self.disk.read_page(page_id))
            self._frames[page_id] = frame
        frame.pin_count += 1
        return frame

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` schedules a writeback."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"unpin of page {page_id} not in pool")
        if frame.pin_count <= 0:
            raise BufferPoolError(f"unpin of unpinned page {page_id}")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True

    def free_page(self, page_id: int) -> None:
        """Drop any cached frame (discarding its contents) and return the
        page to the disk manager's free list.

        Used when tearing down temporary structures such as partition
        B-trees; the page's data is dead, so no writeback happens.
        """
        frame = self._frames.pop(page_id, None)
        if frame is not None and frame.pin_count:
            raise BufferPoolError(f"cannot free pinned page {page_id}")
        self.disk.free_page(page_id)

    def flush_page(self, page_id: int) -> None:
        """Write one dirty cached page back to disk (no-op if clean)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self.disk.write_page(page_id, bytes(frame.data))
            frame.dirty = False

    def flush_all(self) -> None:
        """Write every dirty cached page back to disk."""
        for frame in self._frames.values():
            if frame.dirty:
                self.disk.write_page(frame.page_id, bytes(frame.data))
                frame.dirty = False

    def drop_all(self) -> None:
        """Flush everything and empty the cache (simulates a cold cache)."""
        self.flush_all()
        for frame in self._frames.values():
            if frame.pin_count:
                raise BufferPoolError(
                    f"cannot drop pool: page {frame.page_id} still pinned"
                )
        self._frames.clear()

    def invalidate(self) -> None:
        """Empty the cache, discarding dirty data and pins.

        This deliberately loses writes: it is the transaction-rollback
        path, where every cached frame may hold uncommitted data that
        must never reach disk.  Callers re-fetch everything afterwards.
        """
        self._frames.clear()

    def _make_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        victim_id = self._pick_victim()
        self._evict(victim_id)

    def _pick_victim(self) -> int:
        for page_id, frame in self._frames.items():
            if frame.pin_count == 0:
                return page_id
        raise BufferPoolError("all buffer frames are pinned")

    def _evict(self, page_id: int) -> None:
        # Write back BEFORE dropping the frame: if the disk write fails the
        # dirty data must stay cached, otherwise a transient I/O error
        # would silently discard committed writes.
        frame = self._frames[page_id]
        if frame.dirty:
            self.disk.write_page(page_id, bytes(frame.data))
            self.stats.dirty_writebacks += 1
        del self._frames[page_id]
        self.stats.evictions += 1
