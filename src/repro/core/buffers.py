"""Segments: the memory a stream's bytes land in, touched once.

The runtime receive path (:class:`repro.runtime.transport.SocketStream`)
reads with ``recv_into`` straight into a *segment* and hands payloads out
as :class:`memoryview` slices — to the ring buffer, the sink, and the
vectored send queue — without ever copying them; a file source
(:class:`repro.core.sources.FileSource`) ``readinto``\\ s one and hands out
a view the same way.  That raises the one hard question of any zero-copy
design: *when may a segment be reused?*

A segment is an anonymous private map (``mmap.mmap(-1, n)``), not a heap
object: it never meets the allocator's arenas, the part of it no byte
ever lands in is never backed by memory, and dropping the last reference
unmaps it.  A map with live ``memoryview`` exports refuses to be resized
(``BufferError``), which makes "is anyone still holding a view into this
segment?" directly observable: :func:`_has_exports` asks for a resize to
the size the map already has — a sub-microsecond no-op when nobody is,
never a copy — and only a segment whose every view has been
garbage-collected or released is handed out again.  Consumers therefore
need no explicit release contract — they hold views exactly as long as
they need them (the ring buffer until eviction, the send queue until
flushed) and drop them naturally.

The trade-off is granularity: one 4 KiB view pins its whole segment.
Two bounds contain that.  A :class:`BufferPool` — one per stream, used
by one thread, lock-free — keeps at most ``max_idle``
maybe-still-pinned segments of its own.  What it keeps beyond that, and
everything it holds when its stream closes, goes to the process-wide
*reserve*: at most :data:`RESERVE_BYTES` of segments, pinned or not,
probed on the way out exactly like idle ones, so the next stream's
memory is already mapped and warm (a first touch costs more than ten
times a warm one).  The reserve is touched when a pool misses, spills
or closes — never per frame — and is what a lock protects.
"""

from __future__ import annotations

import mmap
import threading
from collections import deque
from typing import Deque, Iterable, List, Optional, Union

from .perfstats import PerfStats, get_stats

#: Default segment size: large enough to hold dozens of small-chunk frames
#: per buffer rotation, small enough that a pinned segment is cheap.
DEFAULT_SEGMENT = 256 * 1024

#: Ceiling of the process-wide reserve: about one and a half node windows
#: (ring 8 + writeback ≤ 8 + in flight) of the default 1 MiB chunks.
RESERVE_BYTES = 32 * 1024 * 1024

#: How many pinned segments a miss looks past before it maps instead.
_TAKE_PROBES = 8

#: Segment sizes are whole pages once a pool has ratcheted.
PAGE = mmap.PAGESIZE
_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS

#: What the pool hands out; a ``bytearray`` only ever comes from a caller.
Segment = Union[mmap.mmap, bytearray]


def _has_exports(buf: Segment) -> bool:
    """Whether any live memoryview still references ``buf``.

    Neither a map nor a ``bytearray`` with buffer exports can be resized.
    A map is asked for the size it has; a ``bytearray`` (the pool-less
    decoder's, a test's) is probed with an append/pop pair.  Contents,
    length and identity are untouched either way.
    """
    try:
        if isinstance(buf, bytearray):
            buf.append(0)
            buf.pop()
        else:
            buf.resize(len(buf))
    except BufferError:
        return True
    return False


class _Reserve:
    """Bounded FIFO of segments no stream owns, oldest (likeliest free)
    first; safe to use from any thread."""

    def __init__(self, ceiling: int) -> None:
        self.ceiling = ceiling
        self._lock = threading.Lock()
        self._segments: Deque[Segment] = deque()
        self._bytes = 0

    @property
    def held_bytes(self) -> int:
        return self._bytes

    def give(self, segments: Iterable[Segment]) -> None:
        """Take segments in, pinned or not, dropping the oldest held
        (and anything larger than the ceiling) to stay under it."""
        with self._lock:
            for seg in segments:
                self._segments.append(seg)
                self._bytes += len(seg)
            while self._bytes > self.ceiling:
                self._bytes -= len(self._segments.popleft())

    def take(self, size: int) -> Optional[Segment]:
        """The oldest free segment of exactly ``size`` bytes, if one of
        the :data:`_TAKE_PROBES` oldest of that size is free.

        Exactly, because a pool is to get what it would have mapped:
        sizes are few (the default, and one frame or block of a chunk
        size in use), and a control stream must not walk off with a data
        stream's warm megabyte.  The probes are few because views die in
        the order they were taken — behind a run of pinned segments come
        younger ones, pinned too — and a miss costs a map, not a walk
        through every ring in the process.
        """
        probes = _TAKE_PROBES
        with self._lock:
            for i, seg in enumerate(self._segments):
                if len(seg) == size:
                    if not _has_exports(seg):
                        del self._segments[i]
                        self._bytes -= size
                        return seg
                    probes -= 1
                    if not probes:
                        break
        return None

    def drain(self) -> None:
        """Let go of everything (tests start from a cold process)."""
        with self._lock:
            self._segments.clear()
            self._bytes = 0


_RESERVE = _Reserve(RESERVE_BYTES)


def reserve_bytes() -> int:
    """Bytes of segments the process-wide reserve holds right now."""
    return _RESERVE.held_bytes


def drain_reserve() -> None:
    """Unmap what the reserve holds: the next pools start cold."""
    _RESERVE.drain()


class BufferPool:
    """Recycles segments once no memoryview references them.

    Parameters
    ----------
    segment_size:
        Preferred segment size.  ``acquire(min_size)`` ratchets it up to
        ``min_size``, rounded to a page, when a single frame needs more,
        so a stream of 1 MiB chunks settles on segments of one frame.
    max_idle:
        How many returned-but-possibly-pinned segments the pool keeps
        for its own reuse probing; the oldest beyond that is spilled to
        the process-wide reserve.  ``0`` keeps none: every segment goes
        through the reserve, so threads sharing the pool share no list.
    stats:
        Counter sink; defaults to the process-global :func:`get_stats`.
    """

    def __init__(
        self,
        segment_size: int = DEFAULT_SEGMENT,
        *,
        max_idle: int = 16,
        stats: Optional[PerfStats] = None,
    ) -> None:
        if segment_size <= 0:
            raise ValueError(f"segment_size must be positive, got {segment_size}")
        self.segment_size = segment_size
        self.max_idle = max_idle
        self.stats = stats if stats is not None else get_stats()
        self._idle: List[Segment] = []

    def acquire(self, min_size: int = 0) -> Segment:
        """Return a segment of at least ``min_size`` (≥ ``segment_size``)
        bytes.

        Prefers an idle segment whose views are all gone, then one from
        the reserve; falls back to mapping.  The returned segment's
        *contents* are unspecified — callers track their own fill
        position.
        """
        if min_size > self.segment_size:
            # Ratchet: this stream carries frames bigger than the segment.
            self.segment_size = -(-min_size // PAGE) * PAGE
        for i, buf in enumerate(self._idle):
            # Idle segments from before a ratchet are too small now.
            if len(buf) >= self.segment_size and not _has_exports(buf):
                del self._idle[i]
                self.stats.pool_reuses += 1
                return buf
        size = self.segment_size
        buf = _RESERVE.take(size)
        if buf is not None:
            self.stats.pool_reuses += 1
            return buf
        self.stats.pool_allocations += 1
        self.stats.pool_bytes_mapped += size
        return mmap.mmap(-1, size, flags=_MAP_FLAGS)

    def recycle(self, buf: Segment) -> None:
        """Return a segment the producer is done filling.

        Views into it may still be alive; the segment only becomes
        reusable once :func:`_has_exports` clears at ``acquire`` time.
        What the pool does not keep goes to the reserve: an undersized
        segment (from before a segment-size ratchet), and past
        ``max_idle`` the oldest — in a FIFO the likeliest to be free
        already.
        """
        if self.max_idle > 0 and len(buf) >= self.segment_size:
            self._idle.append(buf)
            if len(self._idle) <= self.max_idle:
                return
            buf = self._idle.pop(0)
        _RESERVE.give((buf,))

    def close(self) -> None:
        """The stream is over: its idle segments go to the reserve."""
        idle, self._idle = self._idle, []
        if idle:  # a stream that never read has nothing to take the lock for
            _RESERVE.give(idle)

    @property
    def idle_buffers(self) -> int:
        """Segments currently held for reuse (pinned or not)."""
        return len(self._idle)
