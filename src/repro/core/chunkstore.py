"""In-memory chunk ring buffer used for failure recovery (§III-D2).

Every Kascade node keeps the most recent stream chunks in memory so that,
when its downstream neighbour dies, it can replay the bytes the replacement
neighbour is missing.  The buffer is a *recycled* window over the stream:
appending beyond the capacity evicts the oldest chunks, which is exactly
why the protocol needs the FORGET message — a request below
:attr:`ChunkRingBuffer.min_offset` can no longer be served locally.

The buffer stores contiguous stream data only; offsets are absolute
positions in the broadcast stream.

Zero-copy contract: chunks are retained exactly as handed in — ``bytes``
or ``memoryview`` — without a defensive copy, and a
:class:`~repro.core.framing.Run` (a relayed burst, a head's segment) as
the one value it is: one entry for the whole run, trimmed chunk by
chunk from its front as the window moves on, its views made only when a
replay asks.  The runtime passes views into pooled receive buffers;
holding them here is what keeps those buffers from being recycled while
a replay might still need them (see :mod:`repro.core.buffers` and
``docs/PROTOCOL.md`` §10).  A caller that appends a view therefore
promises not to mutate the viewed bytes for as long as they sit inside
the window.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .errors import ChunkStoreError
from .framing import Run

Chunk = Union[bytes, memoryview]

#: Compact the backing lists once this many evicted slots accumulate (and
#: they outnumber the live entries) — keeps append amortised O(1).
_COMPACT_THRESHOLD = 64


class ChunkRingBuffer:
    """A bounded window of the most recent contiguous stream bytes.

    Parameters
    ----------
    capacity:
        Maximum number of buffered bytes.  Appends beyond this evict whole
        chunks from the oldest end (chunks are never split on eviction,
        mirroring the chunk-granular recycling of the paper's tool).
    start_offset:
        Absolute stream offset of the first byte that will be appended.
    """

    def __init__(self, capacity: int, start_offset: int = 0) -> None:
        if capacity <= 0:
            raise ChunkStoreError(f"capacity must be positive, got {capacity}")
        if start_offset < 0:
            raise ChunkStoreError(f"negative start offset: {start_offset}")
        self._capacity = capacity
        # Parallel arrays indexed together, one slot per chunk or run
        # (its first live byte, its data); slots below _first are
        # evicted (data refs dropped eagerly so pooled buffers can
        # recycle).
        self._offsets: List[int] = []
        self._data: List[Optional[Union[Chunk, Run]]] = []
        self._first = 0  # index of the oldest live entry
        #: Oldest stream offset still buffered (the FORGET(o) value) and
        #: one past the newest buffered byte.  Plain attributes, read on
        #: every chunk of every simulated transfer — do not assign from
        #: outside this class.
        self.min_offset = start_offset
        self.end_offset = start_offset

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def buffered_bytes(self) -> int:
        return self.end_offset - self.min_offset

    def __len__(self) -> int:
        return self.buffered_bytes

    def covers(self, offset: int) -> bool:
        """Whether the buffer can serve the stream starting at ``offset``.

        ``offset == end_offset`` counts as covered: the caller can resume
        streaming live data from there with no replay at all.
        """
        return self.min_offset <= offset <= self.end_offset

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def append(self, data: Chunk) -> None:
        """Append the next stream chunk: :meth:`extend` with a run of one."""
        self.extend((data,))

    def extend(self, chunks: Union[Run, Iterable[Chunk]]) -> None:
        """Append consecutive stream chunks, then evict old ones once.

        Chunks are retained **by reference** (no copy): callers handing
        in a memoryview of a pooled buffer must not recycle the underlying
        bytes while the chunk remains in the window — the runtime's buffer
        pool guarantees this by probing for live views before reuse.  A
        :class:`~repro.core.framing.Run` is stored as one entry.

        Empty chunks are skipped.  A chunk larger than the whole capacity
        is rejected (chunk_size > buffer_bytes, a configuration error: such
        a node cannot take part in recovery), those before it stay stored.
        """
        capacity = self._capacity
        offsets, data = self._offsets, self._data
        end = self.end_offset
        run = chunks.__class__ is Run
        try:
            for chunk in (chunks,) if run else chunks:
                size = chunk.size if run else len(chunk)
                if size > capacity:
                    raise ChunkStoreError(f"chunk of {size} bytes exceeds "
                                          f"buffer capacity {capacity}")
                if size:
                    offsets.append(end)
                    data.append(chunk)
                    end += chunk.nbytes if run else size
        finally:
            self.end_offset = end
            if end - self.min_offset > capacity:
                self._evict()

    def _evict(self) -> None:
        """Drop the oldest chunks until the window fits the capacity: as
        many whole chunks of the oldest entry as it takes, the entry once
        it has none left."""
        entries = self._data
        first = self._first
        low = self.min_offset
        overflow = self.end_offset - self._capacity
        while low < overflow:
            old = entries[first]
            if old.__class__ is Run:
                skip = -((low - overflow) // old.size)  # chunks, rounded up
                if skip < old.count:
                    entries[first] = old.tail(skip)
                    low += skip * old.size
                    self._offsets[first] = low
                    break
            entries[first] = None  # drop the ref *now*
            first += 1
            low += old.nbytes if old.__class__ is Run else len(old)
        self._first = first
        self.min_offset = low
        if first >= _COMPACT_THRESHOLD and first * 2 >= len(entries):
            del self._offsets[:first]
            del entries[:first]
            self._first = 0

    def _start_index(self, offset: int) -> int:
        """Index of the chunk containing ``offset`` (binary search)."""
        idx = bisect_right(self._offsets, offset, lo=self._first) - 1
        return max(idx, self._first)

    def read_from(self, offset: int, limit: int | None = None) -> bytes:
        """Return buffered bytes from ``offset`` up to the buffer end.

        ``limit`` caps the returned length.  Raises :class:`ChunkStoreError`
        if ``offset`` precedes :attr:`min_offset` (the FORGET case) or lies
        beyond the buffered end.
        """
        want = self.end_offset - offset
        if limit is not None:
            want = min(want, limit)
        parts = []
        for _offset, piece in self.iter_chunks_from(offset):
            if want <= 0:
                break
            parts.append(piece[:want])
            want -= len(parts[-1])
        return b"".join(parts)

    def iter_chunks_from(self, offset: int) -> Iterator[Tuple[int, Chunk]]:
        """Yield ``(offset, data)`` pieces from ``offset`` to the end.

        Pieces follow the stored chunk boundaries (the first may be a chunk
        suffix), so a recovering sender can replay them as DATA frames of
        familiar sizes.  Pieces are served zero-copy: a stored memoryview
        is yielded as (a slice of) itself, a run's chunks as views of its
        buffer.
        """
        if not self.covers(offset):
            raise ChunkStoreError(
                f"offset {offset} outside buffered window "
                f"[{self.min_offset}, {self.end_offset}]"
            )
        for idx in range(self._start_index(offset), len(self._data)):
            entry_off, entry = self._offsets[idx], self._data[idx]
            if entry.__class__ is Run:
                size = entry.size
                skip = max(0, (offset - entry_off) // size)
                pieces = zip(range(entry_off + skip * size,
                                   entry_off + entry.nbytes, size),
                             entry.tail(skip))
            else:
                pieces = ((entry_off, entry),)
            for chunk_off, chunk in pieces:
                if chunk_off >= offset:
                    yield chunk_off, chunk
                elif chunk_off + len(chunk) > offset:
                    yield offset, chunk[offset - chunk_off:]

    def note_advance(self, size: int) -> None:
        """Advance the stream position by ``size`` bytes retaining nothing.

        The kernel-path relay (``os.splice``) forwards payload bytes that
        never enter userspace, so there is nothing to buffer: the window
        advances and immediately empties (``min_offset == end_offset``).
        Any later replay request below the live edge is then answered
        with FORGET and recovered through the head via PGET — the
        protocol's degraded-but-correct recovery route.
        """
        if size < 0:
            raise ChunkStoreError(f"negative advance: {size}")
        if size == 0:
            return
        self.clear()
        self.end_offset += size
        self.min_offset = self.end_offset

    def clear(self) -> None:
        """Drop all buffered data, keeping the stream position."""
        self._offsets.clear()
        self._data.clear()
        self._first = 0
        self.min_offset = self.end_offset
