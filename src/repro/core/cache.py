"""Content-addressed chunk cache for the broadcast-as-a-service daemon.

A long-lived fleet agent (:mod:`repro.daemon`) serves many broadcast
sessions from one process.  Different sessions frequently carry the
*same* artifact — a repeated release push, a late joiner that already
holds it — and resending every byte down the chain is pure waste.  This module is the local store that turns those
repeats into cache traffic:

* entries are keyed by **content**, ``(artifact digest, chunk index)``,
  never by session or path, so two sessions broadcasting byte-identical
  payloads share entries no matter what the files were called;
* the cache owns its memory: :meth:`ChunkCache.put` copies the chunk
  out of the caller's buffer, because the data plane's receive buffers
  are pooled and recycled (the PR 1 ring-retention ownership rules) —
  a by-reference entry would alias a buffer the ring is free to reuse.
  Pinning is therefore about *eviction*, not borrowing: a pinned
  artifact (one mid-replay, say) cannot be evicted from under its
  reader;
* eviction is byte-bounded LRU over unpinned entries.  ``max_bytes`` is
  a hard ceiling; a chunk larger than the whole budget is simply not
  cached (never an error — the cache is an optimisation, missing it
  only costs wire bytes).

Counters (``cache_hits`` / ``cache_misses`` / ``bytes_from_cache`` /
``cache_evictions``) land in :mod:`repro.core.perfstats` so a repeat
broadcast can *prove* it was served locally.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Set, Tuple

from .errors import KascadeError
from .perfstats import PerfStats, get_stats
from .record import Frozen
from .sinks import Sink

__all__ = ["ArtifactMeta", "CacheTapSink", "ChunkCache", "chunk_count"]


def chunk_count(size: int, chunk_size: int) -> int:
    """How many chunks a ``size``-byte artifact occupies."""
    if chunk_size <= 0:
        raise KascadeError(f"chunk_size must be positive, got {chunk_size}")
    return max(0, (size + chunk_size - 1) // chunk_size)


class ArtifactMeta(Frozen):
    """Identity of one broadcast payload: digest + geometry.

    ``digest`` is the SHA-256 of the whole stream (hex), the same value
    a clean receiver's :class:`~repro.core.sinks.HashingSink` computes
    — which is what makes "served from cache" verifiable end to end.
    """

    __slots__ = ("digest", "size", "chunk_size")

    def __init__(self, digest: str, size: int, chunk_size: int) -> None:
        self._init(digest, size, chunk_size)

    @property
    def chunks(self) -> int:
        return chunk_count(self.size, self.chunk_size)

    def chunk_len(self, index: int) -> int:
        """Byte length of chunk ``index`` (the tail chunk may be short)."""
        if index < 0 or index >= self.chunks:
            raise KascadeError(
                f"chunk index {index} outside artifact of {self.chunks} chunks"
            )
        return min(self.chunk_size, self.size - index * self.chunk_size)

    def to_wire(self) -> dict:
        return {"digest": self.digest, "size": self.size,
                "chunk_size": self.chunk_size}

    @classmethod
    def from_wire(cls, d: dict) -> "ArtifactMeta":
        return cls(digest=str(d["digest"]), size=int(d["size"]),
                   chunk_size=int(d["chunk_size"]))


class ChunkCache:
    """Bounded, thread-safe, content-addressed chunk store.

    Thread-safe because one fleet agent runs many concurrent session
    workers, all hitting the same cache.

    Parameters
    ----------
    max_bytes:
        Ceiling for cached payload bytes.  ``0`` disables the cache
        entirely (every ``put`` is dropped, every ``get`` misses) —
        the off switch costs one branch, not a code path.
    stats:
        :class:`~repro.core.perfstats.PerfStats` to count into
        (defaults to the process-wide instance).
    """

    def __init__(self, max_bytes: int,
                 stats: Optional[PerfStats] = None) -> None:
        if max_bytes < 0:
            raise KascadeError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._stats = stats if stats is not None else get_stats()
        self._lock = threading.Lock()
        #: LRU order: oldest first.  Value is the owned chunk payload.
        self._entries: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._pinned: Set[str] = set()  # artifact digests exempt from eviction
        self._by_artifact: Dict[str, Set[int]] = {}
        self._bytes = 0
        self._evictions = 0

    # -- accounting ------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- writes ----------------------------------------------------------

    def put(self, digest: str, index: int, data, *,
            missed: bool = False) -> bool:
        """Store chunk ``index`` of artifact ``digest``; True if kept.

        Copies ``data`` (any buffer) into cache-owned bytes — see the
        module docs for why by-reference retention would be unsound
        here.  A duplicate put refreshes recency but does not copy
        again.  Oversized chunks (bigger than the whole budget) are
        declined, never raised.  ``missed``: it came over the wire for
        want of a cached copy — one miss, as a :meth:`get` that found none.
        """
        if missed:
            self._stats.cache_misses += 1
        size = len(data)
        if size > self.max_bytes:
            return False
        key = (digest, index)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return True
            self._evict_for(size)
            if self._bytes + size > self.max_bytes:
                return False  # everything evictable is pinned
            self._entries[key] = bytes(data)
            self._bytes += size
            self._by_artifact.setdefault(digest, set()).add(index)
            return True

    def _evict_for(self, incoming: int) -> None:
        """Drop oldest unpinned entries until ``incoming`` bytes fit."""
        if self._bytes + incoming <= self.max_bytes:
            return
        for key in list(self._entries):
            if self._bytes + incoming <= self.max_bytes:
                return
            digest, index = key
            if digest in self._pinned:
                continue
            data = self._entries.pop(key)
            self._bytes -= len(data)
            self._evictions += 1
            self._stats.cache_evictions += 1
            chunks = self._by_artifact.get(digest)
            if chunks is not None:
                chunks.discard(index)
                if not chunks:
                    del self._by_artifact[digest]

    # -- reads -----------------------------------------------------------

    def get(self, digest: str, index: int) -> Optional[bytes]:
        """The cached chunk, or ``None`` — counting the hit or miss."""
        key = (digest, index)
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self._stats.cache_misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.cache_hit(len(data))
            return data

    def peek(self, digest: str, index: int) -> bool:
        """Presence check with no counter or recency side effects."""
        with self._lock:
            return (digest, index) in self._entries

    def artifact_chunks(self, digest: str) -> Set[int]:
        """Indices cached for ``digest`` (a copy; safe to mutate)."""
        with self._lock:
            return set(self._by_artifact.get(digest, ()))

    def has_artifact(self, digest: str, chunks: int) -> bool:
        """True when every one of the artifact's ``chunks`` is cached."""
        if chunks == 0:
            return True
        with self._lock:
            have = self._by_artifact.get(digest)
            return have is not None and len(have) == chunks

    # -- pinning ---------------------------------------------------------

    def pin_artifact(self, digest: str) -> None:
        """Exempt every chunk of ``digest`` from eviction (e.g. while a
        session replays it).  Pins nest as a set, not a count —
        idempotent."""
        with self._lock:
            self._pinned.add(digest)

    def unpin_artifact(self, digest: str) -> None:
        with self._lock:
            self._pinned.discard(digest)


class CacheTapSink(Sink):
    """Sink wrapper feeding a :class:`ChunkCache` on the receive path.

    Sits outermost in a receiver's sink chain so it observes the stream
    in global order, slices it on chunk boundaries, and inserts each
    complete chunk under ``(artifact.digest, index)`` — counted as a
    cache miss: it had to come over the wire — making this node
    cache-warm for repeat broadcasts *while the push is still in
    flight*.  Pass-through is unconditional: caching
    never changes what reaches the inner sink.
    """

    def __init__(self, inner, cache: ChunkCache,
                 artifact: ArtifactMeta) -> None:
        self.inner = inner
        self.cache = cache
        self.artifact = artifact
        self._offset = 0
        self._pending = bytearray()  # partial chunk awaiting its boundary

    def write_chunk(self, data) -> None:
        art = self.artifact
        self._pending += data
        # _offset tracks the start of _pending in the stream; flush every
        # complete chunk (and the short tail chunk once the stream ends).
        while True:
            index = self._offset // art.chunk_size
            if index >= art.chunks:
                break
            want = art.chunk_len(index)
            if len(self._pending) < want:
                break
            piece = bytes(self._pending[:want])
            del self._pending[:want]
            self._offset += want
            self.cache.put(art.digest, index, piece, missed=True)
        self.inner.write_chunk(data)

    def reserve(self) -> None:
        self.inner.reserve()

    def finish(self) -> None:
        self.inner.finish()

    def abort(self) -> None:
        self.inner.abort()

    def close(self) -> None:
        self.inner.close()
