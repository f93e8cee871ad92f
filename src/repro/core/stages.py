"""Staged I/O: overlap storage with the network data plane.

The paper's pipelining argument (§III-A) is that every node overlaps
*reception, storage and forwarding*, so chain throughput is governed by
``1/max(t_recv, t_write, t_send)`` rather than the serialized sum.  The
runtime's node loop is single-threaded, which serializes the three: a
relay that blocks in ``sink.write_chunk()`` is neither receiving nor
forwarding, and a head that blocks in ``source.read_chunk()`` is not
sending.  This module supplies the two decoupling stages:

* :class:`SinkWriter` wraps any :class:`~repro.core.sinks.Sink` with a
  bounded background writeback queue, so the relay hands a chunk to the
  writer and immediately returns to the socket.  Backpressure (a full
  queue) still blocks the relay — the queue bounds memory, it does not
  hide a sink that is slower than the wire indefinitely.
* :class:`ReadAheadSource` wraps a blocking
  :class:`~repro.core.sources.Source` with a small prefetch queue so the
  head's file reads overlap its vectored sends.

Buffer ownership (see docs/PROTOCOL.md §10): runtime payloads are
memoryviews into pooled receive buffers.  Queueing such a view *pins*
the pool segment until the background write completes.  The writer
therefore takes its own ``memoryview`` export per queued chunk (pool
reuse probing sees the segment as busy) and releases it after the inner
write; past a configurable pinned-byte budget it copies the chunk
instead, trading one memcpy for pool capacity.

Error model (§III-D): a failed background write is *unrecoverable* for
the node.  The worker parks the exception and every subsequent
``write_chunk``/``finish`` raises it as-is, which the runtime maps to a
hard abort (QUIT both neighbours).  ``abort()`` discards the queue and
never deadlocks, even with a worker stuck in a blocking sink write.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from .perfstats import PerfStats, get_stats
from .sinks import Sink
from .sources import Source
from .tracing import NULL_TRACER, STALL

if TYPE_CHECKING:
    from .framing import Payload

__all__ = ["SinkWriter", "ReadAheadSource"]


class SinkWriter(Sink):
    """Background writeback stage in front of a slower :class:`Sink`.

    ``write_chunk`` enqueues the chunk for a daemon worker thread and
    returns; the caller only blocks when the queue is full (``depth``
    chunks) — that wait is counted as ``sink_stall_s`` in perfstats and
    traced as a ``STALL`` event with detail ``"sink-writeback"``.

    Parameters
    ----------
    inner:
        The sink actually persisting data.  The worker thread is its
        only writer once construction returns; ``finish``/``abort`` on
        the inner sink run on the caller's thread after the worker has
        been joined.
    depth:
        Maximum queued chunks before ``write_chunk`` blocks (≥ 1).
    pin_budget:
        Pinned-byte ceiling.  Chunks are queued as zero-copy memoryview
        exports while the queued pinned bytes stay under this budget;
        beyond it they are copied (``stats.copied`` accounts the copy)
        so the receive pool is not starved by a slow disk.
    stats / tracer / owner:
        Observability plumbing; default to the process-global counters
        and the no-op tracer.
    """

    def __init__(
        self,
        inner: Sink,
        *,
        depth: int = 8,
        pin_budget: int = 32 * 1024 * 1024,
        stats: Optional[PerfStats] = None,
        tracer=NULL_TRACER,
        owner: str = "",
    ) -> None:
        if depth < 1:
            raise ValueError(f"writeback depth must be >= 1, got {depth}")
        self._inner = inner
        self._depth = depth
        self._pin_budget = max(0, pin_budget)
        self._stats = stats if stats is not None else get_stats()
        self._tracer = tracer
        self._owner = owner

        # (buffer, pinned_bytes): pinned_bytes > 0 marks a memoryview
        # export the worker must release; 0 marks an owned bytes copy.
        self._queue: Deque[Tuple[object, int]] = deque()
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)  # worker waits
        self._writable = threading.Condition(self._lock)  # producer waits
        self._pinned = 0
        self._error: Optional[BaseException] = None
        self._finishing = False
        self._aborting = False
        self.bytes_written = 0
        self._worker = threading.Thread(
            target=self._run, name=f"sink-writer-{owner or hex(id(self))}",
            daemon=True,
        )
        self._worker.start()

    # -- producer side (the relay thread) --------------------------------

    def write_chunk(self, data) -> None:
        stats = self._stats
        with self._lock:
            self._raise_pending_locked()
            if len(self._queue) >= self._depth:
                # Backpressure: the sink is slower than the wire and the
                # bounded queue is full.  This is the moment overlap runs
                # out, so make it observable before blocking.
                if self._tracer.enabled:
                    self._tracer.emit(STALL, self._owner,
                                      detail="sink-writeback")
                t0 = time.monotonic()
                while len(self._queue) >= self._depth:
                    if self._aborting:
                        return
                    self._raise_pending_locked()
                    self._writable.wait(0.5)
                stats.sink_stalled(time.monotonic() - t0)
            if self._aborting:
                return
            n = len(data)
            if self._pinned + n <= self._pin_budget:
                # Zero-copy: our own memoryview export pins the pooled
                # segment (pool reuse probing sees an active export)
                # until the worker releases it after the inner write.
                self._queue.append((memoryview(data), n))
                self._pinned += n
            else:
                stats.copied(n)
                self._queue.append((bytes(data), 0))
            stats.note_writeback_depth(len(self._queue))
            self._readable.notify()

    def finish(self) -> None:
        """Drain the queue, join the worker, then finish the inner sink."""
        with self._lock:
            self._raise_pending_locked()
            self._finishing = True
            self._readable.notify_all()
        self._worker.join()
        with self._lock:
            self._raise_pending_locked()
        self._inner.finish()

    def detach(self) -> Sink:
        """Drain the queue and stop the worker *without* finishing the
        inner sink; returns the inner sink, still open.

        This is the failover hand-off: a receiver being promoted (or
        re-wired under a new head) must not lose queued chunks, but its
        sink has to stay open so the resumed transfer keeps appending to
        the same file/hash.  After ``detach`` this writer is spent — wrap
        the returned sink in a fresh :class:`SinkWriter` to resume
        background writeback.
        """
        with self._lock:
            self._raise_pending_locked()
            self._finishing = True
            self._readable.notify_all()
        self._worker.join()
        with self._lock:
            self._raise_pending_locked()
        return self._inner

    def abort(self) -> None:
        """Discard queued chunks and tear down; never deadlocks.

        The queue is emptied by *this* thread (so a full queue cannot
        wedge the worker's producer-side peers), and ``inner.abort()``
        runs even if the worker is stuck in a blocking write — closing
        the underlying file/pipe is what unblocks it.
        """
        self._discard_and_stop(self._inner.abort)

    def close(self) -> None:
        """The owner died mid-stream: queued chunks are lost like a dead
        process's unwritten buffers, the worker stops, and the inner
        sink is closed as it stands (:meth:`Sink.close`)."""
        self._discard_and_stop(self._inner.close)

    def _discard_and_stop(self, settle_inner) -> None:
        with self._lock:
            self._aborting = True
            while self._queue:
                buf, pinned = self._queue.popleft()
                if pinned:
                    buf.release()
                    self._pinned -= pinned
            self._readable.notify_all()
            self._writable.notify_all()
        self._worker.join(timeout=1.0)
        settle_inner()
        self._worker.join(timeout=1.0)

    def preallocate(self, size: int) -> None:
        self._inner.preallocate(size)

    @property
    def queue_depth(self) -> int:
        """Chunks currently queued (diagnostic)."""
        with self._lock:
            return len(self._queue)

    @property
    def pinned_bytes(self) -> int:
        """Bytes currently pinned in pooled buffers (diagnostic)."""
        with self._lock:
            return self._pinned

    # -- worker side -----------------------------------------------------

    def _raise_pending_locked(self) -> None:
        # The parked error is deliberately NOT cleared: a dead sink stays
        # dead, and every later call must keep failing the same way.
        if self._error is not None:
            raise self._error

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue:
                    if self._finishing or self._aborting:
                        return
                    self._readable.wait()
                buf, pinned = self._queue.popleft()
                self._writable.notify()
            try:
                self._inner.write_chunk(buf)
                self.bytes_written += len(buf)
            except BaseException as exc:  # parked; surfaced to the producer
                with self._lock:
                    self._error = exc
                    while self._queue:
                        qbuf, qpinned = self._queue.popleft()
                        if qpinned:
                            qbuf.release()
                            self._pinned -= qpinned
                    if pinned:
                        buf.release()
                        self._pinned -= pinned
                    self._readable.notify_all()
                    self._writable.notify_all()
                return
            if pinned:
                with self._lock:
                    buf.release()
                    self._pinned -= pinned


class ReadAheadSource(Source):
    """Prefetch wrapper overlapping source reads with the send path.

    A daemon worker keeps up to ``depth`` chunks of the size first
    requested queued ahead of the consumer.  A ``read_chunk`` satisfied
    from the queue counts as a ``readahead_hit``; one that has to wait
    for the worker counts as a miss.  The worker starts lazily on the
    first read so the chunk size matches what the head actually uses.

    ``read_range`` (PGET service) and ``fileno`` delegate to the inner
    source untouched — prefetching only concerns the sequential cursor.
    """

    def __init__(
        self,
        inner: Source,
        *,
        depth: int = 2,
        stats: Optional[PerfStats] = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"read-ahead depth must be >= 1, got {depth}")
        self._inner = inner
        self._depth = depth
        self._stats = stats if stats is not None else get_stats()
        self.kind = inner.kind
        self.blocking_io = getattr(inner, "blocking_io", True)

        # Blocks are whatever the inner source hands out — ``bytes`` or
        # views pinning a pooled segment — and are only ever sliced.
        self._queue: Deque[Payload] = deque()
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)
        self._writable = threading.Condition(self._lock)
        self._chunk_size = 0
        self._eof = False
        self._stopped = False
        self._error: Optional[BaseException] = None
        #: Read but not yet served: what is left of a block when a caller
        #: shrinks its chunk size, and what ``stop()`` found queued.
        self._pending: Deque[Payload] = deque()
        self._worker: Optional[threading.Thread] = None

    # -- consumer side ---------------------------------------------------

    def read_chunk(self, size: int) -> Payload:
        if self._pending:
            return self._serve(self._pending.popleft(), size)
        if self._worker is None:
            if self._stopped:
                return self._inner.read_chunk(size)
            self._chunk_size = size
            self._worker = threading.Thread(
                target=self._run, name=f"readahead-{id(self):x}", daemon=True
            )
            self._worker.start()
        with self._lock:
            if self._queue:
                self._stats.readahead_hits += 1
            else:
                self._stats.readahead_misses += 1
                while not self._queue:
                    if self._error is not None:
                        err, self._error = self._error, None
                        raise err
                    if self._eof or self._stopped:
                        return b""
                    self._readable.wait()
            block = self._queue.popleft()
            self._writable.notify()
        return self._serve(block, size)

    def _serve(self, block: Payload, size: int) -> Payload:
        if len(block) <= size:
            return block
        # Caller shrank its chunk size mid-stream: serve from the block.
        self._pending.appendleft(block[size:])
        return block[:size]

    def read_range(self, offset: int, size: int) -> Payload:
        return self._inner.read_range(offset, size)

    def stop(self) -> None:
        """Stop prefetching; queued chunks still drain via ``read_chunk``."""
        worker = self._worker
        with self._lock:
            self._stopped = True
            self._writable.notify_all()
            self._readable.notify_all()
        if worker is not None:
            worker.join()
            # Queued-but-unread chunks become _pending so a re-started
            # consumer (or passthrough reads) never lose bytes.
            with self._lock:
                self._pending.extend(self._queue)
                self._queue.clear()
            self._worker = None

    def close(self) -> None:
        self.stop()
        self._inner.close()

    def __getattr__(self, name: str):
        # Delegate capabilities the runtime probes for (fileno, size...).
        return getattr(self._inner, name)

    # -- worker side -----------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._lock:
                while len(self._queue) >= self._depth:
                    if self._stopped:
                        return
                    self._writable.wait()
                if self._stopped:
                    return
            try:
                block = self._inner.read_chunk(self._chunk_size)
            except BaseException as exc:
                with self._lock:
                    self._error = exc
                    self._readable.notify_all()
                return
            with self._lock:
                if block:
                    self._queue.append(block)
                else:
                    self._eof = True
                self._readable.notify_all()
                if not block:
                    return
