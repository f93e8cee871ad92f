"""Staged I/O: overlap storage with the network data plane — when it pays.

Every node overlaps *reception, storage and forwarding* (§III-A), so a
chain moves at ``1/max(t_recv, t_write, t_send)``, not at their sum —
unless the node's one loop blocks in ``sink.write_chunk()`` or in
``source.read_chunk()``.  :class:`SinkWriter` (writeback behind a sink)
and :class:`ReadAheadSource` (prefetch in front of a blocking source)
each take one of those off the loop, onto a worker thread with a
bounded queue.

A thread costs a hand-off per chunk, which storage at memory speed never
earns back under one interpreter lock.  So both stages start *inline* —
the caller's thread does the work, timed — and start their thread only
once the stage, summed over the stream, has taken longer than the caller
spent between its calls; then they keep it for the stream.  A slow disk
or a slow ``-O`` command promotes; a page-cache file does not.

A queued chunk pins its pooled receive segment through the writer's own
``memoryview`` export until it is written, or is copied once the queue
pins more than a budget (docs/PROTOCOL.md §10).  A failed write is
unrecoverable for the node (§III-D): it raises — inline at once, from
the worker at the next call — and every later ``write_chunk``/``finish``
raises it again, which the runtime maps to a hard abort.  ``abort()``
never deadlocks, even with a worker stuck in a blocking sink write.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from .perfstats import PerfStats, get_stats
from .sinks import Sink
from .sources import Source
from .tracing import NULL_TRACER, STALL

if TYPE_CHECKING:
    from .framing import Payload

__all__ = ["SinkWriter", "ReadAheadSource"]

_THREADED = object()  # what ``_Stage._timed`` returns once threaded


class _Stage:
    """Inline until a thread pays, then a daemon worker (``_run``) and a
    queue of ≤ ``depth`` chunks: once time *inside* the stage's calls,
    summed over the stream, exceeds time *between* them.  No verdict
    comes before the sums cover :attr:`SETTLE`: a run's chunks are stored
    back to back, and over less than a few switch intervals the sums
    tell who held the interpreter lock, not what storage costs."""

    SETTLE = 4 * sys.getswitchinterval()

    def __init__(self, counter: str, depth: int, stats: Optional[PerfStats],
                 clock: Callable[[], float], thread_name: str) -> None:
        if depth < 1:
            raise ValueError(f"stage depth must be >= 1, got {depth}")
        self._counter = counter  # the PerfStats count of threads started
        self._depth = depth
        self._stats = stats if stats is not None else get_stats()
        self._clock = clock
        self._thread_name = thread_name
        self._inside = self._outside = 0.0
        self._left: Optional[float] = None  # the last inline call's end
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._readable = threading.Condition(self._lock)  # consumer waits
        self._writable = threading.Condition(self._lock)  # producer waits
        self._error: Optional[BaseException] = None
        self._worker: Optional[threading.Thread] = None

    def promote(self) -> None:
        """Hand the next call to the worker, whatever the rule says."""
        self._inside = math.inf

    def _timed(self, call, *args):
        """``call(*args)`` on the caller's thread — or, once the stage
        costs more than the work between its calls, start the worker
        instead."""
        now = self._clock()
        if self._left is not None:
            self._outside += now - self._left
        if self._inside > self._outside and (
                self._inside + self._outside >= self.SETTLE):
            self._worker = threading.Thread(
                target=self._run, name=self._thread_name, daemon=True)
            self._worker.start()
            self._stats.stage_threaded(self._counter)
            return _THREADED
        try:
            return call(*args)
        finally:
            self._left = self._clock()
            self._inside += self._left - now


class SinkWriter(_Stage, Sink):
    """Writeback stage in front of a possibly slower :class:`Sink`.

    Threaded, ``write_chunk`` enqueues the chunk and returns; the caller
    blocks only on a full queue (``depth`` chunks), counted as
    ``sink_stall_s`` and traced as a ``STALL`` with detail
    ``"sink-writeback"``.  The worker is then the inner sink's only
    writer; its ``finish``/``abort`` run on the caller's thread once the
    worker has been joined.  Chunks are queued as zero-copy exports
    while the queue pins at most ``pin_budget`` bytes, and copied beyond
    it (``stats.copied``) so a slow disk cannot starve the receive pool.
    ``stats``/``tracer``/``owner``/``clock`` default to the process-wide
    counters, the no-op tracer and ``time.perf_counter``.
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
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__("writeback_threads", depth, stats, clock,
                         f"sink-writer-{owner or hex(id(self))}")
        self._inner = inner
        self._pin_budget = max(0, pin_budget)
        self._tracer = tracer
        self._owner = owner
        # Queued: (buffer, pinned_bytes): pinned_bytes > 0 marks a
        # memoryview export the worker must release; 0 an owned copy.
        self._pinned = 0
        self._finishing = self._aborting = False
        self.bytes_written = 0

    # -- producer side (the relay thread) --------------------------------

    def write_chunk(self, data) -> None:
        self._raise_pending()
        if self._worker is None and not self._aborting:
            try:
                if self._timed(self._inner.write_chunk, data) is not _THREADED:
                    self.bytes_written += len(data)
                    return
            except BaseException as exc:
                self._error = exc
                raise
        stats = self._stats
        with self._lock:
            self._raise_pending()
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
                    self._raise_pending()
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
        self.detach().finish()

    def detach(self) -> Sink:
        """Drain the queue, stop the worker and return the inner sink
        still open — the failover hand-off: a receiver re-wired under a
        new head keeps appending to the same file/hash, through a fresh
        :class:`SinkWriter` (this one is spent)."""
        with self._lock:
            self._raise_pending()
            self._finishing = True
            self._readable.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._raise_pending()
        return self._inner

    def abort(self) -> None:
        """Discard queued chunks and tear down; never deadlocks: this
        thread empties the queue, and ``inner.abort()`` runs even with
        the worker stuck in a blocking write (closing the file or pipe
        is what unblocks it)."""
        self._discard_and_stop(self._inner.abort)

    def close(self) -> None:
        """The owner died mid-stream: queued chunks are lost like a dead
        process's unwritten buffers, the worker stops, and the inner
        sink is closed as it stands (:meth:`Sink.close`)."""
        self._discard_and_stop(self._inner.close)

    def _discard_and_stop(self, settle_inner) -> None:
        with self._lock:
            self._aborting = True
            self._drop_queue_locked()
            self._readable.notify_all()
            self._writable.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=1.0)
        settle_inner()
        if self._worker is not None:
            self._worker.join(timeout=1.0)

    def reserve(self) -> None:
        self._inner.reserve()  # on the caller's thread: inline, the writer

    @property
    def queue_depth(self) -> int:
        """Chunks currently queued (diagnostic)."""
        return len(self._queue)

    @property
    def pinned_bytes(self) -> int:
        """Bytes currently pinned in pooled buffers (diagnostic)."""
        return self._pinned

    # -- worker side -----------------------------------------------------

    def _raise_pending(self) -> None:
        # The parked error is deliberately NOT cleared: a dead sink stays
        # dead, and every later call must keep failing the same way.
        if self._error is not None:
            raise self._error

    def _drop_queue_locked(self) -> None:
        while self._queue:
            buf, pinned = self._queue.popleft()
            if pinned:
                buf.release()
                self._pinned -= pinned

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
                    self._queue.appendleft((buf, pinned))  # released too
                    self._drop_queue_locked()
                    self._readable.notify_all()
                    self._writable.notify_all()
                return
            if pinned:
                with self._lock:
                    buf.release()
                    self._pinned -= pinned


class ReadAheadSource(_Stage, Source):
    """Prefetch wrapper overlapping source reads with the send path.

    Inline, a read reads through.  Threaded, the worker keeps up to
    ``depth`` reads queued ahead of the consumer, each what the
    consumer last asked for: a head's framed runs (:meth:`read_run`,
    views pinning a pooled segment, served whole), or blocks of a chunk
    size (:meth:`read_chunk`: ``bytes`` or views, only ever sliced).  A
    read served from the queue counts as a ``readahead_hit``, one that
    has to wait for the worker as a miss.

    ``read_range`` (PGET service) and ``fileno`` delegate to the inner
    source untouched — prefetching only concerns the sequential cursor.
    """

    def __init__(
        self,
        inner: Source,
        *,
        depth: int = 2,
        stats: Optional[PerfStats] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        super().__init__("readahead_threads", depth, stats, clock,
                         f"readahead-{id(self):x}")
        self._inner = inner
        self.kind = inner.kind
        self.blocking_io = getattr(inner, "blocking_io", True)
        self._eof = self._stopped = False
        #: What the worker reads ahead: the consumer's last request.
        self._request = (inner.read_chunk, 0)
        #: Read but not yet served: what is left of a block when a caller
        #: shrinks its chunk size, and what ``stop()`` found queued.
        self._pending: deque = deque()

    # -- consumer side ---------------------------------------------------

    def read_chunk(self, size: int) -> Payload:
        if self._pending:
            return self._serve(self._pending.popleft(), size)
        return self._serve(self._next(self._inner.read_chunk, size), size)

    def read_run(self, chunk_size: int, count: int) -> Payload:
        if self._pending:
            return self._pending.popleft()
        return self._next(self._inner.read_run, chunk_size, count)

    def _next(self, read, *args) -> Payload:
        """The next read of the stream: inline, or off the queue."""
        if self._worker is None:
            if self._stopped:
                return read(*args)
            self._request = (read, *args)
            block = self._timed(read, *args)
            if block is not _THREADED:
                return block
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
        return block

    def _serve(self, block: Payload, size: int) -> Payload:
        if len(block) <= size:
            return block
        # Caller shrank its chunk size mid-stream: serve from the block.
        self._pending.appendleft(block[size:])
        return block[:size]

    def read_range(self, offset: int, size: int) -> Payload:
        return self._inner.read_range(offset, size)

    def stop(self) -> None:
        """Stop prefetching; what is queued is still served, in order."""
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
        while not self._eof:
            with self._lock:
                while len(self._queue) >= self._depth:
                    if self._stopped:
                        return
                    self._writable.wait()
                if self._stopped:
                    return
            read, *args = self._request
            try:
                block = read(*args)
            except BaseException as exc:
                with self._lock:
                    self._error = exc
                    self._readable.notify_all()
                return
            with self._lock:
                if block:
                    self._queue.append(block)
                self._eof = not block
                self._readable.notify_all()
