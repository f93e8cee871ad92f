"""Stripe data path: splitting a stream into k sub-streams and merging back.

Striped broadcast runs ``k`` independent chain sub-broadcasts over one
stream (see :mod:`repro.core.plan`).  The split is round-robin over the
global chunk index: chunk ``i`` (of ``chunk_size`` bytes) belongs to
stripe ``i % k`` as that stripe's local chunk ``i // k``.  This module
owns the two ends of that mapping:

* :class:`StripeSource` — a seekable view presenting stripe ``j`` of an
  underlying source as a contiguous sub-stream.  The head of each
  stripe chain reads it exactly like any other source, so per-stripe
  ring buffers and PGET recovery fall out of the existing machinery.
* :class:`StripeMergeSink` — the per-host reassembly point: ``k`` sink
  ports (one per stripe chain instance) feeding one inner sink in
  global chunk order.  Port writes never wait for other stripes — a
  port that runs ahead of the merge cursor buffers (copying out of the
  caller's pooled receive buffer), and the buffer's high-water mark is
  observable as the ``stripe_merge_hwm`` perfstat.

The byte-level mapping, for stripe ``j`` of ``k`` with chunk size ``c``:
local byte ``s`` lives in local chunk ``q = s // c`` at intra-chunk
offset ``r = s % c``; its global position is ``(q * k + j) * c + r``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional

from .errors import DataLossError, SinkError
from .perfstats import PerfStats, get_stats
from .recovery import SourceKind
from .sinks import Sink
from .sources import CursorSource, Source, _preadv

__all__ = ["stripe_extent", "StripeSource", "StripeMergeSink"]


def stripe_extent(total: int, stripe: int, of: int, chunk_size: int) -> int:
    """Bytes belonging to ``stripe`` (of ``of``) in a ``total``-byte stream."""
    full, partial = divmod(total, chunk_size)
    size = chunk_size * ((full + of - 1 - stripe) // of)
    if partial and full % of == stripe:
        size += partial
    return size


class StripeSource(CursorSource):
    """Stripe ``j`` of a seekable source, as a contiguous sub-stream.

    Requires the underlying source to be seekable (``read_range`` +
    ``size``): the view's sequential reads are random-access reads of
    the original.  When the inner source exposes a filesystem ``path``
    the view keeps its own file handle so a read costs one ``preadv``
    per stripe chunk it spans instead of an ``open`` per call.

    The view never closes a shared inner source (``k`` views share one
    on the local backend); pass ``owns_inner=True`` where the view is
    the sole user (the process backend's per-stripe heads).
    """

    def __init__(
        self,
        inner: Source,
        stripe: int,
        of: int,
        chunk_size: int,
        *,
        owns_inner: bool = False,
    ) -> None:
        if inner.kind is not SourceKind.SEEKABLE_FILE:
            raise DataLossError(
                "striping needs a seekable source (read_range + size); "
                f"got a {type(inner).__name__}"
            )
        if not 0 <= stripe < of:
            raise ValueError(f"stripe {stripe} out of range for {of}")
        self._inner = inner
        self._stripe = stripe
        self._of = of
        self._chunk = chunk_size
        self._owns = owns_inner
        self._pos = 0
        self._size = stripe_extent(inner.size, stripe, of, chunk_size)
        self.blocking_io = inner.blocking_io
        self._file = None
        path = getattr(inner, "path", None)
        if path is not None:
            self._file = open(path, "rb")

    @property
    def size(self) -> int:
        return self._size

    def read_chunk(self, size: int) -> bytearray:
        take = min(size, self._size - self._pos)
        if take <= 0:
            return b""
        data = self.read_range(self._pos, take)
        self._pos += take
        return data

    def _fill_at(self, offset: int, slots) -> int:
        # Each slot is read where its bytes lie in the inner stream: one
        # positional read per stripe chunk it spans.
        c, j, k = self._chunk, self._stripe, self._of
        left, got = self._size - offset, 0
        for slot in slots:
            n = min(len(slot), left - got)
            if n <= 0:
                break
            pos = 0
            while pos < n:
                q, r = divmod(offset + got + pos, c)
                take = min(c - r, n - pos)
                self._fill_global((q * k + j) * c + r, slot[pos: pos + take])
                pos += take
            got += n
        return got

    def _fill_global(self, offset: int, view: memoryview) -> None:
        if self._file is not None:
            got = _preadv(self._file.fileno(), [view], offset)
        elif isinstance(self._inner, CursorSource):
            got = self._inner._fill_at(offset, [view])
        else:  # a seekable source of another kind: its range copied in
            view[:] = self._inner.read_range(offset, len(view))
            got = len(view)
        if got != len(view):
            raise DataLossError(
                f"file shrank: wanted [{offset}, {offset + len(view)}), "
                f"got {got} bytes")

    def read_range(self, offset: int, size: int) -> bytearray:
        """Stripe-local random access (serves this stripe's PGETs)."""
        if offset + size > self._size:
            raise DataLossError(
                f"range [{offset}, {offset + size}) beyond stripe "
                f"of {self._size}"
            )
        data = bytearray(size)
        self._fill_at(offset, [memoryview(data)])
        return data

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._owns:
            self._inner.close()


class _StripePort(Sink):
    """One stripe chain's sink: a non-waiting feeder of the merge."""

    def __init__(self, merger: "StripeMergeSink", stripe: int) -> None:
        self._merger = merger
        self._stripe = stripe
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self.bytes_written += len(data)
        self._merger._port_write(self._stripe, data)

    def reserve(self) -> None:
        self._merger._port_reserve()

    def finish(self) -> None:
        self._merger._port_finish(self._stripe)

    def abort(self) -> None:
        self._merger._port_abort()


class StripeMergeSink:
    """Reassemble ``k`` stripe sub-streams into one inner sink, in order.

    Not itself a :class:`Sink` — it hands out one :meth:`port` per
    stripe, each of which is.  The merge keeps a global chunk cursor
    ``g`` and always takes the next chunk from the port of stripe
    ``g % k``; ports ahead of the cursor buffer their bytes (copied, so
    pooled receive buffers are never retained past ``write_chunk``).
    A port write never waits on other stripes — slack turns into memory,
    bounded in practice by each chain's ring buffer, and is observable
    via the ``stripe_merge_hwm`` perfstat.

    End of stream: the global stream ended when the cursor's port has
    finished with nothing buffered.  Any bytes still queued on another
    port at that point are a stripe desync — a protocol bug, surfaced
    as :class:`SinkError` (the §III-D hard-abort path).  The inner sink
    is finished once, after every port has finished.
    """

    def __init__(
        self,
        inner: Sink,
        stripes: int,
        chunk_size: int,
        *,
        stats: Optional[PerfStats] = None,
    ) -> None:
        if stripes < 1:
            raise ValueError(f"stripe count must be >= 1, got {stripes}")
        self._inner = inner
        self._k = stripes
        self._chunk = chunk_size
        self._stats = stats if stats is not None else get_stats()
        self._lock = threading.Lock()
        self._queues: List[Deque[bytes]] = [deque() for _ in range(stripes)]
        self._avail = [0] * stripes
        self._finished = [False] * stripes
        self._ports = [_StripePort(self, j) for j in range(stripes)]
        self._cursor = 0
        self._ended = False
        self._aborted = False
        self._closed = 0
        self._error: Optional[Exception] = None
        self.bytes_written = 0

    def port(self, stripe: int) -> Sink:
        """The sink for the chain instance carrying ``stripe``."""
        return self._ports[stripe]

    # ------------------------------------------------------------------
    # Port-side entry points
    # ------------------------------------------------------------------

    def _port_write(self, stripe: int, data) -> None:
        with self._lock:
            self._raise_if_failed()
            if self._aborted:
                return
            if self._ended:
                self._fail(SinkError(
                    f"stripe {stripe} wrote past end of merged stream"
                ))
            n = len(data)
            self._queues[stripe].append(bytes(data))
            self._avail[stripe] += n
            self._stats.copied(n)
            self._stats.note_merge_buffered(sum(self._avail))
            self._drain()

    def _port_reserve(self) -> None:
        # Every stripe's node asks; the inner sink reserves the first time.
        with self._lock:
            if not self._aborted:
                self._inner.reserve()

    def _port_finish(self, stripe: int) -> None:
        with self._lock:
            self._raise_if_failed()
            if self._aborted:
                return
            self._finished[stripe] = True
            self._closed += 1
            self._drain()
            self._raise_if_failed()
            if self._closed == self._k:
                if not self._ended:
                    self._fail(SinkError(
                        "stripe merge incomplete: all stripes finished "
                        f"but stripe {self._cursor % self._k} never "
                        f"delivered global chunk {self._cursor}"
                    ))
                self._inner.finish()

    def _port_abort(self) -> None:
        with self._lock:
            if self._aborted:
                return
            self._aborted = True
            for q in self._queues:
                q.clear()
            self._avail = [0] * self._k
            self._inner.abort()

    # ------------------------------------------------------------------
    # Merge core (lock held)
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        while not self._ended and self._error is None:
            j = self._cursor % self._k
            if self._avail[j] >= self._chunk:
                self._write_out(self._pop(j, self._chunk))
            elif self._finished[j]:
                if self._avail[j]:
                    # The stream's final, partial chunk.
                    self._write_out(self._pop(j, self._avail[j]))
                    self._cursor += 1
                self._mark_ended(j)
                return
            else:
                return  # waiting on stripe j's chain
            self._cursor += 1

    def _pop(self, stripe: int, want: int) -> bytes:
        q = self._queues[stripe]
        self._avail[stripe] -= want
        piece = q.popleft()
        if len(piece) == want:
            return piece
        if len(piece) > want:
            q.appendleft(piece[want:])
            return piece[:want]
        parts = [piece]
        got = len(piece)
        while got < want:
            piece = q.popleft()
            if got + len(piece) > want:
                take = want - got
                q.appendleft(piece[take:])
                piece = piece[:take]
            parts.append(piece)
            got += len(piece)
        return b"".join(parts)

    def _write_out(self, data: bytes) -> None:
        try:
            self._inner.write_chunk(data)
        except Exception as exc:
            self._fail(exc)
        self.bytes_written += len(data)

    def _mark_ended(self, at_stripe: int) -> None:
        self._ended = True
        stragglers = [j for j in range(self._k) if self._avail[j]]
        if stragglers:
            self._fail(SinkError(
                f"stripe merge desync: stream ended at stripe {at_stripe} "
                f"(global chunk {self._cursor}) but stripe(s) "
                f"{stragglers} still hold undelivered bytes"
            ))

    def _fail(self, exc: Exception) -> None:
        if self._error is None:
            self._error = exc
        raise exc

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise SinkError(f"stripe merge already failed: {self._error}")
