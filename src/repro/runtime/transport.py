"""TCP transport for the real Kascade runtime.

Connections carry a one-byte *preamble* identifying their purpose, sent by
the initiating side immediately after connect:

========  =====================================================
``D``     data connection: upstream pushes the stream; the
          *accepting* node speaks first with GET(offset) (§III-C)
``P``     liveness probe: initiator sends PING, expects PONG
``G``     PGET recovery fetch (to the head node)
``R``     ring-closure report connection (tail → head)
========  =====================================================

The paper's protocol needs failure detection via timeouts on stalled reads
and writes (§III-D1).  Timeouts must not corrupt framing, so this module
provides :class:`SocketStream`, whose receive path feeds a
:class:`~repro.core.framing.FrameDecoder` (partial frames survive a
timeout) and whose send path keeps its position across timeouts so a
write can resume after a successful liveness ping.

Zero-copy data plane
--------------------
The send side is a scatter/gather queue of memoryviews flushed with
``socket.sendmsg`` — one syscall pushes a header *and* its payload (and
any backlog) without ever concatenating them in userspace.  The receive
side reads with ``recv_into`` straight into the decoder's pooled buffer,
and the decoder hands payloads out as memoryviews of that same buffer.
A relay therefore moves a chunk from its upstream socket to its
downstream socket with **zero** userspace payload copies, and a stream
that is closed leaves its segments, mapped and warm, to the next one
(:mod:`repro.core.buffers`); the
:mod:`repro.core.perfstats` counters make that invariant testable.
``send_frame_from_file`` goes one step further for the head's recovery
service and streams payload bytes kernel-to-kernel with ``os.sendfile``.
"""

from __future__ import annotations

import os
import select
import socket
from bisect import bisect_right
from itertools import accumulate
from typing import BinaryIO, List, Optional, Tuple

from ..core.buffers import BufferPool
# The preamble bytes are the engine's connection kinds (table above).
from ..core.engine import DATA_CONN, PGET_CONN, PING_CONN, RING_CONN
from ..core.errors import NodeFailedError, ProtocolError, TransferAborted
from ..core.framing import (
    DataRun,
    FrameDecoder,
    Payload,
    encode_header,
    payload_size,
)
from ..core.messages import Message
from ..core.perfstats import PerfStats, get_stats
from .registry import Address, dial

#: Max buffers handed to one ``sendmsg`` call — comfortably below any
#: platform IOV_MAX (1024 on Linux).
_SENDMSG_BATCH = 64

#: Whether this platform can stream file payloads kernel-to-kernel.
HAS_SENDFILE = hasattr(os, "sendfile")


class WriteStalled(TimeoutError):
    """A send did not complete within the I/O timeout (a
    ``TimeoutError``: the engine's word for a wait that ran out).

    The pending buffers stay queued in the :class:`SocketStream`; calling
    ``flush_pending`` resumes exactly where the send stopped — mid-buffer
    if need be — so a false-positive stall (congestion, not death) loses
    no data.
    """


class SocketStream:
    """Framed, timeout-aware wrapper around a connected TCP socket, and
    the engine's *stream* on the socket port (:mod:`repro.core.engine`:
    ``recv``, ``flush``, ``cork``, ``cork_run``, ``send_file``).

    ``port`` is set — by the :class:`~repro.runtime.links.SocketPort`
    that dialled or the acceptor that adopted it — on a stream a node's
    main loop waits on: those waits can be woken.  Side services (ping,
    PGET, ring) leave it ``None``.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        pool: Optional[BufferPool] = None,
        stats: Optional[PerfStats] = None,
    ) -> None:
        self._sock = sock
        self._stats = stats if stats is not None else get_stats()
        #: A pool the stream made is the stream's to close; a caller's
        #: may outlive it and is left alone.
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else BufferPool(stats=self._stats)
        self._decoder = FrameDecoder(pool=self._pool, stats=self._stats)
        #: Scatter/gather send queue: buffers awaiting the wire, in order,
        #: held by reference as handed in (a buffer sent leaves the queue;
        #: nothing here is ever released).  A partial send leaves a view
        #: of the rest of the head buffer (zero-copy).
        self._send_queue: List[Payload] = []
        self.pending_bytes = 0
        self._sendmsg = getattr(sock, "sendmsg", None)
        self._closed = False
        #: Timeout the socket is currently set to: re-arming it costs a
        #: syscall, so reads and flushes only do so when it changes.
        self._timeout = sock.gettimeout()
        self.port = None
        # Disable Nagle: control messages (GET, PING, PASSED) are tiny and
        # latency-critical; bulk DATA frames are large enough not to care.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass

    def _set_timeout(self, timeout: Optional[float]) -> None:
        if timeout != self._timeout:
            self._sock.settimeout(timeout)
            self._timeout = timeout

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def recv_message(self, timeout: Optional[float]) -> Tuple[Message, Payload]:
        """Receive one complete frame.

        The payload is a memoryview into a pooled receive buffer (see
        ``docs/PROTOCOL.md``, "Data path & buffer ownership"): valid for
        as long as the caller holds it, recycled only after release.

        Raises ``TimeoutError`` if no complete frame arrives in time
        (already-buffered partial bytes are kept for the next call),
        ``ConnectionError`` if the peer closed or reset the connection.
        """
        while True:
            item = self._decoder.try_pop()
            if item is not None:
                return item
            view = self._decoder.writable()
            self._set_timeout(timeout)
            try:
                n = self._sock.recv_into(view)
            except socket.timeout:
                raise TimeoutError("read stalled") from None
            except (BlockingIOError, InterruptedError):
                # EAGAIN/EINTR are transient: a signal interrupted the
                # call (and its handler raised no exception) or a
                # spurious wakeup fired — retry, exactly as the
                # sendfile path does.
                continue
            except OSError as exc:
                raise ConnectionError(f"receive failed: {exc}") from exc
            finally:
                view.release()
            if n == 0:
                raise ConnectionError("peer closed connection")
            self._stats.recv_syscall(n)
            self._decoder.bytes_written(n)

    def try_recv_run(self) -> Optional[DataRun]:
        """Non-blocking poll for the already-buffered ``DATA`` frames that
        continue the stream, as one run (see
        :meth:`~repro.core.framing.FrameDecoder.try_pop_run`)."""
        return self._decoder.try_pop_run()

    def wake_reader(self, direction: int = socket.SHUT_RD) -> None:
        """Make a ``recv_message`` blocked in another thread return now.

        Shuts the receive direction down: the reader is handed whatever
        the kernel already buffered and then ``ConnectionError``, as if
        the peer had closed.  Nothing is sent to the peer, the send
        direction stays usable, and the per-frame path pays nothing for
        it.  Sticky (a wake before the read ends that read at once) and
        harmless on a stream already closed.  (``SHUT_WR`` ends a flush
        blocked on a full window the same way, with ``EPIPE``.)
        """
        try:
            self._sock.shutdown(direction)
        except OSError:
            pass  # already closed, or the peer reset the connection

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _enqueue(self, data) -> None:
        if len(data) == 0:
            return
        self._send_queue.append(data)
        self.pending_bytes += len(data)

    def send_message(
        self,
        msg: Message,
        payload: Payload = b"",
        *,
        timeout: Optional[float] = None,
        flush: bool = True,
    ) -> None:
        """Queue and send one frame; raises :class:`WriteStalled` on timeout.

        The payload buffer is queued by reference (no copy); it must stay
        unchanged until fully flushed.  After a stall, the caller decides
        (via ping) whether to retry with :meth:`flush_pending` or declare
        the peer dead.

        ``flush=False`` only queues the frame — no syscall, no failure —
        so a relay can cork a burst of small DATA frames and push them
        all with one vectored :meth:`flush_pending`.
        """
        expected = payload_size(msg)
        if len(payload) != expected:
            raise ProtocolError(
                f"{msg!r} requires {expected} payload bytes, got {len(payload)}"
            )
        self._enqueue(encode_header(msg))
        self._enqueue(payload)
        self._stats.frames_sent += 1
        if flush:
            self.flush_pending(timeout=timeout)

    def send_raw(self, data: bytes, *, timeout: Optional[float] = None) -> None:
        """Queue and send raw bytes (used for the connection preamble)."""
        self._enqueue(data)
        self.flush_pending(timeout=timeout)

    def flush_pending(self, *, timeout: Optional[float] = None) -> None:
        """Push queued buffers; resumable across :class:`WriteStalled`.

        Uses vectored ``sendmsg`` where available so a header + payload
        (plus any backlog) leave in one syscall; falls back to ``send`` of
        the head buffer otherwise.
        """
        queue = self._send_queue
        while queue:
            self._set_timeout(timeout)
            batch = queue[:_SENDMSG_BATCH]
            try:
                if self._sendmsg is not None:
                    sent = self._sendmsg(batch)
                else:  # pragma: no cover - platforms without sendmsg
                    sent = self._sock.send(queue[0])
            except socket.timeout:
                raise WriteStalled(
                    f"write stalled: {self.pending_bytes} bytes pending"
                ) from None
            except (BlockingIOError, InterruptedError):
                # Transient EAGAIN/EINTR: nothing was sent, the queue is
                # untouched — retry the vectored send (same contract as
                # the sendfile loop in send_frame_from_file).
                continue
            except OSError as exc:
                raise ConnectionError(f"send failed: {exc}") from exc
            self._stats.send_syscall(sent)
            self.pending_bytes -= sent
            # The buffers sent whole leave the queue at once; the first
            # one left resumes where the send stopped.
            ends = list(accumulate(map(len, batch)))
            done = bisect_right(ends, sent)
            del queue[:done]
            cut = sent - ends[done - 1] if done else sent
            if cut:
                queue[0] = memoryview(queue[0])[cut:]  # zero-copy resume point

    def send_frame_from_file(
        self,
        msg: Message,
        fileobj: BinaryIO,
        offset: int,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        """Send a payload frame whose bytes come straight from a file.

        Flushes the header (and any backlog), then moves the payload with
        ``os.sendfile`` — kernel to kernel, no userspace pass at all.
        Falls back to a read + queued send where sendfile is unavailable.
        Raises :class:`WriteStalled` if the peer stops draining and
        ``ConnectionError`` if the file cannot supply the promised bytes.
        """
        need = payload_size(msg)
        self._enqueue(encode_header(msg))
        self._stats.frames_sent += 1
        self.flush_pending(timeout=timeout)
        if need == 0:
            return
        if not HAS_SENDFILE or not hasattr(fileobj, "fileno"):
            # Sources expose positional read_range; raw files only seek.
            if hasattr(fileobj, "read_range"):
                data = fileobj.read_range(offset, need)
            else:
                fileobj.seek(offset)
                data = fileobj.read(need)
            if len(data) != need:
                raise ConnectionError(
                    f"file supplied {len(data)} of {need} payload bytes"
                )
            self._enqueue(data)
            self.flush_pending(timeout=timeout)
            return
        out_fd = self._sock.fileno()
        in_fd = fileobj.fileno()
        sent_total = 0
        while sent_total < need:
            # settimeout puts the socket in non-blocking mode, so wait for
            # writability ourselves; sendfile has no timeout of its own.
            _, writable, _ = select.select([], [self._sock], [], timeout)
            if not writable:
                raise WriteStalled(
                    f"sendfile stalled with {need - sent_total} bytes pending"
                )
            try:
                n = os.sendfile(out_fd, in_fd, offset + sent_total,
                                need - sent_total)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError as exc:
                raise ConnectionError(f"sendfile failed: {exc}") from exc
            if n == 0:
                raise ConnectionError(
                    f"file ended {need - sent_total} bytes short of the frame"
                )
            self._stats.sendfile_syscall(n)
            sent_total += n

    # ------------------------------------------------------------------
    # The engine's stream primitives: generators that never yield
    # ------------------------------------------------------------------

    def cork(self, msg: Message, payload: Payload = b"") -> None:
        self.send_message(msg, payload, flush=False)

    def cork_run(self, first_offset: int, payloads, wire) -> None:
        """Queue a run of already-encoded frames as its ``wire`` bytes:
        one buffer, the view :meth:`try_recv_run` returned or the
        segment a head framed in place
        (:func:`~repro.core.framing.frame_run`).

        Queued by reference like any payload; nothing is sent until the
        next :meth:`flush_pending` or flushed :meth:`send_message`.
        """
        self._send_queue.append(wire)
        self.pending_bytes += len(wire)
        self._stats.frames_sent += len(payloads)

    def recv(self, timeout: float):
        port = self.port  # (see SocketPort.check for the shape of a wait)
        if port is None:
            return self.recv_message(timeout)
        port._blocked = (self, socket.SHUT_RD)
        try:
            if port.stopping is None:
                return self.recv_message(timeout)
        except (TimeoutError, ConnectionError):
            if port.stopping is None:
                raise
        finally:
            port._blocked = None
        raise TransferAborted(port.stopping)
        yield  # never reached: the blocking call was the wait

    def flush(self, timeout: float):
        port = self.port
        if port is None:
            return self.flush_pending(timeout=timeout)
        port._blocked = (self, socket.SHUT_WR)
        try:
            if port.stopping is None:
                return self.flush_pending(timeout=timeout)
        except (TimeoutError, ConnectionError):
            if port.stopping is None:
                raise
        finally:
            port._blocked = None
        raise TransferAborted(port.stopping)
        yield  # never reached

    if HAS_SENDFILE:
        def send_file(self, msg: Message, source, offset: int, timeout: float):
            """Payload from the page cache to the socket, never entering
            this process (``os.sendfile``)."""
            return self.send_frame_from_file(msg, source, offset,
                                             timeout=timeout)
            yield  # never reached

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            # Drop the queued buffers and the decoder's so the pool's
            # segments stop being pinned by this stream, and hand the
            # segments themselves — a ring may pin some a while longer —
            # to the process-wide reserve for the next stream.
            self._send_queue.clear()
            self.pending_bytes = 0
            self._decoder.close()
            if self._owns_pool:
                self._pool.close()

    def __enter__(self) -> "SocketStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Preamble byte → human-readable connection kind, for trace events.
CONN_KIND_NAMES = {
    DATA_CONN: "data",
    PING_CONN: "ping",
    PGET_CONN: "pget",
    RING_CONN: "ring",
}


def connect(
    addr: Address,
    kind: bytes,
    timeout: float,
    *,
    tracer=None,
    owner: str = "",
    peer: str = "",
) -> SocketStream:
    """Open a connection to ``addr`` and send the preamble ``kind``.

    Raises :class:`NodeFailedError` if the peer is unreachable — the
    caller treats that as a dead node (§III-D: connect-refused counts as
    a detected failure).

    When ``tracer`` is given (and enabled), a CONNECT event naming the
    connection kind is emitted on ``owner``'s timeline after the
    preamble is accepted.
    """
    try:
        sock = dial(addr.host, addr.port, timeout)
    except OSError as exc:
        raise NodeFailedError(f"{addr.host}:{addr.port}",
                              f"connect failed: {exc}") from exc
    stream = SocketStream(sock)
    try:
        stream.send_raw(kind, timeout=timeout)
    except (ConnectionError, TimeoutError) as exc:
        stream.close()
        raise NodeFailedError(f"{addr.host}:{addr.port}", f"preamble failed: {exc}")
    if tracer is not None and tracer.enabled:
        tracer.emit("connect", owner, peer=peer or f"{addr.host}:{addr.port}",
                    detail=CONN_KIND_NAMES.get(kind, "?"))
    return stream


class Listener:
    """Listening socket accepting preambled connections."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._closed = False
        self.address = Address(*self._sock.getsockname()[:2])

    def fileno(self) -> int:
        """The listening socket's descriptor (reactor registration)."""
        return self._sock.fileno()

    def set_nonblocking(self) -> None:
        """Switch to non-blocking mode for event-loop use."""
        self._sock.setblocking(False)

    def raw_accept(self) -> socket.socket:
        """Accept one connection without reading its preamble.

        Non-blocking callers (the event-loop acceptor) get the raw
        ``BlockingIOError`` when nothing is pending and read the
        preamble themselves under reactor control.
        """
        conn, _peer = self._sock.accept()
        return conn

    def accept(self, timeout: Optional[float]) -> Tuple[bytes, SocketStream]:
        """Accept one connection and read its preamble byte.

        Returns ``(kind, stream)``.  Raises ``TimeoutError`` if nothing
        arrives, ``ConnectionError`` once closed.
        """
        while True:
            try:
                # Inside the try: close() from another thread (a node
                # shutting down under its acceptor) must read as
                # "listener closed", whichever call notices first.
                self._sock.settimeout(timeout)
                conn, _peer = self._sock.accept()
                break
            except socket.timeout:
                raise TimeoutError("accept timed out") from None
            except (BlockingIOError, InterruptedError):
                continue  # transient EAGAIN/EINTR: retry the accept
            except OSError as exc:
                raise ConnectionError(f"listener closed: {exc}") from exc
        conn.settimeout(timeout if timeout is not None else 5.0)
        while True:
            try:
                kind = conn.recv(1)
                break
            except (BlockingIOError, InterruptedError):
                continue  # transient EAGAIN/EINTR: retry the preamble read
            except OSError as exc:
                conn.close()
                raise ConnectionError(f"preamble read failed: {exc}") from exc
        if not kind:
            conn.close()
            raise ConnectionError("peer closed before preamble")
        return kind, SocketStream(conn)

    def close(self) -> None:
        """Stop listening, ending an ``accept`` blocked in another thread
        now (a close alone leaves it blocked until its timeout)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
