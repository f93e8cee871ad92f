"""Event-loop data plane: one reactor thread runs a node's entire I/O.

The threaded data plane (:mod:`repro.runtime.node`) spends two-plus OS
threads per node and parks them in blocking syscalls.  This module
provides the ``data_plane="evloop"`` alternative: a single-threaded,
``selectors``-based reactor drives a node's entire data plane —
non-blocking accept/connect/recv/send — reusing the same sans-io core
(framing, node state, ring buffer, recovery negotiation) so the two
planes are protocol-identical.  One reactor serves one node; a process
hosting many nodes runs one reactor thread each (see :func:`run_nodes`),
and a reactor can equally host several nodes on one thread
(``shared_reactor=True``) when density beats per-hop parallelism.

Tasks are generator coroutines.  A task performs its syscall *optimistically*
(non-blocking, straight away) and only when the kernel answers EAGAIN does
it yield a wait request to the reactor::

    ok = yield ("io", fileobj, mask, timeout)   # True=ready, False=timeout
    yield ("sleep", seconds)
    ok = yield ("flag", ev_flag, timeout)       # True=set, False=timeout

so in the common case (data available, socket writable) the selector is
never consulted — the reactor's overhead scales with *stalls*, not bytes.

Kernel-path relay (``os.splice``)
---------------------------------
A pure relay node — ``NullSink``, ``verify_digest`` off, Linux — moves DATA
payloads predecessor→successor through a pipe with ``os.splice``: the bytes
travel socket→pipe→socket entirely inside the kernel and never enter
Python.  Only the 17-byte DATA headers are read into userspace.  The tail
of a spliced chain discards payloads by splicing the pipe into
``/dev/null``.  The head's counterpart is ``os.sendfile`` for seekable
sources.  Consequences, all protocol-conformant:

* spliced bytes cannot be retained, so the ring buffer performs a
  *phantom advance* (:meth:`~repro.core.chunkstore.ChunkRingBuffer.note_advance`):
  the window moves but stays empty.  A replay request is answered FORGET
  and the requester recovers the hole from the head via PGET (§III-D2's
  degraded-but-correct route);
* a downstream death mid-chunk redirects the rest of the chunk into
  ``/dev/null`` (the replacement refetches everything below the live edge
  from the head anyway), keeping the upstream connection undisturbed;
* an upstream death mid-chunk poisons the partially-forwarded frame, so
  both connections are dropped and the pipe is reset; reconnection
  handshakes resynchronise at the last complete chunk.

Nodes that store or hash the stream use the userspace path — readiness-
driven ``recv_into`` + vectored ``sendmsg`` over the identical zero-copy
machinery the threaded plane uses — and therefore produce byte-identical
sink contents and digests.

Storage is staged as on the threaded plane:
:class:`~repro.core.stages.SinkWriter` and
:class:`~repro.core.stages.ReadAheadSource` work inline on the reactor
until storage costs more than the relay, then on their own thread, so a
slow disk overlaps with the relay.  Their *enqueue* calls can briefly
block the reactor when a queue is full; keep ``sink_writeback_depth >
0`` on evloop nodes so the bound is the queue drain, not the disk.
"""

from __future__ import annotations

import errno
import heapq
import logging
import os
import selectors
import socket
import threading
import time
from collections import deque
from itertools import islice
from typing import Deque, Iterable, List, Optional, Set, Tuple

from ..core.buffers import BufferPool
from ..core.config import KascadeConfig
from ..core.errors import (
    FramingError,
    NodeFailedError,
    ProtocolError,
    SinkError,
    TransferAborted,
)
from ..core.framing import (
    FrameDecoder,
    Payload,
    _decode_fields,
    encode_header,
    header_size,
    payload_size,
)
from ..core.messages import (
    Data,
    End,
    Forget,
    Get,
    Message,
    Op,
    Passed,
    PGet,
    Ping,
    Pong,
    Quit,
    Report,
)
from ..core.node_state import NodeTransferState, Phase
from ..core.perfstats import PerfStats, get_stats
from ..core.plan import StripePlan
from ..core.recovery import OfferKind, next_alive
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import Source
from ..core.stages import ReadAheadSource, SinkWriter
from ..core import tracing
from ..core.tracing import NULL_TRACER, classify_detector
from .links import DownstreamLink  # noqa: F401  (re-export for parity tests)
from .node import CrashGate, InjectedCrash, NodeOutcome, _HEAD_FLUSH_BYTES
from .registry import Registry
from .transport import (
    Address,
    CONN_KIND_NAMES,
    DATA_CONN,
    HAS_SENDFILE,
    Listener,
    PGET_CONN,
    PING_CONN,
    RING_CONN,
    WriteStalled,
)

logger = logging.getLogger(__name__)

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Whether this platform supports the kernel-path pipe relay.
HAS_SPLICE = hasattr(os, "splice")

_SPLICE_FLAGS = (
    (os.SPLICE_F_MOVE | os.SPLICE_F_NONBLOCK) if HAS_SPLICE else 0
)
#: Per-splice byte cap (one syscall never asks for more than this).
_SPLICE_MAX = 1 << 20
#: Requested pipe capacity bound (F_SETPIPE_SZ is advisory anyway).
_PIPE_SZ_MAX = 1 << 20
#: How often the acceptor wakes to re-check its node's stop flag.
_ACCEPT_POLL = 0.2

_devnull_fd: Optional[int] = None


def _devnull() -> int:
    """Process-wide write-only ``/dev/null`` fd for discarding splices."""
    global _devnull_fd
    if _devnull_fd is None:
        _devnull_fd = os.open(os.devnull, os.O_WRONLY)
    return _devnull_fd


# ---------------------------------------------------------------------------
# Wait-request helpers (the coroutine side of the reactor protocol)
# ---------------------------------------------------------------------------

def _wait_io(fileobj, mask: int, timeout: Optional[float]):
    """Yield until ``fileobj`` is ready for ``mask``; True=ready."""
    return (yield ("io", fileobj, mask, timeout))


def _sleep(seconds: float):
    yield ("sleep", seconds)


def _wait_flag(flag: "EvFlag", timeout: Optional[float]):
    return (yield ("flag", flag, timeout))


class EvFlag:
    """Level-triggered event flag for reactor tasks (single-threaded).

    ``set()`` wakes every task currently waiting; the flag stays set until
    :meth:`clear`.  Safe to ``set()`` from a signal handler (it only
    appends to the reactor's ready queue).
    """

    __slots__ = ("_set", "_waiters")

    def __init__(self) -> None:
        self._set = False
        self._waiters: List[Tuple["_Task", int]] = []

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        self._set = True
        waiters, self._waiters = self._waiters, []
        for task, seq in waiters:
            task.reactor._wake(task, seq, True)

    def clear(self) -> None:
        self._set = False


# ---------------------------------------------------------------------------
# Reactor
# ---------------------------------------------------------------------------

class _Task:
    """One generator coroutine scheduled by the reactor."""

    __slots__ = ("gen", "name", "reactor", "wake_seq", "wait_fileobj",
                 "finished")

    def __init__(self, gen, name: str, reactor: "Reactor") -> None:
        self.gen = gen
        self.name = name
        self.reactor = reactor
        self.wake_seq = 0       # bumps on every wake; stales old timers
        self.wait_fileobj = None
        self.finished = False


class Reactor:
    """Single-threaded scheduler: readiness + timers over one selector.

    One reactor can host any number of nodes (the ``local`` backend runs
    the whole pipeline on one) or a single node (the deploy agent).  The
    hot path is counter-instrumented: ``reactor_wakeups`` counts selector
    returns, ``evloop_stall_s`` accumulates time blocked awaiting I/O.
    """

    def __init__(self, *, stats: Optional[PerfStats] = None) -> None:
        self._sel = selectors.DefaultSelector()
        self._stats = stats if stats is not None else get_stats()
        self._ready: Deque[Tuple[_Task, object]] = deque()
        self._timers: List[Tuple[float, int, _Task, int, bool]] = []
        self._timer_seq = 0
        self._live = 0  # unfinished tasks

    # -- task management -------------------------------------------------

    def spawn(self, gen, name: str = "task") -> _Task:
        task = _Task(gen, name, self)
        self._live += 1
        self._ready.append((task, None))
        return task

    def _finish(self, task: _Task) -> None:
        if not task.finished:
            task.finished = True
            self._live -= 1
            self._cancel_io(task)

    def _cancel_io(self, task: _Task) -> None:
        if task.wait_fileobj is not None:
            try:
                self._sel.unregister(task.wait_fileobj)
            except (KeyError, ValueError, OSError):
                pass
            task.wait_fileobj = None

    @staticmethod
    def _entry_is_stale(key, fileobj) -> bool:
        """Whether a selector entry's fileobj no longer owns its fd.

        A closed socket answers ``fileno() == -1``; the kernel may have
        recycled the number for ``fileobj`` already.  Identity means a
        genuine double-register, never stale.
        """
        if key.fileobj is fileobj:
            return False
        try:
            return key.fileobj.fileno() != key.fd
        except (ValueError, OSError):
            return True

    def _wake(self, task: _Task, seq: int, value) -> None:
        """Deliver ``value`` to a waiting task, if this wake is still fresh."""
        if task.finished or task.wake_seq != seq:
            return
        task.wake_seq += 1
        self._cancel_io(task)
        self._ready.append((task, value))

    def _add_timer(self, deadline: float, task: _Task, value: bool) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self._timers, (deadline, self._timer_seq, task, task.wake_seq, value)
        )

    # -- dispatch --------------------------------------------------------

    def _advance(self, task: _Task, value) -> None:
        """Run one task until it blocks (yields a wait) or finishes."""
        while True:
            try:
                req = task.gen.send(value)
            except StopIteration:
                self._finish(task)
                return
            except Exception:  # noqa: BLE001 - helper tasks must not kill the loop
                logger.exception("evloop task %s crashed", task.name)
                self._finish(task)
                return
            kind = req[0]
            if kind == "io":
                _, fileobj, mask, timeout = req
                try:
                    self._sel.register(fileobj, mask, task)
                except KeyError:
                    # The fd number is already registered.  If the owner's
                    # fileobj has been closed meanwhile (a crashed node's
                    # listener, say), the kernel recycled the number for
                    # *this* fileobj: evict the stale entry, wake its
                    # waiter (whose next syscall surfaces EBADF), retry.
                    key = self._sel.get_key(fileobj)
                    if not self._entry_is_stale(key, fileobj):
                        raise RuntimeError(
                            f"fd conflict: {task.name} and {key.data.name} "
                            f"both waiting on {fileobj!r}"
                        ) from None
                    self._sel.unregister(key.fileobj)
                    stale_task = key.data
                    stale_task.wait_fileobj = None
                    self._wake(stale_task, stale_task.wake_seq, True)
                    try:
                        self._sel.register(fileobj, mask, task)
                    except (KeyError, ValueError, OSError):
                        value = True
                        continue
                except (ValueError, OSError):
                    # Closed/invalid fd: report ready and let the caller's
                    # next syscall surface the real error.
                    value = True
                    continue
                task.wait_fileobj = fileobj
                if timeout is not None:
                    self._add_timer(time.monotonic() + timeout, task, False)
                return
            if kind == "sleep":
                self._add_timer(time.monotonic() + req[1], task, True)
                return
            if kind == "flag":
                _, flag, timeout = req
                if flag.is_set():
                    value = True
                    continue
                flag._waiters.append((task, task.wake_seq))
                if timeout is not None:
                    self._add_timer(time.monotonic() + timeout, task, False)
                return
            raise RuntimeError(f"unknown wait request {req!r} from {task.name}")

    def run(self, *, stop_when=None, deadline: Optional[float] = None) -> bool:
        """Dispatch until ``stop_when()`` (or no runnable task remains).

        ``deadline`` is an absolute ``time.monotonic()`` bound; returns
        True when the stop condition was met, False on deadline expiry or
        a wedged (task-less / event-less) state.
        """
        stats = self._stats
        while self._live > 0:
            if stop_when is not None and stop_when():
                return True
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return False
            timers = self._timers
            while timers and timers[0][0] <= now:
                _, _, task, seq, value = heapq.heappop(timers)
                self._wake(task, seq, value)
            while self._ready:
                task, value = self._ready.popleft()
                if not task.finished:
                    self._advance(task, value)
                if stop_when is not None and stop_when():
                    return True
            if self._live == 0:
                break
            # Nothing runnable: block for readiness or the next timer.
            timeout: Optional[float] = None
            if timers:
                timeout = max(0.0, timers[0][0] - time.monotonic())
            if deadline is not None:
                slack = max(0.0, deadline - time.monotonic())
                timeout = slack if timeout is None else min(timeout, slack)
            if not self._sel.get_map() and timeout is None:
                logger.warning("evloop reactor wedged: %d tasks, no events",
                               self._live)
                return False
            t0 = time.monotonic()
            try:
                events = self._sel.select(timeout)
            except OSError:  # a registered fd was closed under us
                events = []
                self._reap_closed()
            stats.reactor_wakeups += 1
            stats.evloop_stall_s += time.monotonic() - t0
            for key, _mask in events:
                task = key.data
                self._wake(task, task.wake_seq, True)
        return stop_when() if stop_when is not None else True

    def _reap_closed(self) -> None:
        """Wake (with ready=True) every waiter whose fd went invalid."""
        for key in list(self._sel.get_map().values()):
            try:
                os.fstat(key.fd)
            except OSError:
                task = key.data
                self._wake(task, task.wake_seq, True)


# ---------------------------------------------------------------------------
# Non-blocking framed stream
# ---------------------------------------------------------------------------

#: Max buffers per sendmsg, mirroring transport._SENDMSG_BATCH.
_SENDMSG_BATCH = 64


class EvStream:
    """Non-blocking counterpart of :class:`~repro.runtime.transport.SocketStream`.

    Same wire behaviour, same zero-copy queueing discipline, same
    exceptions (``TimeoutError`` / :class:`WriteStalled` /
    ``ConnectionError``) — but every potentially-blocking operation is a
    generator that yields reactor wait requests instead of parking a
    thread.  Timeouts bound *silence*, not total duration: progress on
    the socket rearms them, exactly like the per-syscall ``settimeout``
    of the threaded plane.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        pool: Optional[BufferPool] = None,
        stats: Optional[PerfStats] = None,
    ) -> None:
        sock.setblocking(False)
        self._sock = sock
        self._stats = stats if stats is not None else get_stats()
        self._pool = pool if pool is not None else BufferPool(stats=self._stats)
        self._decoder = FrameDecoder(pool=self._pool, stats=self._stats)
        self._send_queue: Deque[memoryview] = deque()
        self._pending_bytes = 0
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def sock(self) -> socket.socket:
        return self._sock

    # -- receiving -------------------------------------------------------

    def recv_message(self, timeout: Optional[float]):
        """Coroutine: receive one complete frame (decoder path)."""
        while True:
            item = self._decoder.try_pop()
            if item is not None:
                return item
            view = self._decoder.writable()
            try:
                n = self._sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                n = -1
            except OSError as exc:
                raise ConnectionError(f"receive failed: {exc}") from exc
            finally:
                view.release()
            if n < 0:
                ok = yield from _wait_io(self._sock, _READ, timeout)
                if not ok:
                    raise TimeoutError("read stalled")
                continue
            if n == 0:
                raise ConnectionError("peer closed connection")
            self._stats.recv_syscall(n)
            self._decoder.bytes_written(n)

    def try_recv_message(self):
        """Non-blocking poll for an already-buffered frame."""
        return self._decoder.try_pop()

    def recv_exact(self, n: int, timeout: Optional[float]) -> bytearray:
        """Coroutine: read exactly ``n`` raw bytes (splice-mode headers).

        Must not be mixed with :meth:`recv_message` on the same stream —
        the decoder would already hold buffered bytes this path skips.
        """
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                r = self._sock.recv_into(view[got:])
            except (BlockingIOError, InterruptedError):
                r = -1
            except OSError as exc:
                raise ConnectionError(f"receive failed: {exc}") from exc
            if r < 0:
                ok = yield from _wait_io(self._sock, _READ, timeout)
                if not ok:
                    raise TimeoutError("read stalled")
                continue
            if r == 0:
                raise ConnectionError("peer closed connection")
            self._stats.recv_syscall(r)
            got += r
        return buf

    def read_frame_header(self, timeout: Optional[float]) -> Message:
        """Coroutine: read one frame *header* only (splice mode).

        The payload (if the opcode carries one) is left on the socket for
        the caller to splice or :meth:`recv_exact`.
        """
        first = yield from self.recv_exact(1, timeout)
        try:
            op = Op(first[0])
        except ValueError:
            raise FramingError(f"unknown opcode byte {first[0]:#04x}") from None
        hsize = header_size(op)
        if hsize > 1:
            rest = yield from self.recv_exact(hsize - 1, timeout)
            first.extend(rest)
        return _decode_fields(op, first, 1)

    # -- sending ---------------------------------------------------------

    def _enqueue(self, data) -> None:
        if len(data) == 0:
            return
        self._send_queue.append(memoryview(data))
        self._pending_bytes += len(data)

    def send_message(self, msg: Message, payload: Payload = b"", *,
                     timeout: Optional[float] = None, flush: bool = True):
        """Coroutine: queue one frame, optionally flushing to the wire."""
        expected = payload_size(msg)
        if len(payload) != expected:
            raise ProtocolError(
                f"{msg!r} requires {expected} payload bytes, got {len(payload)}"
            )
        self._enqueue(encode_header(msg))
        self._enqueue(payload)
        self._stats.frames_sent += 1
        if flush:
            yield from self.flush_pending(timeout=timeout)

    def send_frame_header(self, msg: Message, *,
                          timeout: Optional[float] = None):
        """Coroutine: send a payload-bearing frame's *header* alone.

        Splice mode's half of :meth:`send_message`: the payload follows
        kernel-side through the relay pipe, so the usual payload-length
        check must not run.
        """
        self._enqueue(encode_header(msg))
        self._stats.frames_sent += 1
        yield from self.flush_pending(timeout=timeout)

    def send_raw(self, data: bytes, *, timeout: Optional[float] = None):
        """Coroutine: queue + send raw bytes (connection preamble)."""
        self._enqueue(data)
        yield from self.flush_pending(timeout=timeout)

    def flush_pending(self, *, timeout: Optional[float] = None):
        """Coroutine: push queued buffers; resumable across stalls."""
        queue = self._send_queue
        while queue:
            try:
                sent = self._sock.sendmsg(list(islice(queue, _SENDMSG_BATCH)))
            except (BlockingIOError, InterruptedError):
                ok = yield from _wait_io(self._sock, _WRITE, timeout)
                if not ok:
                    raise WriteStalled(
                        f"{self._pending_bytes} bytes still pending"
                    )
                continue
            except OSError as exc:
                raise ConnectionError(f"send failed: {exc}") from exc
            self._stats.send_syscall(sent)
            self._pending_bytes -= sent
            while sent > 0:
                head = queue[0]
                if sent >= len(head):
                    sent -= len(head)
                    queue.popleft()
                    head.release()
                else:
                    queue[0] = head[sent:]
                    sent = 0

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            while self._send_queue:
                self._send_queue.popleft().release()
            self._pending_bytes = 0
            self._decoder.close()

    @property
    def closed(self) -> bool:
        return self._closed


def ev_connect(addr: Address, kind: bytes, timeout: float, *,
               tracer=None, owner: str = "", peer: str = ""):
    """Coroutine: non-blocking connect + preamble; yields an :class:`EvStream`.

    Raises :class:`NodeFailedError` when the peer is unreachable, exactly
    like :func:`repro.runtime.transport.connect`.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    rc = sock.connect_ex(addr.as_tuple())
    if rc not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
        sock.close()
        raise NodeFailedError(
            f"{addr.host}:{addr.port}", f"connect failed: {os.strerror(rc)}"
        )
    if rc != 0:
        ok = yield from _wait_io(sock, _WRITE, timeout)
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) if ok else errno.ETIMEDOUT
        if err != 0:
            sock.close()
            raise NodeFailedError(
                f"{addr.host}:{addr.port}",
                f"connect failed: {os.strerror(err)}",
            )
    stream = EvStream(sock)
    try:
        yield from stream.send_raw(kind, timeout=timeout)
    except (ConnectionError, WriteStalled) as exc:
        stream.close()
        raise NodeFailedError(
            f"{addr.host}:{addr.port}", f"preamble failed: {exc}"
        ) from None
    if tracer is not None and tracer.enabled:
        tracer.emit(tracing.CONNECT, owner,
                    peer=peer or f"{addr.host}:{addr.port}",
                    detail=CONN_KIND_NAMES.get(kind, "?"))
    return stream


# ---------------------------------------------------------------------------
# Splice relay plumbing
# ---------------------------------------------------------------------------

class _UpstreamLost(Exception):
    """The upstream connection died (or was replaced) mid-relay.

    ``hard`` marks silence beyond ``report_timeout`` — the receiver must
    hard-abort instead of waiting for a replacement connection.
    """

    def __init__(self, reason: str, *, hard: bool = False) -> None:
        super().__init__(reason)
        self.hard = hard


class SplicePipe:
    """The kernel buffer between upstream and downstream sockets.

    ``level`` tracks bytes currently parked in the pipe; :meth:`reset`
    discards them (after an upstream loss poisoned the in-flight chunk)
    by re-creating the pipe — O(1), no draining reads.
    """

    def __init__(self, capacity_hint: int) -> None:
        self._hint = capacity_hint
        self.rfd = -1
        self.wfd = -1
        self.level = 0
        self._open()

    def _open(self) -> None:
        self.rfd, self.wfd = os.pipe()
        os.set_blocking(self.rfd, False)
        os.set_blocking(self.wfd, False)
        try:
            import fcntl
            fcntl.fcntl(self.wfd, fcntl.F_SETPIPE_SZ,
                        max(65536, min(self._hint, _PIPE_SZ_MAX)))
        except (ImportError, OSError, AttributeError):
            pass  # default 64 KiB pipe still works, just more wakeups
        self.level = 0

    def reset(self) -> None:
        self.close()
        self._open()

    def close(self) -> None:
        for fd in (self.rfd, self.wfd):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self.rfd = self.wfd = -1
        self.level = 0


# ---------------------------------------------------------------------------
# Downstream link (event-loop port of runtime.links.DownstreamLink)
# ---------------------------------------------------------------------------

class EvDownstreamLink:
    """Connection management + replay + failure detection, coroutine style.

    A line-for-line behavioural port of
    :class:`~repro.runtime.links.DownstreamLink` (same tracing, same
    failure-record reasons, same rerouting and replay semantics), plus the
    splice-mode entry points :meth:`begin_spliced_frame` /
    :meth:`note_spliced` / :meth:`send_file_retrying`.
    """

    def __init__(self, owner: str, plan: StripePlan, registry: Registry,
                 config: KascadeConfig, state: NodeTransferState,
                 tracer=NULL_TRACER) -> None:
        self.owner = owner
        self.plan = plan
        self.registry = registry
        self.config = config
        self.state = state
        self.tracer = tracer
        self.stream: Optional[EvStream] = None
        self.target: Optional[str] = None
        self.dead: Set[str] = set()
        self.sent_offset = 0
        self.downstream_aborted = False

    # -- connection management ------------------------------------------

    @property
    def is_effective_tail(self) -> bool:
        if self.downstream_aborted:
            return True
        if self.stream is not None:
            return False
        return next_alive(self.plan, self.owner, self.dead) is None

    def _mark_dead(self, node: str, reason: str) -> None:
        if node not in self.dead:
            self.dead.add(node)
            self.state.record_failure(node, reason)
            self.tracer.emit(tracing.FAILOVER, self.owner, peer=node,
                             offset=self.sent_offset, detail=reason,
                             detector=classify_detector(reason))
            logger.info("%s: declared %s dead (%s)", self.owner, node, reason)

    def _drop(self) -> None:
        if self.stream is not None:
            self.stream.close()
        self.stream = None
        self.target = None

    def drop_soft(self) -> None:
        """Close the downstream connection *without* declaring it dead.

        Splice mode uses this when the upstream died mid-chunk: the
        partially-forwarded frame poisoned the downstream byte stream, so
        the connection must go, but the peer is alive and will be
        re-handshaken by the next send.
        """
        self._drop()

    def close(self) -> None:
        self._drop()

    def fail_current(self, reason: str) -> None:
        """Mark the connected target dead and drop (splice pump verdicts)."""
        if self.target is not None:
            self._mark_dead(self.target, reason)
        self._drop()

    def _ensure_connected(self):
        """Coroutine: connect to the next alive downstream + GET handshake."""
        while not self.downstream_aborted:
            if self.stream is not None:
                return True
            target = next_alive(self.plan, self.owner, self.dead)
            if target is None:
                return False
            try:
                stream = yield from ev_connect(
                    self.registry.address_of(target), DATA_CONN,
                    self.config.connect_timeout,
                )
            except NodeFailedError as exc:
                self._mark_dead(target, f"connect-failed: {exc.reason}")
                continue
            try:
                msg, _ = yield from stream.recv_message(
                    self.config.connect_timeout + self.config.io_timeout
                )
            except (TimeoutError, ConnectionError) as exc:
                stream.close()
                self._mark_dead(target, f"no-handshake: {exc}")
                continue
            if isinstance(msg, Quit):
                stream.close()
                self.downstream_aborted = True
                return False
            if not isinstance(msg, Get):
                stream.close()
                self._mark_dead(target, f"bad-handshake: {type(msg).__name__}")
                continue
            self.stream, self.target = stream, target
            self.tracer.emit(tracing.CONNECT, self.owner, peer=target,
                             offset=msg.offset, detail="downstream")
            if (yield from self._serve_handshake(msg.offset)):
                return True
        return False

    def _serve_handshake(self, requested: int):
        """Coroutine: answer GET(requested) — replay, or FORGET + re-GET."""
        assert self.stream is not None and self.target is not None
        try:
            offer = self.state.answer_get(requested)
        except ValueError as exc:
            self._mark_dead(self.target, f"bad-get: {exc}")
            self._drop()
            return False
        try:
            if offer.kind is OfferKind.SERVE_FROM_BUFFER:
                self.sent_offset = offer.resume_at
                for off, piece in self.state.buffer.iter_chunks_from(
                        offer.resume_at):
                    yield from self._send_frame(Data(off, len(piece)), piece,
                                                flush=False)
                    self.sent_offset = off + len(piece)
                yield from self._flush_retrying()
                return True
            self.tracer.emit(tracing.FORGET, self.owner, peer=self.target,
                             offset=offer.resume_at, detail="sent")
            yield from self._send_frame(Forget(offer.resume_at))
            msg, _ = yield from self._recv_gated("awaiting GET after FORGET")
            if isinstance(msg, Quit):
                self.downstream_aborted = True
                self._drop()
                return False
            if isinstance(msg, Get):
                return (yield from self._serve_handshake(msg.offset))
            raise ProtocolError(f"expected GET/QUIT after FORGET, got {msg!r}")
        except (TimeoutError, ConnectionError, NodeFailedError,
                ProtocolError) as exc:
            self._mark_dead(self.target, f"handshake-lost: {exc}")
            self._drop()
            return False

    # -- liveness + stall handling --------------------------------------

    def _ping_target(self):
        """Coroutine, §III-D1: side-connection ping; True if answered."""
        assert self.target is not None
        answered = yield from self._ping_attempt()
        self.tracer.emit(tracing.PING, self.owner, peer=self.target,
                         detail="answered" if answered else "unanswered")
        return answered

    def _ping_attempt(self):
        try:
            probe = yield from ev_connect(
                self.registry.address_of(self.target), PING_CONN,
                self.config.ping_timeout,
            )
        except NodeFailedError:
            return False
        try:
            yield from probe.send_message(Ping(1),
                                          timeout=self.config.ping_timeout)
            msg, _ = yield from probe.recv_message(self.config.ping_timeout)
            return isinstance(msg, Pong)
        except (TimeoutError, ConnectionError, WriteStalled):
            return False
        finally:
            probe.close()

    def _send_frame(self, msg, payload=b"", *, flush=True):
        assert self.stream is not None and self.target is not None
        yield from self.stream.send_message(
            msg, payload, timeout=self.config.io_timeout, flush=False
        )
        if flush:
            yield from self._flush_retrying()

    def _flush_retrying(self):
        """Coroutine: flush, pinging through stalls while the peer lives."""
        assert self.stream is not None and self.target is not None
        try:
            yield from self.stream.flush_pending(timeout=self.config.io_timeout)
            return
        except WriteStalled:
            self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                             offset=self.sent_offset, detail="write")
        while True:
            if not (yield from self._ping_target()):
                raise NodeFailedError(self.target,
                                      "write-stalled, ping unanswered")
            try:
                yield from self.stream.flush_pending(
                    timeout=self.config.io_timeout)
                return
            except WriteStalled:
                continue

    def _recv_gated(self, wait_reason: str):
        """Coroutine: receive, pinging through silence while the peer lives."""
        assert self.stream is not None and self.target is not None
        while True:
            try:
                return (yield from self.stream.recv_message(
                    self.config.io_timeout))
            except TimeoutError:
                self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                                 detail=f"read: {wait_reason}")
                if not (yield from self._ping_target()):
                    raise NodeFailedError(
                        self.target, f"{wait_reason}: silent, ping unanswered"
                    ) from None

    # -- public operations ----------------------------------------------

    def send_data(self, offset: int, payload, *, flush: bool = True):
        """Coroutine: forward one chunk; False once no downstream remains."""
        while True:
            if not (yield from self._ensure_connected()):
                return False
            if self.sent_offset >= offset + len(payload):
                return True  # replay already delivered this chunk
            if self.sent_offset != offset:
                raise ProtocolError(
                    f"{self.owner}: forward desync: sent {self.sent_offset}, "
                    f"chunk at {offset}"
                )
            try:
                yield from self._send_frame(Data(offset, len(payload)),
                                            payload, flush=flush)
                self.sent_offset = offset + len(payload)
                return True
            except (ConnectionError, NodeFailedError) as exc:
                reason = (exc.reason if isinstance(exc, NodeFailedError)
                          else str(exc))
                self._mark_dead(self.target, reason)
                self._drop()

    @property
    def pending_bytes(self) -> int:
        return self.stream.pending_bytes if self.stream is not None else 0

    def flush(self):
        """Coroutine: push corked frames; False if the peer failed."""
        if self.stream is None or self.stream.pending_bytes == 0:
            return True
        try:
            yield from self._flush_retrying()
            return True
        except (ConnectionError, NodeFailedError) as exc:
            reason = (exc.reason if isinstance(exc, NodeFailedError)
                      else str(exc))
            self._mark_dead(self.target, reason)
            self._drop()
            return False

    def finish(self, *, total: int, quit_first: bool):
        """Coroutine: deliver END/QUIT + report, collect PASSED."""
        while True:
            if not (yield from self._ensure_connected()):
                return "tail"
            try:
                if self.sent_offset != total:
                    raise ProtocolError(
                        f"{self.owner}: finishing at {self.sent_offset}, "
                        f"stream total {total}"
                    )
                report_bytes = self.state.report.encode()
                yield from self._send_frame(Quit() if quit_first else End(total))
                yield from self._send_frame(Report(len(report_bytes)),
                                            report_bytes)
                msg, _ = yield from self._recv_gated("awaiting PASSED")
                if isinstance(msg, Passed):
                    return "passed"
                if isinstance(msg, Quit):
                    self.downstream_aborted = True
                    self._drop()
                    return "tail"
                raise ProtocolError(f"expected PASSED, got {msg!r}")
            except (TimeoutError, ConnectionError, NodeFailedError,
                    ProtocolError) as exc:
                reason = (exc.reason if isinstance(exc, NodeFailedError)
                          else str(exc))
                self._mark_dead(self.target, reason)
                self._drop()

    def send_quit_best_effort(self):
        """Coroutine: hard-abort path QUIT, ignoring errors."""
        if self.stream is None:
            return
        try:
            yield from self.stream.send_message(
                Quit(), timeout=self.config.io_timeout)
        except (WriteStalled, ConnectionError):
            pass
        self._drop()

    # -- splice-mode entry points ---------------------------------------

    def begin_spliced_frame(self, offset: int, size: int):
        """Coroutine: ensure a downstream + send the DATA header alone.

        Returns the connected stream (payload follows via the pipe), or
        ``None`` when this node is the effective tail (payload goes to
        ``/dev/null``).
        """
        while True:
            if not (yield from self._ensure_connected()):
                return None
            if self.sent_offset != offset:
                # After any splice-mode handshake the replay is empty and
                # sent_offset equals the live edge == offset; anything
                # else is stream desynchronisation.
                raise ProtocolError(
                    f"{self.owner}: forward desync: sent {self.sent_offset}, "
                    f"chunk at {offset}"
                )
            try:
                yield from self.stream.send_frame_header(
                    Data(offset, size), timeout=self.config.io_timeout)
                return self.stream
            except WriteStalled:
                try:
                    yield from self._flush_retrying()
                    return self.stream
                except (ConnectionError, NodeFailedError) as exc:
                    reason = (exc.reason if isinstance(exc, NodeFailedError)
                              else str(exc))
                    self._mark_dead(self.target, reason)
                    self._drop()
            except (ConnectionError, NodeFailedError) as exc:
                reason = (exc.reason if isinstance(exc, NodeFailedError)
                          else str(exc))
                self._mark_dead(self.target, reason)
                self._drop()

    def note_spliced(self, end_offset: int) -> None:
        """Record that the kernel delivered payload up to ``end_offset``."""
        self.sent_offset = end_offset

    def send_file_retrying(self, source, offset: int, size: int):
        """Coroutine: send DATA(offset,size) with payload via ``os.sendfile``.

        The head's kernel path: header from userspace, payload straight
        from the page cache.  Stalls are ping-gated exactly like
        :meth:`_flush_retrying`; raises ``ConnectionError`` /
        :class:`NodeFailedError` for the caller's reroute loop.
        """
        assert self.stream is not None and self.target is not None
        yield from self.stream.send_frame_header(
            Data(offset, size), timeout=self.config.io_timeout)
        stats = self.stream._stats
        out_fd = self.stream.fileno()
        in_fd = source.fileno()
        sent = 0
        while sent < size:
            try:
                n = os.sendfile(out_fd, in_fd, offset + sent, size - sent)
            except (BlockingIOError, InterruptedError):
                ok = yield from _wait_io(self.stream.sock, _WRITE,
                                         self.config.io_timeout)
                if not ok:
                    self.tracer.emit(tracing.STALL, self.owner,
                                     peer=self.target, offset=self.sent_offset,
                                     detail="write")
                    if not (yield from self._ping_target()):
                        raise NodeFailedError(
                            self.target, "write-stalled, ping unanswered")
                continue
            except OSError as exc:
                raise ConnectionError(f"sendfile failed: {exc}") from exc
            if n == 0:
                raise ConnectionError(
                    f"file ended {size - sent} bytes short of the frame")
            stats.sendfile_syscall(n)
            sent += n
        self.sent_offset = offset + size

    def send_data_from_file(self, source, offset: int, size: int):
        """Coroutine: :meth:`send_data`'s sendfile twin, with rerouting."""
        while True:
            if not (yield from self._ensure_connected()):
                return False
            if self.sent_offset >= offset + size:
                return True
            if self.sent_offset != offset:
                raise ProtocolError(
                    f"{self.owner}: forward desync: sent {self.sent_offset}, "
                    f"chunk at {offset}"
                )
            try:
                yield from self.send_file_retrying(source, offset, size)
                return True
            except (ConnectionError, NodeFailedError, WriteStalled) as exc:
                reason = (exc.reason if isinstance(exc, NodeFailedError)
                          else str(exc))
                self._mark_dead(self.target, reason)
                self._drop()


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------

class _EvBaseNode:
    """State and reactor tasks shared by the evloop head and receivers."""

    serves_pget = False

    def __init__(self, name: str, plan: StripePlan, registry: Registry,
                 listener: Listener, config: KascadeConfig,
                 tracer=NULL_TRACER) -> None:
        if not isinstance(plan, StripePlan):
            raise TypeError(f"{type(self).__name__} runs one stripe: pass "
                            f"plan.stripe(j), not a {type(plan).__name__}")
        self.name = name
        self.plan = plan
        self.registry = registry
        self.listener = listener
        self.config = config
        self.tracer = tracer
        self.data_inbox: Deque[EvStream] = deque()
        self.inbox_flag = EvFlag()
        self.stop_flag = False
        self.silent = False
        self.outcome = NodeOutcome(name=name)
        self._orphans: list = []  # sockets swallowed after a silent crash
        self.reactor: Optional[Reactor] = None
        self._stats = get_stats()
        self.finished = False

    # -- lifecycle -------------------------------------------------------

    def attach(self, reactor: Reactor) -> None:
        self.reactor = reactor

    def start(self) -> None:
        assert self.reactor is not None, "attach() a reactor before start()"
        self.listener.set_nonblocking()
        self.reactor.spawn(self._accept_task(), f"accept-{self.name}")
        self.reactor.spawn(self._main_task(), f"node-{self.name}")

    def shutdown(self) -> None:
        self.stop_flag = True
        if not self.silent:
            self.listener.close()

    def _die(self, mode: str) -> None:
        """Terminate as if crashed (test/benchmark injection)."""
        self.outcome.crashed = True
        self.outcome.error = f"injected crash ({mode})"
        if mode == "silent":
            self.silent = True
            self.stop_flag = True
        else:
            self.stop_flag = True
            self.listener.close()
            self._close_everything()

    def _close_everything(self) -> None:
        raise NotImplementedError

    def _run(self):
        raise NotImplementedError

    # -- reactor tasks ---------------------------------------------------

    def _main_task(self):
        try:
            yield from self._run()
        except InjectedCrash as crash:
            self._die(crash.mode)
        except Exception as exc:  # noqa: BLE001 - node must record, not raise
            logger.exception("%s: node failed", self.name)
            self.outcome.error = f"{type(exc).__name__}: {exc}"
            self.shutdown()
        finally:
            self.finished = True

    def _accept_task(self):
        while not self.stop_flag:
            try:
                conn = self.listener.raw_accept()
            except (BlockingIOError, InterruptedError):
                yield from _wait_io(self.listener, _READ, _ACCEPT_POLL)
                continue
            except OSError:
                return
            conn.setblocking(False)
            if self.silent:
                self._orphans.append(conn)
                continue
            self.reactor.spawn(self._preamble_task(conn),
                               f"conn-{self.name}")

    def _preamble_task(self, conn: socket.socket):
        try:
            while True:
                try:
                    kind = conn.recv(1)
                    break
                except (BlockingIOError, InterruptedError):
                    ok = yield from _wait_io(conn, _READ,
                                             self.config.connect_timeout)
                    if not ok:
                        conn.close()
                        return
                except OSError:
                    conn.close()
                    return
            if not kind:
                conn.close()
                return
            if self.silent:
                self._orphans.append(conn)
                return
            yield from self._dispatch(kind, conn)
        except Exception:  # noqa: BLE001 - per-connection task must not leak
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, kind: bytes, conn: socket.socket):
        cfg = self.config
        if kind == PING_CONN:
            stream = EvStream(conn)
            try:
                msg, _ = yield from stream.recv_message(cfg.ping_timeout)
                if isinstance(msg, Ping):
                    yield from stream.send_message(
                        Pong(msg.nonce), timeout=cfg.ping_timeout)
            except (TimeoutError, ConnectionError, WriteStalled):
                pass
            stream.close()
        elif kind == DATA_CONN:
            self.data_inbox.append(EvStream(conn))
            self.inbox_flag.set()
        elif kind == PGET_CONN and self.serves_pget:
            self.reactor.spawn(self.serve_pget(EvStream(conn)),
                               f"pget-{self.name}")
        elif kind == RING_CONN and self.serves_pget:
            self.reactor.spawn(self.handle_ring(EvStream(conn)),
                               f"ring-{self.name}")
        else:
            conn.close()


class EvHeadNode(_EvBaseNode):
    """Event-loop head: streams the source, serves PGET, owns the ring.

    With a seekable, fd-backed source (and no digest or pacing), DATA
    payloads leave via ``os.sendfile`` — page cache to socket, never
    entering Python — and the ring advances phantom (replays are answered
    FORGET; the requester PGETs this same head, served from the file).
    """

    serves_pget = True

    def __init__(self, name: str, plan: StripePlan, registry: Registry,
                 listener: Listener, config: KascadeConfig, source: Source,
                 tracer=NULL_TRACER) -> None:
        super().__init__(name, plan, registry, listener, config, tracer)
        self._use_sendfile = (
            HAS_SENDFILE
            and not config.verify_digest
            and config.bandwidth_limit is None
            and hasattr(source, "fileno")
            and hasattr(source, "size")
        )
        self._readahead: Optional[ReadAheadSource] = None
        if (not self._use_sendfile and config.readahead_chunks > 0
                and getattr(source, "blocking_io", True)):
            source = ReadAheadSource(source, depth=config.readahead_chunks)
            self._readahead = source
        self.source = source
        self.state = NodeTransferState(name, config, source_kind=source.kind)
        self.link = EvDownstreamLink(name, self.plan, registry, config,
                                     self.state,
                                     tracer)
        self.quit_requested = False
        self.final_report: Optional[TransferReport] = None
        self._ring_flag = EvFlag()
        self._ring_report: Optional[TransferReport] = None

    def request_quit(self) -> None:
        """User interruption: stop after the current chunk (QUIT path)."""
        self.quit_requested = True

    # -- PGET and ring service (spawned per connection) ------------------

    def serve_pget(self, stream: EvStream):
        """Coroutine: serve a recovery range request (sendfile when possible)."""
        cfg = self.config
        try:
            msg, _ = yield from stream.recv_message(
                cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, PGet):
                raise ProtocolError(f"expected PGET, got {msg!r}")
            self.tracer.emit(tracing.PGET, self.name, offset=msg.offset,
                             detail=f"serve until={msg.until}")
            offer = self.state.answer_pget(msg.offset, msg.until)
            if offer.kind is OfferKind.FORGET:
                yield from stream.send_message(Forget(offer.resume_at),
                                               timeout=cfg.io_timeout)
                return
            use_sendfile = HAS_SENDFILE and hasattr(self.source, "fileno")
            pos = msg.offset
            while pos < msg.until:
                size = min(cfg.chunk_size, msg.until - pos)
                if use_sendfile:
                    yield from self._pget_sendfile(stream, pos, size)
                    pos += size
                else:
                    piece = self.source.read_range(pos, size)
                    yield from stream.send_message(
                        Data(pos, len(piece)), piece,
                        timeout=cfg.report_timeout)
                    pos += len(piece)
        except (TimeoutError, ConnectionError, WriteStalled, ProtocolError,
                NodeFailedError) as exc:
            logger.info("%s: PGET service aborted: %s", self.name, exc)
        finally:
            stream.close()

    def _pget_sendfile(self, stream: EvStream, offset: int, size: int):
        """Coroutine: one sendfile'd DATA frame of the PGET response."""
        cfg = self.config
        yield from stream.send_frame_header(Data(offset, size),
                                            timeout=cfg.report_timeout)
        out_fd = stream.fileno()
        in_fd = self.source.fileno()
        sent = 0
        while sent < size:
            try:
                n = os.sendfile(out_fd, in_fd, offset + sent, size - sent)
            except (BlockingIOError, InterruptedError):
                ok = yield from _wait_io(stream.sock, _WRITE,
                                         cfg.report_timeout)
                if not ok:
                    raise WriteStalled(
                        f"sendfile stalled with {size - sent} bytes pending")
                continue
            except OSError as exc:
                raise ConnectionError(f"sendfile failed: {exc}") from exc
            if n == 0:
                raise ConnectionError(
                    f"file ended {size - sent} bytes short of the frame")
            self._stats.sendfile_syscall(n)
            sent += n

    def handle_ring(self, stream: EvStream):
        """Coroutine: receive the tail's final report, answer PASSED."""
        cfg = self.config
        try:
            msg, payload = yield from stream.recv_message(
                cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, Report):
                raise ProtocolError(f"expected REPORT on ring, got {msg!r}")
            self._ring_report = TransferReport.decode(payload)
            self.tracer.emit(tracing.REPORT, self.name, detail="ring-closure")
            yield from stream.send_message(Passed(), timeout=cfg.io_timeout)
            self._ring_flag.set()
        except (TimeoutError, ConnectionError, WriteStalled,
                ProtocolError) as exc:
            logger.info("%s: ring report failed: %s", self.name, exc)
        finally:
            stream.close()

    # -- main loop -------------------------------------------------------

    def _run(self):
        cfg = self.config
        state = self.state
        if self._use_sendfile:
            yield from self._stream_sendfile()
        else:
            yield from self._stream_userspace()
        yield from self.link.flush()
        if self._readahead is not None:
            self._readahead.stop()
        total = state.offset
        aborting = self.quit_requested
        if aborting:
            self.tracer.emit(tracing.QUIT, self.name, offset=total,
                             detail="user interrupt")
            state.on_quit()
        else:
            state.on_end(total)
            state.attach_source_digest()
        outcome = yield from self.link.finish(total=total, quit_first=aborting)
        if outcome == "passed":
            yield from _wait_flag(self._ring_flag, cfg.report_timeout)
        if self._ring_report is not None:
            self.final_report = self._ring_report
        else:
            self.final_report = state.report
        self.outcome.ok = outcome == "passed" and not aborting
        self.outcome.bytes_received = total
        self.outcome.failures_detected = list(state.report.failures)
        if outcome != "passed":
            self.outcome.error = "no downstream completed the transfer"
        self.tracer.emit(tracing.DONE, self.name, offset=total,
                         detail="ok" if self.outcome.ok else "failed")
        if state.phase in (Phase.ENDED, Phase.ABORTED):
            state.on_passed()
        self.shutdown()

    def _stream_userspace(self):
        """Coroutine: the threaded head loop, readiness-driven."""
        cfg = self.config
        state = self.state
        bucket = None
        if cfg.bandwidth_limit is not None:
            from ..core.pacing import TokenBucket
            bucket = TokenBucket(cfg.bandwidth_limit)
        while not self.quit_requested:
            chunk = self.source.read_chunk(cfg.chunk_size)
            if not chunk:
                break
            if bucket is not None:
                delay = bucket.reserve(len(chunk), time.monotonic())
                if delay > 0:
                    yield from _sleep(delay)
                    if self.quit_requested:
                        break
            off = state.offset
            state.on_data(off, chunk)
            if self.tracer.enabled:
                self.tracer.emit(tracing.CHUNK, self.name, offset=off,
                                 detail=f"read {len(chunk)}")
            if not (yield from self.link.send_data(off, chunk, flush=False)):
                break
            if self.link.pending_bytes >= _HEAD_FLUSH_BYTES:
                yield from self.link.flush()

    def _stream_sendfile(self):
        """Coroutine: kernel-path streaming — payload never enters Python."""
        cfg = self.config
        state = self.state
        total_size = self.source.size
        while not self.quit_requested and state.offset < total_size:
            off = state.offset
            size = min(cfg.chunk_size, total_size - off)
            state.on_data_spliced(off, size)
            if self.tracer.enabled:
                self.tracer.emit(tracing.CHUNK, self.name, offset=off,
                                 detail=f"sendfile {size}")
            if not (yield from self.link.send_data_from_file(
                    self.source, off, size)):
                break

    def _close_everything(self) -> None:
        if self._readahead is not None:
            self._readahead.stop()
        self.link.close()


class EvReceiverNode(_EvBaseNode):
    """Event-loop receiver: stores and forwards, kernel path when pure relay.

    The splice path engages only when this node neither stores nor hashes
    the stream (``NullSink`` + ``verify_digest`` off, on Linux); any real
    sink, digest wrapper, or non-Linux platform takes the userspace path,
    whose data handling is identical to the threaded plane — so stored
    bytes and digests are byte-for-byte the same across planes.
    """

    def __init__(self, name: str, plan: StripePlan, registry: Registry,
                 listener: Listener, config: KascadeConfig, sink: Sink,
                 crash_gate: Optional[CrashGate] = None,
                 tracer=NULL_TRACER) -> None:
        super().__init__(name, plan, registry, listener, config, tracer)
        self.raw_sink = sink
        if config.sink_writeback_depth > 0 and not isinstance(sink, NullSink):
            sink = SinkWriter(
                sink,
                depth=config.sink_writeback_depth,
                pin_budget=config.sink_writeback_budget,
                tracer=tracer,
                owner=name,
            )
        self.sink = sink
        self.crash_gate = crash_gate
        self.state = NodeTransferState(name, config)
        self.link = EvDownstreamLink(name, self.plan, registry, config,
                                     self.state,
                                     tracer)
        self.upstream: Optional[EvStream] = None
        self._splice = splice_active(config, self.raw_sink)
        self._pipe: Optional[SplicePipe] = (
            SplicePipe(config.chunk_size) if self._splice else None
        )

    def _die(self, mode: str) -> None:
        super()._die(mode)
        self.sink.close()  # as ReceiverNode._die: no parked writeback worker

    # -- upstream management ---------------------------------------------

    def _acquire_upstream(self):
        """Coroutine: wait for an inbound data connection, GET on it."""
        deadline = time.monotonic() + self.config.report_timeout
        while self.upstream is None:
            self.inbox_flag.clear()
            if self.data_inbox:
                stream = self.data_inbox.popleft()
            else:
                if self.stop_flag:
                    raise TransferAborted(f"{self.name}: shut down while idle")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransferAborted(
                        f"{self.name}: no upstream connection arrived"
                    )
                yield from _wait_flag(self.inbox_flag, min(remaining, 0.2))
                continue
            try:
                yield from stream.send_message(
                    Get(self.state.offset), timeout=self.config.io_timeout)
                self.upstream = stream
                self.tracer.emit(tracing.CONNECT, self.name,
                                 offset=self.state.offset, detail="upstream")
            except (WriteStalled, ConnectionError):
                stream.close()

    def _switch_upstream_if_replaced(self):
        """Coroutine: adopt a newer inbound connection if one was queued."""
        if not self.data_inbox:
            return False
        stream = self.data_inbox.popleft()
        if self.upstream is not None:
            self.upstream.close()
        self.upstream = None
        try:
            yield from stream.send_message(
                Get(self.state.offset), timeout=self.config.io_timeout)
            self.upstream = stream
            self.tracer.emit(tracing.CONNECT, self.name,
                             offset=self.state.offset,
                             detail="upstream-replaced")
            return True
        except (WriteStalled, ConnectionError):
            stream.close()
            return False

    def _drop_upstream(self) -> None:
        if self.upstream is not None:
            self.upstream.close()
            self.upstream = None

    # -- recovery: PGET hole fetch ----------------------------------------

    def _fetch_hole_from_head(self, until: int):
        """Coroutine: fetch [offset, until) from the head after a FORGET."""
        cfg = self.config
        head_addr = self.registry.address_of(self.plan.head)
        self.tracer.emit(tracing.PGET, self.name, peer=self.plan.head,
                         offset=self.state.offset, detail=f"until={until}")
        try:
            stream = yield from ev_connect(
                head_addr, PGET_CONN, cfg.connect_timeout,
                tracer=self.tracer, owner=self.name, peer=self.plan.head)
        except NodeFailedError:
            return False
        try:
            yield from stream.send_message(PGet(self.state.offset, until),
                                           timeout=cfg.io_timeout)
            while self.state.offset < until:
                msg, payload = yield from stream.recv_message(cfg.report_timeout)
                if isinstance(msg, Forget):
                    return False
                if not isinstance(msg, Data):
                    raise ProtocolError(f"expected DATA from PGET, got {msg!r}")
                yield from self._consume_chunk(msg.offset, payload)
            return True
        except (TimeoutError, ConnectionError, WriteStalled, ProtocolError):
            return False
        finally:
            stream.close()

    # -- data plane --------------------------------------------------------

    def _consume_chunk(self, offset: int, payload, *, flush: bool = True):
        """Coroutine: store and forward one userspace chunk (zero-copy).

        In splice mode this only runs for PGET hole fills — the bytes are
        in userspace anyway, so they are forwarded as ordinary frames, but
        the accounting stays phantom to keep the ring-empty invariant.
        """
        if self._splice:
            self.state.on_data_spliced(offset, len(payload))
        else:
            self.state.on_data(offset, payload)
        if self.tracer.enabled:
            self.tracer.emit(tracing.CHUNK, self.name, offset=offset,
                             detail=f"recv {len(payload)}")
        self.sink.write_chunk(payload)
        self.outcome.bytes_received = self.state.offset
        yield from self.link.send_data(offset, payload, flush=flush)
        if self.crash_gate is not None:
            mode = self.crash_gate(self.state.offset)
            if mode is not None:
                raise InjectedCrash(mode)

    def _hard_abort(self, reason: str):
        """Coroutine: unrecoverable loss — QUIT both neighbours, die failed."""
        logger.info("%s: aborting: %s", self.name, reason)
        self.tracer.emit(tracing.QUIT, self.name, offset=self.state.offset,
                         detail=reason)
        if self.upstream is not None:
            try:
                yield from self.upstream.send_message(
                    Quit(), timeout=self.config.io_timeout)
            except (WriteStalled, ConnectionError):
                pass
        yield from self.link.send_quit_best_effort()
        self.sink.abort()
        self.outcome.error = reason
        self._drop_upstream()
        self.shutdown()

    # -- main loop ---------------------------------------------------------

    def _run(self):
        cfg = self.config
        state = self.state
        try:
            if self._splice:
                upstream_report = yield from self._stream_loop_spliced()
            else:
                upstream_report = yield from self._stream_loop()
        except (SinkError, OSError) as exc:
            yield from self._hard_abort(f"sink failure: {exc}")
            return
        finally:
            if self._pipe is not None:
                self._pipe.close()
        if upstream_report is None:
            return  # the loop already hard-aborted and shut down

        # ---- report exchange phase ----
        aborted = state.phase is Phase.ABORTED
        state.merge_upstream_report(upstream_report)
        digest_ok = state.verify_against_report()
        if digest_ok is False:
            state.record_failure(self.name, "digest-mismatch")
            self.outcome.error = "stored data failed digest verification"
        if aborted:
            self.sink.abort()
        else:
            try:
                self.sink.finish()
            except (SinkError, OSError) as exc:
                yield from self._hard_abort(f"sink failure: {exc}")
                return
        outcome = yield from self.link.finish(total=state.offset,
                                              quit_first=aborted)
        if outcome == "tail":
            yield from self._ring_deliver(state.report.encode())
        self.outcome.ok = (
            not aborted and state.complete and digest_ok is not False
        )
        self.tracer.emit(tracing.DONE, self.name, offset=state.offset,
                         detail="ok" if self.outcome.ok else "failed")
        if self.upstream is not None:
            try:
                yield from self.upstream.send_message(
                    Passed(), timeout=cfg.io_timeout)
            except (WriteStalled, ConnectionError):
                pass
        state.on_passed()
        self.outcome.failures_detected = list(state.report.failures)
        self._drop_upstream()
        self.shutdown()

    # -- userspace stream loop (decoder path, identical to threaded) ------

    def _stream_loop(self):
        cfg = self.config
        state = self.state
        upstream_report: Optional[bytes] = None
        carried: Optional[tuple] = None
        last_progress = time.monotonic()

        while True:
            if state.phase is Phase.ENDED and upstream_report is not None:
                return upstream_report
            if self.upstream is None:
                carried = None
                yield from self._acquire_upstream()
                last_progress = time.monotonic()
                continue
            try:
                if carried is not None:
                    msg, payload = carried
                    carried = None
                else:
                    msg, payload = yield from self.upstream.recv_message(
                        cfg.io_timeout)
            except TimeoutError:
                if (yield from self._switch_upstream_if_replaced()):
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > cfg.report_timeout:
                    yield from self._hard_abort(
                        "upstream silent beyond deadline")
                    return None
                continue
            except FramingError as exc:
                logger.info("%s: dropping upstream on bad frame: %s",
                            self.name, exc)
                self._drop_upstream()
                continue
            except ConnectionError:
                self._drop_upstream()
                continue
            last_progress = time.monotonic()

            if isinstance(msg, Data):
                yield from self._consume_chunk(msg.offset, payload,
                                               flush=False)
                try:
                    nxt = self.upstream.try_recv_message()
                    while nxt is not None and isinstance(nxt[0], Data):
                        yield from self._consume_chunk(nxt[0].offset, nxt[1],
                                                       flush=False)
                        nxt = self.upstream.try_recv_message()
                    carried = nxt
                except FramingError as exc:
                    logger.info("%s: dropping upstream on bad frame: %s",
                                self.name, exc)
                    self._drop_upstream()
                yield from self.link.flush()
            elif isinstance(msg, End):
                if state.phase is Phase.STREAMING:
                    state.on_end(msg.total)
                elif state.total_size != msg.total:
                    raise ProtocolError(
                        f"{self.name}: conflicting END totals "
                        f"{state.total_size} vs {msg.total}"
                    )
            elif isinstance(msg, Report):
                upstream_report = bytes(payload)
                self.tracer.emit(tracing.REPORT, self.name, detail="upstream")
            elif isinstance(msg, Forget):
                self.tracer.emit(tracing.FORGET, self.name,
                                 offset=msg.min_offset, detail="received")
                if not (yield from self._fetch_hole_from_head(msg.min_offset)):
                    yield from self._hard_abort(
                        "data lost beyond recovery (FORGET)")
                    return None
                try:
                    yield from self.upstream.send_message(
                        Get(state.offset), timeout=cfg.io_timeout)
                except (WriteStalled, ConnectionError):
                    self._drop_upstream()
            elif isinstance(msg, Quit):
                self.tracer.emit(tracing.QUIT, self.name,
                                 offset=state.offset, detail="received")
                state.on_quit()
                try:
                    rmsg, rpayload = yield from self.upstream.recv_message(
                        cfg.io_timeout)
                except (TimeoutError, ConnectionError):
                    yield from self._hard_abort("upstream quit without report")
                    return None
                if isinstance(rmsg, Report):
                    return bytes(rpayload)
                yield from self._hard_abort("upstream quit without report")
                return None
            else:
                raise ProtocolError(
                    f"{self.name}: unexpected {msg!r} from upstream")

    # -- kernel-path stream loop (splice relay) ----------------------------

    def _stream_loop_spliced(self):
        """Receive/forward via the splice pipe; headers-only in userspace.

        Framing discipline: exactly the frame header is read from the
        socket; a DATA payload is then spliced through the pipe, any other
        payload (REPORT) is read with ``recv_exact``.  The stream decoder
        is never used, so no payload byte ever lands in a Python buffer.
        """
        cfg = self.config
        state = self.state
        upstream_report: Optional[bytes] = None
        last_progress = time.monotonic()

        while True:
            if state.phase is Phase.ENDED and upstream_report is not None:
                return upstream_report
            if self.upstream is None:
                yield from self._acquire_upstream()
                last_progress = time.monotonic()
                continue
            try:
                msg = yield from self.upstream.read_frame_header(cfg.io_timeout)
            except TimeoutError:
                if (yield from self._switch_upstream_if_replaced()):
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > cfg.report_timeout:
                    yield from self._hard_abort(
                        "upstream silent beyond deadline")
                    return None
                continue
            except FramingError as exc:
                logger.info("%s: dropping upstream on bad frame: %s",
                            self.name, exc)
                self._drop_upstream()
                continue
            except ConnectionError:
                self._drop_upstream()
                continue
            last_progress = time.monotonic()

            if isinstance(msg, Data):
                try:
                    yield from self._relay_chunk_spliced(msg.offset, msg.size)
                except _UpstreamLost as exc:
                    if exc.hard:
                        yield from self._hard_abort(
                            "upstream silent beyond deadline")
                        return None
                    logger.info("%s: upstream lost mid-chunk: %s",
                                self.name, exc)
                    # The partially-forwarded frame poisoned the downstream
                    # byte stream: drop both sides and discard the pipe's
                    # in-flight bytes; reconnects resync at the live edge.
                    self._drop_upstream()
                    self.link.drop_soft()
                    self._pipe.reset()
                    continue
                last_progress = time.monotonic()
                if self.crash_gate is not None:
                    mode = self.crash_gate(state.offset)
                    if mode is not None:
                        raise InjectedCrash(mode)
            elif isinstance(msg, End):
                if state.phase is Phase.STREAMING:
                    state.on_end(msg.total)
                elif state.total_size != msg.total:
                    raise ProtocolError(
                        f"{self.name}: conflicting END totals "
                        f"{state.total_size} vs {msg.total}"
                    )
            elif isinstance(msg, Report):
                payload = yield from self.upstream.recv_exact(
                    msg.size, cfg.io_timeout)
                upstream_report = bytes(payload)
                self.tracer.emit(tracing.REPORT, self.name, detail="upstream")
            elif isinstance(msg, Forget):
                self.tracer.emit(tracing.FORGET, self.name,
                                 offset=msg.min_offset, detail="received")
                if not (yield from self._fetch_hole_from_head(msg.min_offset)):
                    yield from self._hard_abort(
                        "data lost beyond recovery (FORGET)")
                    return None
                try:
                    yield from self.upstream.send_message(
                        Get(state.offset), timeout=cfg.io_timeout)
                except (WriteStalled, ConnectionError):
                    self._drop_upstream()
            elif isinstance(msg, Quit):
                self.tracer.emit(tracing.QUIT, self.name,
                                 offset=state.offset, detail="received")
                state.on_quit()
                try:
                    rmsg = yield from self.upstream.read_frame_header(
                        cfg.io_timeout)
                    if isinstance(rmsg, Report):
                        payload = yield from self.upstream.recv_exact(
                            rmsg.size, cfg.io_timeout)
                        return bytes(payload)
                except (TimeoutError, ConnectionError, FramingError):
                    pass
                yield from self._hard_abort("upstream quit without report")
                return None
            else:
                raise ProtocolError(
                    f"{self.name}: unexpected {msg!r} from upstream")

    def _relay_chunk_spliced(self, offset: int, size: int):
        """Coroutine: move one DATA payload upstream→downstream in-kernel."""
        state = self.state
        if offset != state.offset:
            raise ProtocolError(
                f"{self.name}: DATA at offset {offset}, expected {state.offset}"
            )
        down = None
        if not self.link.downstream_aborted:
            down = yield from self.link.begin_spliced_frame(offset, size)
        down_failed = yield from self._pump(size, down)
        # The chunk left the upstream socket in full (delivered downstream,
        # or discarded after a downstream death): account it.
        state.on_data_spliced(offset, size)
        if self.tracer.enabled:
            self.tracer.emit(tracing.CHUNK, self.name, offset=offset,
                             detail=f"splice {size}")
        self.raw_sink.bytes_written += size  # NullSink accounting, no bytes
        self.outcome.bytes_received = state.offset
        if down_failed is not None:
            self.link.fail_current(down_failed)
        elif down is not None:
            self.link.note_spliced(offset + size)

    def _pump(self, size: int, down: Optional[EvStream]):
        """Coroutine: splice ``size`` payload bytes through the pipe.

        Interleaves socket→pipe and pipe→socket legs, tracking the pipe
        fill level.  ``down is None`` (tail) discards into ``/dev/null``.
        A downstream death switches the out leg to ``/dev/null`` and keeps
        consuming (returns the failure reason); an upstream death raises
        :class:`_UpstreamLost`.
        """
        cfg = self.config
        pipe = self._pipe
        stats = self._stats
        up_sock = self.upstream.sock
        up_fd = up_sock.fileno()
        out_sock = down.sock if down is not None else None
        out_fd = down.fileno() if down is not None else _devnull()
        down_failed: Optional[str] = None
        in_done = out_done = 0
        last_progress = time.monotonic()
        while out_done < size:
            progressed = False
            out_blocked = False
            if in_done < size:
                try:
                    n = os.splice(up_fd, pipe.wfd,
                                  min(size - in_done, _SPLICE_MAX),
                                  flags=_SPLICE_FLAGS)
                    if n == 0:
                        raise _UpstreamLost("peer closed mid-payload")
                    stats.splice_syscall(n)
                    in_done += n
                    pipe.level += n
                    progressed = True
                except BlockingIOError:
                    pass
                except InterruptedError:
                    progressed = True
                except OSError as exc:
                    raise _UpstreamLost(f"splice from upstream failed: {exc}")
            if pipe.level > 0:
                try:
                    n = os.splice(pipe.rfd, out_fd, pipe.level,
                                  flags=_SPLICE_FLAGS)
                    stats.splice_syscall(n)
                    pipe.level -= n
                    out_done += n
                    progressed = True
                except BlockingIOError:
                    out_blocked = True
                except InterruptedError:
                    progressed = True
                except OSError as exc:
                    if out_sock is not None and down_failed is None:
                        # Downstream died mid-chunk: finish the chunk into
                        # /dev/null so our live edge stays chunk-aligned —
                        # the replacement refetches everything below it
                        # from the head anyway (phantom ring).
                        down_failed = f"splice to downstream failed: {exc}"
                        out_sock = None
                        out_fd = _devnull()
                        progressed = True
                    else:
                        raise _UpstreamLost(f"splice discard failed: {exc}")
            if progressed:
                last_progress = time.monotonic()
                continue
            if out_blocked and out_sock is not None:
                ok = yield from _wait_io(out_sock, _WRITE, cfg.io_timeout)
                if not ok:
                    self.tracer.emit(tracing.STALL, self.name,
                                     peer=self.link.target,
                                     offset=self.link.sent_offset,
                                     detail="write")
                    if not (yield from self.link._ping_target()):
                        down_failed = "write-stalled, ping unanswered"
                        out_sock = None
                        out_fd = _devnull()
                continue
            # Waiting on upstream payload bytes.
            ok = yield from _wait_io(up_sock, _READ, cfg.io_timeout)
            if not ok:
                if self.data_inbox:
                    raise _UpstreamLost("upstream replaced mid-chunk")
                if time.monotonic() - last_progress > cfg.report_timeout:
                    raise _UpstreamLost("upstream silent beyond deadline",
                                        hard=True)
        return down_failed

    def _ring_deliver(self, report_bytes: bytes):
        """Coroutine, tail duty: close the ring to the head."""
        cfg = self.config
        try:
            stream = yield from ev_connect(
                self.registry.address_of(self.plan.head), RING_CONN,
                cfg.connect_timeout, tracer=self.tracer, owner=self.name,
                peer=self.plan.head)
        except NodeFailedError:
            logger.info("%s: head unreachable for ring report", self.name)
            return
        try:
            yield from stream.send_message(Report(len(report_bytes)),
                                           report_bytes,
                                           timeout=cfg.report_timeout)
            msg, _ = yield from stream.recv_message(cfg.report_timeout)
            if not isinstance(msg, Passed):
                logger.info("%s: unexpected ring answer %r", self.name, msg)
        except (TimeoutError, ConnectionError, WriteStalled) as exc:
            logger.info("%s: ring delivery failed: %s", self.name, exc)
        finally:
            stream.close()

    def _close_everything(self) -> None:
        self._drop_upstream()
        self.link.close()
        if self._pipe is not None:
            self._pipe.close()


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def splice_active(config: KascadeConfig, sink: Sink) -> bool:
    """Whether a receiver with ``sink`` will use the kernel relay path.

    Exact ``NullSink`` (not a subclass — a subclass may observe bytes)
    with digest verification off, on a platform with ``os.splice``.
    """
    return (HAS_SPLICE and not config.verify_digest
            and type(sink) is NullSink)


def run_nodes(nodes: Iterable[_EvBaseNode], *,
              duration: Optional[float] = None,
              stats: Optional[PerfStats] = None,
              shared_reactor: bool = False) -> bool:
    """Run the given evloop nodes to completion; block until done.

    Each node gets its own single-threaded reactor — one thread per node,
    so co-hosted pipeline hops relay on separate cores and throughput
    stays independent of chain length (vs. 2+ threads per node on the
    threaded plane).  A single node runs its reactor inline on the
    calling thread; ``shared_reactor=True`` forces every node onto one
    reactor on the calling thread (strict single-thread operation — per-
    hop work then serializes, which is fine for tests and small chains).

    Returns True when every node's main task finished within ``duration``
    seconds; stragglers are shut down and marked failed.
    """
    nodes = list(nodes)
    deadline = (time.monotonic() + duration) if duration is not None else None
    if shared_reactor or len(nodes) <= 1:
        reactor = Reactor(stats=stats)
        for node in nodes:
            node.attach(reactor)
        for node in nodes:
            node.start()
        reactor.run(stop_when=lambda: all(n.finished for n in nodes),
                    deadline=deadline)
    else:
        threads = []
        for node in nodes:
            reactor = Reactor(stats=stats)
            node.attach(reactor)

            def drive(node=node, reactor=reactor):
                node.start()
                reactor.run(stop_when=lambda: node.finished,
                            deadline=deadline)

            threads.append(threading.Thread(target=drive,
                                            name=f"evloop-{node.name}",
                                            daemon=True))
        for t in threads:
            t.start()
        # Each reactor observes the shared deadline itself; the join
        # grace only covers teardown of a reactor that just expired.
        for t in threads:
            t.join(None if deadline is None
                   else max(0.0, deadline - time.monotonic()) + 2.0)
    done = all(n.finished for n in nodes)
    for node in nodes:
        if not node.finished:
            if node.outcome.error is None:
                node.outcome.error = "evloop run timed out"
            node.shutdown()
            node._close_everything()
    return done
