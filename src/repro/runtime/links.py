"""Sender-side downstream link: connection management, replay, failure
detection and rerouting (§III-D).

Both the head and every relay own a :class:`DownstreamLink`.  It hides the
messy part of the protocol behind three operations:

* :meth:`send_data` — forward one stream chunk, transparently detecting a
  dead downstream (write stall + liveness ping, or socket error),
  rerouting to the next alive node, and replaying missed bytes from the
  node's ring buffer;
* :meth:`finish` — after the stream ends, deliver END/QUIT plus the
  failure report and collect PASSED, with the same rerouting;
* :attr:`is_effective_tail` — true once no alive downstream exists, in
  which case the owner must perform the tail's ring-closure duty.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional, Set

from ..core.config import KascadeConfig
from ..core.errors import NodeFailedError, ProtocolError, TransferAborted
from ..core.messages import Data, End, Get, Passed, Pong, Ping, Quit, Report, Forget
from ..core.node_state import NodeTransferState
from ..core.pipeline import PipelinePlan
from ..core.recovery import OfferKind, next_alive
from ..core import tracing
from ..core.tracing import NULL_TRACER, classify_detector
from .registry import Registry
from .transport import DATA_CONN, PING_CONN, SocketStream, WriteStalled, connect

logger = logging.getLogger(__name__)


class DownstreamLink:
    """Manages this node's connection to its (current) downstream neighbour."""

    def __init__(
        self,
        owner: str,
        plan: PipelinePlan,
        registry: Registry,
        config: KascadeConfig,
        state: NodeTransferState,
        tracer=NULL_TRACER,
        detaching: Optional[threading.Event] = None,
    ) -> None:
        self.owner = owner
        self.plan = plan
        self.registry = registry
        self.config = config
        self.state = state
        self.tracer = tracer
        #: Set by the owner's ``begin_failover()``: from then on a link
        #: error is the detach itself, not a death to report.
        self.detaching = detaching if detaching is not None else threading.Event()
        self.stream: Optional[SocketStream] = None
        self.target: Optional[str] = None
        self.dead: Set[str] = set()
        self.sent_offset = 0
        #: A GET handshake has completed on this link at least once:
        #: start-up is over, a refused connect now means a dead node.
        self._handshaken = False
        self._startup_deadline: Optional[float] = None
        #: Downstream deliberately quit (unrecoverable data loss after
        #: FORGET): stop forwarding, do NOT treat as a failure.
        self.downstream_aborted = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    @property
    def is_effective_tail(self) -> bool:
        """No alive, non-aborted downstream remains."""
        if self.downstream_aborted:
            return True
        if self.stream is not None:
            return False
        return next_alive(self.plan, self.owner, self.dead,
                          self.config.max_connect_attempts) is None

    def _mark_dead(self, node: str, reason: str) -> None:
        if self.detaching.is_set():
            # The owner is being detached for a head re-root, and so are
            # its neighbours: whatever went wrong on this link is them
            # letting go.  No verdict, no reroute — unwind the main loop.
            raise TransferAborted(
                f"{self.owner}: detached for failover ({node}: {reason})")
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

    def close(self) -> None:
        self._drop()

    def _connect_downstream(self, target: str) -> SocketStream:
        """Open the DATA connection to ``target``.

        Start-up is not mid-transfer failure detection (§III-B: data
        flows only once every node is launched).  Until this link has
        completed its first handshake or sent its first byte, a
        *refused* connect means the peer's listener is not up yet, and
        is retried until the link's start-up window — one
        ``connect_timeout`` from its first attempt, shared by every
        target it tries — has passed.  Afterwards, and for any other
        connect error, the first failure is the verdict.
        """
        addr = self.registry.address_of(target)
        if self._startup_deadline is None:
            self._startup_deadline = (time.monotonic()
                                      + self.config.connect_timeout)
        starting_up = self.sent_offset == 0 and not self._handshaken
        backoff = 0.005
        while True:
            try:
                return connect(addr, DATA_CONN, self.config.connect_timeout)
            except NodeFailedError as exc:
                if (not starting_up
                        or not isinstance(exc.__cause__, ConnectionRefusedError)
                        or time.monotonic() + backoff > self._startup_deadline):
                    raise
            time.sleep(backoff)
            backoff = min(backoff * 2, 0.1)

    def _ensure_connected(self) -> bool:
        """Connect to the next alive downstream and complete its GET
        handshake (replaying buffered bytes).  Returns False when this
        node has become the effective tail."""
        while not self.downstream_aborted:
            if self.stream is not None:
                return True
            target = next_alive(self.plan, self.owner, self.dead,
                                self.config.max_connect_attempts)
            if target is None:
                return False
            try:
                stream = self._connect_downstream(target)
            except NodeFailedError as exc:
                self._mark_dead(target, f"connect-failed: {exc.reason}")
                continue
            # The receiver sends GET(offset) on *every* new connection —
            # the paper's deadlock-avoidance rule (§III-D2).
            try:
                msg, _ = stream.recv_message(
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
            self._handshaken = True
            self.tracer.emit(tracing.CONNECT, self.owner, peer=target,
                             offset=msg.offset, detail="downstream")
            if self._serve_handshake(msg.offset):
                return True
            # handshake/replay failed; _serve_handshake dropped the stream
        return False

    def _serve_handshake(self, requested: int) -> bool:
        """Answer a GET(requested): replay from the buffer or send FORGET
        and wait for the receiver's follow-up GET after its PGET fetch."""
        assert self.stream is not None and self.target is not None
        try:
            offer = self.state.answer_get(requested)
        except ValueError as exc:
            # The receiver claims bytes beyond our live edge — poisoned
            # state; declare it dead rather than corrupt the stream.
            self._mark_dead(self.target, f"bad-get: {exc}")
            self._drop()
            return False
        try:
            if offer.kind is OfferKind.SERVE_FROM_BUFFER:
                self.sent_offset = offer.resume_at
                for off, piece in self.state.buffer.iter_chunks_from(offer.resume_at):
                    self._send_frame(Data(off, len(piece)), piece, flush=False)
                    self.sent_offset = off + len(piece)
                self._flush_retrying()
                return True
            # Relay (or stream-head) cannot serve: FORGET(min); the
            # receiver PGETs the hole from the head then re-GETs.
            self.tracer.emit(tracing.FORGET, self.owner, peer=self.target,
                             offset=offer.resume_at, detail="sent")
            self._send_frame(Forget(offer.resume_at))
            msg, _ = self._recv_gated("awaiting GET after FORGET")
            if isinstance(msg, Quit):
                # Receiver could not recover (head answered FORGET).
                self.downstream_aborted = True
                self._drop()
                return False
            if isinstance(msg, Get):
                return self._serve_handshake(msg.offset)
            raise ProtocolError(f"expected GET/QUIT after FORGET, got {msg!r}")
        except (TimeoutError, ConnectionError, NodeFailedError, ProtocolError) as exc:
            self._mark_dead(self.target, f"handshake-lost: {exc}")
            self._drop()
            return False

    # ------------------------------------------------------------------
    # Frame sending with stall detection (write timeout + liveness ping)
    # ------------------------------------------------------------------

    def _ping_target(self) -> bool:
        """§III-D1: open a side connection and ping; True if peer answers."""
        assert self.target is not None
        answered = self._ping_attempt()
        self.tracer.emit(tracing.PING, self.owner, peer=self.target,
                         detail="answered" if answered else "unanswered")
        return answered

    def _ping_attempt(self) -> bool:
        try:
            probe = connect(self.registry.address_of(self.target), PING_CONN,
                            self.config.ping_timeout)
        except NodeFailedError:
            return False
        try:
            probe.send_message(Ping(1), timeout=self.config.ping_timeout)
            msg, _ = probe.recv_message(self.config.ping_timeout)
            return isinstance(msg, Pong)
        except (TimeoutError, ConnectionError, WriteStalled):
            return False
        finally:
            probe.close()

    def _send_frame(self, msg, payload=b"", *, flush=True) -> None:
        """Send one frame, tolerating stalls while the peer stays alive.

        ``payload`` may be any bytes-like buffer — in the relay path it is
        the memoryview received from upstream, queued downstream without a
        copy.  The vectored send queue keeps the view alive (and its pool
        buffer pinned) until the bytes hit the kernel, so a stall + resume
        cycle cannot lose or duplicate payload bytes.

        ``flush=False`` corks the frame in the send queue (no syscall);
        a later flushed frame or :meth:`_flush_retrying` pushes the whole
        backlog in one vectored send.
        """
        assert self.stream is not None and self.target is not None
        self.stream.send_message(
            msg, payload, timeout=self.config.io_timeout, flush=False
        )
        if flush:
            self._flush_retrying()

    def _flush_retrying(self) -> None:
        """Flush queued frames, tolerating stalls while the peer lives.

        A stalled write can mean: the peer died, a *later* node died and
        backpressure propagated, or plain congestion (§III-D1).  We ping;
        while the peer answers we keep waiting (the cluster-level run
        timeout is the ultimate guard), otherwise raise
        :class:`NodeFailedError` immediately.
        """
        assert self.stream is not None and self.target is not None
        try:
            self.stream.flush_pending(timeout=self.config.io_timeout)
            return
        except WriteStalled:
            self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                             offset=self.sent_offset, detail="write")
        while True:
            if not self._ping_target():
                raise NodeFailedError(self.target, "write-stalled, ping unanswered")
            try:
                self.stream.flush_pending(timeout=self.config.io_timeout)
                return
            except WriteStalled:
                continue

    def _recv_gated(self, wait_reason: str):
        """Receive one frame, tolerating silence while the peer stays alive.

        On each read timeout the peer is pinged: a live peer (merely
        waiting on *its* downstream) buys more time; a dead one raises
        :class:`NodeFailedError` after roughly ``io + ping`` seconds —
        this is what keeps failure detection latency flat instead of
        cascading one ``report_timeout`` per pipeline position.
        """
        assert self.stream is not None and self.target is not None
        while True:
            try:
                return self.stream.recv_message(self.config.io_timeout)
            except TimeoutError:
                self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                                 detail=f"read: {wait_reason}")
                if not self._ping_target():
                    raise NodeFailedError(
                        self.target, f"{wait_reason}: silent, ping unanswered"
                    ) from None

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def send_data(self, offset: int, payload, *, flush: bool = True) -> bool:
        """Forward one chunk downstream; True unless no downstream remains.

        Accepts any bytes-like buffer; a memoryview is forwarded without
        copying.  Reroutes to the next alive node on failure; the
        replacement's GET handshake replays whatever it is missing (as
        zero-copy views out of the ring buffer), after which chunks the
        replay already covered are skipped here (``sent_offset`` check).

        ``flush=False`` corks the frame (small-chunk batching); call
        :meth:`flush` before blocking on anything else.  Chunks corked
        but lost to a later flush failure are covered by the replay: the
        replacement's GET rewinds ``sent_offset`` to what actually
        arrived downstream.
        """
        while True:
            if not self._ensure_connected():
                return False
            if self.sent_offset >= offset + len(payload):
                return True  # replay already delivered this chunk
            if self.sent_offset != offset:
                raise ProtocolError(
                    f"{self.owner}: forward desync: sent {self.sent_offset}, "
                    f"chunk at {offset}"
                )
            try:
                self._send_frame(Data(offset, len(payload)), payload, flush=flush)
                self.sent_offset = offset + len(payload)
                return True
            except (ConnectionError, NodeFailedError) as exc:
                reason = exc.reason if isinstance(exc, NodeFailedError) else str(exc)
                self._mark_dead(self.target, reason)
                self._drop()

    def send_run(self, first_offset: int, payloads, wire) -> bool:
        """Forward a run of chunks, corked; True unless no downstream remains.

        ``payloads`` are consecutive chunks starting at ``first_offset``
        and ``wire`` their wire bytes, headers included: the one view a
        relay received them in, or the head's ``encode_run`` buffer list.
        When the link stands exactly at the run's start those bytes are
        queued as they are — a relayed frame is the received frame.
        Otherwise (no stream yet, or a replacement's GET replay already
        covered part of the run) each chunk takes :meth:`send_data`,
        which connects, skips what was delivered and reroutes.  Like any
        corked chunk, the run is covered by the replay if the
        :meth:`flush` that must follow fails.
        """
        if self.stream is not None and self.sent_offset == first_offset:
            self.stream.cork_frames(wire, len(payloads))
            self.sent_offset = first_offset + sum(map(len, payloads))
            return True
        offset = first_offset
        for payload in payloads:
            if not self.send_data(offset, payload, flush=False):
                return False
            offset += len(payload)
        return True

    @property
    def pending_bytes(self) -> int:
        """Bytes corked in the send queue, awaiting :meth:`flush`."""
        return self.stream.pending_bytes if self.stream is not None else 0

    def flush(self) -> bool:
        """Push corked frames to the wire; True unless the peer failed.

        Failure handling mirrors :meth:`send_data`: the target is marked
        dead and dropped, and the *next* ``send_data`` reroutes — the
        replacement's handshake replays whatever the failed flush never
        delivered, straight out of the ring buffer.
        """
        if self.stream is None or self.stream.pending_bytes == 0:
            return True
        try:
            self._flush_retrying()
            return True
        except (ConnectionError, NodeFailedError) as exc:
            reason = exc.reason if isinstance(exc, NodeFailedError) else str(exc)
            self._mark_dead(self.target, reason)
            self._drop()
            return False

    def finish(self, *, total: int, quit_first: bool) -> str:
        """Deliver stream end + report, collect PASSED.

        Returns ``"passed"`` when the downstream acknowledged, ``"tail"``
        when no downstream remains (owner must do the ring closure).
        ``quit_first`` selects the user-interrupt path (QUIT instead of
        END).

        The report payload is re-encoded from the node state on *every*
        attempt: a downstream death is often only detected here (writes to
        a freshly-dead peer succeed into the kernel socket buffer), and
        the replacement neighbour must receive a report that includes it.
        """
        while True:
            if not self._ensure_connected():
                return "tail"
            try:
                if self.sent_offset != total:
                    raise ProtocolError(
                        f"{self.owner}: finishing at {self.sent_offset}, "
                        f"stream total {total}"
                    )
                report_bytes = self.state.report.encode()
                self._send_frame(Quit() if quit_first else End(total))
                self._send_frame(Report(len(report_bytes)), report_bytes)
                msg, _ = self._recv_gated("awaiting PASSED")
                if isinstance(msg, Passed):
                    return "passed"
                if isinstance(msg, Quit):
                    # Downstream aborted after the stream ended.
                    self.downstream_aborted = True
                    self._drop()
                    return "tail"
                raise ProtocolError(f"expected PASSED, got {msg!r}")
            except (TimeoutError, ConnectionError, NodeFailedError, ProtocolError) as exc:
                reason = exc.reason if isinstance(exc, NodeFailedError) else str(exc)
                self._mark_dead(self.target, reason)
                self._drop()

    def send_quit_best_effort(self) -> None:
        """Hard-abort path: tell the downstream to quit, ignoring errors."""
        if self.stream is None:
            return
        try:
            self.stream.send_message(Quit(), timeout=self.config.io_timeout)
        except (WriteStalled, ConnectionError):
            pass
        self._drop()
