"""The Kascade node, written once: §III-C/D as generators over a *port*.

The message flow of the paper lives here and nowhere else:

* receivers send ``GET(offset)`` on **every** new upstream connection
  (deadlock-avoidance rule);
* relays store, then forward, run by run — natural backpressure: the
  pipeline never runs faster than its slowest link;
* a stalled write or a silent read is answered with a liveness ping; a
  dead downstream is routed around and the replacement's GET replays
  what it missed out of the ring buffer;
* on upstream loss a receiver simply waits for a replacement inbound
  connection: the node *before* the dead one routes around it;
* ``FORGET`` answers send the receiver to the head with ``PGET``; if the
  head cannot serve (stdin source), the receiver hard-aborts and QUITs
  both neighbours;
* after END/QUIT the report travels down the chain, the tail closes the
  ring to the head, and PASSED flows back up.

Every place the protocol waits is ``yield from`` a primitive of the
port the node was built on, so the same text runs on two drivers.  The
simulator's port (:mod:`repro.protosim.node`) yields engine events and
the DES resumes the generator; the socket port
(:mod:`repro.runtime.links`) performs the blocking call and returns
without ever yielding, so a thread drives a node with one
``send(None)``.  Failures cross ``yield from`` as ordinary exceptions
under one vocabulary: ``TimeoutError`` (nothing arrived, a write
stalled), ``ConnectionError`` (refused, reset, closed),
:class:`FramingError` (garbage on the wire) and — from any wait of a
node being stopped — :class:`TransferAborted`.

The port (duck-typed; ``*`` marks generators):

``connect(target, kind, timeout, patient=False)*``
    a stream to ``target``'s listener, or ``ConnectionError``;
    ``patient`` marks a link that has not carried anything yet, whose
    refusals a port with a start-up phase retries instead of reporting;
``offer(stream)`` / ``next_connection(timeout)*`` / ``poll_connection()``
    the inbox of inbound DATA connections;
``sleep(seconds)*`` / ``nudge()``, ``now()``, ``spawn(generator)``,
``close()`` (stop listening: this node is done).

A stream: ``recv(timeout)*`` → ``(message, payload)``,
``try_recv_run()`` → the DATA frames already buffered as one
``(first_offset, payloads, wire)`` or ``None`` (``payloads`` a
:class:`~repro.core.framing.Run` or a list), ``cork(message,
payload)``, ``cork_run(first_offset, payloads, wire)``,
``flush(timeout)*``, ``pending_bytes``, ``wake_reader()`` (end a
``recv``, now or next, with ``ConnectionError``), ``close()``, and
optionally ``cork_file(message, source, offset)``: a frame whose payload
the next flush moves from the source's descriptor itself, never read
here (``DataLossError`` once the file no longer holds it).
"""

from __future__ import annotations

import logging
from typing import Callable, Optional, Set

from . import tracing
from .config import KascadeConfig
from .errors import (DataLossError, FramingError, NodeFailedError,
                     ProtocolError, SinkError, TransferAborted)
from .buffers import DEFAULT_SEGMENT
from .framing import frame_run, run_nbytes
from .messages import (Data, End, Forget, Get, Passed, PGet, Ping, Pong, Quit,
                       Report)
from .node_state import NodeTransferState, Phase
from .plan import StripePlan
from .recovery import OfferKind, SourceKind, negotiate_offset, next_alive
from .report import NodeOutcome, TransferReport
from .sinks import Sink
from .sources import Source
from .tracing import NULL_TRACER, classify_detector

logger = logging.getLogger(__name__)

#: Connection kinds — the preamble byte a connecting side sends first:
#: data (the *accepting* node speaks first, with GET), liveness probe,
#: PGET recovery fetch and ring-closure report (both to the head).
DATA_CONN, PING_CONN, PGET_CONN, RING_CONN = b"D", b"P", b"G", b"R"


class InjectedCrash(Exception):
    """Raised inside a node's main loop by a test/benchmark crash gate."""

    def __init__(self, mode: str) -> None:
        super().__init__(f"injected crash ({mode})")
        self.mode = mode


#: Crash gate callback: given bytes received so far, return a crash mode
#: (``"close"`` or ``"silent"``) to kill the node now, or ``None``.
CrashGate = Callable[[int], Optional[str]]

#: The head's run: one receive segment's worth of chunks (fewer when the
#: ring holds less: a run must not evict its own start before the first
#: GET).  The head reads the run into its wire layout, frames it in
#: place and flushes it as one buffer, so a relay gets the burst it will
#: forward in one piece.  A chunk of a quarter segment (64 KiB) or more
#: is a run of one, as it always was: a relay receives it alone whatever
#: the head sends, and a second chunk would only hold the first back by
#: a read.  A source that cannot be re-read (a pipe) keeps quarter-segment
#: runs: its head's ring is the only replay there is, and a run as large
#: as the ring would leave nothing of it behind the run in flight.
_HEAD_FLUSH_BYTES = DEFAULT_SEGMENT


def keeps_nothing(source: Source, config: KascadeConfig) -> bool:
    """Whether a head over ``source`` holds no payload: it pushes runs
    of one (chunks of a quarter segment or more) of a seekable file with
    a descriptor, and hashes nothing.  On a stream that can send a file
    range itself (``cork_file``) such a head reads no byte: each chunk's
    frame leaves from the file, its ring window advances empty, and a
    GET anywhere below the live edge is served from the file — a head's
    window over its file is the whole file.  Elsewhere (the simulator's
    port) it reads and keeps its runs like any head."""
    return (config.chunk_size >= _HEAD_FLUSH_BYTES // 4
            and not config.verify_digest
            and source.kind is SourceKind.SEEKABLE_FILE
            and hasattr(source, "fileno"))


class Link:
    """This node's connection to its (current) downstream neighbour.

    Both the head and every relay own one.  It hides the messy part of
    the protocol behind :meth:`send_data` / :meth:`send_run` (forward,
    detecting a dead downstream, rerouting to the next alive node and
    replaying what it missed from the ring), :meth:`finish` (END/QUIT +
    report, collect PASSED, same rerouting) and
    :attr:`is_effective_tail` (no alive downstream is left: the owner
    has the tail's ring-closure duty).
    """

    def __init__(self, owner: str, plan: StripePlan, port,
                 config: KascadeConfig, state: NodeTransferState,
                 tracer=NULL_TRACER) -> None:
        self.owner = owner
        self.plan = plan
        self.port = port
        self.config = config
        self.state = state
        self.tracer = tracer
        self.stream = None
        self.target: Optional[str] = None
        self.dead: Set[str] = set()
        self.sent_offset = 0
        #: A GET handshake has completed on this link at least once:
        #: start-up is over, a refused connect now means a dead node.
        self._handshaken = False
        #: Downstream deliberately quit (unrecoverable data loss after
        #: FORGET): stop forwarding, do NOT treat as a failure.
        self.downstream_aborted = False
        #: The file a head that keeps nothing sends from (see
        #: :func:`keeps_nothing`); ``None`` on every other node.
        self.file = None

    # -- connection management ------------------------------------------

    @property
    def is_effective_tail(self) -> bool:
        """No alive, non-aborted downstream remains."""
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

    @property
    def sends_file(self) -> bool:
        """The stream moves payload from :attr:`file` itself."""
        return self.file is not None and hasattr(self.stream, "cork_file")

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
        self.stream = None
        self.target = None

    def _lost(self, exc: BaseException, prefix: str = "") -> None:
        """The current target failed: record the verdict, let go of it."""
        reason = exc.reason if isinstance(exc, NodeFailedError) else str(exc)
        self._mark_dead(self.target, prefix + reason)
        self.close()

    def _ensure_connected(self):
        """Connect to the next alive downstream and complete its GET
        handshake (replaying buffered bytes).  Returns False when this
        node has become the effective tail."""
        cfg = self.config
        while not self.downstream_aborted:
            if self.stream is not None:
                return True
            target = next_alive(self.plan, self.owner, self.dead)
            if target is None:
                return False
            # Start-up is not mid-transfer failure detection (§III-B:
            # data flows only once every node is launched): until this
            # link has handshaken or sent a byte, a refusal may only mean
            # the peer's listener is not up yet.
            try:
                stream = yield from self.port.connect(
                    target, DATA_CONN, cfg.connect_timeout,
                    patient=self.sent_offset == 0 and not self._handshaken)
            except ConnectionError as exc:
                self._mark_dead(target, f"connect-failed: {exc}")
                continue
            # The receiver sends GET(offset) on *every* new connection —
            # the paper's deadlock-avoidance rule (§III-D2).
            try:
                msg, _ = yield from stream.recv(
                    cfg.connect_timeout + cfg.io_timeout)
            except (TimeoutError, ConnectionError, FramingError) as exc:
                stream.close()
                self._mark_dead(target, f"no-handshake: {exc}")
                continue
            except TransferAborted:
                stream.close()  # stopped mid-handshake: still only ours
                raise
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
            if (yield from self._serve_handshake(msg.offset)):
                return True
            # handshake/replay failed; _serve_handshake dropped the stream
        return False

    def _serve_handshake(self, requested: int):
        """Answer a GET(requested): replay from the buffer or send FORGET
        and wait for the receiver's follow-up GET after its PGET fetch."""
        from_file = self.sends_file
        try:
            offer = (negotiate_offset(requested, 0, self.state.offset,
                                      SourceKind.SEEKABLE_FILE)
                     if from_file else self.state.answer_get(requested))
        except ValueError as exc:
            # The receiver claims bytes beyond our live edge — poisoned
            # state; declare it dead rather than corrupt the stream.
            self._lost(exc, "bad-get: ")
            return False
        try:
            if offer.kind is OfferKind.SERVE_FROM_BUFFER:
                self.sent_offset = offer.resume_at
                if from_file:
                    self._replay_file()
                for off, piece in self.state.buffer.iter_chunks_from(
                        self.sent_offset):
                    self.stream.cork(Data(off, len(piece)), piece)
                    self.sent_offset = off + len(piece)
                yield from self._flush_retrying()
                return True
            # Relay (or stream-head) cannot serve: FORGET(min); the
            # receiver PGETs the hole from the head then re-GETs.
            self.tracer.emit(tracing.FORGET, self.owner, peer=self.target,
                             offset=offer.resume_at, detail="sent")
            self.stream.cork(Forget(offer.resume_at))
            yield from self._flush_retrying()
            msg, _ = yield from self._recv_gated("awaiting GET after FORGET")
            if isinstance(msg, Quit):
                # Receiver could not recover (head answered FORGET).
                self.downstream_aborted = True
                self.close()
                return False
            if isinstance(msg, Get):
                return (yield from self._serve_handshake(msg.offset))
            raise ProtocolError(f"expected GET/QUIT after FORGET, got {msg!r}")
        except (TimeoutError, ConnectionError, NodeFailedError,
                ProtocolError) as exc:
            self._lost(exc, "handshake-lost: ")
            return False

    def _replay_file(self) -> None:
        """Cork the file from :attr:`sent_offset` to the live edge, a
        chunk a frame (the first up to a chunk boundary)."""
        chunk, end = self.config.chunk_size, self.state.offset
        pos = self.sent_offset
        while pos < end:
            size = min(chunk - pos % chunk, end - pos)
            self.stream.cork_file(Data(pos, size), self.file, pos)
            pos = self.sent_offset = pos + size

    # -- stall detection: timeout + liveness ping (§III-D1) -------------

    def _ping_target(self):
        """Open a side connection and ping; True if the peer answers,
        ``None`` if it no longer listens (refused), else False."""
        timeout, answered, probe = self.config.ping_timeout, None, None
        try:
            probe = yield from self.port.connect(self.target, PING_CONN,
                                                 timeout)
            answered = False
            probe.cork(Ping(1))
            yield from probe.flush(timeout)
            msg, _ = yield from probe.recv(timeout)
            answered = isinstance(msg, Pong)
        except (TimeoutError, ConnectionError, FramingError):
            pass
        finally:
            if probe is not None:
                probe.close()
        self.tracer.emit(tracing.PING, self.owner, peer=self.target,
                         detail="answered" if answered else "unanswered")
        return answered

    def _flush_retrying(self):
        """Flush corked frames, tolerating stalls while the peer lives.

        A stalled write can mean: the peer died, a *later* node died and
        backpressure propagated, or plain congestion (§III-D1).  We ping;
        while the peer answers we keep waiting (the run's own deadline is
        the ultimate guard), otherwise raise :class:`NodeFailedError`.
        Corked buffers are queued by reference and survive a stall, so a
        stall + resume cycle cannot lose or duplicate payload bytes.
        """
        stream, timeout = self.stream, self.config.io_timeout
        try:
            yield from stream.flush(timeout)
            return
        except TimeoutError:
            self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                             offset=self.sent_offset, detail="write")
        while True:
            if not (yield from self._ping_target()):
                raise NodeFailedError(self.target,
                                      "write-stalled, ping unanswered")
            try:
                yield from stream.flush(timeout)
                return
            except TimeoutError:
                continue

    def _recv_gated(self, wait_reason: str):
        """Receive one frame, tolerating silence while the peer stays alive.

        On each read timeout the peer is pinged: a live peer (merely
        waiting on *its* downstream) buys more time; a dead one raises
        :class:`NodeFailedError` after roughly ``io + ping`` seconds —
        this is what keeps failure detection latency flat instead of
        cascading one ``report_timeout`` per pipeline position.
        """
        while True:
            try:
                return (yield from self.stream.recv(self.config.io_timeout))
            except TimeoutError:
                self.tracer.emit(tracing.STALL, self.owner, peer=self.target,
                                 detail=f"read: {wait_reason}")
                answered = yield from self._ping_target()
                if answered is None:
                    # No longer listening: finished (its last frame, a
                    # PASSED, may still be on the way) or dead (and its
                    # data connection ending too).  That connection says.
                    try:
                        return (yield from self.stream.recv(
                            self.config.ping_timeout))
                    except (TimeoutError, ConnectionError):
                        pass
                if not answered:
                    raise NodeFailedError(
                        self.target, f"{wait_reason}: silent, ping unanswered"
                    ) from None

    # -- public operations -----------------------------------------------

    def cork_data(self, offset: int, payload) -> None:
        """Queue one chunk (any bytes-like buffer, by reference) for the
        connected downstream; a no-op at the tail.

        Corking never blocks and never fails: a dead peer shows at the
        :meth:`flush` that must follow, and what was lost to it is
        covered by the replay — the replacement's GET rewinds
        ``sent_offset`` to what actually arrived, after which chunks the
        replay already delivered are skipped here.
        """
        if self.stream is None:
            return
        end = offset + len(payload)
        if self.sent_offset >= end:
            return  # replay already delivered this chunk
        if self.sent_offset != offset:
            raise ProtocolError(
                f"{self.owner}: forward desync: sent {self.sent_offset}, "
                f"chunk at {offset}"
            )
        self.stream.cork(Data(offset, len(payload)), payload)
        self.sent_offset = end

    def cork_run(self, first_offset: int, payloads, wire) -> None:
        """Queue a run of chunks for the connected downstream (no-op at
        the tail).

        ``payloads`` are consecutive chunks starting at ``first_offset``
        (a :class:`~repro.core.framing.Run` or a list) and ``wire`` their
        wire bytes, headers included, as one buffer: the view a relay
        received them in, or the segment the head framed them in.
        When the link stands exactly at the run's start those bytes are
        queued as they are — a relayed frame is the received frame.
        Otherwise (a replacement's GET replay already covered part of
        the run) each chunk takes :meth:`cork_data`, which skips what
        was delivered.
        """
        if self.stream is None:
            return
        if self.sent_offset == first_offset:
            self.stream.cork_run(first_offset, payloads, wire)
            self.sent_offset = first_offset + run_nbytes(payloads)
            return
        for payload in payloads:
            self.cork_data(first_offset, payload)
            first_offset += len(payload)

    def send_data(self, offset: int, payload, *, flush: bool = True):
        """Forward one chunk downstream; True unless no downstream remains.

        Connects (or reroutes to the next alive node) first if need be,
        corks the chunk, and with ``flush`` pushes it out — on a failed
        flush the loop reroutes and the replacement's replay delivers
        the chunk.  ``flush=False`` only corks (small-chunk batching);
        call :meth:`flush` before blocking on anything else.
        """
        while True:
            if self.stream is None and not (yield from self._ensure_connected()):
                return False
            self.cork_data(offset, payload)
            if not flush or (yield from self.flush()):
                return True

    def send_run(self, first_offset: int, payloads, wire):
        """:meth:`cork_run`, connecting first if need be; True unless no
        downstream remains."""
        if self.stream is None and not (yield from self._ensure_connected()):
            return False
        self.cork_run(first_offset, payloads, wire)
        return True

    def send_file(self, offset: int, size: int):
        """:meth:`send_run` for one chunk the stream moves from
        :attr:`file` itself (unless a replay already did)."""
        if self.stream is None and not (yield from self._ensure_connected()):
            return False
        if self.sent_offset < offset + size:
            if self.sent_offset != offset:
                raise ProtocolError(
                    f"{self.owner}: forward desync: sent {self.sent_offset}, "
                    f"chunk at {offset}")
            self.stream.cork_file(Data(offset, size), self.file, offset)
            self.sent_offset = offset + size
        return True

    @property
    def pending_bytes(self) -> int:
        """Bytes corked in the send queue, awaiting :meth:`flush`."""
        return self.stream.pending_bytes if self.stream is not None else 0

    def flush(self):
        """Push corked frames to the wire; True unless the peer failed.

        On failure the target is marked dead and dropped, and the *next*
        forward reroutes — the replacement's handshake replays whatever
        the failed flush never delivered, straight out of the ring.
        """
        if self.stream is None:
            return True
        try:
            yield from self._flush_retrying()
            return True
        except (ConnectionError, NodeFailedError) as exc:
            self._lost(exc)
            return False

    def finish(self, *, total: int, quit_first: bool):
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
            if not (yield from self._ensure_connected()):
                return "tail"
            try:
                if self.sent_offset != total and not quit_first:
                    raise ProtocolError(
                        f"{self.owner}: finishing at {self.sent_offset}, "
                        f"stream total {total}"
                    )
                report_bytes = self.state.report.encode()
                self.stream.cork(Quit() if quit_first else End(total))
                self.stream.cork(Report(len(report_bytes)), report_bytes)
                yield from self._flush_retrying()
                msg, _ = yield from self._recv_gated("awaiting PASSED")
                if isinstance(msg, Passed):
                    return "passed"
                if isinstance(msg, Quit):
                    # Downstream aborted after the stream ended.
                    self.downstream_aborted = True
                    self.close()
                    return "tail"
                raise ProtocolError(f"expected PASSED, got {msg!r}")
            except (TimeoutError, ConnectionError, NodeFailedError,
                    ProtocolError) as exc:
                self._lost(exc)


def _say(stream, msg, timeout: float):
    """Send one control frame; whether it left (a lost peer is not news)."""
    try:
        stream.cork(msg)
        yield from stream.flush(timeout)
        return True
    except (TimeoutError, ConnectionError):
        return False


class Node:
    """State and steps shared by the head and the receivers."""

    serves_pget = False
    _chunk_verb = "recv"  # how CHUNK events say this role got its chunk

    def __init__(self, name: str, plan: StripePlan, port,
                 config: KascadeConfig, state: NodeTransferState,
                 crash_gate: Optional[CrashGate], tracer) -> None:
        if not isinstance(plan, StripePlan):
            raise TypeError(f"{type(self).__name__} runs one stripe: pass "
                            f"plan.stripe(j), not a {type(plan).__name__}")
        self.name = name
        self.plan = plan
        self.port = port
        self.config = config
        self.tracer = tracer
        self.crash_gate = crash_gate
        self.state = state
        self.link = Link(name, self.plan, port, config, state, tracer)
        self.outcome = NodeOutcome(name=name)
        #: Where stored runs go besides the ring: a receiver's sink.
        self._write = None

    def on_connection(self, kind: bytes, stream) -> None:
        """The driver's acceptor hands over one inbound connection."""
        if kind == PING_CONN:
            self.port.spawn(self.answer_ping(stream))
        elif kind == DATA_CONN and not self.serves_pget:  # i.e. not a head
            self.adopt_data_connection(stream)
        elif kind == PGET_CONN and self.serves_pget:
            self.port.spawn(self.serve_pget(stream))
        elif kind == RING_CONN and self.serves_pget:
            self.port.spawn(self.handle_ring(stream))
        else:
            stream.close()

    def close_connections(self) -> None:
        """Owner's call, once the main loop has exited: stop listening
        and close every data connection."""
        self.port.close()
        self.link.close()

    def answer_ping(self, stream):
        """Liveness probe: answer and close (§III-D1)."""
        timeout = self.config.ping_timeout
        try:
            msg, _ = yield from stream.recv(timeout)
            if isinstance(msg, Ping):
                yield from _say(stream, Pong(msg.nonce), timeout)
        except (TimeoutError, ConnectionError, FramingError):
            pass
        finally:
            stream.close()

    # -- data plane: the run is the unit --------------------------------

    def _store_run(self, first_offset: int, payloads) -> None:
        """Account for a run at once, trace its chunks, keep them: the
        ring and the sink take a :class:`~repro.core.framing.Run` whole,
        and its chunks' views are made only for what asks for them.

        A node with a crash gate (a planned victim, a deploy agent
        reporting progress) walks its run as runs of one: the gate is asked
        after every chunk — after the store, before the forward — so a
        crash leaves exactly those chunks stored.
        """
        gate = self.crash_gate
        if gate is not None and len(payloads) > 1:
            for payload in payloads:
                self._store_run(first_offset, (payload,))
                first_offset += len(payload)
            return
        state = self.state
        state.on_run(first_offset, payloads)
        if self.tracer.enabled:
            offset = first_offset
            for payload in payloads:
                self.tracer.emit(tracing.CHUNK, self.name, offset=offset,
                                 detail=f"{self._chunk_verb} {len(payload)}")
                offset += len(payload)
        write = self._write
        if write is not None:
            write(payloads)
        self._stored()

    def _stored(self) -> None:
        """Count what is stored, then ask the crash gate about it."""
        stored = self.outcome.bytes_received = self.state.buffer.end_offset
        gate = self.crash_gate
        if gate is not None:
            mode = gate(stored)
            if mode is not None:
                raise InjectedCrash(mode)

    def _done(self, ok: bool) -> None:
        self.outcome.ok = ok
        self.outcome.failures_detected = list(self.state.report.failures)
        self.tracer.emit(tracing.DONE, self.name, offset=self.state.offset,
                         detail="ok" if ok else "failed")


class Head(Node):
    """The sending node: streams the source, serves PGET, owns the ring."""

    serves_pget = True
    _chunk_verb = "read"

    def __init__(self, name: str, plan: StripePlan, port,
                 config: KascadeConfig, source: Source,
                 crash_gate: Optional[CrashGate] = None, tracer=NULL_TRACER,
                 resume_offset: int = 0) -> None:
        state = NodeTransferState(name, config, source_kind=source.kind)
        super().__init__(name, plan, port, config, state, crash_gate, tracer)
        self.source = source
        if keeps_nothing(source, config):
            self.link.file = source
        if resume_offset:
            # Promoted-head resume (head failover): the stream restarts at
            # the live edge — the most-complete survivor's watermark.  The
            # ring window opens empty there, so a receiver whose GET lands
            # below it is sent FORGET and fetches the gap via PGET, which
            # the seekable resumed source serves by random access.
            state.buffer.note_advance(resume_offset)
            self.outcome.bytes_received = resume_offset
        self.quit_requested = False
        self.final_report: Optional[TransferReport] = None
        self._ring_report: Optional[TransferReport] = None

    def request_quit(self) -> None:
        """User interruption: stop after the current run (QUIT path)."""
        self.quit_requested = True
        self.port.nudge()

    # -- PGET and ring service (spawned by the acceptor) -----------------

    def serve_pget(self, stream):
        """Serve a recovery range request from a rerouted receiver.

        A stream that can move a file range by itself (``cork_file``:
        ``sendfile`` from the page cache to the socket) is given the
        source's descriptor instead of its bytes.
        """
        cfg = self.config
        try:
            msg, _ = yield from stream.recv(cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, PGet):
                raise ProtocolError(f"expected PGET, got {msg!r}")
            self.tracer.emit(tracing.PGET, self.name, offset=msg.offset,
                             detail=f"serve until={msg.until}")
            offer = self.state.answer_pget(msg.offset, msg.until)
            if offer.kind is OfferKind.FORGET:
                yield from _say(stream, Forget(offer.resume_at), cfg.io_timeout)
                return
            cork_file = (getattr(stream, "cork_file", None)
                         if hasattr(self.source, "fileno") else None)
            pos = msg.offset
            while pos < msg.until:
                size = min(cfg.chunk_size, msg.until - pos)
                if cork_file is not None:
                    cork_file(Data(pos, size), self.source, pos)
                else:
                    piece = self.source.read_range(pos, size)
                    size = len(piece)
                    stream.cork(Data(pos, size), piece)
                yield from stream.flush(cfg.report_timeout)
                pos += size
        except (TimeoutError, ConnectionError, ProtocolError,
                DataLossError) as exc:
            logger.info("%s: PGET service aborted: %s", self.name, exc)
        finally:
            stream.close()

    def handle_ring(self, stream):
        """Receive the tail's final report on the ring-closure connection."""
        cfg = self.config
        try:
            msg, payload = yield from stream.recv(
                cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, Report):
                raise ProtocolError(f"expected REPORT on ring, got {msg!r}")
            self._ring_report = TransferReport.decode(payload)
            self.tracer.emit(tracing.REPORT, self.name, detail="ring-closure")
            yield from _say(stream, Passed(), cfg.io_timeout)
            self.port.nudge()
        except (TimeoutError, ConnectionError, ProtocolError) as exc:
            logger.info("%s: ring report failed: %s", self.name, exc)
        finally:
            stream.close()

    # -- main loop --------------------------------------------------------

    def run(self):
        cfg, state, link, port = self.config, self.state, self.link, self.port
        bucket = None
        if cfg.bandwidth_limit is not None:
            from .pacing import TokenBucket
            bucket = TokenBucket(cfg.bandwidth_limit)
        chunk_size = cfg.chunk_size
        quarter = _HEAD_FLUSH_BYTES // 4  # (see _HEAD_FLUSH_BYTES)
        run_bytes = (_HEAD_FLUSH_BYTES if chunk_size < quarter and
                     self.source.kind is SourceKind.SEEKABLE_FILE else quarter)
        count = max(1, min(run_bytes, cfg.buffer_bytes) // chunk_size)
        source, failure = self.source, None
        while not self.quit_requested:
            # One run is one segment: read into the payload slots of its
            # frames, headers packed in place, stored at once and queued
            # as the one buffer it is.  A large chunk is a run of one:
            # chunk-by-chunk backpressure, as ever.  A short last chunk
            # (the source's last, a pipe's short read) is the run's last
            # frame, and the run a list of views.  A head that keeps
            # nothing reads nothing: its stream sends the chunk from the
            # file — which only a stream can say, so it connects first.
            try:
                if link.file is not None and link.stream is None:
                    yield from link._ensure_connected()
                unread = link.sends_file
                if unread:
                    size = source.skip(chunk_size)
                else:
                    wire = source.read_run(chunk_size, count)
                    size = len(wire)
                if not size:
                    break
                off = state.offset
                if not unread:
                    chunks, wire = frame_run(wire, off, chunk_size)
                    size = run_nbytes(chunks)
                if bucket is not None:
                    delay = bucket.reserve(size, port.now())
                    if delay > 0:
                        yield from port.sleep(delay)
                        if self.quit_requested:
                            break
                if unread:
                    state.on_data_spliced(off, size)  # the window, empty
                    if self.tracer.enabled:
                        self.tracer.emit(tracing.CHUNK, self.name, offset=off,
                                         detail=f"read {size}")
                    self._stored()
                    sent = yield from link.send_file(off, size)
                else:
                    self._store_run(off, chunks)
                    sent = yield from link.send_run(off, chunks, wire)
                if not sent:
                    # Every receiver is dead or aborted: stop streaming.
                    break
                yield from link.flush()
            except DataLossError as exc:
                # The source failed (a file truncated under the run), not
                # a peer: nobody is declared dead.  A frame whose header
                # left without its payload has spoilt its connection,
                # which is dropped without a word; on a clean one the
                # receivers are told to QUIT.
                failure = f"source failure: {exc}"
                if link.pending_bytes:
                    link.close()
                    link.downstream_aborted = True
                break
        yield from link.flush()
        self._source_drained()
        total = state.offset
        aborting = self.quit_requested or failure is not None
        if aborting:
            self.tracer.emit(tracing.QUIT, self.name, offset=total,
                             detail=failure or "user interrupt")
            state.on_quit()
        else:
            state.on_end(total)
            state.attach_source_digest()  # integrity mode: publish digest
        outcome = yield from link.finish(total=total, quit_first=aborting)
        if outcome == "passed":
            # The tail's ring connection may still be in flight.
            deadline = port.now() + cfg.report_timeout
            while self._ring_report is None and port.now() < deadline:
                yield from port.sleep(deadline - port.now())
        self.final_report = (self._ring_report
                             if self._ring_report is not None else state.report)
        if failure is not None:
            self.outcome.error = failure
        elif outcome != "passed":
            self.outcome.error = "no downstream completed the transfer"
        self._done(outcome == "passed" and not aborting)
        state.on_passed()
        link.close()
        port.close()

    def _source_drained(self) -> None:
        """Driver hook: streaming is over, only PGET service reads on."""

    def close_connections(self) -> None:
        self._source_drained()
        super().close_connections()


class Receiver(Node):
    """A receiving node: stores the stream and forwards it downstream."""

    #: The sink holds the whole stream and is finished: a node rebuilt
    #: from this one after a head re-root has nothing to add to it, and
    #: must not settle it again (``Host.resume``).
    sink_finished = False

    def __init__(self, name: str, plan: StripePlan, port,
                 config: KascadeConfig, sink: Sink,
                 crash_gate: Optional[CrashGate] = None, tracer=NULL_TRACER,
                 resume_offset: int = 0) -> None:
        state = NodeTransferState(name, config)
        super().__init__(name, plan, port, config, state, crash_gate, tracer)
        self.sink = sink
        self._write = sink.write_run
        if resume_offset:
            # Resuming after a head re-root: bytes up to ``resume_offset``
            # are already in the (retained) sink; the GET this node sends
            # on its first upstream connection asks for the remainder.
            state.buffer.note_advance(resume_offset)
            self.outcome.bytes_received = resume_offset
        self.upstream = None
        #: When the current upstream last delivered a frame, or was
        #: adopted (main loop writes, the acceptor reads).
        self._last_progress = port.now()

    # -- upstream management ----------------------------------------------

    def adopt_data_connection(self, stream) -> None:
        """Queue a new upstream; end the read on a quiet one it replaces.

        A DATA connection arriving while the upstream has been quiet for
        ``io_timeout`` means the node before a dead one routed around it
        (§III-D): the old connection will never carry another byte, so
        its reader is woken instead of left to find the replacement at
        its next read timeout.  An upstream that is still delivering is
        left alone — a stray connection must not displace it; the
        newcomer waits for the next read timeout, if there ever is one.
        """
        # Read before queueing: the main loop may adopt `stream` the
        # moment it is queued, and must not then be the one woken.
        replaced = self.upstream
        quiet_for = self.port.now() - self._last_progress
        self.port.offer(stream)
        if replaced is not None and quiet_for >= self.config.io_timeout:
            replaced.wake_reader()

    def _adopt_upstream(self, stream, detail: str):
        """GET on a queued connection and make it the upstream."""
        try:
            said = yield from _say(stream, Get(self.state.offset),
                                   self.config.io_timeout)
        except TransferAborted:
            stream.close()  # stopped mid-handshake: still only ours
            raise
        if not said:
            stream.close()
            return False
        # Stamped before the stream is published, so the acceptor never
        # pairs the new upstream with the old one's quietness.
        self._last_progress = self.port.now()
        self.upstream = stream
        self.tracer.emit(tracing.CONNECT, self.name,
                         offset=self.state.offset, detail=detail)
        return True

    def _acquire_upstream(self):
        """Wait until an inbound data connection exists, then GET on it."""
        port = self.port
        deadline = port.now() + self.config.report_timeout
        while self.upstream is None:
            try:
                stream = yield from port.next_connection(
                    max(0.0, deadline - port.now()))
            except TimeoutError:
                raise TransferAborted(
                    f"{self.name}: no upstream connection arrived") from None
            yield from self._adopt_upstream(stream, "upstream")

    def _switch_upstream_if_replaced(self):
        """If a newer inbound connection was queued, adopt it (the previous
        upstream was routed around).  Returns True if switched."""
        stream = self.port.poll_connection()
        if stream is None:
            return False
        self._drop_upstream()
        return (yield from self._adopt_upstream(stream, "upstream-replaced"))

    def _drop_upstream(self) -> None:
        if self.upstream is not None:
            self.upstream.close()
            self.upstream = None

    def close_connections(self) -> None:
        self._drop_upstream()
        super().close_connections()

    # -- recovery: PGET hole fetch ----------------------------------------

    def _fetch_hole_from_head(self, until: int):
        """Fetch [offset, until) from the head after a FORGET (§III-D2).

        Returns False when the head answers FORGET too — the data is
        unrecoverable and this node (and everything downstream) aborts.
        """
        cfg = self.config
        self.tracer.emit(tracing.PGET, self.name, peer=self.plan.head,
                         offset=self.state.offset, detail=f"until={until}")
        try:
            stream = yield from self.port.connect(self.plan.head, PGET_CONN,
                                                  cfg.connect_timeout)
        except ConnectionError:
            return False
        try:
            stream.cork(PGet(self.state.offset, until))
            yield from stream.flush(cfg.io_timeout)
            while self.state.offset < until:
                msg, payload = yield from stream.recv(cfg.report_timeout)
                if isinstance(msg, Forget):
                    return False
                if not isinstance(msg, Data):
                    raise ProtocolError(f"expected DATA from PGET, got {msg!r}")
                self._store_run(msg.offset, (payload,))
                yield from self.link.send_data(msg.offset, payload)
            return True
        except (TimeoutError, ConnectionError, ProtocolError):
            return False
        finally:
            stream.close()

    def _hard_abort(self, reason: str):
        """Unrecoverable data loss: QUIT both neighbours and die failed."""
        logger.info("%s: aborting: %s", self.name, reason)
        self.tracer.emit(tracing.QUIT, self.name, offset=self.state.offset,
                         detail=reason)
        for stream in (self.upstream, self.link.stream):
            if stream is not None:  # best effort: a lost peer is not news
                yield from _say(stream, Quit(), self.config.io_timeout)
        self.link.close()
        self.sink.abort()
        self.outcome.error = reason
        self._drop_upstream()
        self.port.close()

    # -- main loop ------------------------------------------------------------

    def run(self):
        state = self.state
        try:
            upstream_report = yield from self._stream_loop()
        except (SinkError, OSError) as exc:
            # Peer connection errors are handled inside the loop; what
            # escapes to here is local storage failing (ENOSPC from the
            # filesystem, a dead sink command) — §III-D treats that as
            # unrecoverable for this node: QUIT both neighbours.
            yield from self._hard_abort(f"sink failure: {exc}")
            return
        if upstream_report is None:
            return  # the loop already hard-aborted

        # ---- report exchange phase ----
        aborted = state.phase is Phase.ABORTED
        state.merge_upstream_report(upstream_report)
        digest_ok = state.verify_against_report()
        if digest_ok is False:
            # Corrupted local copy: flag ourselves before forwarding the
            # report so the head learns, and fail this node's outcome.
            state.record_failure(self.name, "digest-mismatch")
            self.outcome.error = "stored data failed digest verification"
        # Settle storage BEFORE acknowledging the transfer: a writeback
        # queue still draining may yet hit ENOSPC, and claiming success
        # (PASSED) for bytes that never reached disk would be a lie.
        if aborted:
            self.sink.abort()
        else:
            try:
                self.sink.finish()
            except (SinkError, OSError) as exc:
                yield from self._hard_abort(f"sink failure: {exc}")
                return
            self.sink_finished = True
        outcome = yield from self.link.finish(total=state.offset,
                                              quit_first=aborted)
        if outcome == "tail":
            yield from self._ring_deliver(state.report.encode())
        # DONE *before* acknowledging upstream: PASSED flows tail to
        # head, so DONE events order causally (tail first, head last) on
        # every driver.
        self._done(not aborted and state.complete and digest_ok is not False)
        if self.upstream is not None:
            yield from _say(self.upstream, Passed(), self.config.io_timeout)
        state.on_passed()
        self._drop_upstream()
        self.link.close()
        self.port.close()

    def _stream_loop(self):
        """Receive/store/forward until END+report; ``None`` = aborted.

        Storage errors (``SinkError``/``OSError``) propagate to the
        caller, which maps them to the hard-abort path.
        """
        cfg, state, link, port = self.config, self.state, self.link, self.port
        io_timeout, store, now = cfg.io_timeout, self._store_run, port.now
        upstream_report: Optional[bytes] = None

        while True:
            if upstream_report is not None and state.phase is Phase.ENDED:
                return upstream_report
            upstream = self.upstream
            if upstream is None:
                yield from self._acquire_upstream()
                continue
            try:
                msg, payload = yield from upstream.recv(io_timeout)
            except FramingError as exc:
                # A poisoned byte stream cannot be resynchronised: drop
                # the connection and wait for a clean reconnect, exactly
                # as if the peer had died.  Garbage from a confused or
                # malicious peer must never take the node down.
                logger.info("%s: dropping upstream on bad frame: %s",
                            self.name, exc)
                self._drop_upstream()
                continue
            except (TimeoutError, ConnectionError) as exc:
                # The read ended without a frame: the peer went silent or
                # away, or the acceptor queued a replacement and woke us.
                if (yield from self._switch_upstream_if_replaced()):
                    continue
                if isinstance(exc, ConnectionError):
                    self._drop_upstream()
                elif now() - self._last_progress > cfg.report_timeout:
                    yield from self._hard_abort(
                        "upstream silent beyond deadline")
                    return None
                continue
            self._last_progress = now()

            if msg.__class__ is Data:
                # Batch the burst: the read that completed this frame
                # usually delivered dozens more.  They are taken as one
                # run — stored at once, forwarded as the bytes they
                # came in — and everything corked leaves in one
                # vectored send.  Whatever ended the run (another
                # opcode, an offset gap, a bad byte, a partial frame) is
                # still buffered: the next ``recv`` meets it.
                store(msg.offset, (payload,))
                if link.stream is None:  # first chunk, or the last flush failed
                    yield from link._ensure_connected()
                link.cork_data(msg.offset, payload)
                run = upstream.try_recv_run()
                if run is not None:
                    # The payloads are views into the upstream's receive
                    # buffer; the *same* views go to the ring, the sink
                    # and — as the wire bytes they arrived in — the link:
                    # no byte copied, no header re-encoded.
                    store(run[0], run[1])
                    link.cork_run(*run)
                if link.pending_bytes:
                    yield from link.flush()
            elif isinstance(msg, End):
                if state.phase is Phase.STREAMING:
                    state.on_end(msg.total)
                elif state.total_size != msg.total:
                    raise ProtocolError(
                        f"{self.name}: conflicting END totals "
                        f"{state.total_size} vs {msg.total}"
                    )
                # else: duplicate END from a rerouted upstream — ignore.
            elif isinstance(msg, Report):
                # Detach from the pooled receive buffer: the report is
                # held across the rest of the transfer (rare + small, so
                # the copy is fine — and frees the pool segment it pins).
                upstream_report = bytes(payload)
                self.tracer.emit(tracing.REPORT, self.name, detail="upstream")
            elif isinstance(msg, Forget):
                self.tracer.emit(tracing.FORGET, self.name,
                                 offset=msg.min_offset, detail="received")
                if not (yield from self._fetch_hole_from_head(msg.min_offset)):
                    yield from self._hard_abort(
                        "data lost beyond recovery (FORGET)")
                    return None
                # Hole filled; re-request the live stream from upstream.
                if not (yield from _say(upstream, Get(state.offset),
                                        cfg.io_timeout)):
                    self._drop_upstream()
            elif isinstance(msg, Quit):
                self.tracer.emit(tracing.QUIT, self.name,
                                 offset=state.offset, detail="received")
                state.on_quit()
                # Graceful (user-interrupt) aborts are followed by a REPORT.
                try:
                    rmsg, rpayload = yield from upstream.recv(cfg.io_timeout)
                except (TimeoutError, ConnectionError, FramingError):
                    rmsg = None
                if isinstance(rmsg, Report):
                    return bytes(rpayload)
                yield from self._hard_abort("upstream quit without report")
                return None
            else:
                raise ProtocolError(
                    f"{self.name}: unexpected {msg!r} from upstream")

    def _ring_deliver(self, report_bytes: bytes):
        """Tail duty: close the ring and deliver the report to the head."""
        cfg = self.config
        try:
            stream = yield from self.port.connect(self.plan.head, RING_CONN,
                                                  cfg.connect_timeout)
        except ConnectionError:
            logger.info("%s: head unreachable for ring report", self.name)
            return
        try:
            stream.cork(Report(len(report_bytes)), report_bytes)
            yield from stream.flush(cfg.report_timeout)
            msg, _ = yield from stream.recv(cfg.report_timeout)
            if not isinstance(msg, Passed):
                logger.info("%s: unexpected ring answer %r", self.name, msg)
        except (TimeoutError, ConnectionError, FramingError) as exc:
            logger.info("%s: ring delivery failed: %s", self.name, exc)
        finally:
            stream.close()
