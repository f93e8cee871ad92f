"""Kascade node roles for the real TCP runtime.

A node is one participant of the broadcast pipeline, run as a pair of
threads: an *acceptor* owning the listen socket, and the role's main loop
(:class:`HeadNode` streams the source; :class:`ReceiverNode` receives,
stores, and forwards).

The message flow implements §III-C/§III-D of the paper:

* receivers send ``GET(offset)`` on **every** new upstream connection
  (deadlock-avoidance rule);
* relays forward DATA chunk-by-chunk, which gives natural backpressure —
  the pipeline never runs faster than its slowest link;
* on upstream loss a receiver simply waits for a replacement inbound
  connection: the node *before* the dead one routes around it;
* ``FORGET`` answers send the receiver to the head with ``PGET``; if the
  head cannot serve (stdin source), the receiver hard-aborts and QUITs
  both neighbours;
* after END/QUIT the report travels down the chain, the tail closes the
  ring to the head, and PASSED flows back up.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Callable, List, Optional

from ..core.config import KascadeConfig
from ..core.errors import (
    FramingError,
    NodeFailedError,
    ProtocolError,
    SinkError,
    TransferAborted,
)
from ..core.framing import encode_run
from ..core.messages import (
    Data,
    End,
    Forget,
    Get,
    Passed,
    PGet,
    Ping,
    Pong,
    Quit,
    Report,
)
from ..core.node_state import NodeTransferState, Phase
from ..core.pipeline import PipelinePlan
from ..core.plan import coerce_stripe_plan
from ..core.recovery import OfferKind
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import Source
from ..core.stages import ReadAheadSource, SinkWriter
from ..core import tracing
from ..core.tracing import NULL_TRACER
from .links import DownstreamLink
from .registry import Registry
from .result import NodeOutcome
from .transport import (
    DATA_CONN,
    HAS_SENDFILE,
    PGET_CONN,
    PING_CONN,
    RING_CONN,
    Listener,
    SocketStream,
    WriteStalled,
    connect,
)

logger = logging.getLogger(__name__)


class InjectedCrash(Exception):
    """Raised inside a node's main loop by a test/benchmark crash gate."""

    def __init__(self, mode: str) -> None:
        super().__init__(f"injected crash ({mode})")
        self.mode = mode


#: Crash gate callback: given bytes received so far, return a crash mode
#: (``"close"`` or ``"silent"``) to kill the node now, or ``None``.
CrashGate = Callable[[int], Optional[str]]

#: The head's run: it reads, frames and corks this many source bytes at
#: once (fewer when the ring holds less: a run must not evict its own
#: start before the first GET) and flushes once this many are pending.
_HEAD_FLUSH_BYTES = 1 << 16


class _Acceptor:
    """Listen-socket thread: answers pings, queues data/ring connections."""

    def __init__(self, node: "_BaseNode") -> None:
        self.node = node
        self.thread = threading.Thread(
            target=self._run, name=f"accept-{node.name}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def _run(self) -> None:
        node = self.node
        try:
            while not node.stop_event.is_set():
                try:
                    kind, stream = node.listener.accept(timeout=0.1)
                except TimeoutError:
                    continue
                except ConnectionError:
                    return
                if node.silent:  # crashed "silently": swallow, never answer
                    node._orphans.append(stream)
                    continue
                try:
                    self._dispatch(kind, stream)
                except Exception:  # noqa: BLE001 - acceptor must survive anything
                    stream.close()
        finally:
            # The one cycle that would keep a finished node's ring and
            # buffers alive until the cyclic collector runs.
            self.node = None

    def _dispatch(self, kind: bytes, stream: SocketStream) -> None:
        node = self.node
        if kind == PING_CONN:
            # Liveness probe: answer inline and close (§III-D1).
            try:
                msg, _ = stream.recv_message(node.config.ping_timeout)
                if isinstance(msg, Ping):
                    stream.send_message(Pong(msg.nonce),
                                        timeout=node.config.ping_timeout)
            except (TimeoutError, ConnectionError, WriteStalled):
                pass
            stream.close()
        elif kind == DATA_CONN:
            node.adopt_data_connection(stream)
        elif kind == PGET_CONN and node.serves_pget:
            t = threading.Thread(
                target=node.serve_pget, args=(stream,),
                name=f"pget-{node.name}", daemon=True,
            )
            t.start()
        elif kind == RING_CONN and node.serves_pget:
            node.handle_ring(stream)
        else:
            stream.close()


class _BaseNode:
    """State and helpers shared by head and receivers."""

    serves_pget = False
    _chunk_verb = "recv"  # how CHUNK events say this role got its chunk

    def __init__(
        self,
        name: str,
        plan: PipelinePlan,
        registry: Registry,
        listener: Listener,
        config: KascadeConfig,
        tracer=NULL_TRACER,
    ) -> None:
        self.name = name
        self.plan = coerce_stripe_plan(plan, owner=type(self).__name__)
        self.registry = registry
        self.listener = listener
        self.config = config
        self.tracer = tracer
        #: Inbound DATA connections, oldest first; ``None`` is the wake-up
        #: :meth:`shutdown` posts for a main loop idle on the queue.
        self.data_inbox: "queue.Queue[Optional[SocketStream]]" = queue.Queue()
        self.stop_event = threading.Event()
        self.failover_requested = threading.Event()
        self.silent = False
        self.outcome = NodeOutcome(name=name)
        self._orphans: List[SocketStream] = []  # kept open after silent crash
        self._acceptor = _Acceptor(self)
        self.thread = threading.Thread(
            target=self._run_wrapper, name=f"node-{name}", daemon=True
        )

    def start(self) -> None:
        self._acceptor.start()
        self.thread.start()

    def join(self, timeout: Optional[float] = None) -> None:
        self.thread.join(timeout)

    def adopt_data_connection(self, stream: SocketStream) -> None:
        """Acceptor hand-off: queue an inbound DATA connection."""
        self.data_inbox.put(stream)

    def shutdown(self) -> None:
        """Stop the node; safe from any thread, any number of times.

        A main loop blocked on its upstream or idle on the inbox is
        woken rather than left to run out a timeout.  A silently
        crashed node keeps every socket as it was — that is the crash.
        """
        self.stop_event.set()
        if not self.silent:
            self.listener.close()
            self._wake_main_loop()

    def begin_failover(self) -> None:
        """Interrupt this node for a head re-root, preserving its sink.

        Unlike :meth:`shutdown` followed by the hard-abort path, a node
        stopped this way raises :class:`TransferAborted` out of its main
        loop *without* touching the sink — the caller detaches the sink
        (:meth:`detach_sink`), notes the node's stream offset, and builds
        a replacement node that resumes from both.  Must be followed by
        :meth:`join` before the listener port or sink are reused.

        From here on the node issues no death verdicts and reroutes
        nothing: its neighbours are being detached too, so a socket
        error it sees *is* the detach, not a failure to report.  Its
        connections stay open (peers may still be writing to them) until
        :meth:`close_connections`, which the caller invokes once every
        survivor has been detached.
        """
        self.failover_requested.set()
        self.shutdown()

    def _wake_main_loop(self) -> None:
        """Cross-thread: end whatever blocking wait the main loop is in."""

    # -- data plane: the run is the unit --------------------------------

    def _store_run(self, first_offset: int, payloads) -> None:
        """Account for a run at once, trace its chunks, keep them.

        A node with a crash gate (a planned victim, a deploy agent
        reporting progress) walks its run as runs of one: the gate is asked
        after every chunk, a crash leaves exactly those chunks stored.
        """
        if self.crash_gate is not None and len(payloads) > 1:
            for payload in payloads:
                self._store_run(first_offset, (payload,))
                first_offset += len(payload)
            return
        self.state.on_run(first_offset, payloads)
        if self.tracer.enabled:
            offset = first_offset
            for payload in payloads:
                self.tracer.emit(tracing.CHUNK, self.name, offset=offset,
                                 detail=f"{self._chunk_verb} {len(payload)}")
                offset += len(payload)
        self._keep(payloads)
        self.outcome.bytes_received = self.state.offset
        if self.crash_gate is not None:
            mode = self.crash_gate(self.state.offset)
            if mode is not None:
                raise InjectedCrash(mode)

    def _keep(self, payloads) -> None:
        """Role hook: what a node does with stored chunks (a sink write)."""

    # -- crash injection ------------------------------------------------

    def _die(self, mode: str) -> None:
        """Terminate this node as if it crashed (test/benchmark injection)."""
        self.outcome.crashed = True
        self.outcome.error = f"injected crash ({mode})"
        if mode == "silent":
            # Leave every socket open but stop all activity: peers must
            # discover the death via timeouts + unanswered pings.
            self.silent = True
            self.stop_event.set()
        else:
            # Abrupt process death: the OS closes everything (RST).
            self.stop_event.set()
            self.listener.close()
            self.close_connections()

    def close_connections(self) -> None:
        """Close every data connection; main loop must have exited."""
        raise NotImplementedError

    def _run_wrapper(self) -> None:
        try:
            self._run()
        except InjectedCrash as crash:
            self._die(crash.mode)
        except TransferAborted as exc:
            # Deliberate interruption (idle timeout, shutdown or failover
            # detach): record quietly — the sink is left exactly as it
            # was.  Whoever interrupted may have said why already.
            self.outcome.error = self.outcome.error or str(exc)
            self.shutdown()
        except Exception as exc:  # noqa: BLE001 - node must record, not raise
            logger.exception("%s: node failed", self.name)
            self.outcome.error = f"{type(exc).__name__}: {exc}"
            self.shutdown()

    def _run(self) -> None:
        raise NotImplementedError


class HeadNode(_BaseNode):
    """The sending node: streams the source, serves PGET, owns the ring."""

    serves_pget = True
    _chunk_verb = "read"

    def __init__(
        self,
        name: str,
        plan: PipelinePlan,
        registry: Registry,
        listener: Listener,
        config: KascadeConfig,
        source: Source,
        crash_gate: Optional[CrashGate] = None,
        tracer=NULL_TRACER,
        resume_offset: int = 0,
    ) -> None:
        super().__init__(name, plan, registry, listener, config, tracer)
        self.crash_gate = crash_gate
        # Overlap source reads with vectored sends (§III-A): blocking
        # sources get a prefetch stage; in-memory sources gain nothing
        # from one, and readahead_chunks=0 turns the stage off entirely.
        self._readahead: Optional[ReadAheadSource] = None
        if config.readahead_chunks > 0 and getattr(source, "blocking_io", True):
            source = ReadAheadSource(source, depth=config.readahead_chunks)
            self._readahead = source
        self.source = source
        self.state = NodeTransferState(name, config, source_kind=source.kind)
        if resume_offset:
            # Promoted-head resume (head failover): the stream restarts at
            # the live edge — the most-complete survivor's watermark.  The
            # ring window opens empty there, so a receiver whose GET lands
            # below it is sent FORGET and fetches the gap via PGET, which
            # the seekable resumed source serves by random access.
            self.state.buffer.note_advance(resume_offset)
        self.link = DownstreamLink(name, self.plan, registry, config,
                                   self.state, tracer,
                                   detaching=self.failover_requested)
        self.quit_requested = threading.Event()
        self.final_report: Optional[TransferReport] = None
        self._ring_event = threading.Event()
        self._ring_report: Optional[TransferReport] = None

    def request_quit(self) -> None:
        """User interruption: stop after the current run (QUIT path)."""
        self.quit_requested.set()

    # -- PGET and ring service (acceptor-driven) ------------------------

    def serve_pget(self, stream: SocketStream) -> None:
        """Serve a recovery range request from a rerouted receiver.

        When the source exposes a real file descriptor (``FileSource``),
        payload bytes are moved with ``sendfile`` — straight from the page
        cache to the socket, never entering this process.
        """
        cfg = self.config
        try:
            msg, _ = stream.recv_message(cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, PGet):
                raise ProtocolError(f"expected PGET, got {msg!r}")
            self.tracer.emit(tracing.PGET, self.name, offset=msg.offset,
                             detail=f"serve until={msg.until}")
            offer = self.state.answer_pget(msg.offset, msg.until)
            if offer.kind is OfferKind.FORGET:
                stream.send_message(Forget(offer.resume_at), timeout=cfg.io_timeout)
                return
            use_sendfile = HAS_SENDFILE and hasattr(self.source, "fileno")
            pos = msg.offset
            while pos < msg.until:
                size = min(cfg.chunk_size, msg.until - pos)
                if use_sendfile:
                    stream.send_frame_from_file(Data(pos, size), self.source,
                                                pos, timeout=cfg.report_timeout)
                    pos += size
                else:
                    piece = self.source.read_range(pos, size)
                    stream.send_message(Data(pos, len(piece)), piece,
                                        timeout=cfg.report_timeout)
                    pos += len(piece)
        except (TimeoutError, ConnectionError, WriteStalled, ProtocolError,
                NodeFailedError) as exc:
            logger.info("%s: PGET service aborted: %s", self.name, exc)
        finally:
            stream.close()

    def handle_ring(self, stream: SocketStream) -> None:
        """Receive the tail's final report on the ring-closure connection."""
        cfg = self.config
        try:
            msg, payload = stream.recv_message(cfg.io_timeout + cfg.connect_timeout)
            if not isinstance(msg, Report):
                raise ProtocolError(f"expected REPORT on ring, got {msg!r}")
            self._ring_report = TransferReport.decode(payload)
            self.tracer.emit(tracing.REPORT, self.name, detail="ring-closure")
            stream.send_message(Passed(), timeout=cfg.io_timeout)
            self._ring_event.set()
        except (TimeoutError, ConnectionError, WriteStalled, ProtocolError) as exc:
            logger.info("%s: ring report failed: %s", self.name, exc)
        finally:
            stream.close()

    # -- main loop -------------------------------------------------------

    def _run(self) -> None:
        cfg = self.config
        state = self.state
        bucket = None
        if cfg.bandwidth_limit is not None:
            from ..core.pacing import TokenBucket
            bucket = TokenBucket(cfg.bandwidth_limit)
        chunk_size = cfg.chunk_size
        run_bytes = chunk_size * max(
            1, min(_HEAD_FLUSH_BYTES, cfg.buffer_bytes) // chunk_size)
        while not self.quit_requested.is_set():
            segment = self.source.read_chunk(run_bytes)
            if not segment:
                break
            if bucket is not None:
                delay = bucket.reserve(len(segment), time.monotonic())
                if delay > 0 and self.quit_requested.wait(delay):
                    break
            # One segment is one run: sliced into chunk views, stored,
            # framed and corked at once.  A large chunk is a run of one and
            # leaves at once: chunk-by-chunk backpressure, as ever.
            off = state.offset
            view = memoryview(segment)
            chunks = [view[i: i + chunk_size]
                      for i in range(0, len(view), chunk_size)]
            self._store_run(off, chunks)
            if not self.link.send_run(off, chunks, encode_run(off, chunks)):
                # Every receiver is dead or aborted: stop streaming.
                break
            if self.link.pending_bytes >= _HEAD_FLUSH_BYTES:
                self.link.flush()
        self.link.flush()
        if self._readahead is not None:
            # Streaming is over; the prefetch thread must not keep
            # pulling from the source while PGET service may still read.
            self._readahead.stop()
        total = state.offset
        aborting = self.quit_requested.is_set()
        if aborting:
            self.tracer.emit(tracing.QUIT, self.name, offset=total,
                             detail="user interrupt")
            state.on_quit()
        else:
            state.on_end(total)
            state.attach_source_digest()  # integrity mode: publish digest
        outcome = self.link.finish(total=total, quit_first=aborting)
        if outcome == "passed":
            # The tail's ring connection may still be in flight.
            self._ring_event.wait(cfg.report_timeout)
        if self._ring_report is not None:
            self.final_report = self._ring_report
        else:
            self.final_report = state.report
        self.outcome.ok = outcome == "passed" and not aborting
        self.outcome.failures_detected = list(state.report.failures)
        if outcome != "passed":
            self.outcome.error = "no downstream completed the transfer"
        self.tracer.emit(tracing.DONE, self.name, offset=total,
                         detail="ok" if self.outcome.ok else "failed")
        if state.phase in (Phase.ENDED, Phase.ABORTED):
            state.on_passed()
        self.shutdown()

    def close_connections(self) -> None:
        if self._readahead is not None:
            self._readahead.stop()
        self.link.close()


class ReceiverNode(_BaseNode):
    """A receiving node: stores the stream and forwards it downstream."""

    def __init__(
        self,
        name: str,
        plan: PipelinePlan,
        registry: Registry,
        listener: Listener,
        config: KascadeConfig,
        sink: Sink,
        crash_gate: Optional[CrashGate] = None,
        tracer=NULL_TRACER,
        resume_offset: int = 0,
    ) -> None:
        super().__init__(name, plan, registry, listener, config, tracer)
        #: The sink as handed in, before any writeback wrapping.
        self.raw_sink = sink
        # Overlap storage with the relay (§III-A): real sinks get a
        # background writeback stage.  NullSink is exempt (discarding
        # can't be overlapped), and sink_writeback_depth=0 keeps writes
        # synchronous on the relay thread, exactly as before.
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
        if resume_offset:
            # Resuming after a head re-root: bytes up to ``resume_offset``
            # are already in the (retained) sink; the GET this node sends
            # on its first upstream connection asks for the remainder.
            self.state.buffer.note_advance(resume_offset)
            self.outcome.bytes_received = resume_offset
        self.link = DownstreamLink(name, self.plan, registry, config,
                                   self.state, tracer,
                                   detaching=self.failover_requested)
        self.upstream: Optional[SocketStream] = None
        #: When the current upstream last delivered a frame, or was
        #: adopted (main loop writes, acceptor reads).
        self._last_progress = time.monotonic()

    def _die(self, mode: str) -> None:
        super()._die(mode)
        # Either way this node stores nothing more: without this the
        # writeback worker would sit on its queue, the sink's descriptor
        # and this node for the life of the process.
        self.sink.close()

    def detach_sink(self) -> Sink:
        """Recover the raw sink after ``begin_failover()`` + ``join()``.

        Drains any writeback queue (so every byte counted in
        ``state.offset`` is really in the sink) and returns the inner
        sink still open, ready to be handed to the resumed node.
        """
        if isinstance(self.sink, SinkWriter):
            self.sink.detach()
        return self.raw_sink

    # -- upstream management ----------------------------------------------

    def adopt_data_connection(self, stream: SocketStream) -> None:
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
        quiet_for = time.monotonic() - self._last_progress
        self.data_inbox.put(stream)
        if replaced is not None and quiet_for >= self.config.io_timeout:
            replaced.wake_reader()

    def _wake_main_loop(self) -> None:
        # The flags are set before this runs, and the main loop checks
        # ``failover_requested`` before every upstream read and
        # ``stop_event`` before every inbox wait it enters afterwards:
        # a detach cannot slip between the check and the wait.
        self.data_inbox.put(None)
        upstream = self.upstream
        if upstream is not None:
            upstream.wake_reader()

    def _adopt_upstream(self, stream: SocketStream, detail: str) -> bool:
        """GET on a queued connection and make it the upstream."""
        try:
            stream.send_message(Get(self.state.offset),
                                timeout=self.config.io_timeout)
        except (WriteStalled, ConnectionError):
            stream.close()
            return False
        # Stamped before the stream is published, so the acceptor never
        # pairs the new upstream with the old one's quietness.
        self._last_progress = time.monotonic()
        self.upstream = stream
        self.tracer.emit(tracing.CONNECT, self.name,
                         offset=self.state.offset, detail=detail)
        return True

    def _acquire_upstream(self) -> None:
        """Block until an inbound data connection exists, then GET on it."""
        deadline = time.monotonic() + self.config.report_timeout
        while self.upstream is None:
            if self.stop_event.is_set():
                raise TransferAborted(f"{self.name}: shut down while idle")
            try:
                stream = self.data_inbox.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TransferAborted(
                    f"{self.name}: no upstream connection arrived"
                ) from None
            if stream is not None:  # None: shutdown()'s wake-up
                self._adopt_upstream(stream, "upstream")

    def _switch_upstream_if_replaced(self) -> bool:
        """If a newer inbound connection was queued, adopt it (the previous
        upstream was routed around).  Returns True if switched."""
        try:
            stream = self.data_inbox.get_nowait()
        except queue.Empty:
            return False
        if stream is None:
            return False  # shutdown()'s wake-up; stop_event says the rest
        self._drop_upstream()
        return self._adopt_upstream(stream, "upstream-replaced")

    def _drop_upstream(self) -> None:
        if self.upstream is not None:
            self.upstream.close()
            self.upstream = None

    # -- recovery: PGET hole fetch ----------------------------------------

    def _fetch_hole_from_head(self, until: int) -> bool:
        """Fetch [offset, until) from the head after a FORGET (§III-D2).

        Returns False when the head answers FORGET too — the data is
        unrecoverable and this node (and everything downstream) aborts.
        """
        cfg = self.config
        head_addr = self.registry.address_of(self.plan.head)
        self.tracer.emit(tracing.PGET, self.name, peer=self.plan.head,
                         offset=self.state.offset, detail=f"until={until}")
        try:
            stream = connect(head_addr, PGET_CONN, cfg.connect_timeout,
                             tracer=self.tracer, owner=self.name,
                             peer=self.plan.head)
        except NodeFailedError:
            return False
        try:
            stream.send_message(PGet(self.state.offset, until),
                                timeout=cfg.io_timeout)
            while self.state.offset < until:
                msg, payload = stream.recv_message(cfg.report_timeout)
                if isinstance(msg, Forget):
                    return False
                if not isinstance(msg, Data):
                    raise ProtocolError(f"expected DATA from PGET, got {msg!r}")
                self._store_run(msg.offset, (payload,))
                self.link.send_data(msg.offset, payload)
            return True
        except (TimeoutError, ConnectionError, WriteStalled, ProtocolError):
            return False
        finally:
            stream.close()

    # -- data plane ---------------------------------------------------------

    def _keep(self, payloads) -> None:
        write = self.sink.write_chunk
        for payload in payloads:
            write(payload)

    def _consume_run(self, first_offset: int, payloads, raw) -> None:
        """Store a run at once, then forward it in one piece.

        The payloads are views into the upstream's pooled receive buffer;
        the *same* views go to the ring (recovery replay) and the sink,
        and the link corks the run as the wire bytes it arrived in: no
        byte copied in userspace, no header re-encoded.  The views pin
        their pool buffer until the ring evicts them and the queue drains.
        """
        self._store_run(first_offset, payloads)
        self.link.send_run(first_offset, payloads, raw)

    def _hard_abort(self, reason: str) -> None:
        """Unrecoverable data loss: QUIT both neighbours and die failed."""
        logger.info("%s: aborting: %s", self.name, reason)
        self.tracer.emit(tracing.QUIT, self.name, offset=self.state.offset,
                         detail=reason)
        if self.upstream is not None:
            try:
                self.upstream.send_message(Quit(), timeout=self.config.io_timeout)
            except (WriteStalled, ConnectionError):
                pass
        self.link.send_quit_best_effort()
        self.sink.abort()
        self.outcome.error = reason
        self._drop_upstream()
        self.shutdown()

    # -- main loop ------------------------------------------------------------

    def _run(self) -> None:
        cfg = self.config
        state = self.state
        try:
            upstream_report = self._stream_loop()
        except (SinkError, OSError) as exc:
            # Peer connection errors are handled inside the loop; what
            # escapes to here is local storage failing (ENOSPC from the
            # filesystem, a dead sink command) — §III-D treats that as
            # unrecoverable for this node: QUIT both neighbours.
            self._hard_abort(f"sink failure: {exc}")
            return
        if upstream_report is None:
            return  # the loop already hard-aborted and shut down

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
                self._hard_abort(f"sink failure: {exc}")
                return
        outcome = self.link.finish(total=state.offset, quit_first=aborted)
        if outcome == "tail":
            self._ring_deliver(state.report.encode())
        self.outcome.ok = (
            not aborted and state.complete and digest_ok is not False
        )
        # Emit DONE *before* acknowledging upstream: PASSED flows tail to
        # head, so DONE events order causally (tail first, head last) in
        # both the runtime and the simulator traces.
        self.tracer.emit(tracing.DONE, self.name, offset=state.offset,
                         detail="ok" if self.outcome.ok else "failed")
        if self.upstream is not None:
            try:
                self.upstream.send_message(Passed(), timeout=cfg.io_timeout)
            except (WriteStalled, ConnectionError):
                pass
        state.on_passed()
        self.outcome.failures_detected = list(state.report.failures)
        self._drop_upstream()
        self.shutdown()

    def _stream_loop(self) -> Optional[bytes]:
        """Receive/store/forward until END+report; ``None`` = aborted.

        Storage errors (``SinkError``/``OSError``) propagate to the
        caller, which maps them to the hard-abort path.
        """
        cfg = self.config
        state = self.state
        upstream_report: Optional[bytes] = None

        while True:
            if self.failover_requested.is_set():
                # Detach for a head re-root: escape without touching the
                # sink or QUITting neighbours — the caller rebuilds us.
                raise TransferAborted(f"{self.name}: detached for failover")
            if state.phase is Phase.ENDED and upstream_report is not None:
                return upstream_report
            if self.upstream is None:
                self._acquire_upstream()
                continue
            try:
                msg, payload = self.upstream.recv_message(cfg.io_timeout)
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
                # away, or this node's own reader was woken — by the
                # acceptor queueing a replacement, or by a detach.
                if self.failover_requested.is_set():
                    continue  # loop top detaches; sink and sockets as-is
                if self._switch_upstream_if_replaced():
                    continue
                if isinstance(exc, ConnectionError):
                    self._drop_upstream()
                elif (time.monotonic() - self._last_progress
                        > cfg.report_timeout):
                    self._hard_abort("upstream silent beyond deadline")
                    return None
                continue
            self._last_progress = time.monotonic()

            if isinstance(msg, Data):
                # Batch the burst: the read that completed this frame
                # usually delivered dozens more.  They are taken as one
                # run — stored at once, forwarded as the bytes they
                # came in — and everything corked leaves in one
                # vectored send.  Whatever ended the run (another
                # opcode, an offset gap, a bad byte, a partial frame) is
                # still buffered: the next ``recv_message`` meets it.
                self._store_run(msg.offset, (payload,))
                self.link.send_data(msg.offset, payload, flush=False)
                run = self.upstream.try_recv_run()
                if run is not None:
                    self._consume_run(*run)
                self.link.flush()
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
                if not self._fetch_hole_from_head(msg.min_offset):
                    self._hard_abort("data lost beyond recovery (FORGET)")
                    return None
                # Hole filled; re-request the live stream from upstream.
                try:
                    self.upstream.send_message(Get(state.offset),
                                               timeout=cfg.io_timeout)
                except (WriteStalled, ConnectionError):
                    self._drop_upstream()
            elif isinstance(msg, Quit):
                self.tracer.emit(tracing.QUIT, self.name,
                                 offset=state.offset, detail="received")
                state.on_quit()
                # Graceful (user-interrupt) aborts are followed by a REPORT.
                try:
                    rmsg, rpayload = self.upstream.recv_message(cfg.io_timeout)
                except (TimeoutError, ConnectionError):
                    self._hard_abort("upstream quit without report")
                    return None
                if isinstance(rmsg, Report):
                    return bytes(rpayload)
                self._hard_abort("upstream quit without report")
                return None
            else:
                raise ProtocolError(f"{self.name}: unexpected {msg!r} from upstream")

    def _ring_deliver(self, report_bytes: bytes) -> None:
        """Tail duty: close the ring and deliver the report to the head."""
        cfg = self.config
        try:
            stream = connect(self.registry.address_of(self.plan.head),
                             RING_CONN, cfg.connect_timeout,
                             tracer=self.tracer, owner=self.name,
                             peer=self.plan.head)
        except NodeFailedError:
            logger.info("%s: head unreachable for ring report", self.name)
            return
        try:
            stream.send_message(Report(len(report_bytes)), report_bytes,
                                timeout=cfg.report_timeout)
            msg, _ = stream.recv_message(cfg.report_timeout)
            if not isinstance(msg, Passed):
                logger.info("%s: unexpected ring answer %r", self.name, msg)
        except (TimeoutError, ConnectionError, WriteStalled) as exc:
            logger.info("%s: ring delivery failed: %s", self.name, exc)
        finally:
            stream.close()

    def close_connections(self) -> None:
        self._drop_upstream()
        self.link.close()
