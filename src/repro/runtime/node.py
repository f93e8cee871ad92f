"""Kascade nodes on threads and real sockets.

The node itself — what it says to whom and when, §III-C/D — is
:mod:`repro.core.engine`.  This module runs it: a node is a pair of
threads, an *acceptor* owning the listen socket and the main loop
driving the engine's ``run()`` over a
:class:`~repro.runtime.links.SocketPort`; :class:`HeadNode` and
:class:`ReceiverNode` add what only a real process has (read-ahead in
front of a blocking source, writeback behind a real sink — each on its
own thread once storage would make the node wait) and what an owner
does *to* a node from outside: stop it, detach it for a head re-root,
kill it the way a test asked for.
"""

from __future__ import annotations

import logging
import threading
from typing import List, Optional

from ..core.config import KascadeConfig
# CrashGate, InjectedCrash, _HEAD_FLUSH_BYTES: re-exported (host.py, evloop.py)
from ..core.engine import (DATA_CONN, _HEAD_FLUSH_BYTES, CrashGate,  # noqa: F401
                           Head, InjectedCrash, Receiver, keeps_nothing)
from ..core.errors import SinkError, TransferAborted
from ..core.plan import StripePlan
from ..core.sinks import NullSink, Sink
from ..core.sources import Source
from ..core.stages import ReadAheadSource, SinkWriter
from ..core.tracing import NULL_TRACER
from .links import SocketPort, drive
from .registry import Registry
from .result import NodeOutcome  # noqa: F401  (re-exported: evloop.py)
from .transport import Listener, SocketStream

logger = logging.getLogger(__name__)


class _Acceptor:
    """Listen-socket thread: hands every connection to the engine."""

    def __init__(self, node: "_ThreadNode") -> None:
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
                    kind, raw = node.listener.accept(timeout=0.1)
                except TimeoutError:
                    continue
                except ConnectionError:
                    return
                if node.silent:  # crashed "silently": swallow, never answer
                    node._orphans.append(raw)
                    continue
                try:
                    if kind == DATA_CONN:  # the one kind the main loop reads
                        raw.port = node.port
                    node.on_connection(kind, raw)
                except Exception:  # noqa: BLE001 - acceptor must survive anything
                    raw.close()
        finally:
            # Nobody offers after this thread, and a stopped node reads
            # no more: what the last 0.1 s accepted is closed here, not
            # left to the garbage collector.  A silent crash and a node
            # detached for failover reset nobody until
            # ``close_connections``, which closes these too.
            if not (node.silent or node.failover_requested.is_set()):
                node.port.close_inbox()
            # The one cycle that would keep a finished node's ring and
            # buffers alive until the cyclic collector runs.
            self.node = None


class _ThreadNode:
    """The thread pair and the owner's handles; mixed into an engine node."""

    def __init__(self, name: str, registry: Registry, listener: Listener,
                 tracer) -> None:
        self.name = name
        self.registry = registry
        self.listener = listener
        self.port = SocketPort(name, registry, tracer, listener)
        self.stop_event = threading.Event()
        self.failover_requested = threading.Event()
        self.silent = False
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

    def shutdown(self) -> None:
        """Stop the node; safe from any thread, any number of times.

        Whatever wait the main loop is in — its upstream, its downstream,
        the inbox, a dial back-off, a paced sleep — is ended rather than
        left to run out a timeout, and raises
        :class:`TransferAborted`.  A silently crashed node keeps every
        socket as it was — that is the crash.
        """
        self._stop("shut down")
        if not self.silent:
            self.listener.close()
            self.port.wake()

    def _stop(self, why: str) -> None:
        self.port.stopping = self.port.stopping or f"{self.name}: {why}"
        self.stop_event.set()

    def begin_failover(self) -> None:
        """Interrupt this node for a head re-root, preserving its sink.

        Unlike a hard abort, a node stopped this way raises
        :class:`TransferAborted` out of its main loop *without* touching
        the sink — the caller detaches the sink
        (:meth:`ReceiverNode.detach_sink`), notes the node's stream
        offset, and builds a replacement node that resumes from both.
        Must be followed by :meth:`join` before the sink is reused.

        From here on the node issues no death verdicts and reroutes
        nothing: its neighbours are being detached too, so a socket
        error it sees *is* the detach, not a failure to report.  For the
        same reason it resets nobody: its connections *and its listener*
        stay open (a neighbour not yet told may still be writing to the
        one or dialling the other, and would blame this node for a
        reset) until :meth:`close_connections`, which the caller invokes
        once every survivor has been detached.
        """
        self.failover_requested.set()
        self._stop("detached for failover")
        self.port.wake()

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
            self.close_connections()

    def close_connections(self) -> None:
        super().close_connections()
        self.port.close_inbox()
        while self._orphans:  # what a silently crashed node swallowed
            self._orphans.pop().close()

    def _run_wrapper(self) -> None:
        try:
            drive(self.run())
        except InjectedCrash as crash:
            self._die(crash.mode)
            return
        except TransferAborted as exc:
            # Deliberate interruption (idle timeout, shutdown or failover
            # detach): record quietly — the sink is left exactly as it
            # was.  Whoever interrupted may have said why already.
            self.outcome.error = self.outcome.error or str(exc)
        except Exception as exc:  # noqa: BLE001 - node must record, not raise
            logger.exception("%s: node failed", self.name)
            self.outcome.error = f"{type(exc).__name__}: {exc}"
        if not self.failover_requested.is_set():  # else: close_connections()
            self.shutdown()


class HeadNode(_ThreadNode, Head):
    """The sending node: streams the source, serves PGET, owns the ring."""

    def __init__(self, name: str, plan: StripePlan, registry: Registry,
                 listener: Listener, config: KascadeConfig, source: Source,
                 crash_gate: Optional[CrashGate] = None, tracer=NULL_TRACER,
                 resume_offset: int = 0) -> None:
        _ThreadNode.__init__(self, name, registry, listener, tracer)
        # Overlap source reads with vectored sends (§III-A): blocking
        # sources get a prefetch stage, which reads inline until the
        # reads cost the head more than its sends; in-memory sources
        # gain nothing from one, and readahead_chunks=0 turns it off.
        # A head that keeps nothing reads nothing (``keeps_nothing``).
        self._readahead: Optional[ReadAheadSource] = None
        if (config.readahead_chunks > 0 and getattr(source, "blocking_io", True)
                and not keeps_nothing(source, config)):
            source = ReadAheadSource(source, depth=config.readahead_chunks)
            self._readahead = source
        Head.__init__(self, name, plan, self.port, config, source,
                      crash_gate, tracer, resume_offset)

    def _source_drained(self) -> None:
        # The prefetch thread must not keep pulling from the source
        # while PGET service may still read.
        if self._readahead is not None:
            self._readahead.stop()


class ReceiverNode(_ThreadNode, Receiver):
    """A receiving node: stores the stream and forwards it downstream."""

    def __init__(self, name: str, plan: StripePlan, registry: Registry,
                 listener: Listener, config: KascadeConfig, sink: Sink,
                 crash_gate: Optional[CrashGate] = None, tracer=NULL_TRACER,
                 resume_offset: int = 0) -> None:
        _ThreadNode.__init__(self, name, registry, listener, tracer)
        #: The sink as handed in, before any writeback wrapping.
        self.raw_sink = sink
        # Overlap storage with the relay (§III-A): real sinks get a
        # writeback stage, which writes inline until storage costs the
        # relay more than its own work.  NullSink is exempt (discarding
        # can't be overlapped), and sink_writeback_depth=0 keeps every
        # write on the relay thread.
        if config.sink_writeback_depth > 0 and not isinstance(sink, NullSink):
            sink = SinkWriter(sink, depth=config.sink_writeback_depth,
                              pin_budget=config.sink_writeback_budget,
                              tracer=tracer, owner=name)
        Receiver.__init__(self, name, plan, self.port, config, sink,
                          crash_gate, tracer, resume_offset)

    def run(self):
        # Storage is reserved by the thread that will write it, as every
        # receiver starts: the receivers reserve at once, beside the
        # head's start, and a full disk fails this node before it
        # stores — or relays — a byte (§III-D: QUIT, output removed).
        try:
            self.sink.reserve()
        except (SinkError, OSError) as exc:
            yield from self._hard_abort(f"sink failure: {exc}")
            return
        yield from Receiver.run(self)

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
