"""The socket port: the engine's waits as blocking calls on real TCP.

:mod:`repro.core.engine` writes the protocol as generators over a port.
This one performs each wait where it stands — ``recv_message`` under a
socket timeout, a vectored ``sendmsg``, a ``queue.get`` — and returns,
so none of its primitives ever yields and a thread runs an engine
generator to its ``return`` with a single ``send`` (:func:`drive`).
The engine's stream is the :class:`~repro.runtime.transport.SocketStream`
itself, and failures arrive in the engine's vocabulary: a
:class:`~repro.runtime.transport.WriteStalled` *is* a ``TimeoutError``,
a connect that :func:`~repro.runtime.transport.connect` gave up on is
turned into a ``ConnectionError`` here.

What is about sockets and threads stays here: the start-up dial window
and *waking* — every wait of a node's main loop is entered through
:meth:`SocketPort.check` and ended by :meth:`SocketPort.wake`, so
stopping a node is an event, not a timeout, whichever socket it happens
to be waiting on.

:class:`DownstreamLink` is the engine's :class:`~repro.core.engine.Link`
with blocking methods, on a port of its own: what a caller without a
node (a test, a tool) drives.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from ..core.config import KascadeConfig
from ..core.engine import PGET_CONN, RING_CONN, Link
from ..core.errors import NodeFailedError, TransferAborted
from ..core.node_state import NodeTransferState
from ..core.plan import StripePlan
from ..core.tracing import NULL_TRACER
from .registry import Registry
from .transport import Listener, SocketStream, connect


def drive(gen):
    """Run an engine generator on the calling thread, to its result."""
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(f"{gen!r} yielded: not running on a socket port")


class SocketPort:
    """One node's port onto real sockets (see :mod:`repro.core.engine`)."""

    now = staticmethod(time.monotonic)

    def __init__(self, name: str, registry: Registry, tracer=NULL_TRACER,
                 listener: Optional[Listener] = None) -> None:
        self.name = name
        self.registry = registry
        self.tracer = tracer
        self.listener = listener
        #: Why the node is being stopped (the :class:`TransferAborted`
        #: message), set by the owner before :meth:`wake`; else ``None``.
        self.stopping: Optional[str] = None
        #: Inbound DATA connections, oldest first; ``None`` is the token
        #: :meth:`wake` posts for a main loop idle on the queue.
        self.inbox: "queue.Queue[Optional[SocketStream]]" = queue.Queue()
        self._nudged = threading.Event()
        #: The socket wait the main loop is in, if it is in one:
        #: ``(SocketStream, direction it is blocked in)``.
        self._blocked = None
        self._startup_deadline: Optional[float] = None

    # -- stopping: one check before every wait, one wake to end it --------

    def check(self) -> None:
        """Raise :class:`TransferAborted` if the node is being stopped.

        Every wait checks ``stopping`` with the wait already announced
        (``_blocked``) and again if it failed, and the stopper sets it
        *before* :meth:`wake` looks for a wait to end: a stop can neither
        slip between check and wait nor be mistaken for a peer's death
        — a stopping node issues no verdict and reroutes nothing.
        """
        if self.stopping is not None:
            raise TransferAborted(self.stopping)

    def wake(self) -> None:
        """Cross-thread: end whichever wait the main loop is in — a sleep
        or dial back-off, the inbox, a read or a flush on any socket.

        A read is ended by shutting down the receive direction (the
        reader gets what the kernel had buffered, then end-of-stream;
        nothing is sent to the peer), a flush blocked on a full window by
        shutting down the send direction (``EPIPE``).
        """
        self._nudged.set()
        self.inbox.put(None)
        blocked = self._blocked
        if blocked is not None:
            blocked[0].wake_reader(blocked[1])

    def nudge(self) -> None:
        self._nudged.set()

    def sleep(self, seconds: float):
        self.check()
        self._nudged.wait(seconds)
        self._nudged.clear()
        self.check()
        return
        yield  # never reached

    # -- connections -------------------------------------------------------

    def connect(self, target: str, kind: bytes, timeout: float,
                patient: bool = False):
        """Open a ``kind`` connection to ``target``.

        A ``patient`` caller is a link still starting up: a *refused*
        connect means the peer's listener is not up yet, and is retried
        until the start-up window — one ``timeout`` from the first such
        attempt, shared by every target the link tries — has passed.
        Afterwards, and for any other connect error, the first failure
        is the answer.
        """
        addr = self.registry.address_of(target)
        traced = {}
        if kind in (PGET_CONN, RING_CONN):
            traced = dict(tracer=self.tracer, owner=self.name, peer=target)
        if patient and self._startup_deadline is None:
            self._startup_deadline = time.monotonic() + timeout
        backoff = 0.005
        while True:
            self.check()
            try:
                stream = connect(addr, kind, timeout, **traced)
                stream.port = self
                return stream
            except NodeFailedError as exc:
                if not (patient
                        and isinstance(exc.__cause__, ConnectionRefusedError)
                        and time.monotonic() + backoff
                        <= self._startup_deadline):
                    raise ConnectionError(exc.reason) from exc
            yield from self.sleep(backoff)
            backoff = min(backoff * 2, 0.1)
        yield  # never reached

    def offer(self, stream: SocketStream) -> None:
        self.inbox.put(stream)

    def next_connection(self, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            self.check()
            try:
                stream = self.inbox.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError("no connection arrived") from None
            if stream is not None:
                return stream
        yield  # never reached

    def poll_connection(self) -> Optional[SocketStream]:
        while True:
            try:
                stream = self.inbox.get_nowait()
            except queue.Empty:
                return None
            if stream is not None:
                return stream

    def close_inbox(self) -> None:
        """The node has stopped: close what nobody will read now."""
        while (stream := self.poll_connection()) is not None:
            stream.close()
        self.inbox.put(None)  # the token of a wake() may have gone too

    def spawn(self, gen) -> None:
        threading.Thread(target=drive, args=(gen,),
                         name=f"side-{self.name}", daemon=True).start()

    def close(self) -> None:
        if self.listener is not None:
            self.listener.close()


def _blocking(name: str):
    method = getattr(Link, name)

    def call(self, *args, **kwargs):
        if self._detaching is not None and self._detaching.is_set():
            self._link.port.stopping = f"{self.owner}: detached for failover"
        return drive(method(self._link, *args, **kwargs))

    call.__name__, call.__doc__ = name, method.__doc__
    return call


class DownstreamLink:
    """The engine's downstream :class:`Link`, blocking, on its own port.

    ``detaching``, when given, is the owner's stop flag: once set, a
    link error is the detach itself, not a death to report — the call
    raises :class:`TransferAborted`.
    """

    def __init__(self, owner: str, plan: StripePlan, registry: Registry,
                 config: KascadeConfig, state: NodeTransferState,
                 tracer=NULL_TRACER,
                 detaching: Optional[threading.Event] = None) -> None:
        self._detaching = detaching
        self._link = Link(owner, plan, SocketPort(owner, registry, tracer),
                          config, state, tracer)

    def __getattr__(self, name: str):
        return getattr(self._link, name)

    send_data = _blocking("send_data")
    send_run = _blocking("send_run")
    flush = _blocking("flush")
    finish = _blocking("finish")
