"""The simulator's port: the engine's waits as DES events.

The simulated node *is* the runtime's node — :mod:`repro.core.engine`,
the same generators the socket port drives.  Here every primitive that
has to wait yields an :class:`~repro.simnet.engine.Event` (a message
arrival, a window draining, a timer) and the DES resumes the node when
it fires, so a broadcast costs no wall-clock time and failures land at
exact simulated instants.  :class:`~repro.simnet.channels.ChannelTimeout`
*is* a ``TimeoutError`` and :class:`~repro.simnet.channels.ChannelClosed`
a ``ConnectionError``: the engine's one vocabulary.

What is about the DES stays here: :class:`~repro.simnet.channels.
SimNetHub` endpoints behind the stream primitives, the inbox and nap
events, the acceptor process.  There is no start-up race to be patient
about (every listener is registered before the clock starts) and no
cross-thread stop: a simulated node is stopped by killing its
processes (:mod:`repro.protosim.broadcast`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.messages import Data
from ..simnet.channels import (
    _HEADER_BYTES, ChannelClosed, ChannelTimeout, SimNetHub,
)
from ..simnet.engine import Engine, Event


class SimTracer:
    """The run's trace recorder, stamping events with simulated time."""

    def __init__(self, engine: Engine) -> None:
        self.enabled = engine.tracer.enabled
        self.emit = engine.trace


class SimStream:
    """One channel endpoint behind the engine's stream primitives.

    Corked frames wait in a queue; :meth:`flush` sends them through the
    channel's flow-control window, blocking (as a TCP send against a
    non-reading peer would) while it is full.
    """

    def __init__(self, end) -> None:
        self.end = end
        self._corked: Deque = deque()
        self.pending_bytes = 0
        self._woken = False

    def recv(self, timeout: float):
        end = self.end
        inbox = end.inbox
        item = end.recv_nowait()
        while item is None:
            if self._woken:
                raise ChannelClosed("reader woken")
            arrival = end.recv_begin(timeout)
            try:
                yield arrival
            finally:
                end.recv_finish()
            if inbox:  # the arrival; taken as ``recv_nowait`` would
                item = inbox.popleft()
                end.inbox_bytes -= _HEADER_BYTES + len(item[1])
                if end._drain_waiter is not None:
                    end._wake_drainer()
            else:      # woken for nothing, or by the channel's end
                item = end.recv_nowait()
        return item

    def try_recv_run(self):
        """The DATA messages already delivered that continue the stream,
        as one run; whatever ends it stays queued."""
        inbox = self.end.inbox
        if not inbox or inbox[0][0].__class__ is not Data:
            return None
        first = offset = inbox[0][0].offset
        payloads = []
        while (inbox and inbox[0][0].__class__ is Data
               and inbox[0][0].offset == offset):
            payloads.append(self.end.recv_nowait()[1])
            offset += len(payloads[-1])
        return first, payloads, None

    def cork(self, msg, payload=b"") -> None:
        # Simulated time stands still between a cork and its flush, so a
        # frame the window has room for may as well leave now; only what
        # must wait (or meets a dead channel: the flush will say) queues.
        if not self._corked:
            try:
                if self.end.try_send(msg, payload):
                    return
            except ChannelClosed:
                pass
        self._corked.append((msg, payload))
        self.pending_bytes += _HEADER_BYTES + len(payload)

    def cork_run(self, first_offset: int, payloads, wire) -> None:
        for payload in payloads:
            self.cork(Data(first_offset, len(payload)), payload)
            first_offset += len(payload)

    def flush(self, timeout: float):
        end, corked = self.end, self._corked
        while corked:
            msg, payload = corked[0]
            if not end.try_send(msg, payload):
                yield from end.send_wait(msg, payload, timeout=timeout)
            corked.popleft()
            self.pending_bytes -= _HEADER_BYTES + len(payload)

    def wake_reader(self) -> None:
        self._woken = True
        self.end._notify()

    def close(self) -> None:
        self._corked.clear()
        self.pending_bytes = 0
        self.end.close()


class SimPort:
    """One node's port onto the simulated network.

    ``name`` is what the hub knows this chain instance as.  Every stripe
    shares one hub, so a striped instance's ``name`` carries a
    ``suffix`` (``n2@s1``) that the node's own name and plan do not:
    the port adds it to whoever the node dials.
    """

    def __init__(self, name: str, hub: SimNetHub, suffix: str = "") -> None:
        self.name = name
        self.hub = hub
        self.engine = hub.engine
        self._suffix = suffix
        self.listener = hub.register(name)
        self.inbox: Deque[SimStream] = deque()
        #: The event the main loop is parked on (inbox wait or sleep).
        self._parked: Optional[Event] = None
        #: Acceptor, main loop and side services: what a crash kills.
        self.procs: list = []

    def now(self) -> float:
        return self.engine.now

    def connect(self, target: str, kind: bytes, timeout: float,
                patient: bool = False):
        end = yield from self.hub.connect(self.name, target + self._suffix,
                                          kind)
        return SimStream(end)

    def _park(self, seconds: float):
        """Wait until :meth:`nudge` (or an :meth:`offer`), or ``seconds``."""
        engine = self.engine
        self._parked = ev = engine.event(name=f"park:{self.name}")
        token = engine.call_after(
            seconds, lambda: ev.triggered or ev.succeed(None))
        try:
            yield ev
        finally:
            self._parked = None
            engine._cancel_timeout(token)

    def nudge(self) -> None:
        ev, self._parked = self._parked, None
        if ev is not None and not ev.triggered:
            ev.succeed(None)

    sleep = _park

    def offer(self, stream: SimStream) -> None:
        self.inbox.append(stream)
        self.nudge()

    def next_connection(self, timeout: float):
        deadline = self.engine.now + timeout
        while not self.inbox:
            remaining = deadline - self.engine.now
            if remaining <= 0:
                raise ChannelTimeout("no connection arrived")
            yield from self._park(remaining)
        return self.inbox.popleft()

    def poll_connection(self) -> Optional[SimStream]:
        return self.inbox.popleft() if self.inbox else None

    def spawn(self, gen, name: str = "side"):
        proc = self.engine.spawn(gen, name=f"{name}:{self.name}")
        self.procs.append(proc)
        return proc

    def kill(self) -> None:
        for proc in self.procs:
            proc.kill()

    def close(self) -> None:
        self.listener.close()

    def acceptor(self, node):
        """Process: hand every inbound connection to the engine."""
        while True:
            try:
                kind, end = yield from self.listener.accept()
            except ChannelClosed:
                return
            node.on_connection(kind, SimStream(end))
