"""Message channels for protocol-exact simulation.

Where the fluid fabric abstracts data into rates, these channels carry
the protocol's *actual messages* (header objects + payload bytes) with
in-order delivery, per-message service time, and failure semantics that
mirror TCP's:

* a message occupies the channel for ``header/bw + payload/bw`` after a
  one-way latency — deliveries serialize like a byte stream;
* when an endpoint's host dies, the other side's pending and future
  receives raise :class:`ChannelClosed` (a reset), and sends into the
  void raise once the death is known;
* receives take an optional timeout, raising :class:`ChannelTimeout` —
  the primitive the protocol's failure detection is built on.

Connection establishment mimics the runtime's preamble scheme: a
:class:`SimNetHub` owns per-node listeners; ``connect`` yields a pair of
endpoints after the path latency.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque, Dict, Optional, Tuple

from ..core.errors import KascadeError
from .engine import _CALL, Engine, Event, Timeout

_HEADER_BYTES = 32  # generous per-message framing cost


class ChannelClosed(KascadeError, ConnectionError):
    """The peer closed the connection or its host died (TCP reset)."""


class ChannelTimeout(KascadeError, TimeoutError):
    """No message arrived within the receive timeout."""


class _Endpoint:
    """One side of a bidirectional channel."""

    def __init__(self, channel: "SimChannel", side: int) -> None:
        self._channel = channel
        self._side = side
        self.inbox: Deque[Tuple[object, bytes]] = deque()
        self.inbox_bytes = 0
        self._recv_waiter: Optional[Event] = None
        self._drain_waiter: Optional[Event] = None
        # Receive-timeout watchdog: ``recv`` records its deadline here
        # instead of arming (and almost always cancelling) a heap timer
        # per call; one persistent timer per endpoint re-arms itself
        # toward the recorded deadline.  See ``_deadline_fired``.
        self._recv_deadline: Optional[float] = None
        self._wd_token: Optional[int] = None    # armed timer's cancel token
        self._wd_at = 0.0                       # ... and its fire time
        # Reusable arrival event for recv_begin/recv_finish: a channel
        # has at most one receiver waiting at a time, so one Event per
        # endpoint (reset between waits) replaces a pool borrow/recycle
        # round trip per blocked receive.
        self._arrival: Optional[Event] = None
        # Same watchdog scheme for the send side: a flow-controlled
        # sender blocked on *this* endpoint's window records its stall
        # deadline here instead of arming a heap timer per stall (the
        # head stalls once per chunk in the pipelined steady state).
        self._drain_deadline: Optional[float] = None
        self._dwd_token: Optional[int] = None
        self._dwd_at = 0.0
        self._drain_ev: Optional[Event] = None
        self.closed = False

    # -- sending ---------------------------------------------------------

    def send(self, msg: object, payload: bytes = b"") -> None:
        """Fire-and-forget send for small control messages.

        Ignores the flow-control window (control frames are tiny);
        raises :class:`ChannelClosed` on a dead channel.
        """
        self._channel._transmit(self._side, msg, payload)

    def send_wait(self, msg: object, payload: bytes = b"",
                  timeout: Optional[float] = None):
        """Sub-generator: windowed send — the data-plane primitive.

        Blocks while the peer's receive window is full, exactly like a
        TCP send against a non-reading peer; raises
        :class:`ChannelTimeout` if the stall outlasts ``timeout`` (the
        runtime's ``WriteStalled``) and :class:`ChannelClosed` on reset.
        """
        channel = self._channel
        peer = channel.ends[1 - self._side]
        size = _HEADER_BYTES + len(payload)
        while True:
            if channel.failed or self.closed or peer.closed:
                raise ChannelClosed("send on dead channel")
            outstanding = (
                peer.inbox_bytes + channel._in_flight[self._side]
            )
            if outstanding + size <= channel.window or outstanding == 0:
                channel._transmit(self._side, msg, payload)
                return
            drained = peer.drain_begin(timeout)
            try:
                yield drained
            finally:
                peer.drain_finish()

    def drain_begin(self, timeout: Optional[float] = None) -> Event:
        """Arm a wait for *this* endpoint's receive window to drain.

        The send-side twin of :meth:`recv_begin`: the blocked sender
        yields the returned event and calls :meth:`drain_finish` when
        resumed.  ``ChannelTimeout`` ("send stalled") surfaces at the
        yield via the drain watchdog when the stall outlasts ``timeout``.
        """
        engine = self._channel.engine
        drained = self._drain_ev
        if drained is None:
            self._drain_ev = drained = Event(engine, name="chan-drain")
        else:
            drained._done = False
            drained._value = None
            drained._exc = None
        self._drain_waiter = drained
        if timeout is not None:
            deadline = engine.now + timeout
            self._drain_deadline = deadline
            if self._dwd_token is None or deadline < self._dwd_at:
                self._arm_drain_watchdog(deadline)
        return drained

    def drain_finish(self) -> None:
        self._drain_waiter = None
        self._drain_deadline = None

    def _arm_drain_watchdog(self, deadline: float) -> None:
        engine = self._channel.engine
        if self._dwd_token is not None:
            engine._cancel_timeout(self._dwd_token)
        self._dwd_token = engine.call_at1(
            deadline, self._drain_deadline_fired, None)
        self._dwd_at = deadline

    def _drain_deadline_fired(self, _unused) -> None:
        self._dwd_token = None
        deadline = self._drain_deadline
        if deadline is None:
            return
        engine = self._channel.engine
        if deadline > engine.now:     # progress since armed: chase it
            self._arm_drain_watchdog(deadline)
            return
        waiter = self._drain_waiter
        if waiter is not None and not waiter.triggered:
            waiter.fail(ChannelTimeout("send stalled"))

    def try_send(self, msg: object, payload: bytes = b"") -> bool:
        """Windowed send without blocking — the data-plane fast path.

        Transmits and returns True when the peer's window has room (the
        common case: window ≫ chunk), else returns False so the caller
        falls back to the :meth:`send_wait` sub-generator.  Raises
        :class:`ChannelClosed` exactly when ``send_wait`` would; the
        dispatch order on the wire is identical either way, because
        ``send_wait`` with an open window also transmits synchronously.
        """
        channel = self._channel
        side = self._side
        peer = channel.ends[1 - side]
        if channel.failed or self.closed or peer.closed:
            raise ChannelClosed("send on dead channel")
        size = _HEADER_BYTES + len(payload)
        in_flight = channel._in_flight
        outstanding = peer.inbox_bytes + in_flight[side]
        if outstanding + size > channel.window and outstanding != 0:
            return False
        # Inlined ``_transmit_sized`` + the engine push: this is the
        # per-chunk data-plane send, worth flattening five calls into
        # straight-line code.  Semantics are identical: same message-log
        # entry, same busy-until/in-flight accounting, same (time, seq)
        # queue entry the generic path would have produced.
        engine = channel.engine
        now = engine.now
        hub = channel.hub
        if hub is not None and hub.message_log is not None:
            hub.message_log.append(
                (now, channel.hosts[side], channel.hosts[1 - side],
                 msg, size - _HEADER_BYTES))
        start = channel._busy_until[side]
        if start < now:
            start = now
        done = start + size / channel.bandwidth
        channel._busy_until[side] = done
        in_flight[side] += size
        when = done + channel.latency
        engine._seq = seq = engine._seq + 1
        if when > now:
            heappush(engine._heap,
                     (when, seq, _CALL, channel._deliver,
                      (side, msg, payload, size)))
        else:
            engine._immediate.append(
                (seq, _CALL, channel._deliver, (side, msg, payload, size)))
        return True

    # -- receiving ---------------------------------------------------------

    def recv(self, timeout: Optional[float] = None):
        """Sub-generator (use ``yield from``): next ``(msg, payload)``.

        Raises :class:`ChannelTimeout` after ``timeout`` simulated
        seconds, :class:`ChannelClosed` when the peer is gone and the
        inbox is drained.
        """
        while True:
            item = self.recv_nowait()
            if item is not None:
                return item
            arrival = self.recv_begin(timeout)
            try:
                yield arrival
            finally:
                self.recv_finish()
            # Loop: either a message arrived or the channel failed
            # (``recv_nowait`` re-checks state at the top).

    def recv_begin(self, timeout: Optional[float] = None) -> Event:
        """Arm a bare wait for the next message; returns the Event to yield.

        This is the blocking half of :meth:`recv` without the
        sub-generator: the caller checks :meth:`recv_nowait` first,
        then does ``yield endpoint.recv_begin(t)`` directly from its own
        run loop, calls :meth:`recv_finish` (in a ``finally``), and
        re-polls ``recv_nowait`` — looping on ``None`` for spurious
        wakes, exactly as ``recv`` itself loops.  ``ChannelTimeout`` /
        ``ChannelClosed`` surface at the yield / the re-poll just as
        they would from ``recv``.
        """
        engine = self._channel.engine
        arrival = self._arrival
        if arrival is None:
            self._arrival = arrival = Event(engine, name="chan-recv")
        else:
            arrival._done = False
            arrival._value = None
            arrival._exc = None
        self._recv_waiter = arrival
        if timeout is not None:
            deadline = engine.now + timeout
            self._recv_deadline = deadline
            if self._wd_token is None or deadline < self._wd_at:
                self._arm_watchdog(deadline)
        return arrival

    def recv_finish(self) -> None:
        """Detach the wait armed by :meth:`recv_begin`.

        The waiter slot and the recorded deadline must not outlive the
        wait (the armed watchdog may outlive it — it checks both).
        """
        self._recv_waiter = None
        self._recv_deadline = None

    def _arm_watchdog(self, deadline: float) -> None:
        """(Re-)arm the single watchdog timer to fire at ``deadline``.

        Invariant: while a timed wait with deadline D is pending, the
        armed timer fires at or before D — arming earlier cancels the
        old entry (rare: only when a shorter timeout follows a longer
        one on the same endpoint); arming later is a no-op because the
        earlier fire re-arms itself toward D.
        """
        engine = self._channel.engine
        if self._wd_token is not None:
            engine._cancel_timeout(self._wd_token)
        self._wd_token = engine.call_at1(deadline, self._deadline_fired, None)
        self._wd_at = deadline

    def _disarm_watchdog(self) -> None:
        """Cancel both deadline watchdogs (receive and drain).

        Called when this endpoint can no longer time out — close, channel
        failure, silent host death — so a leftover armed timer cannot
        advance the clock past the last real event of a run.
        """
        if self._wd_token is not None:
            self._channel.engine._cancel_timeout(self._wd_token)
            self._wd_token = None
        if self._dwd_token is not None:
            self._channel.engine._cancel_timeout(self._dwd_token)
            self._dwd_token = None

    def _deadline_fired(self, _unused) -> None:
        """Watchdog tick: fail the waiter iff its deadline truly passed.

        Fires at the deadline recorded by the *first* timed ``recv``;
        when later receives have moved the deadline forward (progress
        happened), re-arms at the current deadline instead of failing —
        so a streaming endpoint costs one timer per timeout-interval of
        simulated time rather than one per message.  The failure time is
        exact: the final arm lands on the recorded deadline itself.
        """
        self._wd_token = None
        deadline = self._recv_deadline
        if deadline is None:          # nobody is waiting (or no timeout)
            return
        engine = self._channel.engine
        if deadline > engine.now:     # progress since armed: chase it
            self._arm_watchdog(deadline)
            return
        waiter = self._recv_waiter
        if waiter is not None and not waiter.triggered:
            waiter.fail(ChannelTimeout("recv timeout"))

    def recv_nowait(self) -> Optional[Tuple[object, bytes]]:
        """Non-blocking receive — the inbox-ready fast path.

        Returns the next ``(msg, payload)`` when one is queued, ``None``
        when a blocking :meth:`recv` would have to wait.  Raises
        :class:`ChannelClosed` exactly when ``recv`` would.  This is the
        synchronous prefix of ``recv`` without the sub-generator
        machinery: callers avoid a generator allocation per message on
        the (hot) path where data is already waiting.
        """
        if self.inbox:
            msg, payload = self.inbox.popleft()
            self.inbox_bytes -= _HEADER_BYTES + len(payload)
            self._wake_drainer()
            return msg, payload
        channel = self._channel
        peer = channel.ends[1 - self._side]
        if self.closed or channel.failed or (
                peer.closed and channel._in_flight[1 - self._side] == 0):
            raise ChannelClosed("peer gone")
        return None

    def _wake_drainer(self) -> None:
        waiter, self._drain_waiter = self._drain_waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)

    def _notify(self) -> None:
        waiter, self._recv_waiter = self._recv_waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)
        self._wake_drainer()

    def close(self) -> None:
        """Close this side; the peer sees ChannelClosed once drained."""
        if not self.closed:
            self.closed = True
            self._disarm_watchdog()
            self._channel._on_side_closed(self._side)


class SimChannel:
    """A bidirectional, in-order message channel between two hosts."""

    def __init__(self, engine: Engine, a: str, b: str,
                 bandwidth: float, latency: float,
                 window: float = 512 * 1024,
                 hub: "Optional[SimNetHub]" = None) -> None:
        self.engine = engine
        self.hub = hub
        self.hosts = (a, b)
        self.bandwidth = bandwidth
        self.latency = latency
        self.window = window
        self.failed = False
        self.ends = (_Endpoint(self, 0), _Endpoint(self, 1))
        self._busy_until = [0.0, 0.0]   # per direction
        self._in_flight = [0, 0]        # bytes scheduled, not delivered

    def _transmit(self, side: int, msg: object, payload: bytes) -> None:
        if self.failed or self.ends[side].closed:
            raise ChannelClosed("send on dead channel")
        if self.ends[1 - side].closed:
            raise ChannelClosed("peer closed")
        self._transmit_sized(side, msg, payload, _HEADER_BYTES + len(payload))

    def _transmit_sized(self, side: int, msg: object, payload: bytes,
                        size: int) -> None:
        """Liveness-checked transmit core (callers verified the channel)."""
        engine = self.engine
        hub = self.hub
        if hub is not None and hub.message_log is not None:
            hub.message_log.append(
                (engine.now, self.hosts[side], self.hosts[1 - side],
                 msg, size - _HEADER_BYTES)
            )
        service = size / self.bandwidth
        start = self._busy_until[side]
        now = engine.now
        if start < now:
            start = now
        done = start + service
        self._busy_until[side] = done
        self._in_flight[side] += size
        engine.call_at1(done + self.latency, self._deliver,
                        (side, msg, payload, size))

    def _deliver(self, item: Tuple[int, object, bytes, int]) -> None:
        side, msg, payload, size = item
        self._in_flight[side] -= size
        if self.failed:
            return
        peer = self.ends[1 - side]
        if peer.closed:
            return
        peer.inbox.append((msg, payload))
        peer.inbox_bytes += size
        # Inlined ``peer._notify()``: this runs once per delivered
        # message, and the generic Event.succeed/_flush path costs four
        # calls for what is two appends here.  The resume still goes
        # through the engine's immediate queue, so dispatch order is
        # identical to the generic path.
        waiter = peer._recv_waiter
        if waiter is not None:
            peer._recv_waiter = None
            if not waiter._done:
                waiter._done = True
                waiters = waiter._waiters
                if waiters:
                    engine = self.engine
                    for proc in waiters:
                        engine._schedule_resume(proc, None)
                    waiters.clear()
        if peer._drain_waiter is not None:
            peer._wake_drainer()

    def _on_side_closed(self, side: int) -> None:
        # Wake a peer blocked in recv/send so it observes the close.
        self.ends[1 - side]._notify()
        self.ends[side]._wake_drainer()

    def fail(self) -> None:
        """Hard failure (host death): both sides reset immediately.

        In-flight and queued messages are lost, matching a crashed
        process whose kernel resets the connection.
        """
        if self.failed:
            return
        self.failed = True
        for end in self.ends:
            end.inbox.clear()
            end.inbox_bytes = 0
            end._disarm_watchdog()
            end._notify()


class SimListener:
    """Accept queue for inbound connections to one node."""

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self._queue: Deque[Tuple[bytes, _Endpoint]] = deque()
        self._waiter: Optional[Event] = None
        self.closed = False

    def accept(self, timeout: Optional[float] = None):
        """Sub-generator: next ``(kind, endpoint)`` inbound connection."""
        while True:
            if self._queue:
                return self._queue.popleft()
            if self.closed:
                raise ChannelClosed("listener closed")
            engine = self.engine
            arrival = engine._borrow_event(name=f"accept:{self.name}")
            self._waiter = arrival
            token = None
            if timeout is not None:
                token = engine.fail_after(
                    timeout, arrival, ChannelTimeout, "accept timeout")
            try:
                yield arrival
            finally:
                self._waiter = None
                if token is not None:
                    engine._cancel_timeout(token)
                engine._recycle_event(arrival)

    def _offer(self, kind: bytes, endpoint: _Endpoint) -> None:
        self._queue.append((kind, endpoint))
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.succeed(None)

    def close(self) -> None:
        self.closed = True
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.triggered:
            waiter.fail(ChannelClosed("listener closed"))


class SimNetHub:
    """Registry of nodes, listeners, and live channels."""

    def __init__(self, engine: Engine, *, bandwidth: float = 125e6,
                 latency: float = 1e-4) -> None:
        self.engine = engine
        self.bandwidth = bandwidth
        self.latency = latency
        self.listeners: Dict[str, SimListener] = {}
        self.dead: set[str] = set()
        self.channels: list[SimChannel] = []
        #: When not None, every transmitted message is appended as
        #: ``(send_time, src, dst, message, payload_len)`` — the raw
        #: material for message sequence charts.
        self.message_log: Optional[list] = None

    def start_tracing(self) -> list:
        self.message_log = []
        return self.message_log

    def register(self, name: str) -> SimListener:
        listener = SimListener(self.engine, name)
        self.listeners[name] = listener
        return listener

    def connect(self, src: str, dst: str, kind: bytes):
        """Sub-generator: connect ``src`` → ``dst``; returns the client
        endpoint after one latency.  Raises :class:`ChannelClosed` when
        the destination is dead or not listening (connection refused)."""
        yield Timeout(self.latency)
        if src in self.dead:
            raise ChannelClosed(f"{src} is dead")
        if dst in self.dead or dst not in self.listeners:
            raise ChannelClosed(f"connect refused by {dst}")
        listener = self.listeners[dst]
        if listener.closed:
            raise ChannelClosed(f"connect refused by {dst}")
        channel = SimChannel(self.engine, src, dst,
                             self.bandwidth, self.latency, hub=self)
        self.channels.append(channel)
        listener._offer(kind, channel.ends[1])
        return channel.ends[0]

    def kill(self, name: str) -> None:
        """Host death: reset every channel touching it, close its
        listener (silent deaths keep the listener: see ``kill_silent``)."""
        self.dead.add(name)
        listener = self.listeners.get(name)
        if listener is not None:
            listener.close()
        for channel in self.channels:
            if name in channel.hosts:
                channel.fail()

    def kill_silent(self, name: str) -> None:
        """Hang, not crash: channels stay up but nothing answers.

        The node's processes must be stopped by the caller; peers can
        only discover the death through timeouts and unanswered pings.
        """
        self.dead.add(name)
        # The dead node's own receive watchdogs will never matter again
        # (its processes are gone); disarm them so they drain as skips
        # instead of firing no-ops that would advance the clock.  The
        # *peers'* watchdogs stay armed — timeouts are exactly how they
        # discover the silent death.
        for channel in self.channels:
            if name in channel.hosts:
                channel.ends[channel.hosts.index(name)]._disarm_watchdog()
