"""Interruptible detach: stopping a node is an event, not a timeout.

``io_timeout`` is for a peer that went *silent*.  A death the supervisor
has already established (head failover), a shutdown, or a replacement
upstream connection all wake the node they concern at once — and a node
being detached issues no death verdicts of its own, so a fast detach
stays exactly one FAILOVER and one ELECTION.
"""

import hashlib
import queue
import socket
import threading
import time

import pytest

from repro import run_broadcast
from repro.core import (
    Data,
    End,
    Get,
    KascadeConfig,
    PatternSource,
    Report,
    SourceKind,
    TransferAborted,
    encode_header,
)
from repro.core import tracing
from repro.core.node_state import NodeTransferState
from repro.core.plan import StripePlan
from repro.core.plan import ChainPlan
from repro.core.sinks import BufferSink, NullSink
from repro.core.tracing import ELECTION, FAILOVER, TraceCollector
from repro.runtime import CrashPlan, HostChains, LocalBroadcast
from repro.runtime.links import DownstreamLink
from repro.runtime.node import ReceiverNode
from repro.runtime.registry import Registry
from repro.runtime.transport import DATA_CONN, Listener, WriteStalled, connect

from .test_links import ScriptedPeer


def buffer_sinks():
    """``(sinks, sink_factory)``: every receiver's bytes kept in memory."""
    sinks = {}

    def sink_factory(name):
        sinks[name] = BufferSink()
        return sinks[name]

    return sinks, sink_factory


def head_kill(config, size, receivers, after_bytes, *, seed=0, mode="close"):
    """One local broadcast whose head dies ``after_bytes`` in."""
    source = PatternSource(size, seed=seed)
    sinks, sink_factory = buffer_sinks()
    began = time.monotonic()
    result = run_broadcast(
        source, receivers, backend="local", config=config, timeout=60.0,
        trace=True, sink_factory=sink_factory,
        crashes=[("n1", after_bytes, mode)], allow_head_chaos=True)
    return source, sinks, result, time.monotonic() - began


class TestDetachLatency:
    def test_head_kill_does_not_wait_out_io_timeout(self):
        """Every survivor's upstream is alive but idle when the head
        dies; none of them may sit out the 5 s read timeout."""
        config = KascadeConfig(chunk_size=64 * 1024, buffer_chunks=8,
                               io_timeout=5.0, ping_timeout=0.4,
                               connect_timeout=1.0, report_timeout=20.0)
        receivers = [f"n{i}" for i in range(2, 7)]
        source, sinks, result, wall = head_kill(
            config, 8 << 20, receivers, 2 << 20)
        assert result.ok, result.outcomes
        assert wall < 1.5, f"head-kill took {wall:.2f}s with io_timeout=5"
        (failover,) = result.trace.of_type(FAILOVER)
        (election,) = result.trace.of_type(ELECTION)
        assert election.t - failover.t < 0.5
        payload = source.expected_bytes(0, source.size)
        for name in receivers:
            assert sinks[name].getvalue() == payload, name

    def test_shutdown_wakes_a_node_idle_on_its_inbox(self):
        """A receiver nobody ever connects to leaves as soon as it is
        told to, not at the next inbox poll."""
        config = KascadeConfig(io_timeout=5.0, report_timeout=30.0)
        listener = Listener()
        plan = ChainPlan.single("n1", ("n2",)).stripe(0)
        registry = Registry({"n1": listener.address, "n2": listener.address})
        node = ReceiverNode("n2", plan, registry, listener, config, NullSink())
        node.start()
        time.sleep(0.1)
        began = time.monotonic()
        node.shutdown()
        node.join(timeout=5.0)
        assert not node.thread.is_alive()
        assert time.monotonic() - began < 0.1
        assert "shut down" in node.outcome.error


class TestDetachIssuesNoVerdicts:
    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_head_kills_stay_one_failover_one_election(self, seed):
        """4 KiB chunks keep every relay busy draining what the dead
        head already sent, so survivors are detached mid-relay: each run
        must still show exactly the coordinator's FAILOVER and one
        ELECTION, blame no receiver, and deliver every byte."""
        config = KascadeConfig(chunk_size=4096, buffer_chunks=16,
                               io_timeout=0.5, ping_timeout=0.4,
                               connect_timeout=1.0, report_timeout=10.0)
        receivers = [f"n{i}" for i in range(2, 2 + 3 + seed % 3)]
        size = 512 * 1024
        after = 4096 * (8 + (seed * 37) % 96)
        source, sinks, result, _wall = head_kill(
            config, size, receivers, after, seed=seed)
        assert result.ok, result.outcomes
        failovers = [(e.node, e.peer) for e in result.trace.of_type(FAILOVER)]
        assert failovers == [("coordinator", "n1")]
        assert len(result.trace.of_type(ELECTION)) == 1
        assert not set(result.report.failed_nodes) & set(receivers)
        payload = source.expected_bytes(0, size)
        for name in receivers:
            assert sinks[name].getvalue() == payload, name

    def test_a_detaching_link_raises_instead_of_marking_dead(self):
        """The rule lives in the link: with the owner's detach flag set,
        an unreachable downstream is the detach, not a death."""
        gone = Listener()
        addr = gone.address
        gone.close()
        config = KascadeConfig(chunk_size=1024, buffer_chunks=4,
                               io_timeout=0.25, ping_timeout=0.2,
                               connect_timeout=0.3, report_timeout=5.0)
        plan = StripePlan(head="n1", receivers=("n2", "n3"))
        registry = Registry({"n1": addr, "n2": addr, "n3": addr})
        state = NodeTransferState("n1", config,
                                  source_kind=SourceKind.SEEKABLE_FILE)
        tracer = TraceCollector()
        detaching = threading.Event()
        link = DownstreamLink("n1", plan, registry, config, state, tracer,
                              detaching=detaching)
        detaching.set()
        state.on_data(0, b"a" * 10)
        with pytest.raises(TransferAborted):
            link.send_data(0, b"a" * 10)
        assert link.dead == set()
        assert state.report.failures == []
        assert tracer.of_type(FAILOVER) == []


class TestReplacementUpstream:
    def test_silent_crash_found_by_ping_and_replacement_adopted_at_once(self):
        """Silence is still a timeout + ping verdict — but once the
        predecessor routes around the hung node, the node behind it
        takes the new connection without a second ``io_timeout``."""
        config = KascadeConfig(chunk_size=4096, buffer_chunks=4,
                               io_timeout=0.8, ping_timeout=0.2,
                               connect_timeout=0.5, report_timeout=10.0)
        size = config.chunk_size * 12
        source = PatternSource(size)
        sinks, sink_factory = buffer_sinks()
        result = LocalBroadcast(
            source, ["n2", "n3", "n4"], sink_factory=sink_factory,
            config=config, tracer=TraceCollector(),
            crashes=[CrashPlan("n3", config.chunk_size * 3, "silent")],
        ).run(timeout=60)
        assert result.ok, result.outcomes
        (verdict,) = [e for e in result.trace.of_type(FAILOVER)
                      if e.peer == "n3"]
        assert verdict.node == "n2"
        assert verdict.detector == tracing.DETECTOR_PING
        adopted = [e for e in result.trace.of_type(tracing.CONNECT)
                   if e.node == "n4" and e.t > verdict.t
                   and e.detail in ("upstream", "upstream-replaced")]
        assert adopted, "n4 never adopted the rerouted connection"
        # The old code found the replacement only at its next read
        # timeout: io_timeout - ping_timeout = 0.6 s after the verdict.
        assert adopted[0].t - verdict.t < 0.3
        want = hashlib.sha256(source.expected_bytes(0, size)).hexdigest()
        for name in ("n2", "n4"):
            got = hashlib.sha256(sinks[name].getvalue()).hexdigest()
            assert got == want, name

    def test_a_stray_connection_does_not_displace_a_live_upstream(self):
        """Only a *quiet* upstream is woken for a newcomer: a connection
        from nowhere must not cut a stream that is still delivering."""
        config = KascadeConfig(chunk_size=4096, buffer_chunks=8,
                               io_timeout=0.5, ping_timeout=0.2,
                               connect_timeout=0.5, report_timeout=6.0,
                               bandwidth_limit=2 << 20)
        size = 1 << 20  # ~0.5 s of stream at the paced rate
        source = PatternSource(size)
        sinks, sink_factory = buffer_sinks()
        bc = LocalBroadcast(source, ["n2", "n3"], sink_factory=sink_factory,
                            config=config, tracer=TraceCollector())
        strays: "queue.Queue" = queue.Queue()

        def intrude():
            while not bc.nodes:
                time.sleep(0.005)
            time.sleep(0.1)  # mid-stream
            strays.put(connect(bc.nodes["n3"].listener.address, DATA_CONN,
                               timeout=1.0))

        t = threading.Thread(target=intrude)
        t.start()
        try:
            result = bc.run(timeout=30)
        finally:
            t.join()
            while not strays.empty():
                strays.get().close()
        assert result.ok, result.outcomes
        assert result.report.failed_nodes == []
        n3_upstreams = [e for e in result.trace.of_type(tracing.CONNECT)
                        if e.node == "n3" and e.detail.startswith("upstream")]
        assert len(n3_upstreams) == 1
        payload = source.expected_bytes(0, size)
        assert sinks["n3"].getvalue() == payload


class _WatchedSink(BufferSink):
    """Records what was done *to* the sink besides writing."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def finish(self):
        self.calls.append("finish")

    def abort(self):
        self.calls.append("abort")

    def close(self):
        self.calls.append("close")


class TestDetachWakesEveryWait:
    """``begin_failover()`` ends whichever wait the main loop is in —
    not only the upstream read and the inbox, but a read on the
    *downstream* link, a flush against a full window and the start-up
    dial — without a verdict and without touching the sink.  Timeouts
    are 5 s throughout: a node that sat one out fails the 0.3 s bound."""

    CONFIG = KascadeConfig(chunk_size=64 * 1024, buffer_chunks=8,
                           io_timeout=5.0, ping_timeout=0.4,
                           connect_timeout=5.0, report_timeout=20.0,
                           sink_writeback_depth=0)

    def _survivor(self, successor_address, host=None):
        """n2 of n1 -> n2 -> n3, started, with this test as its upstream
        (the node of a ``HostChains`` when given a list to put it in)."""
        listener = Listener()
        chain = ChainPlan.single("n1", ("n2", "n3"))
        registry = Registry({"n1": listener.address, "n2": listener.address,
                             "n3": successor_address})
        sink, tracer = _WatchedSink(), TraceCollector()
        if host is None:
            node = ReceiverNode("n2", chain.stripe(0), registry, listener,
                                self.CONFIG, sink, tracer=tracer)
        else:
            host.append(HostChains("n2", chain, [registry], [listener],
                                   self.CONFIG, sink=sink, tracer=tracer))
            (node,) = host[0].nodes.values()
        node.start()
        upstream = connect(listener.address, DATA_CONN, timeout=2.0)
        msg, _ = upstream.recv_message(2.0)
        assert msg.offset == 0
        return node, sink, tracer, upstream

    @staticmethod
    def _frames(first, count, size):
        return b"".join(
            encode_header(Data(i * size, size)) + bytes([i % 251]) * size
            for i in range(first, first + count))

    @staticmethod
    def _parked(node, where, deadline=5.0):
        """Wait until the main loop is blocked on its downstream stream,
        in the direction ``where`` (reading or writing)."""
        until = time.monotonic() + deadline
        while time.monotonic() < until:
            stream = node.link.stream
            if stream is not None and node.port._blocked == (stream, where):
                time.sleep(0.05)  # inside the system call, not just before it
                return
            time.sleep(0.005)
        raise AssertionError("the node never reached the wait under test")

    def _detach(self, node, sink, tracer, *, sink_calls):
        began = time.monotonic()
        node.begin_failover()
        node.join(timeout=5.0)
        waited = time.monotonic() - began
        assert not node.thread.is_alive()
        assert waited < 0.3, f"detach took {waited:.2f}s"
        assert "detached for failover" in node.outcome.error
        assert tracer.of_type(FAILOVER) == []
        assert node.state.report.failures == []
        assert node.link.dead == set()
        assert sink.calls == sink_calls
        node.close_connections()

    @staticmethod
    def _mute(peer, kind, stream):
        """A successor that takes the whole stream and never says PASSED."""
        stream.send_message(Get(0), timeout=1.0)
        while True:
            msg, _payload = stream.recv_message(10.0)
            if isinstance(msg, Report):
                peer.parked = stream  # kept open, never answered
                return True

    def _stream_everything(self, node, upstream):
        size = self.CONFIG.chunk_size
        report = node.state.report.encode()
        upstream.send_raw(
            self._frames(0, 4, size) + encode_header(End(4 * size))
            + encode_header(Report(len(report))) + report, timeout=2.0)
        self._parked(node, socket.SHUT_RD)
        return 4 * size

    def test_parked_awaiting_passed_on_its_downstream(self):
        """The whole stream is stored and forwarded; the successor never
        says PASSED."""
        successor = ScriptedPeer(self._mute)
        node, sink, tracer, upstream = self._survivor(successor.address)
        try:
            size = self._stream_everything(node, upstream)
            # Storage was settled before the report went down; a detach
            # must not undo that.
            self._detach(node, sink, tracer, sink_calls=["finish"])
            assert sink.bytes_written == size
        finally:
            node.shutdown()
            upstream.close()
            successor.close()

    def test_a_sink_kept_across_a_failover_settles_once(self):
        """A survivor stopped after it finished its sink (the whole stream
        stored, PASSED not yet back) lets go like any other — and resumes
        into a ``NullSink``: its rebuilt node, or the settle of a promoted
        head, must neither finish it again nor abort (unlink) a complete
        copy.  The rule is the host's, so every driver keeps it."""
        successor = ScriptedPeer(self._mute)
        host = []
        node, sink, tracer, upstream = self._survivor(successor.address, host)
        (host,) = host
        try:
            size = self._stream_everything(node, upstream)
            assert host.let_go()
            assert node.sink_finished and host.offset == size
            rerooted = ChainPlan.single("n2", ("n3",))
            role = host.resume(rerooted, lambda name, **role: role,
                               source=PatternSource(size), gate=None)
            assert type(role["sink"]) is NullSink
            assert role["resume_offset"] == size
            assert sink.calls == ["finish"]
        finally:
            host.shutdown()
            host.close_connections()
            upstream.close()
            successor.close()

    def test_parked_in_a_flush_against_a_full_window(self):
        """The successor handshakes and then reads nothing: the relay's
        flush blocks on a full socket."""
        def deaf(peer, kind, stream):
            stream._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stream.send_message(Get(0), timeout=1.0)
            peer.parked = stream
            return True

        successor = ScriptedPeer(deaf)
        node, sink, tracer, upstream = self._survivor(successor.address)
        size = self.CONFIG.chunk_size

        def feed():
            try:
                for first in range(0, 512, 4):  # up to 32 MiB
                    upstream.send_raw(self._frames(first, 4, size), timeout=0.5)
            except (WriteStalled, ConnectionError):
                pass

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            self._parked(node, socket.SHUT_WR, 15.0)
            self._detach(node, sink, tracer, sink_calls=[])
        finally:
            node.shutdown()
            feeder.join(timeout=5.0)
            upstream.close()
            successor.close()

    def test_parked_dialling_a_successor_that_is_not_up_yet(self):
        """Nobody listens at n3's address yet: the link is inside its
        start-up window, between two refused connects."""
        reserved = Listener()
        address = reserved.address
        reserved.close()
        node, sink, tracer, upstream = self._survivor(address)
        try:
            upstream.send_raw(self._frames(0, 1, self.CONFIG.chunk_size),
                              timeout=2.0)
            until = time.monotonic() + 5.0
            while node.state.offset == 0 and time.monotonic() < until:
                time.sleep(0.005)
            time.sleep(0.3)  # several back-offs in: naps are 0.1 s by now
            assert node.thread.is_alive() and node.link.stream is None
            self._detach(node, sink, tracer, sink_calls=[])
            assert sink.bytes_written == self.CONFIG.chunk_size
        finally:
            node.shutdown()
            upstream.close()
