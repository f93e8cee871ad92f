"""The protocol engine against a scripted in-memory port.

No socket and no DES: every stream is a script (what the peer will say,
in order) and a record (what the node said to it), the clock moves only
when a wait times out, and — as on the socket port — no primitive ever
yields, so a node is run by one ``send(None)``.  Each class names one
safety property of §III-C/D; where the two former implementations
disagreed, the test states the rule that won.
"""

import errno
from collections import deque

import pytest

from repro.core import (
    Data,
    End,
    Forget,
    FramingError,
    Get,
    KascadeConfig,
    Passed,
    PGet,
    Ping,
    Pong,
    ProtocolError,
    Quit,
    Report,
    TransferAborted,
    TransferReport,
)
from repro.core.engine import (
    DATA_CONN,
    PGET_CONN,
    PING_CONN,
    RING_CONN,
    Head,
    InjectedCrash,
    Link,
    Receiver,
)
from repro.core.node_state import NodeTransferState
from repro.core.plan import ChainPlan
from repro.core.sinks import BufferSink
from repro.core.sources import BytesSource
from repro.core.tracing import FAILOVER, PING, STALL, TraceCollector

CFG = KascadeConfig(chunk_size=100, buffer_chunks=4, io_timeout=1.0,
                    ping_timeout=0.5, connect_timeout=2.0, report_timeout=10.0)
PLAN = ChainPlan.single("n1", ("n2", "n3", "n4")).stripe(0)
CLEAN_REPORT = TransferReport().encode()


def drive(gen):
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a scripted primitive yielded")


def chunk(i, size=100):
    return bytes([i]) * size


def stream_of(n, size=100):
    """The frames of an ``n``-chunk stream, END and a clean REPORT."""
    frames = [(Data(i * size, size), chunk(i, size)) for i in range(n)]
    return frames + [(End(n * size), b""), (Report(len(CLEAN_REPORT)), CLEAN_REPORT)]


class FakeStream:
    """``script``: what ``recv`` returns (or raises), in order; once it
    runs out every read times out.  ``said``: the frames flushed here."""

    def __init__(self, port, script=(), stalls=0):
        self.port = port
        self.script = deque(script)
        self.stalls = stalls          # flushes that time out before one works
        self.corked, self.said = [], []
        self.closed = self.woken = False

    def recv(self, timeout):
        if self.woken:
            raise ConnectionError("reader woken")
        if not self.script:
            self.port.clock += timeout
            raise TimeoutError("nothing scripted")
        item = self.script.popleft()
        if isinstance(item, BaseException):
            raise item
        return item
        yield

    def try_recv_run(self):
        first, payloads = None, []
        while self.script and isinstance(self.script[0], tuple) \
                and isinstance(self.script[0][0], Data):
            msg, payload = self.script.popleft()
            first = msg.offset if first is None else first
            payloads.append(payload)
        return None if first is None else (first, payloads, None)

    def cork(self, msg, payload=b""):
        self.corked.append((msg, bytes(payload)))

    def cork_run(self, first_offset, payloads, wire):
        for payload in payloads:
            self.cork(Data(first_offset, len(payload)), payload)
            first_offset += len(payload)

    @property
    def pending_bytes(self):
        return sum(17 + len(p) for _m, p in self.corked)

    def flush(self, timeout):
        if self.closed:
            raise ConnectionError("closed")
        if self.stalls:
            self.stalls -= 1
            self.port.clock += timeout
            raise TimeoutError("write stalled")
        self.said += self.corked
        self.corked = []
        return
        yield

    def wake_reader(self):
        self.woken = True

    def close(self):
        self.closed = True

    @property
    def kinds(self):
        return [type(m).__name__ for m, _p in self.said]


class FakePort:
    """``dial[(target, kind)]``: the streams successive connects get; a
    missing or exhausted entry is a refused connection."""

    def __init__(self):
        self.clock = 0.0
        self.dial = {}
        self.dialled = []
        self.inbox = deque()
        self.closed = False

    def now(self):
        return self.clock

    def answers(self, target, kind, *scripts, **kwargs):
        streams = [FakeStream(self, script, **kwargs) for script in scripts]
        self.dial.setdefault((target, kind), deque()).extend(streams)
        return streams[0] if len(streams) == 1 else streams

    def connect(self, target, kind, timeout, patient=False):
        self.dialled.append((target, kind))
        queue = self.dial.get((target, kind))
        if not queue:
            raise ConnectionError(f"connect refused by {target}")
        return queue.popleft()
        yield

    def offer(self, stream):
        self.inbox.append(stream)

    def next_connection(self, timeout):
        if not self.inbox:
            self.clock += timeout
            raise TimeoutError("no connection arrived")
        return self.inbox.popleft()
        yield

    def poll_connection(self):
        return self.inbox.popleft() if self.inbox else None

    def sleep(self, seconds):
        self.clock += seconds
        return
        yield

    def nudge(self):
        pass

    def spawn(self, gen):
        drive(gen)

    def close(self):
        self.closed = True


class Sink(BufferSink):
    """Remembers when it was settled relative to what the node said."""

    def __init__(self, log, fail_finish=None):
        super().__init__()
        self.log, self.fail_finish = log, fail_finish

    def finish(self):
        self.log.append("sink.finish")
        if self.fail_finish is not None:
            raise self.fail_finish

    def abort(self):
        self.log.append("sink.abort")


def receiver(port, upstream_script, name="n2", config=CFG, gate=None,
             sink=None, tracer=None):
    """A receiver with one scripted upstream already in its inbox."""
    sink = sink if sink is not None else BufferSink()
    node = Receiver(name, PLAN, port, config, sink, crash_gate=gate,
                    tracer=tracer or TraceCollector())
    upstream = FakeStream(port, upstream_script)
    node.adopt_data_connection(upstream)
    return node, upstream, sink


class TestGetOnEveryNewConnection:
    def test_first_upstream_and_every_replacement_are_sent_get(self):
        """The deadlock-avoidance rule: whoever accepts a data
        connection speaks first, with the offset it stands at."""
        port = FakePort()
        down = port.answers("n3", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        node, first, sink = receiver(
            port, stream_of(2)[:2] + [ConnectionError("reset")])
        second = FakeStream(port, stream_of(4)[2:])
        port.offer(second)
        drive(node.run())
        assert first.said == [(Get(0), b"")]
        assert second.said[0] == (Get(200), b"")
        assert second.kinds == ["Get", "Passed"]
        assert node.outcome.ok and sink.getvalue() == b"".join(map(chunk, range(4)))
        assert down.kinds == ["Data"] * 4 + ["End", "Report"]

    def test_a_downstream_that_does_not_open_with_get_is_not_trusted(self):
        port = FakePort()
        port.answers("n3", DATA_CONN, [(Passed(), b"")])
        good = port.answers("n4", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        tracer = TraceCollector()
        state = NodeTransferState("n2", CFG)
        link = Link("n2", PLAN, port, CFG, state, tracer)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        assert link.target == "n4" and link.dead == {"n3"}
        assert tracer.of_type(FAILOVER)[0].detail == "bad-handshake: Passed"
        assert good.kinds == ["Data"]


class TestStoreGateForward:
    def test_a_crash_leaves_exactly_the_stored_chunks_and_forwards_none_of_them_late(self):
        """Runtime's rule (protosim asked the gate *after* forwarding):
        the chunk that trips the gate is stored and never forwarded."""
        port = FakePort()
        down = port.answers("n3", DATA_CONN, [(Get(0), b"")])
        node, _up, sink = receiver(
            port, stream_of(5),
            gate=lambda received: "close" if received >= 300 else None)
        with pytest.raises(InjectedCrash):
            drive(node.run())
        assert sink.bytes_written == 300 and node.state.offset == 300
        forwarded = [m.offset for m, _p in down.said + down.corked]
        assert forwarded == [0]  # the first frame; the run behind it died unsent

    def test_store_precedes_forward(self):
        port = FakePort()
        order = []

        class Spy(BufferSink):
            def write_chunk(self, data):
                order.append(("stored", bytes(data)[0]))
                super().write_chunk(data)

        down = port.answers("n3", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        real_cork = down.cork
        down.cork = lambda msg, payload=b"": (
            isinstance(msg, Data) and order.append(("forwarded", payload[0])),
            real_cork(msg, payload))[1]
        node, _up, _sink = receiver(port, stream_of(1), sink=Spy())
        drive(node.run())
        assert order == [("stored", 0), ("forwarded", 0)]


class TestSinkSettledBeforePassed:
    def test_finish_precedes_the_report_downstream_and_passed_upstream(self):
        """Runtime's rule (protosim settled the sink after PASSED): no
        byte is acknowledged that is not on disk."""
        port, log = FakePort(), []
        down = port.answers("n3", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        node, up, _sink = receiver(port, stream_of(2), sink=Sink(log))
        for stream, name in ((down, "down"), (up, "up")):
            stream.cork = (lambda msg, payload=b"", s=stream, n=name, c=stream.cork:
                           (log.append(f"{n}.{type(msg).__name__}"),
                            c(msg, payload))[1])
        drive(node.run())
        assert log.index("sink.finish") < log.index("down.End")
        assert log.index("sink.finish") < log.index("up.Passed")
        assert node.outcome.ok

    def test_enospc_at_finish_quits_both_neighbours_and_acknowledges_nothing(self):
        port, log = FakePort(), []
        down = port.answers("n3", DATA_CONN, [(Get(0), b"")])
        full = OSError(errno.ENOSPC, "No space left on device")
        node, up, _sink = receiver(port, stream_of(2),
                                   sink=Sink(log, fail_finish=full))
        drive(node.run())
        assert up.kinds == ["Get", "Quit"]
        assert down.kinds == ["Data", "Data", "Quit"]
        assert "sink failure" in node.outcome.error and not node.outcome.ok
        assert log == ["sink.finish", "sink.abort"]
        assert port.closed

    def test_a_failing_write_mid_stream_takes_the_same_path(self):
        port = FakePort()

        class Dying(BufferSink):
            def write_chunk(self, data):
                if self.bytes_written >= 100:
                    raise OSError(errno.ENOSPC, "No space left on device")
                super().write_chunk(data)

        down = port.answers("n3", DATA_CONN, [(Get(0), b"")])
        node, up, _sink = receiver(port, stream_of(3), sink=Dying())
        drive(node.run())
        assert up.kinds == ["Get", "Quit"] and down.kinds[-1] == "Quit"
        assert "sink failure" in node.outcome.error


class TestEndAndDesync:
    def test_conflicting_end_totals_are_a_protocol_error(self):
        """Runtime's rule (protosim ignored every later END)."""
        port = FakePort()
        port.answers("n3", DATA_CONN, [(Get(0), b"")])
        node, _up, _sink = receiver(
            port, stream_of(2)[:3] + [(End(999), b"")])
        with pytest.raises(ProtocolError, match="conflicting END totals"):
            drive(node.run())

    def test_a_repeated_end_from_a_rerouted_upstream_is_ignored(self):
        port = FakePort()
        port.answers("n3", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        frames = stream_of(2)
        node, _up, _sink = receiver(port, frames[:3] + [frames[2]] + frames[3:])
        drive(node.run())
        assert node.outcome.ok

    def test_forward_desync_raises_instead_of_sending_a_gap(self):
        """Runtime's rule (protosim sent whatever it was handed)."""
        port = FakePort()
        down = port.answers("n3", DATA_CONN, [(Get(0), b"")])
        state = NodeTransferState("n2", CFG)
        link = Link("n2", PLAN, port, CFG, state)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        with pytest.raises(ProtocolError, match="forward desync"):
            drive(link.send_data(200, chunk(2)))
        assert down.kinds == ["Data"]

    def test_finish_short_of_the_total_is_the_targets_failure_not_a_short_stream(self):
        port = FakePort()
        port.answers("n3", DATA_CONN, [(Get(0), b"")])
        last = port.answers("n4", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        state = NodeTransferState("n2", CFG)
        link = Link("n2", PLAN, port, CFG, state)
        state.on_data(0, chunk(0))
        state.on_data(100, chunk(1))
        assert drive(link.send_data(0, chunk(0)))  # [100, 200) never forwarded
        state.on_end(200)
        assert drive(link.finish(total=200, quit_first=False)) == "passed"
        assert "n3" in link.dead
        # The replacement's GET replayed what was missing before END.
        assert [m.offset for m, _p in last.said if isinstance(m, Data)] == [0, 100]


class TestUpstreamLoss:
    def test_no_upstream_ever_is_transfer_aborted_with_the_sink_untouched(self):
        """Runtime's rule (protosim hard-aborted: QUIT, ``sink.abort``)."""
        port, log = FakePort(), []
        node = Receiver("n2", PLAN, port, CFG, Sink(log))
        with pytest.raises(TransferAborted, match="no upstream connection"):
            drive(node.run())
        assert log == [] and port.clock == CFG.report_timeout

    def test_a_poisoned_frame_drops_the_connection_not_the_node(self):
        port = FakePort()
        port.answers("n3", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        node, bad, sink = receiver(
            port, stream_of(3)[:1] + [FramingError("unknown opcode 0xee")])
        good = FakeStream(port, stream_of(3)[1:])
        port.offer(good)
        drive(node.run())
        assert bad.closed and good.said[0] == (Get(100), b"")
        assert node.outcome.ok and sink.bytes_written == 300

    def test_a_quiet_upstream_is_woken_for_its_replacement(self):
        """Runtime's rule (protosim found a replacement only at the next
        read timeout): quiet for ``io_timeout`` means routed around."""
        port = FakePort()
        node, old, _sink = receiver(port, [])
        drive(node._acquire_upstream())
        assert node.upstream is old
        port.clock += CFG.io_timeout
        newcomer = FakeStream(port)
        node.adopt_data_connection(newcomer)
        assert old.woken
        assert drive(node._switch_upstream_if_replaced())
        assert node.upstream is newcomer and old.closed

    def test_a_stray_connection_does_not_displace_a_live_upstream(self):
        port = FakePort()
        node, live, _sink = receiver(port, [])
        drive(node._acquire_upstream())
        port.clock += CFG.io_timeout / 2
        node.adopt_data_connection(FakeStream(port))
        assert not live.woken and node.upstream is live

    def test_silence_beyond_the_report_timeout_is_a_hard_abort(self):
        port, log = FakePort(), []
        node, up, _sink = receiver(port, stream_of(2)[:1], sink=Sink(log))
        drive(node.run())
        assert "upstream silent beyond deadline" in node.outcome.error
        assert up.kinds == ["Get", "Quit"] and log == ["sink.abort"]


class TestForgetPgetReget:
    def test_hole_is_fetched_from_the_head_then_the_stream_is_re_requested(self):
        port = FakePort()
        down = port.answers("n4", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        head = port.answers("n1", PGET_CONN, stream_of(3)[:3])
        node, up, sink = receiver(
            port, [(Forget(300), b"")] + stream_of(5)[3:], name="n3")
        drive(node.run())
        assert head.said == [(PGet(0, 300), b"")] and head.closed
        assert up.kinds == ["Get", "Get", "Passed"]
        assert up.said[1] == (Get(300), b"")
        assert node.outcome.ok and sink.bytes_written == 500
        assert [m.offset for m, _p in down.said if isinstance(m, Data)] == \
            [0, 100, 200, 300, 400]

    def test_a_head_that_cannot_serve_means_a_clean_suffix_abort(self):
        """Non-seekable head: FORGET from the head too — QUIT both
        neighbours, discard the partial output, blame nobody."""
        port, log = FakePort(), []
        down = port.answers("n4", DATA_CONN, [(Get(0), b"")])
        port.answers("n1", PGET_CONN, [(Forget(400), b"")])
        node, up, _sink = receiver(
            port, stream_of(1)[:1] + [(Forget(300), b"")], name="n3",
            sink=Sink(log))
        drive(node.run())
        assert "beyond recovery" in node.outcome.error
        assert up.kinds == ["Get", "Quit"] and down.kinds == ["Data", "Quit"]
        assert log == ["sink.abort"] and node.state.report.failures == []

    def test_the_head_serves_a_range_or_says_forget(self):
        port = FakePort()
        source = BytesSource(b"".join(map(chunk, range(4))))
        head = Head("n1", PLAN, port, CFG, source)
        head.state.on_run(0, [chunk(i) for i in range(4)])
        asked = FakeStream(port, [(PGet(100, 300), b"")])
        head.on_connection(PGET_CONN, asked)
        assert asked.said == [(Data(100, 100), chunk(1)), (Data(200, 100), chunk(2))]
        assert asked.closed

    def test_a_relay_answers_a_get_below_its_ring_with_forget(self):
        port = FakePort()
        down = port.answers("n3", DATA_CONN,
                            [(Get(0), b""), (Get(500), b"")])
        state = NodeTransferState("n2", CFG.with_(buffer_chunks=2))
        link = Link("n2", PLAN, port, CFG, state)
        for i in range(6):
            state.on_data(i * 100, chunk(i))
        assert drive(link.send_data(500, chunk(5)))
        assert down.said[0] == (Forget(400), b"")  # ring holds [400, 600)
        assert down.said[1:] == [(Data(500, 100), chunk(5))]


class TestStallPingVerdict:
    def _link(self, port, tracer):
        state = NodeTransferState("n2", CFG)
        return Link("n2", PLAN, port, CFG, state, tracer), state

    def test_a_stalled_write_is_ridden_out_while_the_peer_answers_pings(self):
        port, tracer = FakePort(), TraceCollector()
        down = port.answers("n3", DATA_CONN, [(Get(0), b"")], stalls=2)
        port.answers("n3", PING_CONN, [(Pong(1), b"")], [(Pong(1), b"")])
        link, state = self._link(port, tracer)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        assert down.kinds == ["Data"] and link.dead == set()
        assert [e.detail for e in tracer.of_type(PING)] == ["answered"] * 2
        assert len(tracer.of_type(STALL)) == 1

    def test_an_unanswered_ping_is_the_verdict_and_the_next_node_gets_the_replay(self):
        port, tracer = FakePort(), TraceCollector()
        port.answers("n3", DATA_CONN, [(Get(0), b"")], stalls=99)
        spare = port.answers("n4", DATA_CONN, [(Get(0), b"")])
        link, state = self._link(port, tracer)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        (verdict,) = tracer.of_type(FAILOVER)
        assert (verdict.peer, verdict.detector) == ("n3", "ping")
        assert link.target == "n4" and spare.said == [(Data(0, 100), chunk(0))]

    def test_read_silence_awaiting_passed_is_pinged_and_the_report_is_re_encoded(self):
        """A death found only while awaiting PASSED must be *in* the
        report its replacement receives."""
        port, tracer = FakePort(), TraceCollector()
        first = port.answers("n3", DATA_CONN, [(Get(0), b"")])
        second = port.answers("n4", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        link, state = self._link(port, tracer)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        state.on_end(100)
        assert drive(link.finish(total=100, quit_first=False)) == "passed"
        told = [TransferReport.decode(p) for s in (first, second)
                for m, p in s.said if isinstance(m, Report)]
        assert [r.failed_nodes for r in told] == [[], ["n3"]]
        assert tracer.of_type(STALL)[0].detail == "read: awaiting PASSED"

    def test_a_refused_ping_defers_to_the_data_connection(self):
        """The peer sent PASSED and closed its listener as our read timed
        out: the ping is refused, but the data connection still delivers
        PASSED — the peer finished, it did not die."""
        port, tracer = FakePort(), TraceCollector()
        port.answers("n3", DATA_CONN, [(Get(0), b""), TimeoutError("stall"),
                                        (Passed(), b"")])
        link, state = self._link(port, tracer)
        state.on_data(0, chunk(0))
        assert drive(link.send_data(0, chunk(0)))
        state.on_end(100)
        assert drive(link.finish(total=100, quit_first=False)) == "passed"
        assert [e.detail for e in tracer.of_type(PING)] == ["unanswered"]
        assert link.dead == set() and not tracer.of_type(FAILOVER)

    def test_the_ping_is_answered_by_whoever_is_asked(self):
        port = FakePort()
        node = Receiver("n2", PLAN, port, CFG, BufferSink())
        probe = FakeStream(port, [(Ping(7), b"")])
        node.on_connection(PING_CONN, probe)
        assert probe.said == [(Pong(7), b"")] and probe.closed


class TestRingClosure:
    def test_the_effective_tail_reports_to_the_head_before_acknowledging(self):
        port = FakePort()
        ring = port.answers("n1", RING_CONN, [(Passed(), b"")])
        node, up, _sink = receiver(port, stream_of(1), name="n4")
        drive(node.run())
        assert ring.kinds == ["Report"] and up.kinds == ["Get", "Passed"]
        assert port.dialled == [("n1", RING_CONN)]

    def test_the_head_takes_the_ring_report_as_final(self):
        port = FakePort()
        down = port.answers("n2", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        head = Head("n1", PLAN, port, CFG, BytesSource(chunk(0) + chunk(1)))
        report = TransferReport()
        report.add(NodeTransferState("n3", CFG).record_failure("n4", "reset"))
        tail = FakeStream(port, [(Report(len(report.encode())), report.encode())])
        head.on_connection(RING_CONN, tail)
        drive(head.run())
        assert tail.said == [(Passed(), b"")]
        assert head.outcome.ok and head.final_report.failed_nodes == ["n4"]
        assert down.kinds == ["Data", "Data", "End", "Report"]

    def test_request_quit_ends_the_stream_with_quit_and_a_report(self):
        port = FakePort()
        down = port.answers("n2", DATA_CONN, [(Get(0), b""), (Passed(), b"")])
        source = BytesSource(b"".join(map(chunk, range(20))))  # five runs
        head = Head("n1", PLAN, port, CFG.with_(bandwidth_limit=1000), source)
        naps = []
        real_sleep = port.sleep

        def sleep(seconds):
            naps.append(seconds)
            if len(naps) == 2:
                head.request_quit()
            return real_sleep(seconds)

        port.sleep = sleep
        drive(head.run())
        assert not head.outcome.ok and down.kinds[-2:] == ["Quit", "Report"]
        assert head.state.offset == 800  # two runs out, the third dropped at the quit
