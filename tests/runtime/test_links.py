"""Unit tests for the sender-side DownstreamLink against scripted peers.

Each test stands up real listening sockets that play the *receiver* side
of the protocol according to a script, so the link's handshake, replay,
FORGET, rerouting, and PASSED logic is exercised in isolation from the
full node machinery.
"""

import threading

import pytest

from repro.core import (
    Data,
    End,
    Get,
    KascadeConfig,
    Passed,
    Quit,
    Report,
    SourceKind,
)
from repro.core.node_state import NodeTransferState
from repro.core.plan import StripePlan
from repro.runtime.links import DownstreamLink
from repro.runtime.registry import Registry
from repro.runtime.transport import Address, Listener


CFG = KascadeConfig(
    chunk_size=1024, buffer_chunks=4,
    io_timeout=0.25, ping_timeout=0.2, connect_timeout=0.5,
    report_timeout=5.0,
)


class ScriptedPeer:
    """A listener whose handler runs in a thread; records what it saw."""

    def __init__(self, handler, listener=None):
        self.listener = listener or Listener()
        self.handler = handler
        self.seen = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            while True:
                kind, stream = self.listener.accept(timeout=5.0)
                done = self.handler(self, kind, stream)
                if done:
                    return
        except (TimeoutError, ConnectionError):
            pass

    @property
    def address(self):
        return self.listener.address

    def close(self):
        self.listener.close()


def make_link(peers, owner="n1"):
    """Link for a pipeline n1 -> n2 -> ... with given peer addresses."""
    names = [owner] + [f"n{i + 2}" for i in range(len(peers))]
    plan = StripePlan(head=names[0], receivers=tuple(names[1:]))
    addrs = {owner: Address("127.0.0.1", 1)}  # head address unused
    for name, peer in zip(names[1:], peers):
        addrs[name] = peer.address
    state = NodeTransferState(owner, CFG, source_kind=SourceKind.SEEKABLE_FILE)
    return DownstreamLink(owner, plan, Registry(addrs), CFG, state), state


def normal_receiver(offset=0, collect=None):
    """Handler: GET(offset), consume DATA/END/REPORT, answer PASSED."""

    def handler(peer, kind, stream):
        if kind != b"D":
            stream.close()
            return False
        stream.send_message(Get(offset), timeout=1.0)
        while True:
            msg, payload = stream.recv_message(5.0)
            peer.seen.append((msg, payload))
            if collect is not None:
                collect.append((msg, payload))
            if isinstance(msg, Report):
                stream.send_message(Passed(), timeout=1.0)
                return True

    return handler


class TestHappyFlow:
    def test_stream_and_finish(self):
        seen = []
        peer = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([peer])
        try:
            for i in range(3):
                data = bytes([i]) * 100
                state.on_data(i * 100, data)
                assert link.send_data(i * 100, data)
            state.on_end(300)
            assert link.finish(total=300, quit_first=False) == "passed"
        finally:
            peer.close()
        kinds = [type(m).__name__ for m, _p in seen]
        assert kinds == ["Data", "Data", "Data", "End", "Report"]

    def test_quit_path(self):
        seen = []
        peer = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([peer])
        try:
            state.on_data(0, b"x" * 50)
            assert link.send_data(0, b"x" * 50)
            state.on_quit()
            assert link.finish(total=50, quit_first=True) == "passed"
        finally:
            peer.close()
        kinds = [type(m).__name__ for m, _p in seen]
        assert kinds == ["Data", "Quit", "Report"]


class TestReplay:
    def test_reconnect_replays_from_receiver_offset(self):
        """Second peer GETs from 100: the link must replay [100, 300)."""
        first_conn = {"n": 0}

        def flaky(peer, kind, stream):
            # Accept the data connection, read one DATA, then die.
            if kind != b"D":
                stream.close()
                return False
            stream.send_message(Get(0), timeout=1.0)
            stream.recv_message(5.0)
            stream.close()
            return True

        def resumed(peer, kind, stream):
            if kind != b"D":
                stream.close()
                return False
            stream.send_message(Get(100), timeout=1.0)
            while True:
                msg, payload = stream.recv_message(5.0)
                peer.seen.append((msg, payload))
                if isinstance(msg, Report):
                    stream.send_message(Passed(), timeout=1.0)
                    return True

        peer1 = ScriptedPeer(flaky)
        peer2 = ScriptedPeer(resumed)
        link, state = make_link([peer1, peer2])
        try:
            for i in range(3):
                state.on_data(i * 100, bytes([i]) * 100)
                link.send_data(i * 100, bytes([i]) * 100)
            state.on_end(300)
            assert link.finish(total=300, quit_first=False) == "passed"
        finally:
            peer1.close()
            peer2.close()
        # peer2 must have received exactly [100, 300) then END.
        datas = [(m.offset, m.size) for m, _p in peer2.seen
                 if isinstance(m, Data)]
        assert datas[0][0] == 100
        assert sum(s for _o, s in datas) == 200
        # The failure of n2 is in the report.
        assert "n2" in {r.node for r in state.report.failures}

    def test_connect_refused_marks_dead_and_moves_on(self):
        dead = Listener()
        dead_addr = dead.address
        dead.close()  # nothing listens here any more

        seen = []
        alive = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([alive, alive])  # placeholder, fix below
        # Rebuild with the dead address first.
        plan = StripePlan(head="n1", receivers=("n2", "n3"))
        addrs = {
            "n1": Address("127.0.0.1", 1),
            "n2": dead_addr,
            "n3": alive.address,
        }
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, Registry(addrs), CFG, state)
        try:
            state.on_data(0, b"a" * 10)
            assert link.send_data(0, b"a" * 10)
            state.on_end(10)
            assert link.finish(total=10, quit_first=False) == "passed"
        finally:
            alive.close()
        assert link.target is None or link.target == "n3"
        assert "n2" in {r.node for r in state.report.failures}


class TestStartupConnectGrace:
    """A refused connect before the link ever carried anything means the
    peer is not listening *yet*; it gets ``connect_timeout`` to appear."""

    @staticmethod
    def reserved_address():
        probe = Listener()
        addr = probe.address
        probe.close()
        return addr

    def test_late_listener_is_waited_for_not_declared_dead(self):
        addr = self.reserved_address()
        late = {}

        def appear():
            late["peer"] = ScriptedPeer(normal_receiver(),
                                        Listener(port=addr.port))

        plan = StripePlan(head="n1", receivers=("n2",))
        registry = Registry({"n1": Address("127.0.0.1", 1), "n2": addr})
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, registry, CFG, state)
        timer = threading.Timer(0.3, appear)
        timer.start()
        try:
            state.on_data(0, b"a" * 10)
            assert link.send_data(0, b"a" * 10)
            state.on_end(10)
            assert link.finish(total=10, quit_first=False) == "passed"
        finally:
            timer.join()
            late["peer"].close()
        assert link.dead == set()
        assert state.report.failures == []

    def test_a_node_that_never_appears_is_dead_within_the_window(self):
        import time

        plan = StripePlan(head="n1", receivers=("n2",))
        registry = Registry({"n1": Address("127.0.0.1", 1),
                             "n2": self.reserved_address()})
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, registry, CFG, state)
        state.on_data(0, b"a" * 10)
        began = time.monotonic()
        assert link.send_data(0, b"a" * 10) is False
        waited = time.monotonic() - began
        assert link.dead == {"n2"}
        assert CFG.connect_timeout * 0.8 <= waited < CFG.connect_timeout + 0.5

    def test_no_grace_once_the_link_has_carried_the_stream(self):
        """Mid-transfer a refused connect is a death, at once."""
        import time

        alive = ScriptedPeer(lambda peer, kind, stream: (
            stream.send_message(Get(0), timeout=1.0), stream.close(), True)[-1])
        plan = StripePlan(head="n1", receivers=("n2", "n3"))
        registry = Registry({"n1": Address("127.0.0.1", 1),
                             "n2": alive.address,
                             "n3": self.reserved_address()})
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, registry, CFG, state)
        try:
            state.on_data(0, b"a" * 10)
            assert link.send_data(0, b"a" * 10)  # handshake with n2 done
            alive.thread.join(timeout=5.0)       # n2 hung up
            state.on_end(10)
            began = time.monotonic()
            assert link.finish(total=10, quit_first=False) == "tail"
            assert time.monotonic() - began < CFG.connect_timeout * 0.5
        finally:
            alive.close()
        assert link.dead == {"n2", "n3"}


class TestEffectiveTail:
    def test_all_dead_returns_tail(self):
        dead1, dead2 = Listener(), Listener()
        a1, a2 = dead1.address, dead2.address
        dead1.close()
        dead2.close()
        plan = StripePlan(head="n1", receivers=("n2", "n3"))
        addrs = {"n1": Address("127.0.0.1", 1), "n2": a1, "n3": a2}
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, Registry(addrs), CFG, state)
        state.on_data(0, b"a" * 10)
        assert not link.send_data(0, b"a" * 10)
        state.on_end(10)
        assert link.finish(total=10, quit_first=False) == "tail"
        assert link.is_effective_tail

    def test_downstream_quit_makes_tail(self):
        """A receiver that answers QUIT (aborted suffix) is not a failure;
        the link stops without skipping to anyone."""

        def aborter(peer, kind, stream):
            if kind != b"D":
                stream.close()
                return False
            stream.send_message(Quit(), timeout=1.0)
            stream.close()
            return True

        never = ScriptedPeer(
            lambda p, k, s: (s.close(), True)[1]
        )
        quitter = ScriptedPeer(aborter)
        plan = StripePlan(head="n1", receivers=("n2", "n3"))
        addrs = {
            "n1": Address("127.0.0.1", 1),
            "n2": quitter.address,
            "n3": never.address,
        }
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink("n1", plan, Registry(addrs), CFG, state)
        try:
            state.on_data(0, b"a" * 10)
            assert not link.send_data(0, b"a" * 10)
            assert link.downstream_aborted
            assert link.is_effective_tail
            # No failure recorded: the quit was deliberate.
            assert not state.report.failures
        finally:
            quitter.close()
            never.close()


def decoded_run(first_offset, sizes, fill=0):
    """A run as a relay holds it: ``(first_offset, payloads, raw)`` popped
    from a decoder that was fed the frames' wire bytes."""
    from repro.core import FrameDecoder, encode_header

    wire, offset = bytearray(), first_offset
    for i, size in enumerate(sizes):
        wire += encode_header(Data(offset, size)) + bytes([fill + i]) * size
        offset += size
    dec = FrameDecoder()
    dec.feed(bytes(wire))
    run = dec.try_pop_run()
    assert run is not None and len(run[1]) == len(sizes)
    return run


def store_run(state, run):
    first_offset, payloads, _raw = run
    offset = first_offset
    for payload in payloads:
        state.on_data(offset, payload)
        offset += len(payload)


def stream_bytes(seen):
    """The DATA frames a scripted peer saw, as (first offset, bytes)."""
    datas = [(m, bytes(p)) for m, p in seen if isinstance(m, Data)]
    offset = datas[0][0].offset
    for msg, _payload in datas:
        assert msg.offset == offset, "gap or repeat on the wire"
        offset += msg.size
    return datas[0][0].offset, b"".join(p for _m, p in datas)


class TestSendRun:
    """A run leaves as the bytes it came in when the link stands at its
    start, and frame by frame — skipping what a replay delivered —
    when it does not."""

    def test_run_at_the_live_edge_is_forwarded_as_received(self, monkeypatch):
        from repro.runtime import transport

        encoded = []
        real = transport.encode_header
        monkeypatch.setattr(
            transport, "encode_header",
            lambda msg: (encoded.append(msg), real(msg))[1])
        seen = []
        peer = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([peer])
        try:
            state.on_data(0, b"\xaa" * 100)
            assert link.send_data(0, b"\xaa" * 100)
            run = decoded_run(100, [100] * 6, fill=1)
            store_run(state, run)
            assert link.send_run(*run)
            assert link.sent_offset == 700
            assert link.pending_bytes == len(run[2])  # corked, one piece
            assert link.flush()
            state.on_end(700)
            assert link.finish(total=700, quit_first=False) == "passed"
        finally:
            peer.close()
        first, data = stream_bytes(seen)
        assert first == 0
        assert data == b"\xaa" * 100 + b"".join(
            bytes([1 + i]) * 100 for i in range(6))
        # Only the frame sent on its own had its header made here.
        assert [m for m in encoded if isinstance(m, Data)] == [Data(0, 100)]
        assert state.buffer.end_offset == 700

    def test_prefix_already_delivered_is_not_sent_twice(self):
        """``sent_offset`` strictly inside the run: exactly the frames
        beyond it go out."""
        seen = []
        peer = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([peer])
        try:
            run = decoded_run(0, [100] * 7)
            _first_offset, payloads, _raw = run
            for i in range(3):  # [0, 300) leaves the ordinary way
                state.on_data(i * 100, payloads[i])
                assert link.send_data(i * 100, payloads[i])
            assert link.sent_offset == 300
            for i in range(3, 7):
                state.on_data(i * 100, payloads[i])
            assert link.send_run(*run)
            assert link.sent_offset == 700
            assert link.flush()
            state.on_end(700)
            assert link.finish(total=700, quit_first=False) == "passed"
        finally:
            peer.close()
        first, data = stream_bytes(seen)
        assert (first, data) == (0, b"".join(bytes([i]) * 100
                                             for i in range(7)))

    def test_a_real_gap_is_still_a_desync(self):
        from repro.core import ProtocolError

        peer = ScriptedPeer(normal_receiver())
        link, state = make_link([peer])
        try:
            state.on_data(0, b"a" * 100)
            assert link.send_data(0, b"a" * 100)
            run = decoded_run(200, [100] * 3)  # [100, 200) never sent
            with pytest.raises(ProtocolError, match="forward desync"):
                link.send_run(*run)
        finally:
            link.close()
            peer.close()

    def test_no_downstream_left(self):
        dead = Listener()
        addr = dead.address
        dead.close()
        plan = StripePlan(head="n1", receivers=("n2",))
        state = NodeTransferState("n1", CFG, source_kind=SourceKind.SEEKABLE_FILE)
        link = DownstreamLink(
            "n1", plan, Registry({"n1": Address("127.0.0.1", 1), "n2": addr}),
            CFG.with_(connect_timeout=0.1), state)
        run = decoded_run(0, [100] * 3)
        store_run(state, run)
        assert link.send_run(*run) is False
        assert link.is_effective_tail

    def test_downstream_killed_under_a_corked_run(self):
        """The peer dies with a run corked on its connection.  Nothing of
        it may have arrived; the replacement says what it has, the ring
        replays the rest, and the runs that follow are skipped or sent
        as the replay left them — every byte once, in order."""
        def dies_after_handshake(peer, kind, stream):
            if kind != b"D":
                stream.close()
                return False
            stream.send_message(Get(0), timeout=1.0)
            peer.seen.append(stream.recv_message(5.0))  # the first frame
            stream.close()
            return True

        seen = []
        peer1 = ScriptedPeer(dies_after_handshake)
        peer2 = ScriptedPeer(normal_receiver(offset=100, collect=seen))
        link, state = make_link([peer1, peer2])
        runs = [decoded_run(100 + 600 * k, [100] * 6, fill=10 * k)
                for k in range(4)]
        try:
            state.on_data(0, b"\xee" * 100)
            assert link.send_data(0, b"\xee" * 100)
            peer1.thread.join(timeout=5.0)      # n2 is gone
            for run in runs:
                store_run(state, run)
                assert link.send_run(*run)      # corked, or replayed
                link.flush()                    # may be where n2's death shows
            total = 100 + 4 * 600
            assert link.sent_offset == total
            state.on_end(total)
            assert link.finish(total=total, quit_first=False) == "passed"
        finally:
            peer1.close()
            peer2.close()
        assert link.target == "n3"
        assert "n2" in {r.node for r in state.report.failures}
        first, data = stream_bytes(seen)
        assert first == 100
        assert data == b"".join(
            bytes([10 * k + i]) * 100 for k in range(4) for i in range(6))


class TestRelayBurst:
    """A real relay node between a scripted upstream (this test) and a
    scripted downstream: what one burst of frames holds decides which
    frames go down as a run and which are met one at a time."""

    CHUNK = 512

    def _relay(self, downstream):
        from repro.core.plan import ChainPlan
        from repro.core.sinks import BufferSink
        from repro.runtime.node import ReceiverNode

        listener = Listener()
        plan = ChainPlan.single("n1", ("n2", "n3")).stripe(0)
        registry = Registry({"n1": Address("127.0.0.1", 1),
                             "n2": listener.address,
                             "n3": downstream.address})
        sink = BufferSink()
        node = ReceiverNode("n2", plan, registry, listener,
                            CFG.with_(chunk_size=self.CHUNK, buffer_chunks=64),
                            sink)
        node.start()
        return node, sink

    def _frames(self, first, count):
        from repro.core import encode_header

        return b"".join(
            encode_header(Data(i * self.CHUNK, self.CHUNK))
            + bytes([i]) * self.CHUNK for i in range(first, first + count))

    def _upstream(self, node, expect_get):
        from repro.runtime.transport import DATA_CONN, connect

        stream = connect(node.listener.address, DATA_CONN, timeout=2.0)
        msg, _ = stream.recv_message(2.0)
        assert msg == Get(expect_get)
        return stream

    def test_bad_byte_in_a_burst_drops_upstream_after_flushing_the_run(self):
        from repro.core import encode_header

        seen = []
        downstream = ScriptedPeer(normal_receiver(collect=seen))
        node, sink = self._relay(downstream)
        try:
            up = self._upstream(node, 0)
            up.send_raw(self._frames(0, 10) + b"\xee" * 32, timeout=2.0)
            # The relay cannot resynchronise: it hangs up on us …
            with pytest.raises(ConnectionError):
                up.recv_message(5.0)
            up.close()
            # … keeps what was good, and asks the next upstream for the rest.
            up = self._upstream(node, 10 * self.CHUNK)
            total = 16 * self.CHUNK
            report = node.state.report.encode()
            up.send_raw(self._frames(10, 6) + encode_header(End(total))
                        + encode_header(Report(len(report))) + report,
                        timeout=2.0)
            msg, _ = up.recv_message(5.0)
            assert msg == Passed()
            up.close()
            node.join(timeout=5.0)
            assert not node.thread.is_alive()
        finally:
            node.shutdown()
            downstream.close()
        assert node.outcome.ok, node.outcome.error
        want = b"".join(bytes([i]) * self.CHUNK for i in range(16))
        assert sink.getvalue() == want
        assert stream_bytes(seen) == (0, want)

    def test_offset_gap_in_a_burst_is_still_a_protocol_error(self):
        from repro.core import encode_header

        seen = []
        downstream = ScriptedPeer(normal_receiver(collect=seen))
        node, sink = self._relay(downstream)
        try:
            up = self._upstream(node, 0)
            gap = (encode_header(Data(9 * self.CHUNK, self.CHUNK))
                   + b"\x09" * self.CHUNK)
            up.send_raw(self._frames(0, 6) + gap, timeout=2.0)
            node.join(timeout=5.0)
            assert not node.thread.is_alive()
            up.close()
        finally:
            node.shutdown()
            downstream.close()
        assert not node.outcome.ok
        assert "ProtocolError" in node.outcome.error
        assert f"DATA at offset {9 * self.CHUNK}" in node.outcome.error
        # The sink saw the six chunks before the gap and nothing after.
        assert node.outcome.bytes_received == 6 * self.CHUNK


def framed_run(first_offset, sizes, fill=0):
    """A run as the head holds it: chunks of ``sizes[0]`` bytes (the
    last one may be short) read into the payload slots of one segment
    and framed in place — ``(first_offset, chunks, wire)``, ``wire`` the
    one buffer that is their wire form."""
    from repro.core.framing import DATA_HEADER, frame_run, frame_slots

    chunk = sizes[0]
    segment = bytearray(len(sizes) * (DATA_HEADER + chunk))
    for i, (slot, size) in enumerate(
            zip(frame_slots(segment, chunk, len(sizes)), sizes)):
        slot[:size] = bytes([fill + i]) * size
    wire = memoryview(segment)[:sum(sizes) + len(sizes) * DATA_HEADER]
    return (first_offset, *frame_run(wire, first_offset, chunk))


class TestHeadSendsRuns:
    """The head's run reaches the link as one buffer — headers packed in
    place between the chunks read into it — and is corked, skipped or
    replayed exactly like a relayed one."""

    def test_buffer_list_is_corked_as_it_is(self, monkeypatch):
        from repro.runtime import transport

        encoded = []
        real = transport.encode_header
        monkeypatch.setattr(
            transport, "encode_header",
            lambda msg: (encoded.append(msg), real(msg))[1])
        seen = []
        peer = ScriptedPeer(normal_receiver(collect=seen))
        link, state = make_link([peer])
        try:
            # The first run meets no stream yet: it connects and goes
            # frame by frame.  The second is corked in one piece.
            first = framed_run(0, [100, 100, 40])
            state.on_run(first[0], first[1])
            assert link.send_run(*first)
            assert link.flush()
            encoded.clear()
            run = framed_run(240, [100] * 5 + [7], fill=10)
            state.on_run(run[0], run[1])
            assert link.send_run(*run)
            assert link.sent_offset == 747
            assert link.pending_bytes == 507 + 6 * 17
            assert link.flush()
            assert link.pending_bytes == 0
            state.on_end(747)
            assert link.finish(total=747, quit_first=False) == "passed"
        finally:
            peer.close()
        datas = [m for m, _p in seen if isinstance(m, Data)]
        assert datas == (
            [Data(0, 100), Data(100, 100), Data(200, 40)]
            + [Data(240 + 100 * i, 100) for i in range(5)] + [Data(740, 7)])
        first_offset, data = stream_bytes(seen)
        assert first_offset == 0
        assert data == (b"\x00" * 100 + b"\x01" * 100 + b"\x02" * 40
                        + b"".join(bytes([10 + i]) * 100 for i in range(5))
                        + b"\x0f" * 7)
        assert not [m for m in encoded if isinstance(m, Data)]

    def test_replacement_replay_covers_part_of_a_head_run(self):
        """n2 dies with a run corked; n3 says what it has; the rest of
        that run and the next leave once, in order."""
        def dies_after_handshake(peer, kind, stream):
            if kind != b"D":
                stream.close()
                return False
            stream.send_message(Get(0), timeout=1.0)
            peer.seen.append(stream.recv_message(5.0))
            stream.close()
            return True

        seen = []
        peer1 = ScriptedPeer(dies_after_handshake)
        peer2 = ScriptedPeer(normal_receiver(offset=100, collect=seen))
        link, state = make_link([peer1, peer2])
        runs = [framed_run(0, [100] * 4),
                framed_run(400, [100] * 4, fill=4),
                framed_run(800, [100] * 3 + [1], fill=8)]
        try:
            for run in runs:
                state.on_run(run[0], run[1])
                assert link.send_run(*run)
                link.flush()
                peer1.thread.join(timeout=5.0)
            assert link.sent_offset == 1101
            state.on_end(1101)
            assert link.finish(total=1101, quit_first=False) == "passed"
        finally:
            peer1.close()
            peer2.close()
        assert link.target == "n3"
        first_offset, data = stream_bytes(seen)
        assert first_offset == 100
        assert data == (b"".join(bytes([i]) * 100 for i in range(1, 11))
                        + b"\x0b")


class TestPacedHeadAtSmallChunks:
    """The token bucket reserves a run at a time; the rate it enforces
    and the QUIT path are those of the per-chunk head."""

    CONFIG = KascadeConfig(chunk_size=4096, buffer_chunks=64,
                           io_timeout=0.5, ping_timeout=0.3,
                           connect_timeout=1.0, report_timeout=10.0)

    def test_rate_is_held_with_64k_reservations(self):
        import time

        from repro.core import PatternSource
        from repro.runtime import LocalBroadcast

        limit = 4 * 1024 * 1024
        size = 3 * 1024 * 1024   # burst credit forgives 1 MiB of it
        started = time.monotonic()
        result = LocalBroadcast(
            PatternSource(size), ["n2", "n3"],
            config=self.CONFIG.with_(bandwidth_limit=limit),
        ).run(timeout=60)
        elapsed = time.monotonic() - started
        assert result.ok
        assert result.total_bytes == size
        paced = (size - limit * 0.25) / limit          # 0.5 s
        assert paced * 0.9 <= elapsed < paced + 2.0

    def test_quit_lands_between_runs(self):
        import time

        from repro.core import BufferSink, PatternSource
        from repro.runtime import LocalBroadcast

        config = self.CONFIG.with_(bandwidth_limit=1024 * 1024)
        size = 8 * 1024 * 1024
        sinks = {}

        def factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        source = PatternSource(size)
        bc = LocalBroadcast(source, ["n2", "n3"], sink_factory=factory,
                            config=config)

        def interrupter():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                head = bc.nodes.get("n1")
                if head is not None and head.state.offset >= 5 * 65536:
                    head.request_quit()
                    return
                time.sleep(0.002)

        watcher = threading.Thread(target=interrupter)
        watcher.start()
        started = time.monotonic()
        result = bc.run(timeout=60)
        watcher.join()
        assert time.monotonic() - started < 5.0   # not the 8 s of a full run
        assert not result.ok
        sent = result.total_bytes
        assert 5 * 65536 <= sent < size and sent % 65536 == 0
        for name in ("n2", "n3"):
            assert sinks[name].getvalue() == source.expected_bytes(
                0, len(sinks[name].getvalue()))
            assert not bc.nodes[name].thread.is_alive()
