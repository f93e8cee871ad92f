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
from repro.core.pipeline import PipelinePlan
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
    plan = PipelinePlan(head=names[0], receivers=tuple(names[1:]))
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
        plan = PipelinePlan(head="n1", receivers=("n2", "n3"))
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

        plan = PipelinePlan(head="n1", receivers=("n2",))
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

        plan = PipelinePlan(head="n1", receivers=("n2",))
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
        plan = PipelinePlan(head="n1", receivers=("n2", "n3"))
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
        plan = PipelinePlan(head="n1", receivers=("n2", "n3"))
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
        plan = PipelinePlan(head="n1", receivers=("n2", "n3"))
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
