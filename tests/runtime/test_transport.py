"""Tests for the TCP transport layer: preambles, framing over sockets,
timeout behaviour, and stall resumption."""

import socket
import threading
import time

import pytest

from repro.core import Data, Get, NodeFailedError, Ping, Pong
from repro.runtime.transport import (
    DATA_CONN,
    PING_CONN,
    Address,
    Listener,
    SocketStream,
    WriteStalled,
    connect,
)


@pytest.fixture
def listener():
    lst = Listener()
    yield lst
    lst.close()


class TestConnectAndPreamble:
    def test_preamble_delivered(self, listener):
        results = {}

        def server():
            kind, stream = listener.accept(timeout=2.0)
            results["kind"] = kind
            stream.close()

        t = threading.Thread(target=server)
        t.start()
        conn = connect(listener.address, DATA_CONN, timeout=2.0)
        t.join()
        conn.close()
        assert results["kind"] == DATA_CONN

    def test_connect_refused_raises_nodefailed(self):
        # Grab a port and close it so nothing listens there.
        probe = Listener()
        addr = probe.address
        probe.close()
        with pytest.raises(NodeFailedError):
            connect(addr, DATA_CONN, timeout=0.5)

    def test_accept_timeout(self, listener):
        with pytest.raises(TimeoutError):
            listener.accept(timeout=0.05)

    def test_close_ends_an_accept_blocked_in_another_thread(self):
        """A node's acceptor blocked in ``accept`` must leave at close,
        not at its timeout: until then it holds the node."""
        lst = Listener()
        out = {}

        def acceptor():
            start = time.monotonic()
            try:
                lst.accept(timeout=5.0)
            except (ConnectionError, TimeoutError) as exc:
                out["exc"] = exc
            out["waited"] = time.monotonic() - start

        t = threading.Thread(target=acceptor)
        t.start()
        time.sleep(0.2)  # let it block in accept()
        lst.close()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert isinstance(out["exc"], ConnectionError)
        assert out["waited"] < 2.0


class TestMessageExchange:
    def _pair(self, listener):
        out = {}

        def server():
            _, stream = listener.accept(timeout=2.0)
            out["server"] = stream

        t = threading.Thread(target=server)
        t.start()
        client = connect(listener.address, PING_CONN, timeout=2.0)
        t.join()
        return client, out["server"]

    def test_roundtrip_messages(self, listener):
        client, server = self._pair(listener)
        client.send_message(Ping(42), timeout=1.0)
        msg, _ = server.recv_message(timeout=1.0)
        assert msg == Ping(42)
        server.send_message(Pong(42), timeout=1.0)
        msg, _ = client.recv_message(timeout=1.0)
        assert msg == Pong(42)
        client.close()
        server.close()

    def test_data_payload_roundtrip(self, listener):
        client, server = self._pair(listener)
        payload = bytes(range(256)) * 100
        client.send_message(Data(0, len(payload)), payload, timeout=2.0)
        msg, got = server.recv_message(timeout=2.0)
        assert msg == Data(0, len(payload))
        assert got == payload
        client.close()
        server.close()

    def test_recv_timeout_preserves_partial_frame(self, listener):
        client, server = self._pair(listener)
        # Send only a header prefix: recv must time out but not lose bytes.
        from repro.core import encode_header
        raw = encode_header(Get(123))
        client.send_raw(raw[:3], timeout=1.0)
        with pytest.raises(TimeoutError):
            server.recv_message(timeout=0.1)
        client.send_raw(raw[3:], timeout=1.0)
        msg, _ = server.recv_message(timeout=1.0)
        assert msg == Get(123)
        client.close()
        server.close()

    def test_peer_close_raises_connectionerror(self, listener):
        client, server = self._pair(listener)
        client.close()
        with pytest.raises(ConnectionError):
            server.recv_message(timeout=1.0)
        server.close()

    def test_write_stall_and_resume(self, listener):
        client, server = self._pair(listener)
        # Fill the kernel buffers: the peer is not reading.
        big = b"z" * (1 << 20)
        stalled = False
        sent_msgs = 0
        try:
            for _ in range(64):
                client.send_message(Data(sent_msgs, len(big)), big, timeout=0.1)
                sent_msgs += 1
        except WriteStalled:
            stalled = True
        assert stalled, "expected the send to stall against a non-reading peer"
        pending_before = client.pending_bytes
        assert pending_before > 0
        # Server starts reading: flush_pending must resume mid-frame.
        def drain():
            for _ in range(sent_msgs + 1):
                server.recv_message(timeout=5.0)

        t = threading.Thread(target=drain)
        t.start()
        for _ in range(200):
            try:
                client.flush_pending(timeout=0.1)
                break
            except WriteStalled:
                continue
        assert client.pending_bytes == 0
        t.join()
        client.close()
        server.close()


class TestWakeReader:
    """``wake_reader()``: the cross-thread interrupt a detach relies on."""

    _pair = TestMessageExchange._pair

    def test_blocked_reader_returns_within_50ms_of_the_wake(self, listener):
        client, server = self._pair(listener)
        seen = {}

        def read():
            try:
                server.recv_message(timeout=30.0)
            except ConnectionError:
                seen["woke_at"] = time.monotonic()

        t = threading.Thread(target=read)
        t.start()
        time.sleep(0.2)  # let the reader block in recv_into
        assert t.is_alive()
        woken = time.monotonic()
        server.wake_reader()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert seen["woke_at"] - woken < 0.05
        client.close()
        server.close()

    def test_buffered_frames_are_delivered_before_the_wake_shows(self, listener):
        client, server = self._pair(listener)
        client.send_message(Get(7), timeout=1.0)
        time.sleep(0.05)  # frame reaches the server's kernel buffer
        server.wake_reader()
        msg, _ = server.recv_message(timeout=30.0)
        assert msg == Get(7)
        with pytest.raises(ConnectionError):
            server.recv_message(timeout=30.0)
        client.close()
        server.close()

    def test_wake_before_read_ends_that_read_at_once(self, listener):
        client, server = self._pair(listener)
        server.wake_reader()
        began = time.monotonic()
        with pytest.raises(ConnectionError):
            server.recv_message(timeout=30.0)
        assert time.monotonic() - began < 0.05
        client.close()
        server.close()

    def test_send_direction_survives_the_wake(self, listener):
        client, server = self._pair(listener)
        server.wake_reader()
        server.send_message(Pong(3), timeout=1.0)
        msg, _ = client.recv_message(timeout=1.0)
        assert msg == Pong(3)
        client.close()
        server.close()

    def test_wake_after_close_is_harmless(self, listener):
        client, server = self._pair(listener)
        server.close()
        server.wake_reader()
        server.wake_reader()
        client.close()


class _RecordingSocket:
    """A real socket that notes every ``settimeout`` made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.timeouts_set = []

    def settimeout(self, value):
        self.timeouts_set.append(value)
        self._sock.settimeout(value)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestTimeoutArming:
    """The socket timeout is a syscall to set: a stream sets it when the
    value changes, not on every read and flush."""

    def test_one_value_is_set_once_and_a_change_before_the_next_read(self):
        a, b = socket.socketpair()
        sock = _RecordingSocket(a)
        stream = SocketStream(sock)
        peer = SocketStream(b)
        try:
            for i in range(20):
                peer.send_message(Data(i * 8, 8), b"x" * 8, timeout=2.0)
            for i in range(20):
                # Several reads: each frame is its own segment on the wire
                # or not, the timeout is armed for the first read only.
                msg, _ = stream.recv_message(2.0)
                assert msg == Data(i * 8, 8)
            assert sock.timeouts_set == [2.0]
            # Same value on the send side: nothing to re-arm.
            stream.send_message(Get(0), timeout=2.0)
            assert sock.timeouts_set == [2.0]
            # A new value reaches the socket before the read it governs.
            began = time.monotonic()
            with pytest.raises(TimeoutError):
                stream.recv_message(0.05)
            assert time.monotonic() - began < 1.0
            assert sock.timeouts_set == [2.0, 0.05]
            with pytest.raises(TimeoutError):
                stream.recv_message(0.05)
            stream.flush_pending(timeout=None)  # empty queue: no syscall
            assert sock.timeouts_set == [2.0, 0.05]
            stream.send_message(Get(1), timeout=None)
            assert sock.timeouts_set == [2.0, 0.05, None]
        finally:
            stream.close()
            peer.close()
