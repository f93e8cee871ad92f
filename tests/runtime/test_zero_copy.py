"""The zero-copy data-plane contract, asserted with perf counters.

Three invariants of the rebuilt runtime data path:

* a relay in the backpressured steady state forwards chunks with **zero**
  userspace payload copies (header bytes excluded) — received by
  ``recv_into`` into a pooled buffer, retained as views, sent vectored;
* a stalled vectored send resumes mid-buffer after ``flush_pending``
  without duplicating or dropping a byte;
* ring-buffer views handed to a recovery replay stay byte-correct while
  the buffer pool recycles segments underneath the stream.
"""

import os
import socket
import threading

import pytest

from repro.core import BufferPool, ChunkRingBuffer, FileSource, PerfStats
from repro.core.framing import FrameDecoder, encode_header, header_size
from repro.core.messages import Data, Op
from repro.runtime.transport import HAS_SENDFILE, SocketStream, WriteStalled

CHUNK = 4096


def _pattern(i, size=CHUNK):
    return bytes((i + j) % 251 for j in range(size))


def _drain_exact(sock, n):
    out = bytearray()
    while len(out) < n:
        piece = sock.recv(n - len(out))
        assert piece, "peer closed mid-frame"
        out += piece
    return bytes(out)


class TestSteadyStateRelay:
    def test_zero_payload_copies_per_forwarded_chunk(self):
        """Acceptance: upstream socket → decoder view → ring buffer →
        vectored downstream send, with payload_copy_events == 0."""
        up_w, up_r = socket.socketpair()
        down_w, down_r = socket.socketpair()
        stats = PerfStats()
        upstream = SocketStream(up_r, stats=stats)
        downstream = SocketStream(down_w, stats=stats)
        ring = ChunkRingBuffer(16 * CHUNK)
        n_chunks = 300  # > one pool segment of stream, forcing rotations
        try:
            for i in range(n_chunks):
                payload = _pattern(i)
                up_w.sendall(encode_header(Data(i * CHUNK, CHUNK)) + payload)
                msg, view = upstream.recv_message(timeout=5)
                assert msg == Data(i * CHUNK, CHUNK)
                assert isinstance(view, memoryview)
                ring.append(view)          # retention: no copy
                downstream.send_message(msg, view, timeout=5)
                wire = _drain_exact(down_r, header_size(Op.DATA) + CHUNK)
                assert wire[header_size(Op.DATA):] == payload
            assert stats.payload_copy_events == 0
            assert stats.payload_bytes_copied == 0
            assert stats.frames_decoded == n_chunks
            assert stats.frames_sent == n_chunks
            assert stats.bytes_received == n_chunks * (header_size(Op.DATA) + CHUNK)
        finally:
            upstream.close()
            downstream.close()
            up_w.close()
            down_r.close()

    def test_ring_retention_is_by_reference(self):
        """The ring buffer holds the decoder's views, not copies: the
        replayable window reads back correctly without bytes() detours."""
        ring = ChunkRingBuffer(4 * CHUNK)
        backing = bytearray(_pattern(7))
        view = memoryview(backing)
        ring.append(view)
        (off, piece), = list(ring.iter_chunks_from(0))
        assert off == 0
        # Same underlying buffer — mutate the backing store, see it in
        # the ring (the zero-copy retention contract, used deliberately
        # only by the runtime which never mutates received buffers).
        backing[0] ^= 0xFF
        assert piece[0] == backing[0]


class _ChokedSocket:
    """A real socket whose ``sendmsg`` lets ``budget`` bytes through and
    then times out, so a test decides where a send is cut."""

    def __init__(self, sock, budget):
        self._sock = sock
        self.budget = budget

    def sendmsg(self, buffers):
        if self.budget <= 0:
            raise socket.timeout("choked")
        sent = self._sock.send(b"".join(buffers)[:self.budget])
        self.budget -= sent
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestRunRelay:
    """Frames taken off one stream as a run and corked onto the next as
    the bytes they came in are the same frames at the far end."""

    N = 30

    def _burst(self):
        frames = [(Data(i * CHUNK, CHUNK), _pattern(i)) for i in range(self.N)]
        return frames, b"".join(encode_header(m) + p for m, p in frames)

    def test_relayed_run_is_the_identical_frame_sequence(self, monkeypatch):
        from repro.runtime import transport

        encoded = []
        real = transport.encode_header
        monkeypatch.setattr(
            transport, "encode_header",
            lambda msg: (encoded.append(msg), real(msg))[1])
        frames, wire = self._burst()
        up_w, up_r = socket.socketpair()
        down_w, down_r = socket.socketpair()
        stats = PerfStats()
        upstream = SocketStream(up_r, stats=stats)
        # The first send is cut seven bytes into a header inside the run.
        frame = header_size(Op.DATA) + CHUNK
        choke = _ChokedSocket(down_w, 5 * frame + 7)
        downstream = SocketStream(choke, stats=stats)
        far_end = SocketStream(down_r)
        got = []
        reader = threading.Thread(target=lambda: got.extend(
            far_end.recv_message(timeout=5) for _ in range(self.N)))
        reader.start()
        try:
            up_w.sendall(wire)
            relayed = 0
            while relayed < self.N:
                # One relay turn, as ReceiverNode._stream_loop makes it.
                msg, payload = upstream.recv_message(timeout=5)
                downstream.send_message(msg, payload, flush=False)
                relayed += 1
                run = upstream.try_recv_run()
                if run is not None:
                    first, payloads, raw = run
                    assert first == relayed * CHUNK
                    downstream.cork_run(first, payloads, raw)
                    relayed += len(payloads)
            with pytest.raises(WriteStalled):
                downstream.flush_pending(timeout=0.05)
            assert downstream.pending_bytes == len(wire) - (5 * frame + 7)
            choke.budget = len(wire)
            downstream.flush_pending(timeout=5)
            assert downstream.pending_bytes == 0
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert [(m, bytes(p)) for m, p in got] == frames
            # The relay decoded and sent the same frames, copied no
            # payload byte, and made no header for a frame of a run.
            assert stats.frames_decoded == stats.frames_sent == self.N
            assert stats.payload_copy_events == 0
            data_headers = [m for m in encoded if isinstance(m, Data)]
            assert len(data_headers) < self.N / 2
        finally:
            upstream.close()
            downstream.close()
            reader.join(timeout=10)
            far_end.close()
            up_w.close()

    def test_a_corked_run_pins_its_segment_until_flushed(self):
        """``raw`` is a view like any payload: the pool may not hand the
        segment out again while the send queue still holds it."""
        frames, wire = self._burst()
        up_w, up_r = socket.socketpair()
        down_w, down_r = socket.socketpair()
        stats = PerfStats()
        pool = BufferPool(stats=stats)
        upstream = SocketStream(up_r, pool=pool, stats=stats)
        downstream = SocketStream(down_w, stats=stats)
        try:
            up_w.sendall(wire)
            upstream.recv_message(timeout=5)
            _first, payloads, raw = upstream.try_recv_run()
            downstream.cork_run(_first, payloads, raw)
            segment = raw.obj
            del payloads, raw
            upstream.close()  # the decoder lets go: only the queue holds on
            assert pool.idle_buffers == 1
            assert pool.acquire() is not segment
            downstream.flush_pending(timeout=5)
            assert pool.acquire() is segment
        finally:
            upstream.close()
            downstream.close()
            up_w.close()
            down_r.close()


class TestStallResume:
    def test_flush_resumes_mid_buffer_without_loss_or_dup(self):
        """Stall a multi-frame vectored queue, then drain + flush in
        alternation: the peer must observe the exact byte sequence."""
        a, b = socket.socketpair()
        stream = SocketStream(a)
        frames = []
        expected = bytearray()
        for i in range(3):
            payload = _pattern(i, 600 * 1024)
            frames.append((Data(i, len(payload)), payload))
            expected += encode_header(frames[-1][0]) + payload
        try:
            stalled = False
            for msg, payload in frames:
                try:
                    stream.send_message(msg, payload, timeout=0.05)
                except WriteStalled:
                    stalled = True
            assert stalled, "test needs a genuine stall to exercise resume"
            received = bytearray()
            while stream.pending_bytes > 0:
                b.settimeout(5)
                received += b.recv(64 * 1024)
                try:
                    stream.flush_pending(timeout=0.05)
                except WriteStalled:
                    continue
            while len(received) < len(expected):
                received += b.recv(64 * 1024)
            assert stream.pending_bytes == 0
            assert bytes(received) == bytes(expected)
        finally:
            stream.close()
            b.close()


class TestReplayOutlivesRecycling:
    def test_ring_views_stay_correct_while_pool_recycles(self):
        """Stream far past the ring window with a tiny pool: segments are
        recycled (pool_reuses > 0) underneath the stream, yet a recovery
        replay of the retained window is byte-perfect."""
        stats = PerfStats()
        pool = BufferPool(4 * CHUNK, stats=stats)
        dec = FrameDecoder(pool=pool, stats=stats)
        ring = ChunkRingBuffer(8 * CHUNK)
        n_chunks = 64
        for i in range(n_chunks):
            dec.feed(encode_header(Data(i * CHUNK, CHUNK)) + _pattern(i))
            for msg, view in iter(dec):
                ring.append(view)
        assert stats.pool_reuses > 0, "pool never recycled; test is vacuous"
        # Replay the retained window, as a DownstreamLink handshake would.
        start = ring.min_offset
        assert start == (n_chunks - 8) * CHUNK
        replayed = b"".join(
            bytes(piece) for _, piece in ring.iter_chunks_from(start)
        )
        expected = b"".join(_pattern(i) for i in range(n_chunks - 8, n_chunks))
        assert replayed == expected


@pytest.mark.skipif(not HAS_SENDFILE, reason="os.sendfile unavailable")
class TestSendfilePath:
    def test_send_frame_from_file_streams_kernel_side(self, tmp_path):
        data = _pattern(3, 256 * 1024)
        path = tmp_path / "payload.bin"
        path.write_bytes(data)
        a, b = socket.socketpair()
        stats = PerfStats()
        sender = SocketStream(a, stats=stats)
        receiver = SocketStream(b)
        src = FileSource(path)
        off, size = 8192, 64 * 1024
        try:
            # Read the sequential cursor first: positional sendfile must
            # not disturb it.
            head = src.read_chunk(100)
            sender.send_frame_from_file(Data(off, size), src, off, timeout=5)
            msg, payload = receiver.recv_message(timeout=5)
            assert msg == Data(off, size)
            assert bytes(payload) == data[off: off + size]
            assert stats.syscalls_sendfile >= 1
            assert stats.payload_copy_events == 0
            assert src.read_chunk(100) == data[100:200]
            assert head == data[:100]
        finally:
            sender.close()
            receiver.close()
            src.close()


class TestHeadRun:
    """The head reads a run into its wire layout, frames it in place and
    corks it as one buffer.  On the wire that is the per-frame encoding
    of the same source, byte for byte."""

    @staticmethod
    def _broadcast(monkeypatch, source, config, receivers=("n2", "n3", "n4")):
        """Run a local broadcast; returns ``(result, nodes, wire, runs)``:
        every byte n2 read from its upstream, and the ``(first_offset,
        chunk sizes)`` of every run the head handed its link."""
        from repro.core import HashingSink
        from repro.core.engine import Link
        from repro.runtime import LocalBroadcast
        from repro.runtime.node import ReceiverNode

        decoders, wire, runs = [], bytearray(), []
        adopt = ReceiverNode._adopt_upstream
        written = FrameDecoder.bytes_written
        send_run = Link.send_run

        def spy_adopt(node, stream, detail):
            if node.name == "n2":
                decoders.append(stream._decoder)
            return adopt(node, stream, detail)

        def spy_written(dec, n):
            if any(dec is d for d in decoders):
                wire.extend(dec._buf[dec._fill: dec._fill + n])
            written(dec, n)

        def spy_send_run(link, first_offset, payloads, raw):
            if link.owner == "n1":
                runs.append((first_offset, [len(p) for p in payloads]))
            return send_run(link, first_offset, payloads, raw)

        monkeypatch.setattr(ReceiverNode, "_adopt_upstream", spy_adopt)
        monkeypatch.setattr(FrameDecoder, "bytes_written", spy_written)
        monkeypatch.setattr(Link, "send_run", spy_send_run)
        sinks = {}

        def factory(name):
            sinks[name] = HashingSink()
            return sinks[name]

        bc = LocalBroadcast(source, list(receivers), sink_factory=factory,
                            config=config)
        result = bc.run(timeout=60)
        return result, bc.nodes, bytes(wire), runs, sinks

    @staticmethod
    def _per_frame_wire(payload, chunk_size, report):
        import hashlib

        from repro.core.messages import End, Report

        out = hashlib.sha256()
        for off in range(0, len(payload), chunk_size):
            chunk = payload[off: off + chunk_size]
            out.update(encode_header(Data(off, len(chunk))) + chunk)
        out.update(encode_header(End(len(payload))))
        out.update(encode_header(Report(len(report))) + report)
        return out.hexdigest()

    # 64 chunks make a run at 4 KiB (a segment's worth): part of a run,
    # with and without a short last chunk; whole runs and a short last
    # one with a short last chunk; exactly one chunk over a run.
    @pytest.mark.parametrize("size", [
        32 * CHUNK, 41 * CHUNK + 123, 5 * CHUNK + 1, 16 * CHUNK + CHUNK,
        129 * CHUNK + 123, 64 * CHUNK + CHUNK])
    def test_wire_is_the_per_frame_encoding(self, monkeypatch, size):
        import hashlib

        from repro.core import KascadeConfig, PatternSource

        config = KascadeConfig(chunk_size=CHUNK, buffer_chunks=64)
        source = PatternSource(size, seed=5)
        result, nodes, wire, runs, sinks = self._broadcast(
            monkeypatch, source, config)
        assert result.ok, result.outcomes
        payload = source.expected_bytes(0, size)
        want = self._per_frame_wire(
            payload, CHUNK, nodes["n1"].state.report.encode())
        assert hashlib.sha256(wire).hexdigest() == want
        for sink in sinks.values():
            assert sink.hexdigest() == hashlib.sha256(payload).hexdigest()
        # ...and it left the head as runs of a segment's worth of chunks.
        assert [first for first, _sizes in runs] == list(
            range(0, size, 64 * CHUNK))
        assert all(len(sizes) == 64 for _first, sizes in runs[:-1])
        assert sum(sum(sizes) for _first, sizes in runs) == size

    @pytest.mark.parametrize("chunk_size", [64 * 1024, 256 * 1024])
    def test_big_chunks_are_runs_of_one(self, monkeypatch, chunk_size):
        from repro.core import KascadeConfig, PatternSource

        size = 5 * chunk_size + 1000
        result, _nodes, _wire, runs, _sinks = self._broadcast(
            monkeypatch, PatternSource(size),
            KascadeConfig(chunk_size=chunk_size))
        assert result.ok
        assert [sizes for _first, sizes in runs] == (
            [[chunk_size]] * 5 + [[1000]])

    def test_run_never_outgrows_the_ring(self, monkeypatch):
        """A run is bounded by ``buffer_bytes``: whatever the head has
        framed before its first GET is still in its window."""
        from repro.core import KascadeConfig, PatternSource

        config = KascadeConfig(chunk_size=CHUNK, buffer_chunks=3)
        result, _nodes, _wire, runs, _sinks = self._broadcast(
            monkeypatch, PatternSource(10 * CHUNK + 5), config)
        assert result.ok
        assert [sizes for _first, sizes in runs] == (
            [[CHUNK] * 3] * 3 + [[CHUNK, 5]])

    def test_short_reads_mid_stream_are_frames_of_their_own(self, monkeypatch):
        """A pipe hands over what it has: each short read is framed as
        it came (never padded, never held back for a full chunk) and the
        stream goes on — only an empty read ends it."""
        import fcntl
        import hashlib
        import io
        import os
        import sys
        import termios
        import threading
        import time

        from repro.core import KascadeConfig, StreamSource

        reads = [100, CHUNK + 7, 3 * CHUNK, 1, 16 * CHUNK, 5]
        payload = bytes(i % 253 for i in range(sum(reads)))
        r, w = os.pipe()

        def unread() -> int:
            return int.from_bytes(fcntl.ioctl(
                r, termios.FIONREAD, b"\0\0\0\0"), sys.byteorder)

        def writer():
            # A burst at a time: the next one only once the head took
            # this one in (the pipe is empty, and its read has returned).
            pos = 0
            with os.fdopen(w, "wb", buffering=0) as pipe:
                for n in reads:
                    pipe.write(payload[pos: pos + n])
                    pos += n
                    while unread():
                        time.sleep(0.001)
                    time.sleep(0.05)

        feeder = threading.Thread(target=writer)
        feeder.start()
        config = KascadeConfig(chunk_size=CHUNK, buffer_chunks=64,
                               readahead_chunks=0)
        try:
            result, nodes, wire, runs, sinks = self._broadcast(
                monkeypatch, StreamSource(io.FileIO(r)), config)
        finally:
            feeder.join()
        assert result.ok, result.outcomes
        assert [sizes for _first, sizes in runs] == [
            [100], [CHUNK, 7], [CHUNK] * 3, [1], [CHUNK] * 16, [5]]
        assert nodes["n1"].state.offset == len(payload)
        for sink in sinks.values():
            assert sink.hexdigest() == hashlib.sha256(payload).hexdigest()
