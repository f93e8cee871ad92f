"""Tests for the staged I/O layer (`repro.core.stages`).

Covers the §III-A overlap machinery in isolation: writeback ordering,
pooled-buffer pinning vs. the copy budget, error surfacing, drain and
abort semantics, and read-ahead content parity + hit/miss accounting.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BufferSink,
    BytesSource,
    FileSink,
    FileSource,
    PatternSource,
    PerfStats,
    ReadAheadSource,
    SinkError,
    SinkWriter,
    TraceCollector,
)
from repro.core.sinks import Sink
from repro.core.tracing import STALL


class SlowSink(BufferSink):
    """Buffer sink with a per-write delay and an optional block gate."""

    def __init__(self, delay=0.0, gate=None):
        super().__init__()
        self.delay = delay
        self.gate = gate

    def write_chunk(self, data):
        if self.gate is not None:
            self.gate.wait(5.0)
        if self.delay:
            time.sleep(self.delay)
        super().write_chunk(data)


class FailingSink(Sink):
    """Fails on the Nth write with the given exception."""

    def __init__(self, fail_at=0, exc=None):
        self.fail_at = fail_at
        self.exc = exc or OSError(28, "No space left on device")
        self.writes = 0
        self.aborted = False

    def write_chunk(self, data):
        if self.writes >= self.fail_at:
            raise self.exc
        self.writes += 1

    def abort(self):
        self.aborted = True


class TestSinkWriter:
    def test_order_and_content_preserved(self):
        inner = BufferSink()
        writer = SinkWriter(inner, depth=4)
        chunks = [bytes([i % 256]) * 257 for i in range(100)]
        for c in chunks:
            writer.write_chunk(c)
        writer.finish()
        assert inner.getvalue() == b"".join(chunks)
        assert writer.bytes_written == sum(len(c) for c in chunks)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            SinkWriter(BufferSink(), depth=0)

    def test_error_surfaces_on_next_write(self):
        writer = SinkWriter(FailingSink(), depth=2)
        writer.write_chunk(b"doomed")
        with pytest.raises(OSError) as exc_info:
            # The failure is asynchronous; keep feeding until it lands.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                writer.write_chunk(b"more")
                time.sleep(0.001)
        assert exc_info.value.errno == 28
        # The error is sticky: finish must keep failing too.
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()

    def test_error_surfaces_on_finish(self):
        writer = SinkWriter(FailingSink(fail_at=1), depth=8)
        writer.write_chunk(b"ok")
        writer.write_chunk(b"fails")
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()

    def test_finish_drains_everything(self):
        inner = SlowSink(delay=0.002)
        writer = SinkWriter(inner, depth=2)
        for _ in range(20):
            writer.write_chunk(b"y" * 100)
        writer.finish()
        assert inner.bytes_written == 2000

    def test_abort_discards_queue_and_never_deadlocks(self):
        gate = threading.Event()  # never set: the worker blocks forever
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=2)
        writer.write_chunk(b"a")
        writer.write_chunk(b"b")
        writer.write_chunk(b"c")  # queue now full, worker stuck on 'a'
        t0 = time.monotonic()
        done = threading.Event()

        def do_abort():
            writer.abort()
            done.set()

        threading.Thread(target=do_abort, daemon=True).start()
        gate.set()  # release the worker mid-abort, as inner.abort() would
        assert done.wait(5.0), "abort() deadlocked with a full queue"
        assert time.monotonic() - t0 < 5.0

    def test_abort_with_concurrent_blocked_producer(self):
        gate = threading.Event()
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=1)
        writer.write_chunk(b"a")
        blocked = threading.Event()

        def producer():
            blocked.set()
            writer.write_chunk(b"b")  # blocks: queue full
            writer.write_chunk(b"c")  # post-abort writes are dropped

        t = threading.Thread(target=producer, daemon=True)
        t.start()
        blocked.wait(5.0)
        time.sleep(0.05)  # let the producer reach the full-queue wait
        gate.set()
        writer.abort()
        t.join(5.0)
        assert not t.is_alive(), "producer stayed blocked across abort()"

    def test_close_is_a_dead_owner_not_an_abort(self, tmp_path):
        """close(): queued chunks are lost, the worker is gone, the file
        is closed where it stands — neither finished nor unlinked."""
        gate = threading.Event()

        class GatedFile(FileSink):
            def write_chunk(self, data):
                gate.wait(5.0)
                super().write_chunk(data)

        path = tmp_path / "partial.bin"
        inner = GatedFile(path)
        segment = bytearray(b"abc")
        writer = SinkWriter(inner, depth=4, owner="victim")
        writer.write_chunk(b"head")
        while writer.queue_depth:            # the worker took it, and blocks
            time.sleep(0.001)
        writer.write_chunk(memoryview(segment))
        writer.write_chunk(b"tail")
        threading.Timer(0.05, gate.set).start()
        writer.close()
        assert not writer._worker.is_alive()
        assert writer.queue_depth == 0 and writer.pinned_bytes == 0
        segment.extend(b"!")                 # the pinned export was released
        assert inner._file is None
        assert path.read_bytes() == b"head"
        writer.write_chunk(b"late")          # a dead node's write: dropped
        assert path.read_bytes() == b"head"

    def test_pinning_defers_pool_reuse(self):
        # A queued chunk pins its backing buffer: while it waits in the
        # writer's queue, the bytearray must report live exports — which
        # is exactly what BufferPool's reuse probe checks (a bytearray
        # with exports refuses to resize).
        backing = bytearray(b"p" * 64)
        view = memoryview(backing)[:16]
        gate = threading.Event()
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=4)
        writer.write_chunk(view)
        view.release()  # producer done; only the writer's export pins now
        with pytest.raises(BufferError):
            backing.append(0)
        gate.set()
        writer.finish()
        backing.append(0)  # every export released: reusable again

    def test_copy_past_pin_budget(self):
        stats = PerfStats()
        gate = threading.Event()
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=8, pin_budget=100, stats=stats)
        writer.write_chunk(b"a" * 80)   # pinned (80 <= 100)
        writer.write_chunk(b"b" * 80)   # over budget: copied
        assert stats.payload_copy_events == 1
        assert stats.payload_bytes_copied == 80
        assert writer.pinned_bytes == 80
        gate.set()
        writer.finish()
        assert writer.pinned_bytes == 0

    def test_stall_accounting_and_trace(self):
        stats = PerfStats()
        tracer = TraceCollector()
        gate = threading.Event()
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=1, stats=stats, tracer=tracer,
                            owner="n2")
        writer.write_chunk(b"a")  # worker pops this and blocks on the gate
        time.sleep(0.05)
        writer.write_chunk(b"b")  # fills the queue (depth 1)

        def open_gate():
            time.sleep(0.05)
            gate.set()

        threading.Thread(target=open_gate, daemon=True).start()
        writer.write_chunk(b"c")  # must block until the gate opens
        writer.finish()
        assert stats.sink_stall_s > 0
        stalls = tracer.of_type(STALL)
        assert stalls and stalls[0].detail == "sink-writeback"
        assert stalls[0].node == "n2"

    def test_queue_high_water_mark(self):
        stats = PerfStats()
        gate = threading.Event()
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=8, stats=stats)
        for _ in range(5):
            writer.write_chunk(b"x")
        gate.set()
        writer.finish()
        assert stats.writeback_queue_hwm >= 4  # worker may pop one early

    def test_preallocate_forwards(self, tmp_path):
        from repro.core import FileSink
        inner = FileSink(tmp_path / "pre.bin")
        writer = SinkWriter(inner, depth=2)
        writer.preallocate(1024)
        writer.write_chunk(b"z")
        writer.finish()
        assert (tmp_path / "pre.bin").read_bytes() == b"z"


class TestReadAheadSource:
    def test_content_parity(self):
        data = PatternSource(100_000, seed=4).expected_bytes(0, 100_000)
        src = ReadAheadSource(BytesSource(data), depth=3)
        out = b""
        while True:
            piece = src.read_chunk(4096)
            if not piece:
                break
            out += piece
        assert out == data
        src.close()

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ReadAheadSource(BytesSource(b""), depth=0)

    def test_shrinking_chunk_size_served_from_pending(self):
        src = ReadAheadSource(BytesSource(b"abcdefghij"), depth=2)
        assert src.read_chunk(4) == b"abcd"
        # Smaller request: the oversized prefetched block is split.
        assert src.read_chunk(2) == b"ef"
        assert src.read_chunk(2) == b"gh"
        assert src.read_chunk(10) == b"ij"
        assert src.read_chunk(10) == b""
        src.close()

    def test_hit_miss_accounting(self):
        stats = PerfStats()
        src = ReadAheadSource(BytesSource(b"x" * 40), depth=2, stats=stats)
        while src.read_chunk(8):
            time.sleep(0.01)  # give the prefetcher time to refill
        assert stats.readahead_hits + stats.readahead_misses == 6
        assert stats.readahead_hits >= 1
        src.close()

    def test_delegates_capabilities(self, tmp_path):
        p = tmp_path / "src.bin"
        p.write_bytes(b"0123456789" * 100)
        inner = FileSource(p)
        src = ReadAheadSource(inner, depth=2)
        assert src.kind is inner.kind
        assert src.size == 1000
        assert src.fileno() == inner.fileno()
        # PGET range reads bypass the prefetch queue entirely.
        assert src.read_range(10, 5) == b"01234"
        src.close()

    def test_stop_then_passthrough(self):
        src = ReadAheadSource(BytesSource(b"a" * 100), depth=2)
        first = src.read_chunk(10)
        assert first == b"a" * 10
        src.stop()
        # After stop, remaining bytes still arrive (drained + passthrough).
        rest = b""
        while True:
            piece = src.read_chunk(10)
            if not piece:
                break
            rest += piece
        assert first + rest == b"a" * 100

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=12),
           stop_at=st.integers(0, 12))
    def test_view_blocks_survive_stop_and_a_changing_chunk_size(
            self, tmp_path_factory, sizes, stop_at):
        """Over a source that hands out views of pooled segments: shrink
        or grow the chunk size at will, ``stop()`` mid-stream — no byte
        is lost, duplicated or served out of a recycled segment."""
        data = PatternSource(150_000, seed=9).expected_bytes(0, 150_000)
        path = tmp_path_factory.mktemp("ra") / "in.bin"
        path.write_bytes(data)
        src = ReadAheadSource(FileSource(path), depth=2)
        pieces, turn = [], 0
        while True:
            if turn == stop_at:
                src.stop()
            piece = src.read_chunk(sizes[turn % len(sizes)])
            turn += 1
            if not piece:
                break
            assert len(piece) <= sizes[(turn - 1) % len(sizes)]
            pieces.append(piece)  # held, as a ring would: pins the segment
        assert any(isinstance(piece, memoryview) for piece in pieces)
        assert b"".join(pieces) == data
        src.close()

    def test_error_propagates(self):
        class BoomSource(BytesSource):
            def read_chunk(self, size):
                raise OSError(5, "Input/output error")

        src = ReadAheadSource(BoomSource(b"zz"), depth=2)
        with pytest.raises(OSError):
            src.read_chunk(10)

    def test_blocking_io_inherited(self):
        assert ReadAheadSource(BytesSource(b"")).blocking_io is False
        assert ReadAheadSource(
            PatternSource(10)).blocking_io is False
