"""Tests for the staged I/O layer (`repro.core.stages`).

Covers the §III-A overlap machinery in isolation: writeback ordering,
pooled-buffer pinning vs. the copy budget, error surfacing, drain and
abort semantics, and read-ahead content parity + hit/miss accounting —
on stages promoted to their thread up front — and, on a fake clock, the
break-even rule that decides when a stage starts its thread.
"""

import os
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
        writer.promote()
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
        writer.promote()
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
        writer.promote()
        writer.write_chunk(b"ok")
        writer.write_chunk(b"fails")
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()

    def test_finish_drains_everything(self):
        inner = SlowSink(delay=0.002)
        writer = SinkWriter(inner, depth=2)
        writer.promote()
        for _ in range(20):
            writer.write_chunk(b"y" * 100)
        writer.finish()
        assert inner.bytes_written == 2000

    def test_abort_discards_queue_and_never_deadlocks(self):
        gate = threading.Event()  # never set: the worker blocks forever
        inner = SlowSink(gate=gate)
        writer = SinkWriter(inner, depth=2)
        writer.promote()
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
        writer.promote()
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
        writer.promote()
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
        writer.promote()
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
        writer.promote()
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
        writer.promote()
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
        writer.promote()
        for _ in range(5):
            writer.write_chunk(b"x")
        gate.set()
        writer.finish()
        assert stats.writeback_queue_hwm >= 4  # worker may pop one early

    def test_reserve_forwards(self, tmp_path, monkeypatch):
        """Reserving through the writer reserves the file's expected
        size, on the caller's thread (the writer while inline), once."""
        reserved = []
        monkeypatch.setattr(
            os, "posix_fallocate",
            lambda fd, offset, length: reserved.append(
                (threading.current_thread().name, length)),
            raising=False)
        inner = FileSink(tmp_path / "pre.bin", expected_size=1024)
        writer = SinkWriter(inner, depth=2)
        writer.reserve()
        assert reserved == [(threading.current_thread().name, 1024)]
        writer.write_chunk(b"z")
        writer.finish()
        assert len(reserved) == 1
        assert (tmp_path / "pre.bin").read_bytes() == b"z"


SETTLE = SinkWriter.SETTLE


class FakeClock:
    """Time that moves only when a test (or a stage's inner call) says."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TimedSink(Sink):
    """Every write takes ``cost`` seconds of fake time; notes its thread."""

    def __init__(self, clock, cost):
        self.clock, self.cost = clock, cost
        self.threads = []

    def write_chunk(self, data):
        self.clock.now += self.cost
        self.threads.append(threading.current_thread().name)


class TimedSource(BytesSource):
    """Every read takes ``cost`` seconds of fake time."""

    def __init__(self, data, clock, cost):
        super().__init__(data)
        self.clock, self.cost = clock, cost

    def read_chunk(self, size):
        self.clock.now += self.cost
        return super().read_chunk(size)


def feed(writer, clock, gaps):
    """One write per gap; the caller works ``gap`` seconds after each."""
    for gap in gaps:
        writer.write_chunk(b"x")
        clock.now += gap


class TestBreakEven:
    """A stage works inline until, summed over the stream, it has cost
    more than its caller's work between calls — on a fake clock, so the
    verdict is exact and the host's speed does not enter."""

    def test_a_stage_slower_than_its_caller_is_promoted_once_settled(self):
        clock, stats = FakeClock(), PerfStats()
        inner = TimedSink(clock, cost=SETTLE / 4)
        writer = SinkWriter(inner, clock=clock, stats=stats, owner="n2")
        # At the entry of write k the sums are (k-1)/4 inside and
        # (k-1)/10 outside, in SETTLE: inside leads from write 2 on, but
        # only at write 4 do they cover SETTLE.
        feed(writer, clock, [SETTLE / 10] * 8)
        # Promoted stays promoted, however cheap the stage becomes.
        inner.cost = 0.0
        feed(writer, clock, [SETTLE] * 4)
        writer.finish()
        caller = threading.current_thread().name
        assert inner.threads == [caller] * 3 + ["sink-writer-n2"] * 9
        assert stats.writeback_threads == 1

    def test_runs_stored_back_to_back_are_not_a_verdict(self):
        """A run's chunks are written with no gap between them: a
        per-call test would promote at the second chunk.  Summed, 16
        chunks of SETTLE/400 per run are less than a gap of SETTLE/10."""
        clock, stats = FakeClock(), PerfStats()
        inner = TimedSink(clock, cost=SETTLE / 400)
        writer = SinkWriter(inner, clock=clock, stats=stats)
        for _ in range(100):
            feed(writer, clock, [0.0] * 15 + [SETTLE / 10])
        writer.finish()
        assert set(inner.threads) == {threading.current_thread().name}
        assert stats.writeback_threads == 0

    def test_promote_hands_the_next_write_to_the_thread(self):
        stats = PerfStats()
        inner = TimedSink(FakeClock(), cost=0.0)
        writer = SinkWriter(inner, stats=stats, owner="n3")
        writer.promote()
        writer.write_chunk(b"x")
        writer.finish()
        assert inner.threads == ["sink-writer-n3"]
        assert stats.writeback_threads == 1

    @pytest.mark.parametrize("cost, threads", [(SETTLE / 4, 1),
                                               (SETTLE / 100, 0)],
                             ids=["slow-reads", "fast-reads"])
    def test_slow_reads_are_prefetched_fast_ones_are_not(self, cost,
                                                         threads):
        data = PatternSource(10_000, seed=5).expected_bytes(0, 10_000)
        clock, stats = FakeClock(), PerfStats()
        src = ReadAheadSource(TimedSource(data, clock, cost), depth=2,
                              stats=stats, clock=clock)
        pieces = []
        while True:
            piece = src.read_chunk(100)
            if not piece:
                break
            pieces.append(piece)
            clock.now += SETTLE / 10
        src.close()
        assert b"".join(pieces) == data
        assert stats.readahead_threads == threads


class TestInline:
    """Before (or without) promotion, the caller's thread does the work
    — with the same contract as the thread."""

    def test_inline_write_error_raises_at_once_and_stays(self):
        inner = FailingSink(fail_at=1)
        writer = SinkWriter(inner, depth=2)
        writer.write_chunk(b"ok")
        for _ in range(2):  # a dead sink stays dead
            with pytest.raises(OSError) as exc_info:
                writer.write_chunk(b"fails")
            assert exc_info.value.errno == 28
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()
        assert inner.aborted

    def test_inline_detach_and_close(self, tmp_path):
        stats = PerfStats()
        inner = BufferSink()
        writer = SinkWriter(inner, stats=stats)
        writer.write_chunk(b"kept")
        assert writer.detach() is inner and inner.getvalue() == b"kept"
        path = tmp_path / "dead.bin"
        writer = SinkWriter(FileSink(path), stats=stats)
        writer.write_chunk(b"head")
        writer.close()
        writer.write_chunk(b"late")  # a dead node's write: dropped
        assert path.read_bytes() == b"head"
        assert stats.writeback_threads == 0

    def test_inline_read_ahead_is_a_plain_read(self):
        stats = PerfStats()
        src = ReadAheadSource(BytesSource(b"abcdefghij"), stats=stats)
        assert [src.read_chunk(4) for _ in range(4)] == [
            b"abcd", b"efgh", b"ij", b""]
        assert stats.readahead_threads == 0
        assert stats.readahead_hits + stats.readahead_misses == 0


class TestReadAheadSource:
    def test_content_parity(self):
        data = PatternSource(100_000, seed=4).expected_bytes(0, 100_000)
        src = ReadAheadSource(BytesSource(data), depth=3)
        src.promote()
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
        src.promote()
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
        src.promote()
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
        src.promote()
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
        src.promote()
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
        src.promote()
        with pytest.raises(OSError):
            src.read_chunk(10)

    def test_blocking_io_inherited(self):
        assert ReadAheadSource(BytesSource(b"")).blocking_io is False
        assert ReadAheadSource(
            PatternSource(10)).blocking_io is False
