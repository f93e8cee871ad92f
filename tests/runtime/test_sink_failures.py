"""Storage failure injection over real TCP (§III-D failure model).

A node whose local sink dies (ENOSPC — mid-stream, or when its file
reserves the stream's size before the first byte — or a dead ``-O``
command) cannot keep its §II-A promise of storing what it relays; the
model requires it to hard-abort — QUIT both neighbours — rather than
silently forward data it is no longer persisting.  These tests inject
sink failures under both the writeback stage and the synchronous path
(``sink_writeback_depth=0``), plus the behaviour of storage slower than
the wire: a stage starts its thread only then, and backpressure stalls
the relay observably.
"""

import errno
import hashlib
import os
import threading
import time

import pytest

from repro.core import (
    BytesSource,
    FileSink,
    HashingSink,
    PatternSource,
    ThrottledSink,
    TraceCollector,
)
from repro.core.sinks import CommandSink, NullSink, Sink
from repro.core.tracing import QUIT, STALL
from repro.runtime import LocalBroadcast


class ENOSPCSink(Sink):
    """Accepts ``capacity`` bytes, then fails like a full filesystem."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.bytes_written = 0
        self.aborted = False

    def write_chunk(self, data) -> None:
        if self.bytes_written + len(data) > self.capacity:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.bytes_written += len(data)

    def abort(self) -> None:
        self.aborted = True


class SleepySink(HashingSink):
    """Storage that blocks for ``delay`` on every write; notes which
    thread wrote."""

    def __init__(self, delay: float = 0.002) -> None:
        super().__init__()
        self.delay = delay
        self.threads = []

    def write_chunk(self, data) -> None:
        time.sleep(self.delay)
        self.threads.append(threading.current_thread().name)
        super().write_chunk(data)


class SleepySource(BytesSource):
    """A blocking source whose every read of a run takes ``delay``."""

    blocking_io = True

    def __init__(self, data: bytes, delay: float = 0.002) -> None:
        super().__init__(data)
        self.delay = delay

    def read_run(self, chunk_size: int, count: int):
        time.sleep(self.delay)
        return super().read_run(chunk_size, count)


def pattern(size: int) -> bytes:
    return PatternSource(size).expected_bytes(0, size)


@pytest.mark.parametrize("writeback_depth", [0, 8],
                         ids=["sync-sink", "writeback"])
class TestSinkFailureAborts:
    def test_enospc_mid_chain_hard_aborts(self, fast_config, writeback_depth):
        config = fast_config.with_(sink_writeback_depth=writeback_depth)
        size = config.chunk_size * 64
        tracer = TraceCollector()
        sinks = {}

        def sink_factory(name):
            # Only the middle node runs out of space.
            cap = config.chunk_size * 8 if name == "n3" else size
            sinks[name] = ENOSPCSink(cap)
            return sinks[name]

        bc = LocalBroadcast(PatternSource(size), ["n2", "n3", "n4"],
                            sink_factory=sink_factory, config=config,
                            tracer=tracer)
        result = bc.run(timeout=60)

        n3 = result.outcomes["n3"]
        assert not n3.ok
        assert "sink failure" in (n3.error or "")
        assert "No space left" in (n3.error or "")
        # §III-D: the failed node discards its partial output...
        assert sinks["n3"].aborted
        # ...and QUITs; the trace must show the deliberate abort.
        quits = [e for e in tracer.of_type(QUIT) if e.node == "n3"]
        assert quits and any("sink failure" in e.detail for e in quits)
        # Upstream of the abort, the transfer still completes: n2 becomes
        # the effective tail and closes the ring.
        assert result.outcomes["n2"].ok
        assert sinks["n2"].bytes_written == size
        # Downstream saw QUIT without a report: it hard-aborts too.
        assert not result.outcomes["n4"].ok

    def test_refused_reservation_mid_chain_hard_aborts(
            self, fast_config, writeback_depth, tmp_path, monkeypatch):
        """The middle receiver's file cannot reserve the stream: it fails
        in its first write, before it stores a byte, by the same hard
        abort — QUIT, output removed.  Upstream the outcome is the same:
        n2 completes as the effective tail.  Downstream it differs from
        a failure mid-stream: n3 stored and forwarded nothing, so n4
        never heard of it, and n2 feeds n4 around it as around a dead
        node."""
        config = fast_config.with_(sink_writeback_depth=writeback_depth)
        size = config.chunk_size * 64
        tracer = TraceCollector()
        victim = {}
        refused = []
        real = os.posix_fallocate

        def fallocate(fd, offset, length):
            st = os.fstat(fd)
            if (st.st_dev, st.st_ino) == victim.get("id"):
                refused.append(st.st_size)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", fallocate)

        def sink_factory(name):
            path = tmp_path / f"{name}.out"
            sink = FileSink(path, expected_size=size)
            if name == "n3":
                st = path.stat()
                victim["id"] = (st.st_dev, st.st_ino)
            return sink

        bc = LocalBroadcast(PatternSource(size), ["n2", "n3", "n4"],
                            sink_factory=sink_factory, config=config,
                            tracer=tracer)
        result = bc.run(timeout=60)

        n3 = result.outcomes["n3"]
        assert not n3.ok
        assert "sink failure" in (n3.error or "")
        assert "No space left" in (n3.error or "")
        assert refused == [0]  # reserved once, before its first byte
        assert not (tmp_path / "n3.out").exists()
        quits = [e for e in tracer.of_type(QUIT) if e.node == "n3"]
        assert quits and any("sink failure" in e.detail for e in quits)
        assert result.outcomes["n2"].ok
        assert (tmp_path / "n2.out").read_bytes() == pattern(size)
        assert result.outcomes["n4"].ok
        assert (tmp_path / "n4.out").read_bytes() == pattern(size)
        assert [(r.node, r.detected_by) for r in result.report.failures] \
            == [("n3", "n2")]

    def test_dead_command_sink_hard_aborts(self, fast_config, writeback_depth):
        config = fast_config.with_(sink_writeback_depth=writeback_depth)
        # Enough data that the pipe buffer cannot absorb the stream
        # after the command exits immediately.
        size = config.chunk_size * 512  # 2 MiB at the 4 KiB test chunk
        sinks = {}

        def sink_factory(name):
            if name == "n3":
                sinks[name] = CommandSink("exit 0")
            else:
                sinks[name] = HashingSink()
            return sinks[name]

        bc = LocalBroadcast(PatternSource(size), ["n2", "n3"],
                            sink_factory=sink_factory, config=config)
        result = bc.run(timeout=60)

        n3 = result.outcomes["n3"]
        assert not n3.ok
        assert "sink failure" in (n3.error or "")
        assert "stopped accepting data" in (n3.error or "")
        # The node before the failure still stored the full stream.
        want = hashlib.sha256(
            PatternSource(size).expected_bytes(0, size)).hexdigest()
        assert sinks["n2"].hexdigest() == want


class TestSlowSinkBackpressure:
    def test_backpressure_stalls_but_completes(self, fast_config):
        # A modelled disk much slower than loopback: the writeback queue
        # must fill, stall the relay (observably), and still deliver
        # every byte intact.
        config = fast_config.with_(sink_writeback_depth=2)
        size = config.chunk_size * 192  # 768 KiB at 4 KiB chunks
        tracer = TraceCollector()
        hashers = {}

        def sink_factory(name):
            hashers[name] = HashingSink()
            if name == "n2":
                return ThrottledSink(hashers[name], 2 * 2**20)
            return hashers[name]

        bc = LocalBroadcast(PatternSource(size), ["n2", "n3"],
                            sink_factory=sink_factory, config=config,
                            tracer=tracer)
        result = bc.run(timeout=60)

        assert result.ok, {n: o.error for n, o in result.outcomes.items()}
        want = hashlib.sha256(
            PatternSource(size).expected_bytes(0, size)).hexdigest()
        assert hashers["n2"].hexdigest() == want
        assert hashers["n3"].hexdigest() == want
        # The stall was real and observable: counters + STALL trace.
        assert result.perfstats["sink_stall_s"] > 0
        stalls = [e for e in tracer.of_type(STALL)
                  if e.detail == "sink-writeback"]
        assert stalls and stalls[0].node == "n2"


class TestReservation:
    def test_no_reservation_runs_on_the_callers_thread(
            self, fast_config, tmp_path, monkeypatch):
        """``FileSink(expected_size=…)`` reserves in its first write, on
        the thread that writes — a relay or its writeback worker — so
        the receivers reserve in parallel with the stream, not one after
        another before it on the thread that opened them."""
        size = fast_config.chunk_size * 64
        reserved = []
        real = os.posix_fallocate

        def fallocate(fd, offset, length):
            reserved.append((threading.current_thread().name, length))
            return real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", fallocate)
        bc = LocalBroadcast(
            PatternSource(size), ["n2", "n3", "n4"],
            sink_factory=lambda name: FileSink(tmp_path / f"{name}.out",
                                               expected_size=size),
            config=fast_config)
        result = bc.run(timeout=60)

        assert result.ok, {n: o.error for n, o in result.outcomes.items()}
        assert sorted(length for _name, length in reserved) == [size] * 3
        caller = threading.current_thread().name
        assert caller not in {name for name, _length in reserved}
        for name in ("n2", "n3", "n4"):
            assert (tmp_path / f"{name}.out").read_bytes() == pattern(size)


class TestStagePolicy:
    """A stage starts its thread only when storage would make its node
    wait — never for a sink that is not wrapped, nor at depth 0."""

    def test_a_sleeping_sink_is_promoted_and_overlaps(self, fast_config):
        config = fast_config.with_(sink_writeback_depth=2)
        size = config.chunk_size * 192
        tracer = TraceCollector()
        sleepy = SleepySink()
        bc = LocalBroadcast(
            PatternSource(size), ["n2", "n3"],
            sink_factory=lambda name: sleepy if name == "n2" else NullSink(),
            config=config, tracer=tracer)
        result = bc.run(timeout=60)

        assert result.ok, {n: o.error for n, o in result.outcomes.items()}
        assert sleepy.hexdigest() == hashlib.sha256(pattern(size)).hexdigest()
        # It started on the relay's thread and moved to its own...
        assert sleepy.threads[0] == "node-n2"
        assert sleepy.threads[-1] == "sink-writer-n2"
        assert result.perfstats["writeback_threads"] == 1
        # ...where the relay overlaps it, up to a full queue.
        assert result.perfstats["sink_stall_s"] > 0
        stalls = [e for e in tracer.of_type(STALL)
                  if e.detail == "sink-writeback"]
        assert stalls and {e.node for e in stalls} == {"n2"}

    def test_slow_reads_are_prefetched(self, fast_config):
        size = fast_config.chunk_size * 64
        result = LocalBroadcast(
            SleepySource(pattern(size)), ["n2"],
            config=fast_config.with_(readahead_chunks=2)).run(timeout=60)
        assert result.ok
        assert result.perfstats["readahead_threads"] == 1

    def test_null_sinks_and_zero_depths_start_no_thread(self, fast_config):
        size = fast_config.chunk_size * 64
        # A NullSink is never wrapped: discarding cannot be overlapped.
        result = LocalBroadcast(PatternSource(size), ["n2", "n3"],
                                config=fast_config).run(timeout=60)
        assert result.ok
        assert result.perfstats["writeback_threads"] == 0
        # Depth 0 means no stage at all, however slow storage is.
        sinks = {}

        def sink_factory(name):
            sinks[name] = SleepySink()
            return sinks[name]

        result = LocalBroadcast(
            SleepySource(pattern(size)), ["n2", "n3"],
            sink_factory=sink_factory,
            config=fast_config.with_(sink_writeback_depth=0,
                                     readahead_chunks=0)).run(timeout=60)
        assert result.ok, {n: o.error for n, o in result.outcomes.items()}
        assert result.perfstats["writeback_threads"] == 0
        assert result.perfstats["readahead_threads"] == 0
        for name, sink in sinks.items():
            assert set(sink.threads) == {f"node-{name}"}


class TestWritebackParity:
    def test_file_output_identical_with_and_without_writeback(
            self, fast_config, tmp_path):
        size = fast_config.chunk_size * 64
        expected = PatternSource(size).expected_bytes(0, size)
        for depth, tag in ((0, "sync"), (8, "async")):
            config = fast_config.with_(sink_writeback_depth=depth)
            outdir = tmp_path / tag
            outdir.mkdir()

            def sink_factory(name, outdir=outdir):
                return FileSink(outdir / f"{name}.bin")

            bc = LocalBroadcast(PatternSource(size), ["n2", "n3"],
                                sink_factory=sink_factory, config=config)
            result = bc.run(timeout=60)
            assert result.ok
            for name in ("n2", "n3"):
                assert (outdir / f"{name}.bin").read_bytes() == expected, (
                    f"{tag}/{name} produced different bytes")
