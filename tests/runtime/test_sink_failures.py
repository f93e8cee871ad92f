"""Storage failure injection over real TCP (§III-D failure model).

A node whose local sink dies (ENOSPC, dead ``-O`` command) cannot keep
its §II-A promise of storing what it relays; the model requires it to
hard-abort — QUIT both neighbours — rather than silently forward data it
is no longer persisting.  These tests inject sink failures under both
the background-writeback path and the synchronous path
(``sink_writeback_depth=0``), plus the backpressure behaviour of a disk
slower than the wire.
"""

import errno
import hashlib

import pytest

from repro.core import (
    FileSink,
    HashingSink,
    PatternSource,
    ThrottledSink,
    TraceCollector,
)
from repro.core.sinks import CommandSink, Sink
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
