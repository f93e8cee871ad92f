"""Fault-tolerance integration tests over real TCP (§III-D end to end).

These tests kill pipeline nodes mid-transfer and assert that every
*surviving* node still receives a byte-perfect copy, that the failures
appear in the final report, and that the unrecoverable-loss path (FORGET
with a stream source) aborts cleanly instead of deadlocking.
"""

import hashlib
import io
import threading
import time

import pytest

from repro import run_broadcast
from repro.core import (
    FileSink,
    FileSource,
    HashingSink,
    KascadeConfig,
    PatternSource,
    StreamSource,
)
from repro.core import tracing
from repro.core.tracing import TraceCollector
from repro.runtime import CrashPlan, LocalBroadcast


def hashing_factory(store):
    def factory(name):
        sink = HashingSink()
        store[name] = sink
        return sink
    return factory


def expected_digest(size, seed=0):
    src = PatternSource(size, seed=seed)
    return hashlib.sha256(src.expected_bytes(0, size)).hexdigest()


def run_with_crashes(config, size, receivers, crashes, seed=0, timeout=60):
    sinks = {}
    bc = LocalBroadcast(
        PatternSource(size, seed=seed),
        receivers,
        sink_factory=hashing_factory(sinks),
        config=config,
        crashes=crashes,
        tracer=TraceCollector(),
    )
    result = bc.run(timeout=timeout)
    return result, sinks


def assert_failover_traced(result, crashed, detector):
    """Every injected crash must surface as a FAILOVER event against the
    crashed node whose detector matches the injection mode."""
    failovers = result.trace.of_type(tracing.FAILOVER)
    against = [e for e in failovers if e.peer == crashed]
    assert against, (
        f"no FAILOVER event for {crashed}: "
        f"{[(e.node, e.peer) for e in failovers]}"
    )
    detectors = {e.detector for e in against}
    assert detector in detectors, (
        f"expected detector {detector!r} for {crashed}, got {detectors} "
        f"({[e.detail for e in against]})"
    )


class TestSingleCrash:
    def test_middle_node_close_crash(self, fast_config):
        size = fast_config.chunk_size * 12
        receivers = ["n2", "n3", "n4", "n5"]
        result, sinks = run_with_crashes(
            fast_config, size, receivers,
            [CrashPlan("n3", after_bytes=fast_config.chunk_size * 3)],
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        for name in ("n2", "n4", "n5"):
            assert sinks[name].hexdigest() == want, f"{name} corrupted"
        assert "n3" in result.report.failed_nodes
        # A close-mode crash is seen as a syscall error, not a ping loss.
        assert_failover_traced(result, "n3", tracing.DETECTOR_ERROR)

    def test_crash_detected_by_predecessor(self, fast_config):
        size = fast_config.chunk_size * 10
        result, _ = run_with_crashes(
            fast_config, size, ["n2", "n3", "n4"],
            [CrashPlan("n3", after_bytes=fast_config.chunk_size * 2)],
        )
        assert result.ok
        detectors = {r.detected_by for r in result.report.failures if r.node == "n3"}
        assert "n2" in detectors
        # The trace tells the same story: n2 emitted the FAILOVER.
        assert any(e.node == "n2" and e.peer == "n3"
                   for e in result.trace.of_type(tracing.FAILOVER))

    def test_tail_crash(self, fast_config):
        # The last node dies: its predecessor becomes the tail and must
        # perform the ring-closure report duty.
        size = fast_config.chunk_size * 10
        result, sinks = run_with_crashes(
            fast_config, size, ["n2", "n3", "n4"],
            [CrashPlan("n4", after_bytes=fast_config.chunk_size * 2)],
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        assert sinks["n2"].hexdigest() == want
        assert sinks["n3"].hexdigest() == want
        assert result.report.failed_nodes == ["n4"]
        assert_failover_traced(result, "n4", tracing.DETECTOR_ERROR)
        # n3 inherited the tail duty: the ring-closure report still ran.
        assert any(e.detail == "ring-closure"
                   for e in result.trace.of_type(tracing.REPORT))

    def test_first_receiver_crash(self, fast_config):
        # Head itself must detect and route around its direct neighbour.
        size = fast_config.chunk_size * 10
        result, sinks = run_with_crashes(
            fast_config, size, ["n2", "n3", "n4"],
            [CrashPlan("n2", after_bytes=fast_config.chunk_size * 2)],
        )
        assert result.ok
        want = expected_digest(size)
        assert sinks["n3"].hexdigest() == want
        assert sinks["n4"].hexdigest() == want
        detectors = {r.detected_by for r in result.report.failures if r.node == "n2"}
        assert "n1" in detectors
        assert_failover_traced(result, "n2", tracing.DETECTOR_ERROR)

    def test_silent_crash_detected_by_timeout_and_ping(self, fast_config):
        # The node hangs without closing sockets: only the timeout + ping
        # mechanism of §III-D1 can catch this.
        size = fast_config.chunk_size * 12
        result, sinks = run_with_crashes(
            fast_config, size, ["n2", "n3", "n4"],
            [CrashPlan("n3", after_bytes=fast_config.chunk_size * 3, mode="silent")],
            timeout=90,
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        assert sinks["n2"].hexdigest() == want
        assert sinks["n4"].hexdigest() == want
        assert "n3" in result.report.failed_nodes
        # Silence is only detectable by the stall -> ping -> no-answer
        # chain, and the trace must attribute it to exactly that.
        assert_failover_traced(result, "n3", tracing.DETECTOR_PING)
        pings = [e for e in result.trace.of_type(tracing.PING)
                 if e.peer == "n3"]
        assert any(e.detail == "unanswered" for e in pings)
        # Causality: the unanswered ping precedes the failover verdict.
        failover_seq = min(e.seq for e in result.trace.of_type(
            tracing.FAILOVER) if e.peer == "n3")
        assert min(e.seq for e in pings) < failover_seq


class TestMultipleCrashes:
    def test_two_adjacent_crashes(self, fast_config):
        # "in case of multiple adjacent failures nj is not ni+1" (§III-D2)
        size = fast_config.chunk_size * 12
        receivers = ["n2", "n3", "n4", "n5", "n6"]
        result, sinks = run_with_crashes(
            fast_config, size, receivers,
            [
                CrashPlan("n3", after_bytes=fast_config.chunk_size * 3),
                CrashPlan("n4", after_bytes=fast_config.chunk_size * 3),
            ],
            timeout=90,
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        for name in ("n2", "n5", "n6"):
            assert sinks[name].hexdigest() == want
        assert set(result.report.failed_nodes) >= {"n3", "n4"}
        # Both adjacent deaths appear in the timeline.
        felled = {e.peer for e in result.trace.of_type(tracing.FAILOVER)}
        assert felled >= {"n3", "n4"}

    def test_spread_crashes(self, fast_config):
        size = fast_config.chunk_size * 14
        receivers = [f"n{i}" for i in range(2, 10)]
        result, sinks = run_with_crashes(
            fast_config, size, receivers,
            [
                CrashPlan("n3", after_bytes=fast_config.chunk_size * 2),
                CrashPlan("n6", after_bytes=fast_config.chunk_size * 5),
                CrashPlan("n8", after_bytes=fast_config.chunk_size * 8),
            ],
            timeout=120,
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        for name in ("n2", "n4", "n5", "n7", "n9"):
            assert sinks[name].hexdigest() == want
        assert set(result.report.failed_nodes) == {"n3", "n6", "n8"}
        felled = {e.peer for e in result.trace.of_type(tracing.FAILOVER)}
        assert felled >= {"n3", "n6", "n8"}


class TestDeepRecovery:
    def test_pget_recovery_with_tiny_buffer(self):
        """Force the ring buffer to recycle past the replacement's offset:
        the receiver must PGET the hole from the (file-backed) head."""
        config = KascadeConfig(
            chunk_size=4096,
            buffer_chunks=1,  # almost no replay capacity
            io_timeout=0.25,
            ping_timeout=0.2,
            connect_timeout=0.5,
            report_timeout=8.0,
        )
        size = config.chunk_size * 16
        # n3 dies late; n2 keeps streaming ahead to... nobody until it
        # notices.  With 1 buffered chunk, n4's GET offset is usually far
        # below n2's window, triggering FORGET -> PGET -> resume.
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size, seed=3),
            ["n2", "n3", "n4"],
            sink_factory=hashing_factory(sinks),
            config=config,
            crashes=[CrashPlan("n3", after_bytes=config.chunk_size * 6)],
            tracer=TraceCollector(),
        )
        result = bc.run(timeout=90)
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size, seed=3)
        assert sinks["n2"].hexdigest() == want
        assert sinks["n4"].hexdigest() == want
        # The hole fill is on record: n4 received a FORGET, PGETed the
        # missing range from the head, and the head served it — in that
        # order.
        trace = result.trace
        forgets = [e for e in trace.of_type(tracing.FORGET)
                   if e.node == "n4" and e.detail == "received"]
        pgets = [e for e in trace.of_type(tracing.PGET) if e.node == "n4"]
        served = [e for e in trace.of_type(tracing.PGET) if e.node == "n1"]
        assert forgets and pgets and served
        assert pgets[0].peer == "n1"
        assert forgets[0].seq < pgets[0].seq < served[0].seq

    def test_stream_source_unrecoverable_loss_aborts_cleanly(self):
        """Stream-fed head + recycled buffer: the FORGET path must abort
        the orphaned suffix without deadlock, while upstream nodes finish."""
        config = KascadeConfig(
            chunk_size=4096,
            buffer_chunks=1,
            io_timeout=0.25,
            ping_timeout=0.2,
            connect_timeout=0.5,
            report_timeout=8.0,
        )
        size = config.chunk_size * 16
        data = bytes((i * 13) % 256 for i in range(size))
        sinks = {}
        bc = LocalBroadcast(
            StreamSource(io.BytesIO(data)),
            ["n2", "n3", "n4"],
            sink_factory=hashing_factory(sinks),
            config=config,
            crashes=[CrashPlan("n3", after_bytes=config.chunk_size * 6)],
            tracer=TraceCollector(),
        )
        result = bc.run(timeout=90)
        # n2 must still complete with correct bytes.
        assert result.outcomes["n2"].ok, result.outcomes["n2"].error
        assert sinks["n2"].hexdigest() == hashlib.sha256(data).hexdigest()
        # n4 either recovered fully (if n2's buffer happened to cover the
        # hole) or aborted cleanly — but never delivered wrong bytes.
        n4 = result.outcomes["n4"]
        if n4.ok:
            assert sinks["n4"].hexdigest() == hashlib.sha256(data).hexdigest()
        else:
            assert n4.bytes_received < size
            # The abort is chronicled: a FORGET reached n4 (nothing can
            # serve the hole for a stream source) and n4 QUIT after it.
            forgets = [e for e in result.trace.of_type(tracing.FORGET)
                       if e.node == "n4"]
            quits = [e for e in result.trace.of_type(tracing.QUIT)
                     if e.node == "n4"]
            assert forgets and quits
            assert forgets[0].seq < quits[0].seq
        # Nothing may hang: the run() call already joined every thread.
        assert not result.outcomes["n4"].crashed


class TestMachineReadableTimelines:
    """Every fault scenario must leave a JSONL chronicle a tool (or a
    person at 3am) can reconstruct the run from."""

    def test_crash_timeline_exports_and_orders(self, fast_config, tmp_path):
        size = fast_config.chunk_size * 12
        result, _ = run_with_crashes(
            fast_config, size, ["n2", "n3", "n4"],
            [CrashPlan("n3", after_bytes=fast_config.chunk_size * 3)],
        )
        assert result.ok
        out = tmp_path / "crash.jsonl"
        result.trace.to_jsonl(str(out))
        events = TraceCollector.from_jsonl(out.read_text())
        assert len(events) == len(result.trace)
        # Monotone in seq (time can interleave across emitting threads).
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        # The causal chain survives serialization: FAILOVER against n3
        # precedes the survivors' DONEs, and the head finishes last.
        failover = next(e for e in events
                        if e.type == "failover" and e.peer == "n3")
        dones = [e for e in events if e.type == "done"]
        assert all(failover.seq < d.seq for d in dones)
        assert dones[-1].node == "n1"
        assert {d.node for d in dones} == {"n1", "n2", "n4"}

    def test_ring_closure_report_traced(self, fast_config):
        size = fast_config.chunk_size * 6
        result, _ = run_with_crashes(fast_config, size, ["n2", "n3"], [])
        assert result.ok
        reports = result.trace.of_type(tracing.REPORT)
        # Each receiver passes the report upstream; the head closes the
        # ring — and logs it after every receiver's REPORT.
        closure = [e for e in reports if e.detail == "ring-closure"]
        assert [e.node for e in closure] == ["n1"]
        upstream = [e for e in reports if e.detail == "upstream"]
        assert {e.node for e in upstream} == {"n2", "n3"}
        assert max(e.seq for e in upstream) < closure[0].seq

    def test_perfstats_folded_into_result(self, fast_config):
        size = fast_config.chunk_size * 4
        result, _ = run_with_crashes(fast_config, size, ["n2"], [])
        assert result.ok
        assert result.perfstats.get("bytes_sent", 0) >= size
        assert result.perfstats.get("bytes_received", 0) >= size


class TestRecoveryAcrossRuns:
    """Relays take bursts of DATA frames a run at a time.  Long 4 KiB
    streams make the runs long; what a node stores, reports, traces and
    recovers must be what it was frame by frame."""

    RECEIVERS = ["n2", "n3", "n4", "n5"]
    CHUNKS = 400

    def _recv_offsets(self, result, node):
        return [e.offset for e in result.trace.of_type(tracing.CHUNK)
                if e.node == node and e.detail.startswith("recv")]

    def test_clean_relay_one_chunk_event_per_chunk_and_no_frame_lost(
            self, fast_config):
        chunk = fast_config.chunk_size
        size = chunk * self.CHUNKS
        result, sinks = run_with_crashes(fast_config, size, self.RECEIVERS, [])
        assert result.ok
        want = expected_digest(size)
        for name in self.RECEIVERS:
            assert sinks[name].hexdigest() == want
            assert self._recv_offsets(result, name) == list(
                range(0, size, chunk))
        perf = result.perfstats
        # Every frame put on a wire — one at a time or as part of a run —
        # was counted once and decoded once.
        assert perf["frames_sent"] == perf["frames_decoded"]
        assert perf["frames_sent"] >= len(self.RECEIVERS) * self.CHUNKS
        # At most the partial frame at each segment's end is carried.
        assert perf.get("payload_bytes_copied", 0) <= (
            0.02 * len(self.RECEIVERS) * size)

    @pytest.mark.parametrize("mode", ["close", "silent"])
    def test_crash_gate_fires_at_its_chunk_boundary_inside_a_run(
            self, fast_config, mode):
        chunk = fast_config.chunk_size
        size = chunk * self.CHUNKS
        after = chunk * 150 + 100     # inside chunk 151
        result, sinks = run_with_crashes(
            fast_config, size, self.RECEIVERS,
            [CrashPlan("n3", after_bytes=after, mode=mode)],
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        victim = result.outcomes["n3"]
        assert victim.crashed
        # The gate is asked after every chunk: the node stops at the
        # first boundary past ``after``, however long the run it was in.
        assert victim.bytes_received == chunk * 151
        assert self._recv_offsets(result, "n3") == list(
            range(0, chunk * 151, chunk))
        want = expected_digest(size)
        for name in ("n2", "n4", "n5"):
            assert sinks[name].hexdigest() == want, f"{name} corrupted"
            assert self._recv_offsets(result, name) == list(
                range(0, size, chunk))
        assert result.report.failed_nodes == ["n3"]

    def test_two_relays_die_mid_stream(self, fast_config):
        """Both replacements' GET replays land inside runs their new
        upstream had corked or was about to: nothing twice, no gap."""
        chunk = fast_config.chunk_size
        size = chunk * self.CHUNKS
        result, sinks = run_with_crashes(
            fast_config, size, self.RECEIVERS,
            [CrashPlan("n3", after_bytes=chunk * 90),
             CrashPlan("n4", after_bytes=chunk * 230 + 1)],
        )
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size)
        for name in ("n2", "n5"):
            assert sinks[name].hexdigest() == want, f"{name} corrupted"
            assert self._recv_offsets(result, name) == list(
                range(0, size, chunk))
        assert sorted(result.report.failed_nodes) == ["n3", "n4"]


class TestCrashLeavesNoThread:
    """A node that dies takes its writeback worker with it: a daemon or
    a test session is a loop of broadcasts, and one parked
    ``sink-writer-<node>`` per injected crash pins its queue, the file
    descriptor and the node for the life of the process."""

    CONFIG = KascadeConfig(chunk_size=16 * 1024, buffer_chunks=8,
                           io_timeout=0.5, ping_timeout=0.3,
                           connect_timeout=0.5, report_timeout=10.0)
    SIZE = 2 << 20
    RECEIVERS = ["n2", "n3", "n4"]

    def _run(self, tmp_path, crashes, **opts):
        source_path = tmp_path / "in.bin"
        source_path.write_bytes(
            PatternSource(self.SIZE).expected_bytes(0, self.SIZE))
        before = set(threading.enumerate())
        result = run_broadcast(
            FileSource(source_path), self.RECEIVERS, config=self.CONFIG,
            sink_factory=lambda name: FileSink(tmp_path / f"{name}.out"),
            crashes=crashes, timeout=60.0, **opts)
        deadline = time.monotonic() + 0.5
        while set(threading.enumerate()) - before \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        left = [t.name for t in set(threading.enumerate()) - before]
        assert not left, f"threads outlived the run: {left}"
        assert threading.active_count() <= len(before)
        return result

    def _digest(self, tmp_path, name):
        return hashlib.sha256((tmp_path / f"{name}.out").read_bytes()).hexdigest()

    def test_mid_chain_crash(self, tmp_path):
        result = self._run(tmp_path, [CrashPlan("n3", self.SIZE // 4)])
        assert result.ok, result.outcomes
        for name in ("n2", "n4"):
            assert self._digest(tmp_path, name) == expected_digest(self.SIZE)
        # The victim's output is what a dead process leaves: a partial
        # file, not unlinked (no abort()), no longer than what it took.
        partial = (tmp_path / "n3.out").stat().st_size
        assert partial <= result.outcomes["n3"].bytes_received < self.SIZE

    def test_silent_crash(self, tmp_path):
        result = self._run(
            tmp_path, [CrashPlan("n3", self.SIZE // 4, "silent")])
        assert result.ok, result.outcomes
        for name in ("n2", "n4"):
            assert self._digest(tmp_path, name) == expected_digest(self.SIZE)

    def test_a_staged_hang_ends_with_the_run(self):
        """A silently crashed node keeps its sockets open *for the run*
        (that is the crash: peers must time out on them).  Once the run
        is over its host closes them, not the garbage collector — here
        the broadcast, and so every node, is still referenced."""
        import gc
        import os

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        bc = LocalBroadcast(
            PatternSource(self.SIZE), self.RECEIVERS, config=self.CONFIG,
            crashes=[CrashPlan("n3", self.SIZE // 4, "silent")])
        gc.collect()  # what earlier tests left to the collector is not ours
        before = open_fds()
        assert bc.run(timeout=60.0).ok
        assert bc.nodes["n3"].silent
        deadline = time.monotonic() + 2.0  # acceptors let go within 0.1 s
        while open_fds() > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert open_fds() <= before

    def test_head_kill(self, tmp_path):
        result = self._run(tmp_path, [CrashPlan("n1", self.SIZE // 4)],
                           allow_head_chaos=True)
        assert result.ok, result.outcomes
        for name in self.RECEIVERS:
            assert self._digest(tmp_path, name) == expected_digest(self.SIZE)


class TestHeadRuns:
    """The head frames a segment at a time.  The ring bound, the crash
    gate and the CHUNK events must be what they were chunk by chunk."""

    RECEIVERS = ["n2", "n3", "n4"]

    def _config(self, fast_config, **kwargs):
        # 64 chunks of ring: a full 16-chunk run per segment.
        return fast_config.with_(buffer_chunks=64, **kwargs)

    def _read_offsets(self, result, node="n1"):
        return [e.offset for e in result.trace.of_type(tracing.CHUNK)
                if e.node == node and e.detail.startswith("read")]

    @pytest.mark.parametrize("buffer_chunks", [1, 3])
    def test_tiny_ring_still_covers_the_first_get(self, fast_config,
                                                  buffer_chunks):
        """The run is bounded by ``buffer_bytes``: a head that framed a
        whole segment into a one-chunk ring would have evicted offset 0
        before anyone connected, and started every broadcast with
        FORGET -> PGET against itself."""
        config = fast_config.with_(buffer_chunks=buffer_chunks)
        size = config.chunk_size * 40 + 17
        result, sinks = run_with_crashes(config, size, self.RECEIVERS, [])
        assert result.ok, result.outcomes
        assert result.trace.of_type(tracing.FORGET) == []
        assert result.trace.of_type(tracing.PGET) == []
        for name in self.RECEIVERS:
            assert sinks[name].hexdigest() == expected_digest(size)

    @pytest.mark.parametrize("extra, stored_chunks", [(0, 21), (100, 22)])
    def test_head_dies_mid_run(self, fast_config, extra, stored_chunks):
        """Chunk 21 is the sixth of the second run.  The gate is asked
        after every chunk, the head stops exactly there, and nothing of
        the run it was storing reaches the wire."""
        config = self._config(fast_config)
        chunk = config.chunk_size
        size = chunk * 100 + 5
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size), self.RECEIVERS,
            sink_factory=hashing_factory(sinks), config=config,
            crashes=[CrashPlan("n1", after_bytes=21 * chunk + extra)],
            allow_head_chaos=True, tracer=TraceCollector(),
        )
        result = bc.run(timeout=60)
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        dead = result.outcomes["n1"]
        assert dead.crashed
        assert dead.bytes_received == stored_chunks * chunk
        assert self._read_offsets(result) == list(
            range(0, stored_chunks * chunk, chunk))
        (election,) = result.trace.of_type(tracing.ELECTION)
        assert election.offset <= 16 * chunk   # the first run, at most
        for name in self.RECEIVERS:
            assert sinks[name].hexdigest() == expected_digest(size), name

    def test_gate_that_never_fires_changes_nothing(self, fast_config):
        """A gated head (every deploy agent is one) stores its runs one
        chunk at a time and still sends them as runs."""
        config = self._config(fast_config)
        chunk = config.chunk_size
        size = chunk * 50 + 9
        asked = []
        bc = LocalBroadcast(
            PatternSource(size), self.RECEIVERS, config=config,
            tracer=TraceCollector(),
        )
        bc._crash_gate = lambda name: (
            (lambda received: asked.append(received)) if name == "n1" else None)
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        offsets = list(range(0, size, chunk))
        assert asked == offsets[1:] + [size]
        assert self._read_offsets(result) == offsets
        assert result.outcomes["n1"].bytes_received == size
        # 51 chunks left in 4 corked runs, not 51 frames.
        assert result.perfstats["frames_sent"] >= 3 * 51
        assert result.perfstats["syscalls_send"] < 3 * 51
