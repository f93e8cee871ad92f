"""The event-loop data plane (`repro.runtime.evloop`).

Three claims are under test:

* **conformance** — ``data_plane="evloop"`` produces byte-identical sink
  contents, the same milestones, and the same failure handling as the
  threaded reference plane (and as the simulator);
* **kernel path** — pure relays (NullSink, no digest) move payloads with
  ``os.splice`` and never read them into Python, observable through the
  ``splice_*`` perfstats counters;
* **fallback** — with ``os.splice``/``os.sendfile`` forced unavailable
  (the non-Linux configuration) everything still completes via the
  userspace path, including ``SocketStream.send_frame_from_file``.
"""

import errno
import hashlib
import socket

import pytest

from repro.core import (
    BytesSource,
    FileSource,
    HashingSink,
    PatternSource,
    TraceCollector,
)
from repro.core.messages import Data
from repro.core.perfstats import PerfStats
from repro.core.sinks import NullSink, Sink
from repro.core.tracing import FAILOVER, QUIT
from repro.runtime import CrashPlan, LocalBroadcast
from repro.runtime import evloop, transport
from repro.runtime.evloop import HAS_SPLICE, splice_active
from repro.runtime.transport import SocketStream
from repro.session import run_broadcast


def _evloop_config(fast_config, **overrides):
    return fast_config.with_(data_plane="evloop", **overrides)


def _digest(size, seed=0):
    src = PatternSource(size, seed=seed)
    return hashlib.sha256(src.expected_bytes(0, size)).hexdigest()


def hashing_factory(store):
    def factory(name):
        sink = HashingSink()
        store[name] = sink
        return sink
    return factory


class TestEvloopCleanRuns:
    def test_multi_node_null_sink(self, fast_config):
        """The splice-eligible configuration: relays forward in-kernel."""
        size = fast_config.chunk_size * 32 + 321
        bc = LocalBroadcast(PatternSource(size), ["n2", "n3", "n4"],
                            config=_evloop_config(fast_config))
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert result.total_bytes == size
        assert all(o.bytes_received == size
                   for o in result.outcomes.values())
        if HAS_SPLICE:
            # Two relays × two pipe legs each, plus the tail's discard
            # legs: every payload byte moved by splice, none by recv.
            assert result.perfstats["splice_syscalls"] > 0
            assert result.perfstats["splice_bytes"] >= 2 * size
        assert result.perfstats["reactor_wakeups"] > 0

    def test_digest_parity_with_threaded_plane(self, fast_config):
        """Storing nodes take the userspace path: stored bytes must be
        identical across planes (and match the source)."""
        size = fast_config.chunk_size * 17 + 99
        digests = {}
        for plane in ("threaded", "evloop"):
            sinks = {}
            bc = LocalBroadcast(
                PatternSource(size, seed=9), ["n2", "n3"],
                sink_factory=hashing_factory(sinks),
                config=fast_config.with_(data_plane=plane),
            )
            result = bc.run(timeout=60)
            assert result.ok, result.outcomes
            digests[plane] = {n: s.hexdigest() for n, s in sinks.items()}
        want = _digest(size, seed=9)
        assert digests["threaded"] == digests["evloop"]
        assert all(d == want for d in digests["evloop"].values())

    def test_session_data_plane_kwarg(self, fast_config):
        result = run_broadcast(BytesSource(b"x" * 10000), ["n2"],
                               config=fast_config, data_plane="evloop",
                               timeout=30)
        assert result.ok
        assert result.total_bytes == 10000

    def test_simnet_rejects_data_plane(self, fast_config):
        from repro.core import KascadeError
        with pytest.raises(KascadeError, match="simnet"):
            run_broadcast(BytesSource(b"x"), ["n2"], backend="simnet",
                          config=fast_config, data_plane="evloop")

    def test_splice_eligibility_rules(self, fast_config):
        assert splice_active(fast_config, NullSink()) == HAS_SPLICE
        # A NullSink *subclass* may observe bytes — must stay userspace.
        class CountingNull(NullSink):
            pass
        assert not splice_active(fast_config, CountingNull())
        assert not splice_active(fast_config, HashingSink())
        hashing_cfg = fast_config.with_(verify_digest=True)
        assert not splice_active(hashing_cfg, NullSink())

    def test_verify_digest_takes_userspace_path(self, fast_config):
        """Integrity mode forces hashing, which forbids splice — the
        plane must still complete with the digest check passing."""
        size = fast_config.chunk_size * 8
        config = _evloop_config(fast_config, verify_digest=True)
        bc = LocalBroadcast(PatternSource(size), ["n2", "n3"], config=config)
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert result.report.source_digest is not None


class TestForcedFallback:
    def test_evloop_without_splice_or_sendfile(self, fast_config,
                                               monkeypatch, tmp_path):
        """The non-Linux configuration: both kernel paths gated off."""
        monkeypatch.setattr(evloop, "HAS_SPLICE", False)
        monkeypatch.setattr(evloop, "HAS_SENDFILE", False)
        size = fast_config.chunk_size * 12 + 5
        src = PatternSource(size, seed=3)
        payload = src.expected_bytes(0, size)
        path = tmp_path / "in.bin"
        path.write_bytes(payload)
        sinks = {}
        bc = LocalBroadcast(FileSource(path), ["n2", "n3"],
                            sink_factory=hashing_factory(sinks),
                            config=_evloop_config(fast_config))
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert result.perfstats["splice_syscalls"] == 0
        assert result.perfstats["syscalls_sendfile"] == 0
        want = hashlib.sha256(payload).hexdigest()
        assert all(s.hexdigest() == want for s in sinks.values())

    def test_send_frame_from_file_without_sendfile(self, monkeypatch,
                                                   tmp_path):
        """`HAS_SENDFILE = False` falls back to read + queued send."""
        monkeypatch.setattr(transport, "HAS_SENDFILE", False)
        data = bytes((i * 13) % 256 for i in range(256 * 1024))
        path = tmp_path / "payload.bin"
        path.write_bytes(data)
        a, b = socket.socketpair()
        stats = PerfStats()
        sender = SocketStream(a, stats=stats)
        receiver = SocketStream(b)
        src = FileSource(path)
        off, size = 4096, 64 * 1024
        try:
            sender.send_frame_from_file(Data(off, size), src, off, timeout=5)
            msg, payload = receiver.recv_message(timeout=5)
            assert msg == Data(off, size)
            assert bytes(payload) == data[off: off + size]
            assert stats.syscalls_sendfile == 0
            assert stats.syscalls_send > 0
        finally:
            sender.close()
            receiver.close()
            src.close()


class TestMilestoneParity:
    def test_crash_milestones_agree_across_planes(self, fast_config):
        """One crash scenario, three engines — threaded TCP, evloop TCP,
        and the simulator — must agree on the causal skeleton."""
        size = fast_config.chunk_size * 64
        crash = ("n3", fast_config.chunk_size * 4, "close")
        milestones = {}
        for plane in ("threaded", "evloop"):
            result = run_broadcast(
                PatternSource(size), ["n2", "n3", "n4"],
                config=fast_config.with_(data_plane=plane),
                trace=True, crashes=[crash], timeout=60.0)
            assert result.ok, (plane, result.outcomes)
            failovers = result.trace.of_type(FAILOVER)
            assert [e.peer for e in failovers] == ["n3"], plane
            milestones[plane] = result.trace.milestones("done")
        sim = run_broadcast(PatternSource(size), ["n2", "n3", "n4"],
                            backend="simnet", config=fast_config,
                            trace=True, crashes=[crash])
        assert sim.ok
        assert milestones["threaded"] == milestones["evloop"] == \
            sim.trace.milestones("done") == \
            [("done", "n4"), ("done", "n2"), ("done", "n1")]


class TestStripedParity:
    """Striped broadcast (config.stripes = k) against the single-chain
    reference: the merged stream every host stores must be byte-identical
    to the k = 1 broadcast of the same source, on both data planes."""

    @pytest.mark.parametrize("plane", ["threaded", "evloop"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_digest_parity_across_stripe_counts(self, fast_config, plane, k):
        size = fast_config.chunk_size * 21 + 77
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size, seed=5), ["n2", "n3", "n4"],
            sink_factory=hashing_factory(sinks),
            config=fast_config.with_(data_plane=plane, stripes=k),
        )
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert result.total_bytes == size
        assert result.plan is not None and result.plan.stripe_count == k
        want = _digest(size, seed=5)
        assert {n: s.hexdigest() for n, s in sinks.items()} == \
            {n: want for n in ("n2", "n3", "n4")}
        # Every host received the whole stream, counted across stripes.
        assert all(result.outcomes[n].bytes_received == size
                   for n in ("n2", "n3", "n4"))

    @pytest.mark.parametrize("plane", ["threaded", "evloop"])
    def test_mid_chain_crash_on_striped_run(self, fast_config, plane):
        """Kill a host mid-transfer on a k = 2 run: every one of its
        stripe chains fails over, and the survivors' *merged* digests
        still match the single-chain broadcast of the same source."""
        size = fast_config.chunk_size * 64
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size, seed=8), ["n2", "n3", "n4", "n5"],
            sink_factory=hashing_factory(sinks),
            config=fast_config.with_(data_plane=plane, stripes=2),
            crashes=[CrashPlan("n3", fast_config.chunk_size * 4, "close")],
        )
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert not result.outcomes["n3"].ok
        want = _digest(size, seed=8)
        for survivor in ("n2", "n4", "n5"):
            assert result.outcomes[survivor].ok
            assert sinks[survivor].hexdigest() == want, survivor
        # The pooled report names the dead host (once per stripe that
        # detected it), never a survivor.
        assert {f.node for f in result.report.failures} == {"n3"}


class _ENOSPCSink(Sink):
    def __init__(self, capacity):
        self.capacity = capacity
        self.bytes_written = 0
        self.aborted = False

    def write_chunk(self, data):
        if self.bytes_written + len(data) > self.capacity:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.bytes_written += len(data)

    def abort(self):
        self.aborted = True


class TestEvloopFaults:
    @pytest.mark.parametrize("mode", ["close", "silent"])
    def test_spliced_relay_survives_neighbour_crash(self, fast_config, mode):
        """Kernel-path relays reroute around a dead neighbour: the
        replacement refetches the phantom window from the head via PGET."""
        size = fast_config.chunk_size * 64
        config = _evloop_config(fast_config)
        bc = LocalBroadcast(
            PatternSource(size), ["n2", "n3", "n4", "n5"], config=config,
            crashes=[CrashPlan("n3", fast_config.chunk_size * 4, mode)],
        )
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        assert not result.outcomes["n3"].ok
        survivors = ("n1", "n2", "n4", "n5")
        assert all(result.outcomes[n].ok for n in survivors)
        assert all(result.outcomes[n].bytes_received == size
                   for n in survivors)
        assert [f.node for f in result.report.failures] == ["n3"]

    def test_userspace_relay_survives_crash_with_digest(self, fast_config):
        size = fast_config.chunk_size * 48
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size, seed=2), ["n2", "n3", "n4"],
            sink_factory=hashing_factory(sinks),
            config=_evloop_config(fast_config),
            crashes=[CrashPlan("n3", fast_config.chunk_size * 6, "close")],
        )
        result = bc.run(timeout=60)
        assert result.ok, result.outcomes
        want = _digest(size, seed=2)
        for survivor in ("n2", "n4"):
            assert sinks[survivor].hexdigest() == want

    def test_sink_failure_hard_aborts(self, fast_config):
        """ENOSPC mid-chain on the evloop plane: QUIT both neighbours,
        discard the partial output, upstream still completes."""
        config = _evloop_config(fast_config)
        size = config.chunk_size * 64
        tracer = TraceCollector()
        sinks = {}

        def sink_factory(name):
            cap = config.chunk_size * 8 if name == "n3" else size
            sinks[name] = _ENOSPCSink(cap)
            return sinks[name]

        bc = LocalBroadcast(PatternSource(size), ["n2", "n3", "n4"],
                            sink_factory=sink_factory, config=config,
                            tracer=tracer)
        result = bc.run(timeout=60)
        n3 = result.outcomes["n3"]
        assert not n3.ok
        assert "sink failure" in (n3.error or "")
        assert sinks["n3"].aborted
        quits = [e for e in tracer.of_type(QUIT) if e.node == "n3"]
        assert quits and any("sink failure" in e.detail for e in quits)
        assert result.outcomes["n2"].ok
        assert sinks["n2"].bytes_written == size
