"""Integration tests: real multi-process broadcasts on localhost.

Every test here spawns genuine ``kascade agent`` subprocesses through
``run_broadcast(backend="procs")`` and, for the chaos cases, kills them
with real signals mid-transfer — the semantics the thread-based runtime
can only approximate.
"""

import hashlib

import pytest

from repro import run_broadcast
from repro.core import BytesSource, KascadeConfig, KascadeError
from repro.core.sinks import HashingSink
from repro.core.sources import PatternSource
from repro.core.tracing import (
    CHUNK,
    DETECTOR_ERROR,
    DETECTOR_PING,
    DETECTOR_PROC_EXIT,
    FAILOVER,
)
from repro.deploy import LaunchReport
from repro.launch.models import LaunchComparison

FAST = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=0.5,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=6.0,
)

#: Common procs knobs.
PROCS = dict(backend="procs", config=FAST, timeout=90.0,
             startup_timeout=20.0)


def sha256_of(source: PatternSource) -> str:
    return hashlib.sha256(source.expected_bytes(0, source.size)).hexdigest()


class TestCleanRun:
    def test_digest_parity_with_local_backend(self):
        """The same payload through real processes and through threads
        must hash identically — byte-exactness across the backends."""
        payload = bytes((i * 13) % 256 for i in range(2 * 1024 * 1024))
        local_sinks = {}

        def hashing_factory(name):
            local_sinks[name] = HashingSink()
            return local_sinks[name]

        local = run_broadcast(BytesSource(payload), ["n2", "n3"],
                              config=FAST, sink_factory=hashing_factory,
                              timeout=60.0)
        procs = run_broadcast(BytesSource(payload), ["n2", "n3"], **PROCS)
        assert local.ok and procs.ok
        expected = hashlib.sha256(payload).hexdigest()
        assert {s.hexdigest() for s in local_sinks.values()} == {expected}
        assert {procs.outcomes[n].digest for n in ("n2", "n3")} == {expected}
        assert procs.total_bytes == local.total_bytes == len(payload)
        assert procs.backend == "procs"

    def test_launch_timings_recorded_and_comparable(self):
        result = run_broadcast(PatternSource(256 * 1024), ["n2", "n3", "n4"],
                               window=2, **PROCS)
        assert result.ok
        launch = result.launch
        assert isinstance(launch, LaunchReport)
        assert launch.window == 2
        assert sorted(launch.nodes) == ["n1", "n2", "n3", "n4"]
        assert launch.failed == []
        assert launch.total_s > 0
        for nl in launch.nodes.values():
            assert nl.startup_s is not None and nl.startup_s > 0
        comparison = launch.compare()
        assert isinstance(comparison, LaunchComparison)
        assert comparison.measured_s == launch.total_s
        assert comparison.predicted_s > 0
        assert "TakTukWindowed" in comparison.render()

    def test_output_template_writes_files(self, tmp_path):
        source = PatternSource(512 * 1024)
        result = run_broadcast(
            source, ["n2", "n3"],
            output_template=str(tmp_path / "{node}.out"), **PROCS)
        assert result.ok
        for name in ("n2", "n3"):
            data = (tmp_path / f"{name}.out").read_bytes()
            assert data == source.expected_bytes(0, source.size)

    def test_an_untraced_run_costs_its_agents_no_trace(self, monkeypatch):
        """``session_start`` says whether the session is traced: an
        untraced one's statuses carry no events, a traced one's do."""
        from repro.daemon import DaemonServer

        statuses = []
        collect = DaemonServer._collect

        def recording(self, sess, *args):
            statuses.append(dict(sess.statuses))
            return collect(self, sess, *args)

        monkeypatch.setattr(DaemonServer, "_collect", recording)
        runs = {trace: run_broadcast(PatternSource(512 * 1024),
                                     ["n2", "n3"], trace=trace, **PROCS)
                for trace in (None, True)}
        assert all(result.ok for result in runs.values())
        untraced, traced = statuses
        assert sorted(untraced) == sorted(traced) == ["n1", "n2", "n3"]
        assert {status["trace"] for status in untraced.values()} == {""}
        assert runs[None].trace is None
        assert all(status["trace"] for status in traced.values())
        assert runs[True].trace.of_type(CHUNK)

    def test_local_backend_unaffected_by_launch_field(self):
        result = run_broadcast(BytesSource(b"x" * 65536), ["n2"],
                               config=FAST, timeout=60.0)
        assert result.ok and result.launch is None


class TestChaos:
    def test_sigkill_mid_transfer(self):
        """The acceptance scenario: an 8-process broadcast survives a
        real SIGKILL — correct digests on survivors, a REPORT naming the
        dead node, and both coordinator (proc-exit) and peer (error)
        FAILOVER detections in the trace."""
        source = PatternSource(8 * 1024 * 1024)
        receivers = [f"n{i}" for i in range(2, 9)]  # 7 + head = 8 procs
        result = run_broadcast(
            source, receivers, trace=True,
            crashes=[("n4", 1024 * 1024, "close")], **PROCS)
        assert result.ok  # the planned kill is excused
        survivors = [n for n in receivers if n != "n4"]
        expected = sha256_of(source)
        for name in survivors:
            outcome = result.outcomes[name]
            assert outcome.ok and outcome.digest == expected
        assert not result.outcomes["n4"].ok
        # Ring-closure REPORT names exactly the dead node.
        assert result.report.failed_nodes == ["n4"]
        # The coordinator saw the real process die...
        failovers = result.trace.of_type(FAILOVER)
        proc_exits = [e for e in failovers
                      if e.detector == DETECTOR_PROC_EXIT]
        assert [e.peer for e in proc_exits] == ["n4"]
        assert "SIGKILL" in proc_exits[0].detail
        # ...and the upstream peer saw the RST (error-detector path).
        peer_detections = [e for e in failovers if e.node != "coordinator"
                           and e.peer == "n4"]
        assert peer_detections
        assert peer_detections[0].detector == DETECTOR_ERROR

    def test_sigstop_resolved_by_timeout_plus_ping(self):
        """A SIGSTOPped process keeps its sockets open — peers must
        disambiguate via the §III-D1 timeout + liveness ping."""
        source = PatternSource(8 * 1024 * 1024)
        result = run_broadcast(
            source, ["n2", "n3", "n4"], trace=True,
            crashes=[("n3", 1024 * 1024, "silent")], **PROCS)
        assert result.ok
        expected = sha256_of(source)
        for name in ("n2", "n4"):
            assert result.outcomes[name].ok
            assert result.outcomes[name].digest == expected
        assert not result.outcomes["n3"].ok
        assert result.report.failed_nodes == ["n3"]
        # Data-plane detection must be the ping detector: no RST exists.
        peer_detections = [
            e for e in result.trace.of_type(FAILOVER)
            if e.node != "coordinator" and e.peer == "n3"
        ]
        assert peer_detections
        assert {e.detector for e in peer_detections} == {DETECTOR_PING}


class TestStriped:
    def test_two_stripes_byte_exact_output(self, tmp_path):
        """k = 2 through real processes: each agent binds two listeners,
        runs two interleaved chains, and the merged file on disk is
        byte-identical to the source."""
        source = PatternSource(2 * 1024 * 1024, seed=4)
        result = run_broadcast(
            source, ["n2", "n3", "n4"], stripes=2,
            output_template=str(tmp_path / "{node}.out"), **PROCS)
        assert result.ok, result.outcomes
        assert result.plan is not None and result.plan.stripe_count == 2
        expected = sha256_of(source)
        payload = source.expected_bytes(0, source.size)
        for name in ("n2", "n3", "n4"):
            assert result.outcomes[name].digest == expected, name
            assert (tmp_path / f"{name}.out").read_bytes() == payload, name

    def test_sigkill_on_a_striped_run(self):
        """A real SIGKILL takes down both of the victim's stripe chains;
        survivors' merged digests stay exact and the pooled report names
        the dead host.  The heads are paced (2 × 8 MiB/s) so the kill
        lands mid-stream on both stripes: a reroute after a stripe's
        tail is done blames the finished nodes too (ROADMAP item 4)."""
        source = PatternSource(4 * 1024 * 1024, seed=6)
        result = run_broadcast(
            source, ["n2", "n3", "n4", "n5"], stripes=2,
            crashes=[("n3", 400_000, "close")],
            **dict(PROCS, config=FAST.with_(bandwidth_limit=8 << 20)))
        assert result.ok, result.outcomes
        expected = sha256_of(source)
        for name in ("n2", "n4", "n5"):
            assert result.outcomes[name].ok, result.outcomes[name]
            assert result.outcomes[name].digest == expected, name
        assert not result.outcomes["n3"].ok
        assert set(result.report.failed_nodes) == {"n3"}


class TestLaunchFailures:
    def test_agent_dying_before_registering_is_retried(self):
        result = run_broadcast(
            PatternSource(256 * 1024), ["n2", "n3"],
            spawn_retries=1,
            agent_args=lambda name, attempt: (
                ["--die-on-start"] if (name == "n3" and attempt == 0)
                else []),
            **PROCS)
        assert result.ok
        assert result.launch.nodes["n3"].attempts == 2
        assert result.launch.retries == 1

    def test_persistent_launch_failure_replans_the_chain(self):
        """A node that never comes up is dropped before data flows:
        the rest of the chain still completes, the failure is reported,
        and the overall run is not ok (the death was not planned)."""
        source = PatternSource(256 * 1024)
        result = run_broadcast(
            source, ["n2", "n3", "n4"], trace=True,
            spawn_retries=1,
            agent_args=lambda name, attempt: (
                ["--die-on-start"] if name == "n3" else []),
            **PROCS)
        assert not result.ok
        expected = sha256_of(source)
        for name in ("n2", "n4"):
            assert result.outcomes[name].ok
            assert result.outcomes[name].digest == expected
        n3 = result.outcomes["n3"]
        assert not n3.ok and "launch failed" in n3.error
        # The launcher's failure record reaches the caller's report...
        assert "n3" in result.report.failed_nodes
        launcher_records = [f for f in result.report.failures
                            if f.detected_by == "launcher"]
        assert [f.node for f in launcher_records] == ["n3"]
        # ...and the trace carries a proc-exit FAILOVER from the launcher.
        launch_failovers = [e for e in result.trace.of_type(FAILOVER)
                            if e.node == "launcher"]
        assert [e.peer for e in launch_failovers] == ["n3"]
        assert launch_failovers[0].detector == DETECTOR_PROC_EXIT

    def test_head_launch_failure_fails_the_run(self):
        result = run_broadcast(
            PatternSource(64 * 1024), ["n2"],
            spawn_retries=0,
            agent_args=lambda name, attempt: (
                ["--die-on-start"] if name == "n1" else []),
            **PROCS)
        assert not result.ok
        assert result.total_bytes == 0
        assert "n1" in result.report.failed_nodes


class TestBackendSelection:
    def test_unknown_backend_renders_the_catalogue(self):
        with pytest.raises(KascadeError) as err:
            run_broadcast(BytesSource(b"x"), ["n2"], backend="fluid")
        message = str(err.value)
        assert "unknown backend 'fluid'" in message
        for name in ("local", "procs", "simnet"):
            assert name in message

    def test_procs_rejects_sink_factory(self):
        with pytest.raises(KascadeError, match="output_template"):
            run_broadcast(BytesSource(b"x"), ["n2"], backend="procs",
                          sink_factory=lambda name: None)

    def test_procs_rejects_unknown_options(self):
        with pytest.raises(KascadeError, match="unknown procs options"):
            run_broadcast(BytesSource(b"x"), ["n2"], backend="procs",
                          bandwidth=1e9)

    def test_output_template_needs_node_placeholder(self):
        with pytest.raises(KascadeError, match="placeholder"):
            run_broadcast(BytesSource(b"x"), ["n2", "n3"], backend="procs",
                          output_template="/tmp/same-file.out")

    def test_chaos_plans_for_unknown_nodes_rejected(self):
        with pytest.raises(KascadeError, match="unknown nodes"):
            run_broadcast(BytesSource(b"x"), ["n2"], backend="procs",
                          crashes=[("n9", 0, "close")])
