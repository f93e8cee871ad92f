"""Head failover: the head dies, a survivor takes its place.

SIGKILL the *head* of a fleet mid-transfer and the broadcast still
completes — the supervisor elects the most-complete survivor from the
exact offsets the survivors report, re-roots the chain onto it, and the
survivors resume from their ring buffers.  Nothing but the agents runs
to make that happen.  The local backend follows the same election
in-process so the merged-trace shape is testable without sockets.
"""

import subprocess

import pytest

from repro import run_broadcast
from repro.core import KascadeConfig, KascadeError
from repro.core.sinks import BufferSink
from repro.core.sources import PatternSource
from repro.core.tracing import DETECTOR_PROC_EXIT, ELECTION, FAILOVER
from repro.deploy import launcher

FAST = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=0.5,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=6.0,
)

#: Real processes get a paced head (8 MiB in 0.5 s), as in
#: ``test_detach_latency.py``: unpaced, the whole stream can sit in
#: socket buffers before the SIGKILL for "2 MiB in" is even sent, and
#: the head then dies *after* streaming — a different scenario.
PROCS = dict(backend="procs", config=FAST.with_(bandwidth_limit=16 << 20),
             timeout=90.0, startup_timeout=20.0)

#: Shared topology for the failover runs: head n1 + five receivers,
#: head killed a quarter of the way through an 8 MiB transfer.
RECEIVERS = [f"n{i}" for i in range(2, 7)]
SOURCE_BYTES = 8 * 1024 * 1024
HEAD_CRASH = ("n1", 2 * 1024 * 1024, "close")


class TestProcsHeadFailover:
    def test_sigkill_head_mid_transfer(self, tmp_path):
        """A real SIGKILL on the head → the transfer completes on a
        re-rooted chain, survivors are byte-exact, and the merged trace
        carries exactly one ELECTION plus a FAILOVER for the old head."""
        source = PatternSource(SOURCE_BYTES)
        result = run_broadcast(
            source, RECEIVERS, trace=True, crashes=[HEAD_CRASH],
            allow_head_chaos=True,
            output_template=str(tmp_path / "{node}.out"), **PROCS)
        assert result.ok, result.outcomes

        # Exactly one ELECTION, decreed by the coordinator, promoting a
        # survivor at a positive watermark.
        elections = result.trace.of_type(ELECTION)
        assert len(elections) == 1
        elect = elections[0]
        assert elect.node == "coordinator"
        promoted = elect.peer
        assert promoted in RECEIVERS
        assert elect.offset > 0

        # The run's effective plan is re-rooted onto the promoted head.
        assert result.plan.head == promoted
        assert promoted not in result.plan.receivers

        # The coordinator detected the real process death of the head.
        head_failovers = [e for e in result.trace.of_type(FAILOVER)
                          if e.node == "coordinator" and e.peer == "n1"]
        assert len(head_failovers) == 1
        assert head_failovers[0].detector == DETECTOR_PROC_EXIT

        # Digest parity on every survivor, on disk and in the outcomes.
        payload = source.expected_bytes(0, source.size)
        for name in RECEIVERS:
            assert result.outcomes[name].ok, result.outcomes[name]
            assert (tmp_path / f"{name}.out").read_bytes() == payload, name
        assert not result.outcomes["n1"].ok

    def test_a_head_kill_spawns_nothing_but_agents(self, tmp_path,
                                                   monkeypatch):
        """A fleet of N agents is one fork server and N forks of it,
        head failover included: the one process the supervisor starts
        is the host's agent entry, every spawn it asks for is a fleet
        agent, and the run still ends byte-exact with one ELECTION."""
        started, forked = [], []

        class Recording(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                started.append(list(args))
                super().__init__(args, *rest, **kwargs)

        def recording(spawner, name, attempt):
            forked.append(name)
            return fork(spawner, name, attempt)

        fork = launcher.ForkServer.__call__
        monkeypatch.setattr(subprocess, "Popen", Recording)
        monkeypatch.setattr(launcher.ForkServer, "__call__", recording)
        source = PatternSource(SOURCE_BYTES)
        result = run_broadcast(
            source, RECEIVERS, trace=True, crashes=[HEAD_CRASH],
            allow_head_chaos=True,
            output_template=str(tmp_path / "{node}.out"), **PROCS)
        assert result.ok, result.outcomes
        [argv] = started
        assert argv[argv.index("repro.cli.kascade") + 1] == "agent", argv
        assert "--fork-server" in argv and "--name" not in argv
        assert sorted(forked) == ["n1", *RECEIVERS]
        assert len(result.trace.of_type(ELECTION)) == 1
        payload = source.expected_bytes(0, source.size)
        for name in RECEIVERS:
            assert (tmp_path / f"{name}.out").read_bytes() == payload, name

    def test_head_chaos_requires_the_opt_in(self):
        with pytest.raises(KascadeError, match="allow_head_chaos"):
            run_broadcast(PatternSource(64 * 1024), ["n2"],
                          crashes=[("n1", 0, "close")], **PROCS)


class TestLocalHeadFailover:
    def run_local(self, crash=HEAD_CRASH):
        source = PatternSource(SOURCE_BYTES)
        sinks = {}

        def sink_factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        result = run_broadcast(
            source, RECEIVERS, backend="local", config=FAST, timeout=60.0,
            trace=True, sink_factory=sink_factory, crashes=[crash],
            allow_head_chaos=True)
        return source, sinks, result

    def test_head_crash_promotes_the_most_complete_survivor(self):
        source, sinks, result = self.run_local()
        assert result.ok, result.outcomes

        # Watermarks fall monotonically down the chain, so the first
        # receiver is always the most complete — election is
        # deterministic: n2 wins, chain order otherwise preserved.
        elections = result.trace.of_type(ELECTION)
        assert len(elections) == 1
        assert (elections[0].node, elections[0].peer) == ("coordinator", "n2")
        assert elections[0].offset > 0
        assert result.plan.head == "n2"
        assert result.plan.nodes == ("n2", "n3", "n4", "n5", "n6")

        failovers = [(e.node, e.peer)
                     for e in result.trace.of_type(FAILOVER)]
        assert failovers == [("coordinator", "n1")]

        assert result.outcomes["n1"].crashed
        payload = source.expected_bytes(0, source.size)
        for name in RECEIVERS:
            assert result.outcomes[name].ok, result.outcomes[name]
            assert sinks[name].getvalue() == payload, name
        assert result.total_bytes == source.size

    def test_silent_head_crash_also_fails_over(self):
        # A SIGSTOP-style hang (sockets held open) resolves through the
        # ping path instead of the RST path; the promotion is the same.
        source, sinks, result = self.run_local(
            crash=("n1", 1024 * 1024, "silent"))
        assert result.ok, result.outcomes
        assert len(result.trace.of_type(ELECTION)) == 1
        payload = source.expected_bytes(0, source.size)
        for name in RECEIVERS:
            assert sinks[name].getvalue() == payload, name

    def test_local_gates(self):
        with pytest.raises(KascadeError, match="allow_head_chaos"):
            run_broadcast(PatternSource(64 * 1024), ["n2"], backend="local",
                          config=FAST, crashes=[("n1", 0, "close")])
        with pytest.raises(KascadeError, match="1-stripe"):
            run_broadcast(PatternSource(256 * 1024), ["n2", "n3"],
                          backend="local", config=FAST, stripes=2,
                          crashes=[("n1", 0, "close")],
                          allow_head_chaos=True)


class TestTraceParity:
    def test_milestone_parity_across_backends(self, tmp_path):
        """Satellite: the merged cross-process trace and the in-process
        trace tell the same story through a failover — one coordinator
        ELECTION, then DONE tail→head on the re-rooted chain."""
        source = PatternSource(SOURCE_BYTES)
        sinks = {}

        def sink_factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        local = run_broadcast(
            source, RECEIVERS, backend="local", config=FAST, timeout=60.0,
            trace=True, sink_factory=sink_factory, crashes=[HEAD_CRASH],
            allow_head_chaos=True)
        procs = run_broadcast(
            source, RECEIVERS, trace=True, crashes=[HEAD_CRASH],
            allow_head_chaos=True,
            output_template=str(tmp_path / "{node}.out"), **PROCS)
        assert local.ok and procs.ok
        expected = [("election", "coordinator")]
        expected += [("done", n) for n in reversed(RECEIVERS)]
        assert local.trace.milestones("election", "done") == expected
        assert procs.trace.milestones("election", "done") == expected
        assert local.plan.head == procs.plan.head == "n2"
