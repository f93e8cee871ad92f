"""One supervisor, two lifetimes: every process-backend scenario runs
through the same session code as a *one-shot* (a fleet launched for it
and shut down after) and as a *submit* into a fleet that is already up.

Each cell either reaches digest parity or is refused by the one
validation (`runtime.result.check_run`, which `DaemonServer.admit`
calls) with one message, and every safety
property the two former supervisors had between them is named by a test
here: launch-failure re-plan before the first payload byte, `proc-exit`
vs heartbeat-silence detection, a SHA-256 digest in every status,
`verify_digest` off only across a re-root, `SIGKILL` for a `SIGSTOP`ped
child, and no agent process outliving `run()` / `shutdown()`.
(That a sink kept across a failover is finished once is the host's rule
now, on every driver: `tests/runtime/test_detach.py`.)
"""

import hashlib
import os
import re
import signal

import pytest

from repro import run_broadcast
from repro.core import KascadeConfig, KascadeError
from repro.core.plan import ChainPlan
from repro.core.sources import PatternSource
from repro.core.tracing import (
    DETECTOR_PING,
    DETECTOR_PROC_EXIT,
    DONE,
    ELECTION,
    FAILOVER,
    REPORT,
    SESSION,
)
from repro.daemon import DaemonServer, LateJoin
from repro.deploy.coordinator import Coordinator
from tests.refusals import REFUSALS, refusal

FAST = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=0.5,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=6.0,
)

FLEET = dict(startup_timeout=20.0, progress_every=128 * 1024)
MODES = ("oneshot", "submit")


def sha256_of(source: PatternSource) -> str:
    return hashlib.sha256(source.expected_bytes(0, source.size)).hexdigest()


def live_children():
    """Pids of this process's children that are still running."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == os.getpid() and state != "Z":
            found.append(int(pid))
    return found


def broadcast(mode, source, receivers, *, fleet=None, warm_up=False,
              config=FAST, stripes=1, **session):
    """``source`` to ``receivers`` through the single supervisor.

    Returns ``(result, launch_report)``.  ``fleet`` holds fleet-launch
    options, everything else describes the session; ``warm_up`` runs a
    throwaway session first on the started fleet (so the one under test
    is not its first).  Whichever way it ran, nothing it started is
    left.
    """
    fleet = {**FLEET, **(fleet or {})}
    config = config.with_(stripes=stripes)
    if mode == "oneshot":
        result = run_broadcast(source, receivers, backend="procs",
                               config=config, timeout=90.0, **fleet,
                               **session)
        launch = result.launch
    else:
        # A fleet's config is its sessions' config.
        with DaemonServer(("n1", *receivers), config=config, cache_bytes=0,
                          **fleet) as server:
            if warm_up:
                assert server.submit(PatternSource(64 * 1024),
                                     timeout=60.0).ok
            result = run_broadcast(source, receivers, backend="procs",
                                   timeout=90.0, server=server, **session)
            launch = server.launch_report
        assert result.launch is None   # nothing was launched for it
    assert live_children() == [], "a process outlived its fleet"
    return result, launch


def story(trace):
    """The deterministic milestones of a run, session ids stripped."""
    return [(e.type, e.node, re.sub(r"^s\d+: ", "", e.detail or ""))
            for e in trace.events()
            if e.type in (SESSION, DONE)
            or (e.type, e.node) == (REPORT, "coordinator")]


class TestOneShotIsAOneSessionFleet:
    def test_same_digests_outcomes_and_milestones(self):
        """The ROADMAP item 3 deliverable: the same 3-receiver broadcast
        as a one-shot and as a session on a warm cache-less fleet gives
        equal digests, equal outcomes and the same milestone sequence
        — and every status carries its node's SHA-256."""
        source = PatternSource(1 << 20, seed=3)
        receivers = ["n2", "n3", "n4"]
        oneshot, _ = broadcast("oneshot", source, receivers, trace=True)
        submit, _ = broadcast("submit", PatternSource(1 << 20, seed=3),
                              receivers, trace=True, warm_up=True)
        assert oneshot.ok and submit.ok
        assert (oneshot.backend, submit.backend) == ("procs", "daemon")
        assert oneshot.outcomes == submit.outcomes
        assert {oneshot.outcomes[n].digest for n in receivers} == \
            {sha256_of(source)}
        assert oneshot.plan == submit.plan
        assert story(oneshot.trace) == story(submit.trace)
        assert [kind for kind, _n, _d in story(oneshot.trace)] == \
            [SESSION, SESSION, REPORT, DONE, DONE, DONE, DONE]
        # One supervisor, one name: nothing is emitted as "server".
        assert "server" not in {e.node for e in submit.trace.events()}
        # A cache-less fleet knows no artifact: no identity, no hash
        # pass, nothing "from cache".
        assert "artifact=" not in story(submit.trace)[0][2]
        assert submit.perfstats["bytes_from_cache"] == 0

    def test_the_two_backends_take_the_same_options(self):
        """``procs`` and ``daemon`` are one code path given different
        fleets, so what one accepts the other does — and both refuse an
        unknown option by name.  A late joiner needs no cache: it gets a
        chain of its own."""
        source = PatternSource(64 * 1024)
        for backend in ("procs", "daemon"):
            with pytest.raises(KascadeError,
                               match=f"unknown {backend} options"):
                run_broadcast(source, ["n2"], backend=backend, bandwidth=1)
        result = run_broadcast(source, ["n2"], backend="procs", config=FAST,
                               cache_bytes=0, late_join=[LateJoin("n3")],
                               timeout=60.0, **FLEET)
        assert result.ok, result.outcomes
        assert result.outcomes["n3"].digest == sha256_of(source)
        assert live_children() == []


@pytest.mark.parametrize("mode", MODES)
class TestEveryCellEitherWay:
    def test_launch_failure_replans_before_the_first_payload_byte(self, mode):
        """§III-B: a member that never comes up is dropped from the
        chain before data flows — no node ever dials it — the rest
        completes, and the unplanned loss fails the result by name."""
        source = PatternSource(256 * 1024)
        result, launch = broadcast(
            mode, source, ["n2", "n3", "n4"], trace=True,
            fleet=dict(spawn_retries=1, backoff=0.05,
                       agent_args=lambda name, attempt: (
                           ["--die-on-start"] if name == "n3" else [])))
        assert not result.ok
        assert launch.failed == ["n3"] and launch.nodes["n3"].attempts == 2
        assert result.plan.receivers == ("n2", "n4")
        for name in ("n2", "n4"):
            assert result.outcomes[name].digest == sha256_of(source)
        assert "launch failed" in result.outcomes["n3"].error
        assert [f.node for f in result.report.failures
                if f.detected_by == "launcher"] == ["n3"]
        assert not [e for e in result.trace.events()
                    if e.peer == "n3" and e.node != "launcher"]

    def test_a_head_that_never_launched_fails_the_session(self, mode):
        result, _ = broadcast(
            mode, PatternSource(64 * 1024), ["n2"],
            fleet=dict(spawn_retries=0,
                       agent_args=lambda name, attempt: (
                           ["--die-on-start"] if name == "n1" else [])))
        assert not result.ok and result.total_bytes == 0
        assert "n1" in result.report.failed_nodes
        assert "head agent failed to launch" in result.outcomes["n2"].error

    def test_order_is_honoured(self, mode):
        source = PatternSource(256 * 1024)
        result, _ = broadcast(mode, source, ["n4", "n2", "n3"],
                              order="hostname")
        assert result.ok
        assert result.plan.receivers == ("n2", "n3", "n4")
        assert {o.digest for n, o in result.outcomes.items()
                if n != "n1"} == {sha256_of(source)}

    def test_a_callers_plan_is_the_plan_that_runs(self, mode):
        source = PatternSource(512 * 1024, seed=5)
        plan = ChainPlan.from_orders("n1", [["n3", "n2", "n4"],
                                            ["n4", "n3", "n2"]])
        result, _ = broadcast(mode, source, plan.receivers, plan=plan)
        assert result.ok, result.outcomes
        assert result.plan == plan
        assert {result.outcomes[n].digest for n in plan.receivers} == \
            {sha256_of(source)}

    def test_striped(self, mode, tmp_path):
        source = PatternSource(1 << 20, seed=4)
        result, _ = broadcast(mode, source, ["n2", "n3"], stripes=2,
                              output_template=str(tmp_path / "{node}.out"))
        assert result.ok, result.outcomes
        assert result.plan.stripe_count == 2
        payload = source.expected_bytes(0, source.size)
        for name in ("n2", "n3"):
            assert result.outcomes[name].digest == sha256_of(source)
            assert (tmp_path / f"{name}.out").read_bytes() == payload

    def test_sigkill_is_found_by_proc_exit(self, mode):
        source = PatternSource(4 << 20)
        result, _ = broadcast(mode, source, ["n2", "n3", "n4"], trace=True,
                              crashes=[("n3", 512 * 1024, "close")])
        assert result.ok  # the planned kill is excused
        for name in ("n2", "n4"):
            assert result.outcomes[name].digest == sha256_of(source)
        assert not result.outcomes["n3"].ok
        assert result.report.failed_nodes == ["n3"]
        (seen,) = [e for e in result.trace.of_type(FAILOVER)
                   if e.node == "coordinator"]
        assert (seen.peer, seen.detector) == ("n3", DETECTOR_PROC_EXIT)
        assert "SIGKILL" in seen.detail and seen.offset >= 512 * 1024

    def test_sigstop_is_found_by_heartbeat_silence_and_ended_by_sigkill(
            self, mode):
        """A stopped process holds its sockets and never exits: the
        peers route around it by timeout + ping, the supervisor declares
        it by control-heartbeat silence, and tear-down ends it with the
        one signal a stopped child cannot ignore."""
        source = PatternSource(4 << 20)
        result, launch = broadcast(
            mode, source, ["n2", "n3", "n4"], trace=True,
            crashes=[("n3", 512 * 1024, "silent")],
            fleet=dict(heartbeat_interval=0.2))
        assert result.ok
        for name in ("n2", "n4"):
            assert result.outcomes[name].digest == sha256_of(source)
        assert result.report.failed_nodes == ["n3"]
        detectors = {e.node == "coordinator": e.detector
                     for e in result.trace.of_type(FAILOVER)
                     if e.peer == "n3"}
        assert detectors == {True: DETECTOR_PING, False: DETECTOR_PING}
        assert "heartbeat" in result.outcomes["n3"].error
        codes = {n: nl.proc.returncode for n, nl in launch.nodes.items()}
        assert codes.pop("n3") == -signal.SIGKILL
        assert set(codes.values()) == {0}   # everyone else was drained

    def test_head_failover(self, mode, tmp_path, monkeypatch):
        """A head SIGKILLed mid-push is re-rooted by the supervisor, in
        a one-shot and on a warm fleet alike — and ``verify_digest`` is
        off only across the re-root: ``session_start`` and ``resume``
        both ship the caller's config, and a host rebuilt with a resume
        offset turns the check off itself (resumed nodes hash only what
        they stream after it)."""
        sent = []
        real_send = Coordinator.send
        monkeypatch.setattr(
            Coordinator, "send",
            lambda self, name, msg: sent.append(msg) or real_send(
                self, name, msg))
        receivers = ["n2", "n3", "n4"]
        source = PatternSource(4 << 20)
        result, _ = broadcast(
            mode, source, receivers, trace=True,
            crashes=[("n1", 1 << 20, "close")], allow_head_chaos=True,
            # Paced, so the kill lands mid-stream and not after a head
            # that has already handed everything to the socket buffers.
            config=FAST.with_(verify_digest=True, bandwidth_limit=16 << 20),
            output_template=str(tmp_path / "{node}.out"))
        assert result.ok, result.outcomes
        (election,) = result.trace.of_type(ELECTION)
        assert election.node == "coordinator" and election.offset > 0
        assert result.plan.head == election.peer == "n2"
        payload = source.expected_bytes(0, source.size)
        for name in receivers:
            assert (tmp_path / f"{name}.out").read_bytes() == payload
        by_op = {}
        for msg in sent:
            if "config" in msg:
                by_op.setdefault(msg["op"], set()).add(
                    msg["config"]["verify_digest"])
        assert by_op == {"session_start": {True}, "resume": {True}}

    def test_refusals_come_from_one_validation(self, mode):
        """What a session cannot have is refused before anything runs —
        no agent spawned, no session opened — by the one validation,
        in the very words every other backend that can be asked uses
        (the table: ``tests/refusals.py``)."""
        said = {}
        if mode == "oneshot":
            for name, row in REFUSALS.items():
                if "procs" in row.backends:
                    said[name] = refusal("procs", row, config=FAST, **FLEET)
        else:
            with DaemonServer(["n1", "n2", "n3", "n4"], config=FAST,
                              cache_bytes=0, **FLEET) as server, \
                    DaemonServer(["n1", "n2", "n3"],
                                 config=FAST.with_(data_plane="evloop"),
                                 cache_bytes=0, **FLEET) as evloop:
                for name, row in REFUSALS.items():
                    if "daemon" in row.backends:
                        on = (evloop if row.ask.get("data_plane") == "evloop"
                              else server)
                        said[name] = refusal("daemon", row, server=on)
                assert server.sessions_completed == 0
                assert evloop.sessions_completed == 0
        assert live_children() == []
        assert said
        for name, words in said.items():
            for backend in REFUSALS[name].backends:
                if backend in ("local", "simnet"):
                    assert refusal(backend, REFUSALS[name],
                                   config=FAST) == words, name
