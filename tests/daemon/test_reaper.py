"""The one supervisor's reaper loop
(`repro.deploy.coordinator.supervise`): heartbeat silence with the
stall-forgiveness rule, and a fleet that does not wait on members it
already knows are gone."""

import os
import signal
import time
from contextlib import contextmanager

from repro.core.sources import PatternSource
from repro.core.tracing import TraceCollector
from repro.daemon.server import DaemonServer
from repro.deploy.coordinator import Coordinator, _Agent, drain

HEARTBEAT_TIMEOUT = 0.3


class Running:
    """A fleet process that is still alive."""

    def poll(self):
        return None


class Quiet:
    """A control channel nobody talks on."""

    def send(self, message):
        return True

    def close(self):
        pass


class OversleepingStop:
    """``stop.wait`` for a supervisor that lost the CPU on its first
    pass, then runs two prompt ones and stops."""

    def __init__(self, stall):
        self.stall = stall
        self.waits = 0

    def wait(self, _timeout):
        self.waits += 1
        if self.waits == 1:
            time.sleep(self.stall)
        return self.waits > 3


def test_a_stalled_reaper_pass_voids_the_clocks():
    """The loop slept past ``heartbeat_timeout``: every ``last_heard``
    is stale because *it* was not listening.  That is not evidence —
    no agent is declared dead, no open session is failed."""
    fleet = ("n1", "n2", "n3")
    server = DaemonServer(fleet, heartbeat_timeout=HEARTBEAT_TIMEOUT)
    coordinator = Coordinator()
    try:
        now = time.monotonic()
        for name in fleet:
            coordinator._agents[name] = _Agent(
                name=name, channel=Quiet(), host="127.0.0.1",
                pid=0, registered_at=now, last_heard=now)
        server._coordinator = coordinator
        server._procs = {name: Running() for name in fleet}
        server._stop_reaper = OversleepingStop(stall=2 * HEARTBEAT_TIMEOUT)
        failed = []
        server._fail_open_sessions = lambda name, *why: failed.append(
            (name, *why))

        server._reaper_loop()

        assert server._stop_reaper.waits == 4
        assert failed == []
        assert [coordinator.agent(n).dead_reason for n in fleet] == [None] * 3
    finally:
        coordinator.close()


def test_real_silence_still_fails_the_open_sessions():
    """The counterpart: a loop that *was* awake for a whole silence
    window declares the quiet agent dead and tells the sessions."""
    fleet = ("n1", "n2")
    server = DaemonServer(fleet, heartbeat_timeout=HEARTBEAT_TIMEOUT)
    coordinator = Coordinator()
    try:
        now = time.monotonic()
        for name in fleet:
            coordinator._agents[name] = _Agent(
                name=name, channel=Quiet(), host="127.0.0.1",
                pid=0, registered_at=now, last_heard=now)
        server._coordinator = coordinator
        server._procs = {name: Running() for name in fleet}
        failed = []
        server._fail_open_sessions = lambda name, *why: failed.append(name)

        def keep_n1_talking_until_n2_is_dead(_timeout):
            coordinator._agents["n1"].last_heard = time.monotonic()
            time.sleep(0.02)
            return bool(failed)

        server._stop_reaper.wait = keep_n1_talking_until_n2_is_dead
        began = time.monotonic()
        server._reaper_loop()
        assert failed == ["n2"]
        assert time.monotonic() - began >= HEARTBEAT_TIMEOUT
        assert coordinator.agent("n1").dead_reason is None
    finally:
        coordinator.close()


@contextmanager
def diagnosed(logs, trace):
    """On any failure, print every agent's stderr log under ``logs`` and
    the session's trace: pytest shows them beside the failure."""
    try:
        yield
    except BaseException:
        for log in sorted(logs.glob("*.stderr.log")):
            print(f"--- {log.name}\n{log.read_text(errors='replace')}")
        print(f"--- trace\n{trace.to_jsonl()}")
        raise


def test_shutdown_does_not_wait_out_its_grace_on_a_stopped_member(tmp_path):
    """A ``SIGSTOP``ped member cannot answer ``quit``.  A session's
    chaos stopped it, so the fleet knows: it is ``SIGKILL``ed at once
    (the one signal that works on a stopped child) and only the healthy
    members are drained — the whole grace is never sat out."""
    from repro.runtime import CrashPlan

    grace = 5.0
    trace = TraceCollector()
    server = DaemonServer(["n1", "n2", "n3"], cache_bytes=0,
                          startup_timeout=20.0, progress_every=64 * 1024,
                          heartbeat_timeout=1.0, stderr_dir=str(tmp_path))
    with diagnosed(tmp_path, trace):
        server.start()
        procs = dict(server._procs)
        try:
            result = server.submit(
                PatternSource(2 << 20), ["n2", "n3"],
                crashes=[CrashPlan("n3", 256 * 1024, "silent")],
                trace=trace, timeout=60.0)
            assert result.ok and not result.outcomes["n3"].ok, {
                n: o.error for n, o in result.outcomes.items()}
        finally:
            began = time.monotonic()
            server.shutdown(grace=grace)
            took = time.monotonic() - began
        assert took < grace / 2, (
            f"shutdown took {took:.2f}s of a {grace}s grace")
        assert procs["n3"].returncode == -signal.SIGKILL
        assert {procs[n].returncode for n in ("n1", "n2")} == {0}


def test_shutdown_kills_a_member_stopped_behind_its_back():
    """Nobody told the fleet this one was stopped, and supervision has
    not noticed yet: it gets its ``quit``, never closes its control
    socket, and is killed when the one fleet-wide deadline passes."""
    grace = 0.5
    server = DaemonServer(["n1", "n2"], cache_bytes=0, startup_timeout=20.0,
                          heartbeat_timeout=30.0)
    server.start()
    procs = dict(server._procs)
    os.kill(procs["n2"].pid, signal.SIGSTOP)
    began = time.monotonic()
    server.shutdown(grace=grace)
    took = time.monotonic() - began
    assert grace <= took < grace + 2.0
    assert procs["n2"].returncode == -signal.SIGKILL
    assert procs["n1"].returncode == 0


def test_drain_waits_on_the_control_eof_not_on_a_poll():
    """The reader thread sees an exiting agent's control socket close
    the instant it does; the drain waits on exactly that — one
    condition, one deadline for the whole fleet — and then reaps with a
    plain ``wait()``: no ``wait(timeout)`` whose doubling sleeps end
    every tear-down up to 50 ms late."""
    import threading

    class Exiting:
        """A process that is gone once its control socket closed."""

        def __init__(self, agent):
            self.agent, self.calls = agent, []

        def poll(self):
            return 0 if self.agent.gone else None

        def kill(self):
            self.calls.append("kill")

        def wait(self, timeout=None):
            self.calls.append(("wait", timeout))
            assert self.agent.gone
            return 0

    coordinator = Coordinator()
    try:
        now = time.monotonic()
        for name in ("n1", "n2"):
            coordinator._agents[name] = _Agent(
                name=name, channel=Quiet(), host="127.0.0.1",
                pid=0, registered_at=now, last_heard=now)
        procs = {n: Exiting(a) for n, a in coordinator._agents.items()}

        def close_sockets():
            for agent in coordinator._agents.values():
                with coordinator._cond:
                    agent.gone = True
                    coordinator._cond.notify_all()

        # Read the clock first: the timer's 0.1 s runs from its start.
        began = time.monotonic()
        threading.Timer(0.1, close_sockets).start()
        drain(coordinator, procs, ["n1", "n2"], grace=5.0)
        assert 0.1 <= time.monotonic() - began < 1.0
        assert [p.calls for p in procs.values()] == [[("wait", None)]] * 2
    finally:
        coordinator.close()
