"""The daemon's fleet reaper is the procs backend's loop
(`repro.deploy.coordinator.supervise`), hardening included."""

import time

from repro.daemon.server import DaemonServer
from repro.deploy.coordinator import Coordinator, _Agent
from repro.runtime.transport import Address

HEARTBEAT_TIMEOUT = 0.3


class Running:
    """A fleet process that is still alive."""

    def poll(self):
        return None


class Quiet:
    """A control channel nobody talks on."""

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
                name=name, channel=Quiet(), address=Address("127.0.0.1", 1),
                pid=0, registered_at=now, last_heard=now, ports=(1,))
        server._coordinator = coordinator
        server._procs = {name: Running() for name in fleet}
        server._stop_reaper = OversleepingStop(stall=2 * HEARTBEAT_TIMEOUT)
        failed = []
        server._fail_open_sessions = lambda name, reason: failed.append(
            (name, reason))

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
                name=name, channel=Quiet(), address=Address("127.0.0.1", 1),
                pid=0, registered_at=now, last_heard=now, ports=(1,))
        server._coordinator = coordinator
        server._procs = {name: Running() for name in fleet}
        failed = []
        server._fail_open_sessions = lambda name, reason: failed.append(name)

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
