"""The host's fork server (``launcher.ForkServer`` and
``agent.serve_forks``): every agent is a ``fork()`` of one warm agent,
and every failure the launcher and the reaper knew from exec'd agents
looks the same from a forked one.

Each case runs a real fleet.  What the fork server adds is checked where
it shows: the parent of each agent (``/proc/<pid>/stat``), the exit
codes its handles report, the processes that carry this test's
environment tag afterwards, and the CPU that reaches this process's
``RUSAGE_CHILDREN``.
"""

import hashlib
import os
import resource
import signal
import uuid
from typing import List, NamedTuple, Optional

import pytest

from repro import run_broadcast
from repro.core import KascadeConfig
from repro.core.sources import PatternSource
from repro.core.tracing import DETECTOR_PROC_EXIT, FAILOVER
from repro.daemon import DaemonServer
from repro.deploy import launcher

FAST = KascadeConfig(chunk_size=64 * 1024, buffer_chunks=8, io_timeout=0.5,
                     ping_timeout=0.4, connect_timeout=1.0,
                     report_timeout=6.0)
FLEET = dict(config=FAST, startup_timeout=20.0, progress_every=128 * 1024)
TAG = "KASCADE_FORK_SERVER_TEST"
TICK = os.sysconf("SC_CLK_TCK")


def stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name: state, ppid, …"""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def cpu_s(pid: int) -> float:
    """user + system CPU of a live process."""
    fields = stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / TICK if fields else 0.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tagged(tag: str, *, zombies: bool = True) -> List[int]:
    """Processes whose environment carries ``TAG=tag``."""
    needle = f"{TAG}={tag}".encode()
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if needle not in f.read().split(b"\0"):
                    continue
        except OSError:
            continue
        fields = stat_fields(int(pid))
        if fields and (zombies or fields[0] != "Z"):
            found.append(int(pid))
    return found


class Fork(NamedTuple):
    spawner: launcher.ForkServer
    name: str
    attempt: int
    handle: launcher.ProcessHandle
    #: The parent ``/proc`` named just after the fork (``None``: gone).
    parent: Optional[int]


@pytest.fixture
def forks(monkeypatch):
    """Every agent forked during the test, in spawn order; the run's
    processes carry a tag of their own in their environment."""
    monkeypatch.setenv(TAG, uuid.uuid4().hex)
    seen: List[Fork] = []
    fork = launcher.ForkServer.__call__

    def recording(spawner, name, attempt):
        handle = fork(spawner, name, attempt)
        fields = stat_fields(handle.pid)
        seen.append(Fork(spawner, name, attempt, handle,
                         int(fields[1]) if fields else None))
        return handle

    monkeypatch.setattr(launcher.ForkServer, "__call__", recording)
    return seen


def digest(source: PatternSource) -> str:
    return hashlib.sha256(source.expected_bytes(0, source.size)).hexdigest()


# ----------------------------------------------------------------------
# Every failure as it was
# ----------------------------------------------------------------------

def test_a_death_on_start_is_code_3_and_its_retry_uses_the_same_server(
        forks):
    """``--die-on-start`` exits 3 before registering: the launcher says
    so in its unchanged words, and the retry is forked by the server
    that forked the first attempt."""
    dies = {("n2", 0), ("n3", 0), ("n3", 1)}
    with DaemonServer(["n1", "n2", "n3"], spawn_retries=1, backoff=0.05,
                      agent_args=lambda name, attempt: (
                          ["--die-on-start"] if (name, attempt) in dies
                          else []),
                      **FLEET) as server:
        report = server.launch_report
        server_pid = server._spawner.proc.pid
    assert sorted(report.launched) == ["n1", "n2"]
    assert report.nodes["n2"].attempts == 2
    assert report.nodes["n3"].error == \
        "agent exited before registering (code 3)"
    assert sorted((f.name, f.attempt) for f in forks) == \
        [("n1", 0), ("n2", 0), ("n2", 1), ("n3", 0), ("n3", 1)]
    assert {f.spawner for f in forks} == {server._spawner}
    for f in forks:
        assert f.handle.returncode == \
            (3 if (f.name, f.attempt) in dies else 0), f
        assert f.parent in (server_pid, None), f  # None: already reaped
    assert [f.parent for f in forks if (f.name, f.attempt) not in dies] \
        == [server_pid, server_pid]


def test_a_sigkill_mid_transfer_is_minus_9_and_a_proc_exit_failover(forks):
    source = PatternSource(8 << 20)
    with DaemonServer(["n1", "n2", "n3", "n4"], **FLEET) as server:
        result = server.submit(source, ["n2", "n3", "n4"], trace=True,
                               crashes=[("n3", 1 << 20, "close")],
                               timeout=60.0)
        victim = server._procs["n3"]
        assert victim.wait(timeout=10.0) == -signal.SIGKILL
    assert result.ok, result.outcomes
    assert [result.outcomes[n].digest for n in ("n2", "n4")] == \
        [digest(source)] * 2
    reaped = [e for e in result.trace.of_type(FAILOVER)
              if e.node == "coordinator" and e.detector == DETECTOR_PROC_EXIT]
    assert [e.peer for e in reaped] == ["n3"]
    assert reaped[0].detail == "proc-exit: signal SIGKILL"


def test_a_sigstopped_agent_is_killed_by_drain(forks):
    source = PatternSource(8 << 20)
    with DaemonServer(["n1", "n2", "n3", "n4"], heartbeat_interval=0.2,
                      **FLEET) as server:
        result = server.submit(source, ["n2", "n3", "n4"],
                               crashes=[("n3", 1 << 20, "silent")],
                               timeout=60.0)
        stopped = server._procs["n3"]
        assert stat_fields(stopped.pid)[0] == "T"
        assert stopped.poll() is None
    assert result.ok, result.outcomes
    assert stopped.returncode == -signal.SIGKILL
    assert {f.name: f.handle.returncode for f in forks} == \
        {"n1": 0, "n2": 0, "n3": -signal.SIGKILL, "n4": 0}


def test_a_fork_server_killed_mid_launch_fails_the_pending_nodes(forks):
    """The server dies with two agents registered and two to go: those
    two are launch failures — their retry fails at once, there is no
    second server — and the session is planned around them.  The two
    that registered outlive their parent; their status went with it, so
    they end as ``UNKNOWN_EXIT``, and nothing of the run is left."""
    source = PatternSource(1 << 20)
    server = None

    def kill_the_server_at_n3(name, attempt):
        if name == "n3":
            server._spawner.proc.kill()
            server._spawner.proc.wait()
        return []

    server = DaemonServer(["n1", "n2", "n3", "n4"], window=1,
                          spawn_retries=1, backoff=0.05,
                          agent_args=kill_the_server_at_n3, **FLEET)
    with server:
        report = server.launch_report
        result = server.submit(source, ["n2", "n3", "n4"], trace=True,
                               timeout=60.0)
    assert sorted(report.launched) == ["n1", "n2"]
    for name in ("n3", "n4"):
        nl = report.nodes[name]
        assert nl.attempts == 2, nl
        assert nl.error.startswith("spawn failed: fork server "), nl
    assert not result.ok  # launch failures are not planned deaths
    assert result.outcomes["n2"].ok
    assert result.outcomes["n2"].digest == digest(source)
    for name in ("n3", "n4"):
        assert "launch failed" in result.outcomes[name].error
    assert sorted(f.node for f in result.report.failures
                  if f.detected_by == "launcher") == ["n3", "n4"]
    assert [f.name for f in forks] == ["n1", "n2"]
    assert [f.handle.returncode for f in forks] == \
        [launcher.UNKNOWN_EXIT] * 2
    assert tagged(os.environ[TAG], zombies=False) == []


# ----------------------------------------------------------------------
# Nothing escapes, nothing goes uncounted
# ----------------------------------------------------------------------

def fleet_cpu_s(server: DaemonServer) -> float:
    """The CPU a live fleet has used so far — its agents' and its fork
    server's own: a lower bound on what reaping them all must charge."""
    return sum(cpu_s(pid) for pid in [server._spawner.proc.pid, *(
        h.pid for h in server._procs.values())])


def assert_nothing_escaped(forks, spawner, fleet_cpu, spent) -> None:
    """No process of the run is left (not even a zombie); every agent
    was a child of the one fork server; the server was reaped, after a
    clean exit; and the CPU of the server *and* of its agents is in this
    process's ``RUSAGE_CHILDREN``."""
    assert tagged(os.environ[TAG]) == []
    assert {f.spawner for f in forks} == {spawner}
    assert {f.parent for f in forks} == {spawner.proc.pid}
    assert spawner.proc.returncode == 0
    assert 0 < fleet_cpu <= spent


def test_a_procs_one_shot_leaves_nothing_and_counts_everything(
        forks, monkeypatch):
    sampled = []
    shutdown = DaemonServer.shutdown

    def sampling(self, *args, **kwargs):
        sampled.append((self._spawner, fleet_cpu_s(self)))
        shutdown(self, *args, **kwargs)

    monkeypatch.setattr(DaemonServer, "shutdown", sampling)
    source = PatternSource(4 << 20)
    before = children_cpu_s()
    result = run_broadcast(source, ["n2", "n3", "n4"], backend="procs",
                           timeout=60.0, **FLEET)
    spent = children_cpu_s() - before
    assert result.ok, result.outcomes
    [(spawner, fleet_cpu)] = sampled
    assert sorted(f.name for f in forks) == ["n1", "n2", "n3", "n4"]
    assert_nothing_escaped(forks, spawner, fleet_cpu, spent)


def test_a_daemon_shutdown_leaves_nothing_and_counts_everything(forks):
    before = children_cpu_s()
    server = DaemonServer(["n1", "n2", "n3"], **FLEET).start()
    try:
        for seed in range(2):
            assert server.submit(PatternSource(4 << 20, seed=seed),
                                 timeout=60.0).ok
        fleet_cpu = fleet_cpu_s(server)
        # Every fork copied one thread: the server never starts another.
        with open(f"/proc/{server._spawner.proc.pid}/status") as f:
            assert "Threads:\t1\n" in f.read()
    finally:
        server.shutdown()
    spent = children_cpu_s() - before
    assert sorted(f.name for f in forks) == ["n1", "n2", "n3"]
    assert_nothing_escaped(forks, server._spawner, fleet_cpu, spent)
