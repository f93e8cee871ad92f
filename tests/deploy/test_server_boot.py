"""How a host's fork server boots: once per fleet, from this checkout,
and never in the launcher's way.

Everything runs real fleets through ``DaemonServer``, the one user of
``ForkServer``, except the case of a caller's own ``spawn``.
"""

import hashlib
import os
import stat
import textwrap
import time

import pytest

from repro.core import KascadeConfig
from repro.core.sources import BytesSource
from repro.daemon import DaemonServer, LateJoin
from repro.deploy import launcher
from repro.deploy.launcher import WindowedLauncher

FAST = KascadeConfig(chunk_size=64 * 1024, buffer_chunks=8, io_timeout=0.5,
                     ping_timeout=0.4, connect_timeout=1.0,
                     report_timeout=6.0)
PAYLOAD = bytes((i * 13) % 256 for i in range(1 << 20))
DIGEST = hashlib.sha256(PAYLOAD).hexdigest()


def test_one_server_per_fleet_across_a_retry_and_a_late_join(monkeypatch):
    """Four spawns — a ``--die-on-start`` attempt, its retry and two
    more — and a session with a late joiner: one interpreter boot."""
    starts = []
    real = launcher.ForkServer._start

    def counted(self):
        starts.append(self)
        real(self)

    monkeypatch.setattr(launcher.ForkServer, "_start", counted)
    paced = FAST.with_(bandwidth_limit=4 * (1 << 20))
    with DaemonServer(
            ["n1", "n2", "n3"], config=paced, cache_bytes=8 << 20,
            startup_timeout=20.0, spawn_retries=1,
            agent_args=lambda name, attempt: (
                ["--die-on-start"] if (name, attempt) == ("n2", 0) else []),
    ) as server:
        report = server.launch_report
        result = server.submit(
            BytesSource(PAYLOAD), ["n2"],
            late_join=[LateJoin("n3", after_bytes=256 * 1024)], timeout=60.0)
    # The --die-on-start retry and its backoff are what they were.
    assert report.nodes["n2"].attempts == 2 and report.retries == 1
    assert sorted(report.launched) == ["n1", "n2", "n3"]
    assert result.ok and result.outcomes["n3"].digest == DIGEST
    assert len(starts) == 1
    # And the launch says what the one boot cost.
    assert report.server_boot_s > 0
    assert f"server boot {report.server_boot_s:.2f}s" in report.summary()


def test_a_callers_own_spawn_reports_no_server_boot():
    registered = set()

    class Proc:
        pid = 1

        def poll(self):
            return None

    def spawn(name, attempt):
        registered.add(name)
        return Proc()

    report = WindowedLauncher(spawn).launch(
        ["n1"], lambda name, timeout: name in registered)
    assert report.server_boot_s == 0.0
    assert "server boot" not in report.summary()


def test_a_fork_server_that_never_boots_fails_in_one_timeout(tmp_path):
    """A server that never says ``ready`` (stopped, wedged before its
    imports end) is killed ``startup_timeout`` after it started, every
    spawn waiting on it fails as a launch failure, and a retry fails at
    once instead of waiting again — one host, one server, one
    timeout."""
    deaf = tmp_path / "deaf"
    deaf.write_text(textwrap.dedent(f"""\
        #!/bin/sh
        # Never answers on its socket.
        echo $$ > {tmp_path}/deaf.pid
        exec sleep 60
        """))
    deaf.chmod(deaf.stat().st_mode | stat.S_IXUSR)
    t0 = time.monotonic()
    with DaemonServer(["n1", "n2"], config=FAST, python=str(deaf),
                      startup_timeout=1.0, spawn_retries=1) as server:
        report = server.launch_report
        assert server.registered == []
    took = time.monotonic() - t0
    assert sorted(report.failed) == ["n1", "n2"]
    for nl in report.nodes.values():
        assert nl.attempts == 2
        assert nl.error == "spawn failed: fork server did not boot " \
                           "within 1.0s", nl.error
    assert 1.0 <= report.total_s <= took < 6.0
    pid = int((tmp_path / "deaf.pid").read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
