"""Unit tests for the windowed launcher, with a fake process fabric.

No real processes here: ``spawn`` returns scripted handles and
``wait_registered`` consults a scripted registration table, so retry,
timeout, and windowing logic are tested in milliseconds.
"""

import threading
import time
from typing import Dict, Optional, Tuple

import pytest

from repro.deploy.launcher import (
    LaunchReport,
    NodeLaunch,
    WindowedLauncher,
)
from repro.deploy.protocol import DeployError
from repro.launch.models import LaunchComparison, TakTukWindowed


class FakeProc:
    def __init__(self, rc: Optional[int] = None) -> None:
        self.pid = 4242
        self._rc = rc
        self.killed = False

    def poll(self) -> Optional[int]:
        return self._rc

    def kill(self) -> None:
        self.killed = True
        if self._rc is None:
            self._rc = -9

    def wait(self, timeout: Optional[float] = None) -> int:
        return self._rc if self._rc is not None else 0


class FakeFabric:
    """Scripted cluster: per-(node, attempt) behaviour.

    ``"ok"`` registers after ``register_delay`` seconds; ``"die"`` exits
    with code 3 and never registers; ``"hang"`` neither registers nor
    exits.  Unscripted attempts default to ``"ok"``.
    """

    def __init__(self, script: Dict[Tuple[str, int], str] = None,
                 register_delay: float = 0.03) -> None:
        self.script = script or {}
        self.register_delay = register_delay
        self._lock = threading.Lock()
        self._registered_at: Dict[str, float] = {}
        self.spawn_log = []
        self.in_flight = 0
        self.max_in_flight = 0

    def spawn(self, name: str, attempt: int) -> FakeProc:
        behaviour = self.script.get((name, attempt), "ok")
        with self._lock:
            self.spawn_log.append((name, attempt))
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            if behaviour == "ok":
                self._registered_at[name] = (
                    time.monotonic() + self.register_delay)
        if behaviour == "die":
            return FakeProc(rc=3)
        return FakeProc()

    def wait_registered(self, name: str, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                reg = self._registered_at.get(name)
            if reg is not None and time.monotonic() >= reg:
                with self._lock:
                    self.in_flight -= 1
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)


class TestValidation:
    def test_degenerate_window_rejected(self):
        with pytest.raises(DeployError, match="window"):
            WindowedLauncher(lambda n, a: FakeProc(), window=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(DeployError, match="retries"):
            WindowedLauncher(lambda n, a: FakeProc(), retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(DeployError, match="startup_timeout"):
            WindowedLauncher(lambda n, a: FakeProc(), startup_timeout=0)

    def test_empty_launch_rejected(self):
        fabric = FakeFabric()
        launcher = WindowedLauncher(fabric.spawn)
        with pytest.raises(DeployError, match="nothing to launch"):
            launcher.launch([], fabric.wait_registered)


class TestHappyPath:
    def test_all_nodes_register(self):
        fabric = FakeFabric()
        launcher = WindowedLauncher(fabric.spawn, window=4,
                                    startup_timeout=2.0)
        names = [f"n{i}" for i in range(1, 9)]
        report = launcher.launch(names, fabric.wait_registered)
        assert sorted(report.launched) == sorted(names)
        assert report.failed == []
        assert report.retries == 0
        assert report.window == 4
        assert report.total_s > 0
        for nl in report.nodes.values():
            assert nl.ok and nl.attempts == 1
            assert nl.proc is not None
            assert nl.startup_s >= fabric.register_delay * 0.5

    def test_window_bounds_in_flight_spawns(self):
        fabric = FakeFabric(register_delay=0.05)
        launcher = WindowedLauncher(fabric.spawn, window=2,
                                    startup_timeout=2.0)
        report = launcher.launch([f"n{i}" for i in range(1, 9)],
                                 fabric.wait_registered)
        assert report.failed == []
        assert fabric.max_in_flight <= 2
        # 8 nodes / window 2 with a fixed register delay: at least 4 waves.
        assert report.total_s >= 4 * 0.05 * 0.9


class TestRetryAndFailure:
    def test_early_exit_is_retried_and_succeeds(self):
        fabric = FakeFabric(script={("n3", 0): "die"})
        launcher = WindowedLauncher(fabric.spawn, retries=1,
                                    startup_timeout=2.0)
        report = launcher.launch(["n1", "n2", "n3"], fabric.wait_registered)
        assert report.failed == []
        assert report.nodes["n3"].attempts == 2
        assert report.retries == 1
        assert ("n3", 0) in fabric.spawn_log and ("n3", 1) in fabric.spawn_log

    def test_persistent_death_exhausts_retries(self):
        fabric = FakeFabric(script={("n3", a): "die" for a in range(3)})
        launcher = WindowedLauncher(fabric.spawn, retries=2,
                                    startup_timeout=2.0)
        report = launcher.launch(["n1", "n3"], fabric.wait_registered)
        assert report.failed == ["n3"]
        nl = report.nodes["n3"]
        assert nl.attempts == 3
        assert not nl.ok and nl.proc is None
        assert "exited before registering" in nl.error
        assert "code 3" in nl.error

    def test_never_registering_hits_startup_timeout(self):
        fabric = FakeFabric(script={("n2", 0): "hang"})
        launcher = WindowedLauncher(fabric.spawn, retries=0,
                                    startup_timeout=0.15)
        report = launcher.launch(["n1", "n2"], fabric.wait_registered)
        assert report.failed == ["n2"]
        assert "never registered within" in report.nodes["n2"].error

    def test_failed_attempts_are_reaped(self):
        procs = []

        def spawn(name, attempt):
            proc = FakeProc()  # hangs: never registers, never exits
            procs.append(proc)
            return proc

        fabric = FakeFabric()
        launcher = WindowedLauncher(spawn, retries=1,
                                    startup_timeout=0.1)
        report = launcher.launch(["n2"], fabric.wait_registered)
        assert report.failed == ["n2"]
        assert len(procs) == 2 and all(p.killed for p in procs)

    def test_spawn_exception_counts_as_attempt(self):
        calls = []

        def flaky_spawn(name, attempt):
            calls.append(attempt)
            if attempt == 0:
                raise OSError("fork: resource temporarily unavailable")
            fabric._registered_at[name] = time.monotonic()
            return FakeProc()

        fabric = FakeFabric()
        launcher = WindowedLauncher(flaky_spawn, retries=1,
                                    startup_timeout=2.0)
        report = launcher.launch(["n2"], fabric.wait_registered)
        assert report.failed == []
        assert calls == [0, 1]
        assert report.nodes["n2"].attempts == 2


class TestLaunchReport:
    def _report(self) -> LaunchReport:
        return LaunchReport(window=4, total_s=0.5, nodes={
            "n1": NodeLaunch("n1", ok=True, attempts=1,
                             spawned_at=0.0, registered_at=0.2),
            "n2": NodeLaunch("n2", ok=True, attempts=3,
                             spawned_at=0.1, registered_at=0.45),
            "n3": NodeLaunch("n3", ok=False, attempts=2, error="boom"),
        })

    def test_properties(self):
        report = self._report()
        assert report.launched == ["n1", "n2"]
        assert report.failed == ["n3"]
        assert report.retries == 3  # (1-1) + (3-1) + (2-1)

    def test_compare_defaults_to_taktuk_windowed(self):
        cmp = self._report().compare()
        assert isinstance(cmp, LaunchComparison)
        assert isinstance(cmp.launcher, TakTukWindowed)
        assert cmp.launcher.window == 4
        assert cmp.n_nodes == 3
        assert cmp.measured_s == 0.5

    def test_compare_accepts_explicit_model(self):
        model = TakTukWindowed(window=2, per_node=0.01)
        cmp = self._report().compare(model, rtt=1e-3)
        assert cmp.launcher is model
        assert cmp.predicted_s == pytest.approx(
            model.startup_time(3, 1e-3))

    def test_summary_mentions_counts_retries_and_slowest(self):
        line = self._report().summary()
        assert "2/3 agents" in line
        assert "window 4" in line
        assert "3 retries" in line
        assert "slowest n2" in line  # 0.35s beats n1's 0.2s
