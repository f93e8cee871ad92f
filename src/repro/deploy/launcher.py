"""Windowed, fault-tolerant agent spawning (§III-B).

Kascade deploys with TakTuk's *windowed* mode: the root starts every
node itself, at most ``window`` launches in flight at a time.  The
adaptive tree is faster but a mid-tree failure orphans a whole subtree;
windowed launching confines a failure to the one node that failed —
which is why the paper picks it despite the extra latency.  This module
reproduces those semantics with real processes:

* the node program "copies itself" to every node it starts: the
  supervisor compiles the agent's modules once per fleet and each agent
  reads them from its stdin (:mod:`repro.deploy.program`,
  :func:`agent_spawner`);
* at most ``window`` agents are simultaneously in their spawn→register
  phase (a ``ThreadPoolExecutor`` bounds the in-flight set);
* an agent that exits before registering, or never registers within
  ``startup_timeout`` seconds, is killed and retried with exponential
  backoff, up to ``retries`` extra attempts;
* a node whose every attempt fails is *dropped*: the caller re-plans the
  chain around it before any payload byte flows — "launcher failures
  are handled before the transfer" (§III-B).

The launcher records wall-clock timings per node and for the whole wave,
so a real deployment can be scored against the closed-form predictions
of :mod:`repro.launch.models` (see
:func:`repro.launch.models.compare_measured` and
:meth:`LaunchReport.compare`).
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from . import program
from .protocol import DeployError

#: ``spawn(name, attempt)`` → a process handle exposing the small subset
#: of the :class:`subprocess.Popen` surface the launcher needs.
SpawnFn = Callable[[str, int], "ProcessHandle"]

#: ``wait_registered(name, timeout)`` → True once the agent said hello.
WaitFn = Callable[[str, float], bool]


def spawn_env() -> dict:
    """The environment agents and replicas are spawned with: this
    checkout's ``src/`` leads ``PYTHONPATH``, so a replica's
    ``-m repro...`` — and whatever an agent loads from disk rather than
    from its program — is the code that is supervising it."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def agent_spawner(
    python: str,
    argv: Sequence[str],
    *,
    cached: bool = False,
    stderr_dir: Optional[str] = None,
    agent_args: Optional[Callable[[str, int], Sequence[str]]] = None,
) -> "SpawnFn":
    """``spawn(name, attempt)`` running ``kascade agent argv --name <name>``
    under ``python``, from a program compiled here, once.

    The one function that starts an agent process: first spawns and
    retries of a one-shot and of a ``kascade serve`` fleet alike.  The
    agent's modules (:mod:`repro.deploy.program`; with the cache's when
    ``cached``) are compiled when the spawner is made — its
    ``program_bytes`` and ``program_build_s`` say what that cost — and
    each child finds them on its stdin: an anonymous file of its own,
    written before the child exists, so a child that never reads
    (stopped, dying on start) keeps nobody waiting.
    ``agent_args(name, attempt)`` appends per-spawn extras (how tests
    make specific attempts fail).
    With ``stderr_dir`` each agent's stderr goes to
    ``<dir>/<name>.stderr.log`` instead of ``/dev/null``.
    """
    env = spawn_env()
    t0 = time.monotonic()
    blob = program.build(cached)
    # ``repro.cli.kascade`` and ``agent`` stay argv elements of their
    # own: it is how ``pgrep``/``ps`` (and every leftover check) find one.
    base = [python, "-c", program.BOOT, "repro.cli.kascade", "agent", *argv]

    def spawn(name: str, attempt: int) -> subprocess.Popen:
        cmd = [*base, "--name", name]
        if agent_args is not None:
            cmd += [str(a) for a in agent_args(name, attempt)]
        with contextlib.ExitStack() as opened:
            stdin = opened.enter_context(tempfile.TemporaryFile())
            stdin.write(blob)
            stdin.seek(0)
            stderr = subprocess.DEVNULL if stderr_dir is None else (
                opened.enter_context(open(
                    os.path.join(stderr_dir, f"{name}.stderr.log"), "ab")))
            return subprocess.Popen(cmd, stdin=stdin,
                                    stdout=subprocess.DEVNULL,
                                    stderr=stderr, env=env)

    spawn.program_bytes = len(blob)
    spawn.program_build_s = time.monotonic() - t0
    return spawn


class ProcessHandle:
    """Duck-typed subset of ``subprocess.Popen`` used by the launcher."""

    pid: int

    def poll(self) -> Optional[int]:  # pragma: no cover - interface only
        raise NotImplementedError

    def kill(self) -> None:  # pragma: no cover - interface only
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> int:  # pragma: no cover
        raise NotImplementedError


@dataclass
class NodeLaunch:
    """Launch record for one node: attempts, timing, and the live handle."""

    name: str
    ok: bool = False
    attempts: int = 0
    #: Seconds from launch-wave start to this node's last spawn.
    spawned_at: Optional[float] = None
    #: Seconds from launch-wave start to successful registration.
    registered_at: Optional[float] = None
    error: Optional[str] = None
    #: The registered agent's process handle (``None`` when launch failed).
    proc: Optional[ProcessHandle] = field(default=None, repr=False)

    @property
    def startup_s(self) -> Optional[float]:
        """Spawn→registered latency of the successful attempt."""
        if self.spawned_at is None or self.registered_at is None:
            return None
        return self.registered_at - self.spawned_at


@dataclass
class LaunchReport:
    """Measured windowed-startup timings for one deployment wave.

    ``total_s`` is the wall clock from first spawn until every node
    either registered or was given up on — the measured counterpart of
    ``Launcher.startup_time()`` in :mod:`repro.launch.models`.
    """

    window: int
    total_s: float
    nodes: Dict[str, NodeLaunch]
    #: Size of the compiled program every agent was handed, and what
    #: building it cost the supervisor — once, before the first spawn,
    #: outside ``total_s`` (0 when the caller's own ``spawn`` ships none).
    program_bytes: int = 0
    program_build_s: float = 0.0

    @property
    def launched(self) -> List[str]:
        return [n for n, nl in self.nodes.items() if nl.ok]

    @property
    def failed(self) -> List[str]:
        return [n for n, nl in self.nodes.items() if not nl.ok]

    @property
    def retries(self) -> int:
        """Spawn attempts beyond the first, summed over all nodes."""
        return sum(max(0, nl.attempts - 1) for nl in self.nodes.values())

    def compare(self, launcher=None, *, rtt: float = 0.0):
        """Score these timings against an analytic launch model.

        Defaults to :class:`repro.launch.models.TakTukWindowed` with this
        report's window — the model Kascade's deployment mimics.  Returns
        a :class:`repro.launch.models.LaunchComparison`.
        """
        from ..launch.models import TakTukWindowed, compare_measured

        if launcher is None:
            launcher = TakTukWindowed(window=self.window)
        return compare_measured(self.total_s, launcher, len(self.nodes),
                                rtt=rtt)

    def summary(self) -> str:
        """One-line human rendering for CLI output."""
        slowest = max(
            (nl for nl in self.nodes.values() if nl.startup_s is not None),
            key=lambda nl: nl.startup_s, default=None,
        )
        parts = [
            f"{len(self.launched)}/{len(self.nodes)} agents "
            f"in {self.total_s:.2f}s (window {self.window}"
        ]
        if self.retries:
            parts.append(f", {self.retries} retr"
                         + ("y" if self.retries == 1 else "ies"))
        if slowest is not None:
            parts.append(f", slowest {slowest.name} {slowest.startup_s:.2f}s")
        if self.program_bytes:
            parts.append(f", program {self.program_bytes // 1024} KiB "
                         f"in {self.program_build_s:.2f}s")
        return "".join(parts) + ")"


class WindowedLauncher:
    """Spawn agents ``window`` at a time with per-node retry/backoff.

    Parameters
    ----------
    spawn:
        ``spawn(name, attempt)`` starts one agent process and returns its
        handle.  ``attempt`` counts from 0 so test hooks can make early
        attempts fail.  One that ships a compiled program
        (:func:`agent_spawner`) carries ``program_bytes`` and
        ``program_build_s``; the report copies them.
    window:
        Max simultaneous spawn→register phases in flight (§III-B).
    retries:
        Extra attempts per node after the first fails.
    backoff:
        Base seconds slept before retry ``k`` (grows as ``backoff * 2**k``).
    startup_timeout:
        Seconds one attempt may take from spawn to registration.
    poll_interval:
        Granularity of the register-or-died wait loop.
    """

    def __init__(
        self,
        spawn: SpawnFn,
        *,
        window: int = 8,
        retries: int = 1,
        backoff: float = 0.2,
        startup_timeout: float = 15.0,
        poll_interval: float = 0.05,
    ) -> None:
        if window < 1:
            raise DeployError(f"window must be >= 1, got {window}")
        if retries < 0:
            raise DeployError(f"retries must be >= 0, got {retries}")
        if startup_timeout <= 0:
            raise DeployError("startup_timeout must be positive")
        self.spawn = spawn
        self.window = window
        self.retries = retries
        self.backoff = backoff
        self.startup_timeout = startup_timeout
        self.poll_interval = poll_interval

    # ------------------------------------------------------------------

    def launch(self, names: Sequence[str], wait_registered: WaitFn) -> LaunchReport:
        """Start every node in ``names``; never raises for a failed node.

        Returns the full :class:`LaunchReport`; the caller decides what a
        missing node means (drop a receiver, abort if it was the head).
        """
        if not names:
            raise DeployError("nothing to launch")
        t0 = time.monotonic()
        with ThreadPoolExecutor(
            max_workers=self.window, thread_name_prefix="launch"
        ) as pool:
            futures = {
                name: pool.submit(self._launch_one, name, wait_registered, t0)
                for name in names
            }
            nodes = {name: fut.result() for name, fut in futures.items()}
        return LaunchReport(
            window=self.window,
            total_s=time.monotonic() - t0,
            nodes=nodes,
            program_bytes=getattr(self.spawn, "program_bytes", 0),
            program_build_s=getattr(self.spawn, "program_build_s", 0.0),
        )

    def _launch_one(self, name: str, wait_registered: WaitFn,
                    t0: float) -> NodeLaunch:
        nl = NodeLaunch(name)
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            nl.attempts = attempt + 1
            nl.spawned_at = time.monotonic() - t0
            try:
                proc = self.spawn(name, attempt)
            except (OSError, DeployError) as exc:
                nl.error = f"spawn failed: {exc}"
                continue
            outcome = self._await_registration(name, proc, wait_registered)
            if outcome is None:
                nl.registered_at = time.monotonic() - t0
                nl.ok = True
                nl.error = None
                nl.proc = proc
                return nl
            nl.error = outcome
            self._reap(proc)
        return nl

    def _await_registration(self, name: str, proc: ProcessHandle,
                            wait_registered: WaitFn) -> Optional[str]:
        """``None`` on success, else the failure reason.

        Watches the process *and* the registration: an agent that dies on
        startup fails the attempt immediately instead of burning the full
        startup timeout (that is what makes retry-with-backoff cheap).
        """
        deadline = time.monotonic() + self.startup_timeout
        while True:
            if wait_registered(name, self.poll_interval):
                return None
            rc = proc.poll()
            if rc is not None:
                return f"agent exited before registering (code {rc})"
            if time.monotonic() >= deadline:
                return (
                    f"agent never registered within {self.startup_timeout}s"
                )

    @staticmethod
    def _reap(proc: ProcessHandle) -> None:
        try:
            proc.kill()
        except (OSError, ProcessLookupError):
            pass
        try:
            proc.wait(timeout=5.0)
        except Exception:  # noqa: BLE001 - reaping is best-effort
            pass
