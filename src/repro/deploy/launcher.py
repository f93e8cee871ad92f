"""Windowed, fault-tolerant agent spawning (§III-B).

Kascade deploys with TakTuk's *windowed* mode: the root starts every
node itself, at most ``window`` launches in flight at a time.  The
adaptive tree is faster but a mid-tree failure orphans a whole subtree;
windowed launching confines a failure to the one node that failed —
which is why the paper picks it despite the extra latency.  This module
reproduces those semantics with real processes:

* the node program "copies itself" to every node it starts: the
  supervisor compiles the agent's modules once per fleet, one *fork
  server* per host boots on them, and every agent is a ``fork()`` of
  it (:mod:`repro.deploy.program`, :class:`ForkServer`);
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

import json
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
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

#: The exit code of an agent whose fork server died before reaping it:
#: its status went with its parent.  255, as :mod:`asyncio` reports a
#: child it could not wait for.
UNKNOWN_EXIT = 255


def spawn_env() -> dict:
    """The environment agents are spawned with: this checkout's ``src/``
    leads ``PYTHONPATH``, so whatever an agent loads from disk rather
    than from its program is the code that is supervising it."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class ProcessHandle:
    """One forked agent as its supervisor sees it: the part of
    :class:`subprocess.Popen` the launcher and the reaper use.

    The fork server reaps the child and reports its status
    (``returncode``, a signal as a negative code).  :meth:`kill` goes
    through a pidfd the server handed over with the pid: it names this
    process and no other, so a kill that comes after the child was
    reaped signals nobody, never whoever got the pid next.
    """

    def __init__(self, pid: int, pidfd: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        self._pidfd = pidfd
        self._cond = threading.Condition()

    def exited(self, code: int) -> None:
        """Record the exit status (the first one reported wins)."""
        with self._cond:
            if self.returncode is None:
                self.returncode = code
                os.close(self._pidfd)
                self._cond.notify_all()

    def poll(self) -> Optional[int]:
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        with self._cond:
            if not self._cond.wait_for(
                    lambda: self.returncode is not None, timeout):
                raise subprocess.TimeoutExpired(f"agent {self.pid}", timeout)
            return self.returncode

    def kill(self) -> None:
        with self._cond:
            if self.returncode is None:
                try:
                    signal.pidfd_send_signal(self._pidfd, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # exited; its status is on its way


class ForkServer:
    """``spawn(name, attempt)`` for one host: every agent is a ``fork()``
    of one warm agent.

    The one thing that starts agent processes: first spawns and retries
    of a one-shot and of a ``kascade serve`` fleet alike.  The agent's
    modules (:mod:`repro.deploy.program`; with the cache's when
    ``cached``) are compiled when the spawner is made — its
    ``program_bytes`` and ``program_build_s`` say what that cost.  The
    first spawn starts the *fork server*: ``python -S -c BOOT
    repro.cli.kascade agent argv --fork-server FD``, the program on its
    stdin, which loads what an agent runs and then only forks
    (:func:`repro.deploy.agent.serve_forks`); ``server_boot_s`` is the
    time from its start to its ``ready``.  Each spawn is a request on a
    private socket pair; the child runs ``kascade agent argv --name
    <name>`` plus ``agent_args(name, attempt)`` (how tests make
    specific attempts fail), and with ``stderr_dir`` writes its stderr
    to ``<dir>/<name>.stderr.log`` (the server's own to
    ``fork-server.stderr.log``) instead of ``/dev/null``.  Every forked
    agent's command line is the server's, so ``pgrep -f
    "repro.cli.kascade [a]gent"`` finds them all.

    A server that does not boot or answer within ``boot_timeout`` is
    killed.  Once the server is gone every spawn fails as a launch
    failure — pending or new — and its orphaned children, which nobody
    can reap for us now, report :data:`UNKNOWN_EXIT` when they end.
    :meth:`close` ends the server after it reaped every child and reaps
    the server, so the agents' CPU reaches this process's
    ``RUSAGE_CHILDREN``.
    """

    def __init__(
        self,
        python: str,
        argv: Sequence[str],
        *,
        cached: bool = False,
        stderr_dir: Optional[str] = None,
        agent_args: Optional[Callable[[str, int], Sequence[str]]] = None,
        boot_timeout: float = 15.0,
    ) -> None:
        t0 = time.monotonic()
        self._program = program.build(cached)
        self.program_bytes = len(self._program)
        self.program_build_s = time.monotonic() - t0
        self.server_boot_s = 0.0
        self._argv = [str(a) for a in argv]
        self._cmd = [python, "-S", "-c", program.BOOT, "repro.cli.kascade",
                     "agent", *self._argv]
        self._stderr_dir = stderr_dir
        self._agent_args = agent_args
        self._boot_timeout = boot_timeout
        self._lock = threading.Lock()
        #: The server process; ``None`` until the first spawn.
        self.proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._started_at = 0.0
        self._ready = threading.Event()
        #: Why spawning is over, once it is.
        self._gone: Optional[str] = None
        self._next_id = 0
        self._pending: Dict[int, list] = {}  # request id -> [event, answer]
        self._children: Dict[int, ProcessHandle] = {}  # pid -> handle

    # -- spawning --------------------------------------------------------

    def __call__(self, name: str, attempt: int) -> ProcessHandle:
        argv = [*self._argv, "--name", name]
        if self._agent_args is not None:
            argv += [str(a) for a in self._agent_args(name, attempt)]
        stderr = (None if self._stderr_dir is None else
                  os.path.join(self._stderr_dir, f"{name}.stderr.log"))
        self._boot()
        answer = [threading.Event(), None]
        with self._lock:
            if self._gone is None:
                rid = self._next_id
                self._next_id += 1
                self._pending[rid] = answer
                try:
                    self._sock.send(json.dumps({
                        "op": "spawn", "id": rid, "argv": argv,
                        "stderr": stderr}).encode())
                except OSError as exc:
                    del self._pending[rid]
                    self._gone = f"fork server unreachable: {exc}"
            if self._gone is not None:
                raise DeployError(self._gone)
        if not answer[0].wait(self._boot_timeout):
            self._lose(f"fork server did not answer within "
                       f"{self._boot_timeout}s")
        if not isinstance(answer[1], ProcessHandle):
            raise DeployError(answer[1] or self._gone)
        return answer[1]

    def _boot(self) -> None:
        """Start the server on the first call; wait for its ``ready``."""
        with self._lock:
            if self.proc is None and self._gone is None:
                try:
                    self._start()
                except OSError as exc:
                    self._gone = f"fork server failed to start: {exc}"
        remaining = self._started_at + self._boot_timeout - time.monotonic()
        if not self._ready.wait(max(0.0, remaining)):
            self._lose(f"fork server did not boot within "
                       f"{self._boot_timeout}s")

    def _start(self) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX,
                                         socket.SOCK_SEQPACKET)
        stderr = None
        try:
            with tempfile.TemporaryFile() as stdin:
                # A file, written before the server exists: a server
                # that never reads it keeps nobody waiting.
                stdin.write(self._program)
                stdin.seek(0)
                if self._stderr_dir is not None:
                    stderr = open(os.path.join(
                        self._stderr_dir, "fork-server.stderr.log"), "ab")
                self._started_at = time.monotonic()
                self.proc = subprocess.Popen(
                    [*self._cmd, "--fork-server", str(theirs.fileno())],
                    stdin=stdin, stdout=subprocess.DEVNULL,
                    stderr=stderr or subprocess.DEVNULL, env=spawn_env(),
                    pass_fds=(theirs.fileno(),))
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
            if stderr is not None:
                stderr.close()
        self._sock = ours
        self._reader = threading.Thread(target=self._read,
                                        name="fork-server", daemon=True)
        self._reader.start()

    # -- what the server says --------------------------------------------

    def _read(self) -> None:
        while True:
            try:
                data, ancillary, _flags, _addr = self._sock.recvmsg(
                    1 << 16, socket.CMSG_SPACE(4), socket.MSG_CMSG_CLOEXEC)
            except OSError:
                break
            if not data:
                break
            msg = json.loads(data)
            op = msg["op"]
            if op == "ready":
                self.server_boot_s = time.monotonic() - self._started_at
                self._ready.set()
            elif op == "spawned":
                pidfd = int.from_bytes(ancillary[0][2][:4], sys.byteorder)
                handle = ProcessHandle(msg["pid"], pidfd)
                with self._lock:
                    self._children[handle.pid] = handle
                self._answer(msg["id"], handle)
            elif op == "failed":
                self._answer(msg["id"], f"fork failed: {msg['error']}")
            elif op == "exit":
                with self._lock:
                    handle = self._children.pop(msg["pid"], None)
                if handle is not None:
                    handle.exited(int(msg["code"]))
        try:
            code = self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            code = None
        self._lose(f"fork server exited (code {code})")
        self._watch_orphans()

    def _answer(self, rid: int, answer) -> None:
        with self._lock:
            waiting = self._pending.pop(rid, None)
        if waiting is not None:
            waiting[1] = answer
            waiting[0].set()
        elif isinstance(answer, ProcessHandle):
            answer.kill()  # its spawn gave up on it

    def _lose(self, reason: str) -> None:
        """Spawning is over: fail whatever waits, stop a hung server."""
        with self._lock:
            if self._gone is None:
                self._gone = reason
            pending, self._pending = self._pending, {}
            proc = self.proc
        for waiting in pending.values():
            waiting[1] = self._gone
            waiting[0].set()
        self._ready.set()
        if proc is not None and proc.poll() is None:
            proc.kill()

    def _watch_orphans(self) -> None:
        """Children the dead server can no longer reap: report each one
        as :data:`UNKNOWN_EXIT` once its pidfd says it is gone."""
        with self._lock:
            orphans = {h._pidfd: h for h in self._children.values()}
        poller = select.poll()
        for fd in orphans:
            poller.register(fd, select.POLLIN)
        while orphans:
            for fd, _events in poller.poll():
                poller.unregister(fd)
                handle = orphans.pop(fd)
                with self._lock:
                    del self._children[handle.pid]
                handle.exited(UNKNOWN_EXIT)

    # -- the end -----------------------------------------------------------

    def close(self, grace: float = 5.0) -> None:
        """Kill the agents left (normally none: the fleet drained them),
        let the server reap them and exit, and reap the server."""
        with self._lock:
            proc, sock = self.proc, self._sock
            left = list(self._children.values())
            self._gone = self._gone or "fork server closed"
        if proc is None:
            return
        for handle in left:
            handle.kill()
        try:
            sock.shutdown(socket.SHUT_WR)  # the server's end of file
        except OSError:
            pass
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join()
        sock.close()


@dataclass
class NodeLaunch:
    """Launch record for one node: attempts, timing, and the live handle."""

    name: str
    ok: bool = False
    attempts: int = 0
    #: Seconds from launch-wave start to this node's last process start.
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
    #: Size of the compiled program the host's fork server was handed,
    #: and what building it cost the supervisor — once, before the first
    #: spawn, outside ``total_s`` (0 when the caller's own ``spawn``
    #: ships none).
    program_bytes: int = 0
    program_build_s: float = 0.0
    #: The fork server's start → ready: the one interpreter boot of the
    #: wave, inside ``total_s``; each node's ``startup_s`` is then its
    #: own fork → register.
    server_boot_s: float = 0.0

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
        if self.server_boot_s:
            parts.append(f", server boot {self.server_boot_s:.2f}s")
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
        attempts fail.  A :class:`ForkServer` carries ``program_bytes``,
        ``program_build_s`` and ``server_boot_s``; the report copies
        them.
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
            server_boot_s=getattr(self.spawn, "server_boot_s", 0.0),
        )

    def _launch_one(self, name: str, wait_registered: WaitFn,
                    t0: float) -> NodeLaunch:
        nl = NodeLaunch(name)
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            nl.attempts = attempt + 1
            try:
                proc = self.spawn(name, attempt)
            except (OSError, DeployError) as exc:
                nl.error = f"spawn failed: {exc}"
                continue
            # Stamped once the process exists: a wait for the host's
            # fork server to boot is the wave's, not this node's.
            nl.spawned_at = time.monotonic() - t0
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
