"""The supervisor's control endpoint: registration, liveness, tear-down.

A supervisor runs *sessions* on a *fleet* of agents.  This module holds
the half that knows nothing about sessions: :class:`Coordinator` (the
control socket agents register on, one reader thread each, every
session-scoped message handed to a router), :func:`supervise` (liveness:
``waitpid`` for real process death — the host's fork server reaps, the
agent's :class:`~repro.deploy.launcher.ProcessHandle` reports —,
control-socket heartbeats for silent hangs) and :func:`drain` (the one tear-down: ``quit`` the healthy,
``SIGKILL`` the rest — including agents a silent fault froze — and
leave no process behind).  The session half is
:class:`repro.daemon.server.DaemonServer`; ``run_broadcast(...,
backend="procs")`` is one of its fleets launched for a single session
and shut down after it (:meth:`repro.session.BroadcastSession.
_run_fleet`).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import tracing
from ..core.sources import FileSource, Source
from ..core.tracing import NULL_TRACER, TraceCollector
from ..runtime.registry import Address
from ..runtime.result import NodeOutcome  # noqa: F401 - re-exported
from .launcher import ProcessHandle
from .protocol import ControlChannel, DeployError

#: Seconds a new control connection has to say ``hello`` before it is
#: dropped.
HELLO_TIMEOUT = 10.0

#: Address the control socket binds: every fleet's agents run on this
#: host and dial it there.
CONTROL_HOST = "127.0.0.1"


def rebase_events(status: dict, wall0: float) -> list:
    """Agent trace events shifted onto the caller's time base.

    Agents stamp events relative to their own collector; the status
    carries that collector's wall-clock epoch, so on one host (or
    NTP-disciplined hosts) the rebased events interleave correctly.
    ``wall0`` is *the run's* epoch — for a one-shot fleet that is the
    broadcast start, for a submit into a warm one the session start,
    so a fleet agent's tenth session rebases against session
    ten's zero, not the agent's process birth.
    """
    trace_text = status.get("trace")
    if not trace_text:
        return []
    shift = float(status.get("trace_epoch", wall0)) - wall0
    events = TraceCollector.from_jsonl(trace_text)
    return [
        tracing.TraceEvent(
            seq=e.seq, t=e.t + shift, type=e.type, node=e.node,
            offset=e.offset, peer=e.peer, detail=e.detail,
            detector=e.detector,
        )
        for e in events
    ]


#: How an agent's exit status renders in failure reasons and trace events.
def describe_exit(code: int) -> str:
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = str(-code)
        return f"proc-exit: signal {name}"
    return f"proc-exit: code {code}"


def materialize_source(source: Source) -> Tuple[str, Callable[[], None]]:
    """A filesystem path agents can open, plus its cleanup.

    A :class:`FileSource` is passed by path; anything else (bytes,
    pattern, stdin) is spooled to a temp file once — the head agent
    needs a seekable file anyway so PGET recovery works (§III-D2).
    """
    if isinstance(source, FileSource):
        return source.path, lambda: None
    import tempfile  # only a non-file source is spooled

    fd, path = tempfile.mkstemp(prefix="kascade-src-")
    try:
        with os.fdopen(fd, "wb") as spool:
            while True:
                chunk = source.read_chunk(1 << 20)
                if not chunk:
                    break
                spool.write(chunk)
    except BaseException:
        os.unlink(path)
        raise
    return path, lambda: os.unlink(path)


def supervise(
    coordinator: "Coordinator",
    procs: Dict[str, ProcessHandle],
    supervised: Sequence[str],
    stop: threading.Event,
    *,
    heartbeat_timeout: float,
    on_dead: Callable[[str, str, str, str], None],
) -> None:
    """waitpid + heartbeat supervision (the §III-D coordinator view).

    The one reaper loop, run over a fleet until ``stop`` is set.  An
    agent only exits when told to ``quit`` — after this loop has stopped
    — so any exit seen here is a death, found by the ``proc-exit``
    detector: categorically different from the peers' timeout+ping
    detection, and only available because nodes are real processes.
    Every declared death is reported once, as
    ``on_dead(name, reason, detector, detail)``.
    """
    # Heartbeat silence is only evidence when this loop actually ran
    # to observe it.  On a saturated host the coordinator can lose
    # the CPU for longer than heartbeat_timeout; declaring the whole
    # fleet dead on wake-up would be a false positive, so a stalled
    # pass voids the silence clocks instead of reading them.
    stall_limit = heartbeat_timeout / 2

    def declare_dead(name: str, reason: str, detector: str,
                     detail: str) -> None:
        if coordinator.mark_dead(name, reason):
            on_dead(name, reason, detector, detail)

    # Launch storms starve everyone: interpreters starting up soak
    # the CPU, so ``last_heard`` stamps from before this loop began
    # reflect the launcher's contention, not agent health.  Void
    # them — death is only declared after a silence window this
    # loop was actually awake to observe.
    coordinator.forgive_silence(supervised)
    last_pass = time.monotonic()
    while not stop.wait(0.05):
        now = time.monotonic()
        stalled = now - last_pass > stall_limit
        last_pass = now
        for name in supervised:
            proc = procs.get(name)
            rc = proc.poll() if proc is not None else None
            if rc is not None:
                reason = describe_exit(rc)
                declare_dead(name, reason, tracing.DETECTOR_PROC_EXIT, reason)
        if stalled:
            coordinator.forgive_silence(supervised)
            continue
        for name in coordinator.silent_agents(supervised, heartbeat_timeout):
            declare_dead(
                name, f"control-heartbeat silent > {heartbeat_timeout}s",
                tracing.DETECTOR_PING, "control-heartbeat lost")


def drain(coordinator: "Coordinator", procs: Dict[str, ProcessHandle],
          healthy: Sequence[str], grace: float) -> None:
    """Guaranteed cleanup: no agent outlives its fleet.

    ``healthy`` agents (alive as far as supervision knows, never hit by
    a fault, no session left waiting on them) are *drained*: they get a
    ``quit`` on the control socket and up to ``grace`` seconds — one
    deadline for the whole fleet — to exit on their own, so a clean run
    ends with exit code 0 everywhere instead of a blanket ``SIGKILL``
    masquerading as a crash in process accounting.  Everything else —
    stopped by a fault, hung, declared dead — is killed at once: ``SIGKILL``
    rather than ``SIGTERM`` because a stopped process cannot run a
    handler; kill is the one signal that works on a ``SIGSTOP``ped
    child.  Drained agents that overstay the grace window are killed
    too — graceful is a courtesy, not a liveness dependency.

    Nothing here polls: an exiting agent closes its control socket, the
    per-agent reader thread sees that EOF at once, and the wait is on
    that; for a process that is on its way out (or was killed) a plain
    ``wait()`` then takes the exit status the fork server reaped.
    """
    quitting = []
    for name, proc in procs.items():
        if proc.poll() is not None:
            continue
        if name in healthy and coordinator.send(name, {"op": "quit"}):
            quitting.append(name)
        else:
            proc.kill()
    for name in coordinator.wait_gone(quitting, time.monotonic() + grace):
        procs[name].kill()
    for proc in procs.values():
        proc.wait()


@dataclass
class _Agent:
    """Supervisor-side view of one registered agent.

    Membership only: what an agent did in a session (acks, progress,
    status) lives with that session.
    """

    name: str
    channel: ControlChannel
    #: Host peers dial (each session binds its own ports there).
    host: str
    registered_at: float
    last_heard: float
    dead_reason: Optional[str] = None
    #: The control socket hit EOF: the process is gone, or going.
    gone: bool = False


class Coordinator:
    """Control-plane endpoint: registration, liveness, message routing.

    One reader thread per agent connection keeps the implementation
    obvious (a deployment has tens of agents, not tens of thousands);
    all shared state is guarded by one condition variable that doubles
    as the wake-up for ``wait_registered`` / ``wait_gone``.  Everything
    an agent says beyond ``hello`` and ``heartbeat`` is session-scoped
    and handed to ``router(agent, message)``.
    """

    def __init__(
        self,
        *,
        router: Callable[[_Agent, dict], None] = lambda agent, msg: None,
        tracer=NULL_TRACER,
    ) -> None:
        self._router = router
        self._tracer = tracer
        self._cond = threading.Condition()
        self._agents: Dict[str, _Agent] = {}
        #: Every accepted connection's channel and reader thread, hello
        #: or not: what :meth:`close` ends.
        self._served: List[Tuple[ControlChannel, threading.Thread]] = []
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((CONTROL_HOST, 0))
        self._sock.listen(64)
        self.address = Address(*self._sock.getsockname()[:2])
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coord-accept", daemon=True
        )
        self._accept_thread.start()

    # -- connection handling --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return
            channel = ControlChannel(conn)
            thread = threading.Thread(
                target=self._serve, args=(channel,),
                name="coord-agent", daemon=True,
            )
            with self._cond:
                if self._closed:
                    channel.close()
                    return
                self._served = [(c, t) for c, t in self._served
                                if t.is_alive()]
                self._served.append((channel, thread))
                thread.start()

    def _serve(self, channel: ControlChannel) -> None:
        try:
            hello = channel.recv(timeout=HELLO_TIMEOUT)
        except (TimeoutError, DeployError):
            channel.close()
            return
        if hello is None or hello.get("op") != "hello":
            channel.close()
            return
        name = str(hello["name"])
        agent = _Agent(
            name=name,
            channel=channel,
            host=str(hello["host"]),
            registered_at=time.monotonic(),
            last_heard=time.monotonic(),
        )
        with self._cond:
            # Latest registration wins: a retried spawn replaces the
            # attempt the launcher already killed.
            self._agents[name] = agent
            self._cond.notify_all()
        self._tracer.emit(tracing.CONNECT, "coordinator", peer=name,
                          detail=f"register pid={hello['pid']}")
        self._read_loop(agent)

    def _read_loop(self, agent: _Agent) -> None:
        while not self._closed:
            try:
                msg = agent.channel.recv(timeout=0.5)
            except TimeoutError:
                continue
            except DeployError:
                break
            if msg is None:
                break  # EOF: death vs drained exit is the caller's call
            with self._cond:
                agent.last_heard = time.monotonic()
            if msg["op"] != "heartbeat":
                self._router(agent, msg)
        with self._cond:
            agent.gone = True
            self._cond.notify_all()

    # -- queries used by the launcher / supervisor ----------------------

    def wait_registered(self, name: str, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: name in self._agents, timeout)

    def agent(self, name: str) -> Optional[_Agent]:
        with self._cond:
            return self._agents.get(name)

    def registered_names(self) -> List[str]:
        with self._cond:
            return list(self._agents)

    def mark_dead(self, name: str, reason: str) -> bool:
        """Record a supervised death; False if already declared."""
        with self._cond:
            agent = self._agents.get(name)
            if agent is None or agent.dead_reason is not None:
                return False
            agent.dead_reason = reason
            return True

    def send(self, name: str, message: dict) -> bool:
        agent = self.agent(name)
        return agent is not None and agent.channel.send(message)

    def wait_gone(self, names: Sequence[str], deadline: float) -> List[str]:
        """Block until every named agent's control socket hit EOF;
        returns the names still connected when ``deadline`` passes."""
        def _connected() -> List[str]:
            return [n for n in names if not self._agents[n].gone]

        with self._cond:
            self._cond.wait_for(
                lambda: not _connected(),
                timeout=max(0.0, deadline - time.monotonic()))
            return _connected()

    def silent_agents(self, names: Sequence[str], max_age: float) -> List[str]:
        """Registered, live agents whose control plane went quiet."""
        now = time.monotonic()
        with self._cond:
            return [
                n for n in names
                if (a := self._agents.get(n)) is not None
                and a.dead_reason is None
                and now - a.last_heard > max_age
            ]

    def forgive_silence(self, names: Sequence[str]) -> None:
        """Reset the silence clocks after a supervision stall.

        If the coordinator process itself was starved off the CPU (a
        saturated single-core host running dozens of agents), every
        ``last_heard`` is stale because *we* were not listening, not
        because the agents stopped talking.  Evidence accumulated while
        the supervisor was asleep is void — restart the clocks and let
        a full, actually-observed window elapse before declaring death.
        """
        now = time.monotonic()
        with self._cond:
            for name in names:
                agent = self._agents.get(name)
                if agent is not None and agent.dead_reason is None:
                    agent.last_heard = now

    def close(self) -> None:
        """Stop listening and end every connection and its thread.

        The listener is shut down before it is closed: a close alone
        leaves ``coord-accept`` blocked in ``accept()``, still taking
        connections on the old port.
        """
        with self._cond:
            self._closed = True
            served, self._served = self._served, []
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        for channel, _thread in served:
            channel.close()
        for thread in [self._accept_thread] + [t for _c, t in served]:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)

