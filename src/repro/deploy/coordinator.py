"""Coordinator: drive a real process-per-node broadcast end to end.

The coordinator is the §III-B root: it launches agents (windowed, via
:class:`~repro.deploy.launcher.WindowedLauncher`), collects their
registrations on a control socket, distributes the final ordered node
list (re-planned around launch failures *before* any payload byte
flows), supervises liveness during the transfer (``waitpid`` for real
process death, control-socket heartbeats for silent hangs), gathers the
ring-closure report from the head's structured status, and tears every
process down at the end — including ``SIGKILL`` for agents frozen by
the chaos hook.

:class:`ProcBroadcast` mirrors :class:`repro.runtime.LocalBroadcast`
(same constructor shape, same :class:`BroadcastResult`), which is what
lets :func:`repro.run_broadcast` offer it as ``backend="procs"``.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import tracing
from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.errors import KascadeError
from ..core.plan import ChainPlan
from ..core.report import FailureRecord, TransferReport
from ..core.sources import FileSource, Source
from ..core.tracing import NULL_TRACER, TraceCollector
from ..runtime.registry import Address
from ..runtime.result import BroadcastResult, NodeOutcome, check_head_failover
from .chaos import ChaosEngine, ChaosPlan
from .launcher import (
    LaunchReport,
    WindowedLauncher,
    agent_spawner,
    spawn_env,
)
from .protocol import ControlChannel, DeployError, wiring_to_wire

def rebase_events(status: dict, wall0: float) -> list:
    """Agent trace events shifted onto the caller's time base.

    Agents stamp events relative to their own collector; the status
    carries that collector's wall-clock epoch, so on one host (or
    NTP-disciplined hosts) the rebased events interleave correctly.
    ``wall0`` is *the run's* epoch — for the one-shot procs backend
    that is the broadcast start, for the daemon it is the session
    start, so a fleet agent's tenth session rebases against session
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
    procs: Dict[str, subprocess.Popen],
    supervised: Sequence[str],
    stop: threading.Event,
    *,
    heartbeat_timeout: float,
    tracer=NULL_TRACER,
    emitter: str = "coordinator",
    on_dead: Optional[Callable[[str, str], None]] = None,
) -> None:
    """waitpid + heartbeat supervision (the §III-D coordinator view).

    The one reaper loop both supervisors run — the one-shot procs
    coordinator and the daemon's fleet server — until ``stop`` is set.
    Process death yields a FAILOVER with the ``proc-exit`` detector —
    categorically different from the peers' timeout+ping detection,
    and only available because nodes are real processes now.  Every
    declared death is also reported to ``on_dead(name, reason)``.
    """
    reaped: set = set()
    exit_seen: Dict[str, float] = {}
    # An agent that exits normally sends its status *first*, but the
    # reader thread may not have parsed it yet when waitpid fires —
    # give plain exits a grace window before declaring death.  Signal
    # deaths (rc < 0) never produce a status, so they are immediate.
    status_grace = 1.0
    # Heartbeat silence is only evidence when this loop actually ran
    # to observe it.  On a saturated host the coordinator can lose
    # the CPU for longer than heartbeat_timeout; declaring the whole
    # fleet dead on wake-up would be a false positive, so a stalled
    # pass voids the silence clocks instead of reading them.
    stall_limit = heartbeat_timeout / 2

    def declare_dead(name: str, reason: str, **event) -> None:
        if coordinator.mark_dead(name, reason):
            tracer.emit(tracing.FAILOVER, emitter, peer=name, **event)
            if on_dead is not None:
                on_dead(name, reason)

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
            if proc is None or name in reaped:
                continue
            rc = proc.poll()
            if rc is None:
                continue
            agent = coordinator.agent(name)
            if agent is not None and agent.resolved:
                reaped.add(name)
                continue
            if rc >= 0:
                first = exit_seen.setdefault(name, time.monotonic())
                if time.monotonic() - first < status_grace:
                    continue
            reaped.add(name)
            reason = describe_exit(rc)
            declare_dead(name, reason,
                         offset=agent.bytes_received if agent else None,
                         detail=reason, detector=tracing.DETECTOR_PROC_EXIT)
        if stalled:
            coordinator.forgive_silence(supervised)
            continue
        for name in coordinator.silent_agents(supervised, heartbeat_timeout):
            declare_dead(
                name, f"control-heartbeat silent > {heartbeat_timeout}s",
                detail="control-heartbeat lost",
                detector=tracing.DETECTOR_PING)


@dataclass
class _Agent:
    """Coordinator-side view of one registered agent."""

    name: str
    channel: ControlChannel
    address: Address
    pid: int
    registered_at: float
    last_heard: float
    #: Every data-plane port the agent bound (one per stripe);
    #: ``address.port`` is always ``ports[0]``.
    ports: Tuple[int, ...] = ()
    bytes_received: int = 0
    status: Optional[dict] = None
    dead_reason: Optional[str] = None
    #: The agent's ``failover_ready`` reply (offset + fresh ports), set
    #: while a head re-root is in flight.
    failover_ready: Optional[dict] = None

    @property
    def resolved(self) -> bool:
        return self.status is not None or self.dead_reason is not None


class Coordinator:
    """Control-plane endpoint: registration, supervision, status collection.

    One reader thread per agent connection keeps the implementation
    obvious (a deployment has tens of agents, not tens of thousands);
    all shared state is guarded by one condition variable that doubles
    as the wake-up for ``wait_registered`` / ``wait_statuses``.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        tracer=NULL_TRACER,
        on_progress: Optional[Callable[[str, int, int], None]] = None,
        hello_timeout: float = 10.0,
    ) -> None:
        self._tracer = tracer
        self._on_progress = on_progress
        self._hello_timeout = hello_timeout
        self._cond = threading.Condition()
        self._agents: Dict[str, _Agent] = {}
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
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
            threading.Thread(
                target=self._serve, args=(channel,),
                name="coord-agent", daemon=True,
            ).start()

    def _serve(self, channel: ControlChannel) -> None:
        try:
            hello = channel.recv(timeout=self._hello_timeout)
        except (TimeoutError, DeployError):
            channel.close()
            return
        if (hello is None or hello.get("op") != "hello"
                or not hello.get("ports")):
            channel.close()
            return
        name = str(hello["name"])
        ports = tuple(int(p) for p in hello["ports"])
        agent = _Agent(
            name=name,
            channel=channel,
            address=Address(str(hello["host"]), ports[0]),
            pid=int(hello["pid"]),
            registered_at=time.monotonic(),
            last_heard=time.monotonic(),
            ports=ports,
        )
        with self._cond:
            # Latest registration wins: a retried spawn replaces the
            # attempt the launcher already killed.
            self._agents[name] = agent
            self._cond.notify_all()
        self._tracer.emit(tracing.CONNECT, "coordinator", peer=name,
                          detail=f"register pid={agent.pid}")
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
                break  # EOF: death vs normal exit is the reaper's call
            with self._cond:
                agent.last_heard = time.monotonic()
            op = msg.get("op")
            if op == "progress":
                received = int(msg.get("bytes", 0))
                with self._cond:
                    agent.bytes_received = max(agent.bytes_received, received)
                if self._on_progress is not None:
                    self._on_progress(agent.name, received, agent.pid)
            elif op == "status":
                with self._cond:
                    agent.status = msg
                    self._cond.notify_all()
            elif op == "failover_ready":
                # The agent detached its node and rebound: adopt the new
                # data-plane address so the resume wiring is correct.
                ports = tuple(int(p) for p in msg.get("ports") or ())
                with self._cond:
                    agent.failover_ready = msg
                    if ports:
                        agent.ports = ports
                        agent.address = Address(agent.address.host, ports[0])
                    self._cond.notify_all()
            # heartbeats only refresh last_heard

    # -- queries used by the launcher / run loop ------------------------

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
        """Record a supervised death; False if already resolved."""
        with self._cond:
            agent = self._agents.get(name)
            if agent is None or agent.resolved:
                return False
            agent.dead_reason = reason
            self._cond.notify_all()
            return True

    def send(self, name: str, message: dict) -> bool:
        agent = self.agent(name)
        return agent is not None and agent.channel.send(message)

    def wait_statuses(self, names: Sequence[str], deadline: float,
                      *, or_dead: Optional[str] = None) -> List[str]:
        """Block until every name is resolved (status or declared dead);
        returns the names still unresolved when ``deadline`` passes —
        or, with ``or_dead``, as soon as that agent is declared dead, so
        a caller with something to do about the death does it at once."""
        def _unresolved() -> List[str]:
            return [n for n in names
                    if n not in self._agents or not self._agents[n].resolved]

        def _died() -> bool:
            agent = self._agents.get(or_dead)
            return agent is not None and bool(agent.dead_reason)

        with self._cond:
            self._cond.wait_for(
                lambda: not _unresolved() or _died(),
                timeout=max(0.0, deadline - time.monotonic()),
            )
            return _unresolved()

    def wait_failover_ready(self, names: Sequence[str],
                            timeout: float) -> List[str]:
        """Block until every name replied ``failover_ready`` (or resolved
        some other way); returns names still pending at timeout."""
        def _pending() -> List[str]:
            return [n for n in names
                    if (a := self._agents.get(n)) is not None
                    and a.failover_ready is None and not a.resolved]

        with self._cond:
            self._cond.wait_for(lambda: not _pending(), timeout)
            return _pending()

    def silent_agents(self, names: Sequence[str], max_age: float) -> List[str]:
        """Registered, unresolved agents whose control plane went quiet."""
        now = time.monotonic()
        with self._cond:
            return [
                n for n in names
                if (a := self._agents.get(n)) is not None
                and not a.resolved
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
                if agent is not None and not agent.resolved:
                    agent.last_heard = now

    def close(self) -> None:
        self._closed = True
        self._sock.close()
        with self._cond:
            agents = list(self._agents.values())
        for agent in agents:
            agent.channel.close()


class ProcBroadcast:
    """One Kascade broadcast with a real OS process per pipeline node.

    Mirrors :class:`~repro.runtime.LocalBroadcast`; prefer
    ``repro.run_broadcast(..., backend="procs")``.

    Parameters beyond the common set
    --------------------------------
    chaos:
        :class:`~repro.deploy.chaos.ChaosPlan` sequence — real
        ``SIGKILL``/``SIGSTOP`` injection, receivers only.
    window / spawn_retries / startup_timeout / backoff:
        Windowed-launcher knobs (§III-B), see
        :class:`~repro.deploy.launcher.WindowedLauncher`.
    heartbeat_interval / heartbeat_timeout:
        Agent liveness tick and how long the coordinator tolerates
        control-plane silence before declaring an agent dead.
    progress_every:
        Bytes between agent progress reports (chaos trigger resolution).
    output_template:
        Per-receiver output path; ``{node}`` expands to the node name.
        ``None`` = agents discard payload (digest still computed).
    python:
        Interpreter for agent processes (default ``sys.executable``).
    bind_host:
        Address agents bind their data port on (default localhost).
    agent_args:
        ``fn(name, attempt) -> [extra argv]`` hook appended to the agent
        command line — how tests make specific spawn attempts fail.
    stderr_dir:
        When set, each agent's stderr goes to ``<dir>/<name>.stderr.log``
        instead of ``/dev/null``.
    plan:
        Pre-built :class:`~repro.core.plan.ChainPlan` overriding
        ``order``/``config.stripes``-derived planning.  On a striped
        plan every agent binds one data-plane listener per stripe and
        runs one chain instance per stripe; the start message ships the
        (possibly re-planned) ChainPlan and the full port map.
    """

    def __init__(
        self,
        source: Source,
        receivers: Sequence[str],
        *,
        config: KascadeConfig = DEFAULT_CONFIG,
        head: str = "n1",
        order: str = "given",
        chaos: Sequence[ChaosPlan] = (),
        tracer=NULL_TRACER,
        window: int = 8,
        spawn_retries: int = 1,
        startup_timeout: float = 15.0,
        backoff: float = 0.2,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = None,
        progress_every: int = 1 << 18,
        output_template: Optional[str] = None,
        python: Optional[str] = None,
        bind_host: str = "127.0.0.1",
        agent_args: Optional[Callable[[str, int], Sequence[str]]] = None,
        stderr_dir: Optional[str] = None,
        plan: Optional[ChainPlan] = None,
        coordinator_replicas: int = 0,
        allow_head_chaos: bool = False,
    ) -> None:
        self.source = source
        self.config = config
        self.tracer = tracer
        self.chain_plan = ChainPlan.resolve(
            plan, head, receivers, stripes=config.stripes, order=order)
        self.stripes = self.chain_plan.stripe_count
        self.plan = self.chain_plan.base
        self.coordinator_replicas = coordinator_replicas
        self.allow_head_chaos = allow_head_chaos
        self.chaos = ChaosEngine(chaos)
        chaos_targets = self.chaos.targets()
        replica_names = {f"replica:{i}" for i in range(coordinator_replicas)}
        if self.plan.head in chaos_targets and not allow_head_chaos:
            raise KascadeError(
                f"chaos targets the head {self.plan.head!r}: killing the "
                "head interrupts the stream for every receiver; opt in "
                "with allow_head_chaos=True (requires coordinator "
                "replicas for quorum-backed head failover)"
            )
        if allow_head_chaos:
            if coordinator_replicas < 1:
                raise KascadeError(
                    "head failover needs a replicated control plane to "
                    "elect from: set coordinator_replicas >= 1 "
                    "(3 recommended for minority-failure tolerance)"
                )
            check_head_failover(self.stripes, config.data_plane)
        stray_replicas = {t for t in chaos_targets
                         if t.startswith("replica:")} - replica_names
        if stray_replicas:
            raise KascadeError(
                f"chaos targets control replicas that will not exist: "
                f"{sorted(stray_replicas)} (coordinator_replicas="
                f"{coordinator_replicas})"
            )
        allow = set(replica_names)
        if allow_head_chaos:
            allow.add(self.plan.head)
        self.chaos.validate(self.plan.receivers, allow=allow)
        self._failover_enabled = (allow_head_chaos
                                  and coordinator_replicas >= 1)
        if (output_template is not None and len(self.plan.receivers) > 1
                and "{node}" not in output_template):
            raise KascadeError(
                "output_template needs a {node} placeholder for >1 receiver"
            )
        self.window = window
        self.spawn_retries = spawn_retries
        self.startup_timeout = startup_timeout
        self.backoff = backoff
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else max(2.0, 5 * heartbeat_interval)
        )
        self.progress_every = progress_every
        self.output_template = output_template
        self.python = python or sys.executable
        self.bind_host = bind_host
        self.agent_args = agent_args
        self.stderr_dir = stderr_dir
        #: Filled by :meth:`run`.
        self.launch_report: Optional[LaunchReport] = None

    # -- agent spawning --------------------------------------------------

    def _spawn_replicas(self) -> Tuple[List[subprocess.Popen],
                                       List[Tuple[str, int]]]:
        """Start the control-plane replica processes; returns procs and
        their (host, port) addresses, harvested from the stdout
        announcement each replica prints once bound."""
        from ..control.replica import spawn_replicas

        procs, addrs = spawn_replicas(
            self.coordinator_replicas, python=self.python,
            bind_host=self.bind_host, env=spawn_env(),
        )
        for i, proc in enumerate(procs):
            self.chaos.register_external(f"replica:{i}", proc.pid)
        return procs, addrs

    def _make_spawn(self, control: Address):
        argv = [
            self.python, "-m", "repro.cli.kascade", "agent",
            "--coordinator", f"{control.host}:{control.port}",
            "--bind", self.bind_host,
            "--start-timeout", str(max(60.0, self.startup_timeout * 4)),
            "--stripes", str(self.stripes),
        ]
        return agent_spawner(argv, stderr_dir=self.stderr_dir,
                             agent_args=self.agent_args)

    # -- the run ---------------------------------------------------------

    def run(self, timeout: float = 120.0) -> BroadcastResult:
        """Launch, transfer, supervise, collect, tear down."""
        started = time.monotonic()
        wall0 = time.time()
        source_path, cleanup_source = materialize_source(self.source)
        crashed_by_chaos: Dict[str, str] = {}

        def on_progress(name: str, received: int, pid: int) -> None:
            fired = self.chaos.on_progress(name, received, pid)
            if fired is not None:
                crashed_by_chaos[name] = fired

        replica_procs: List[subprocess.Popen] = []
        quorum = None
        if self.coordinator_replicas >= 1:
            from ..control.client import QuorumClient

            replica_procs, replica_addrs = self._spawn_replicas()
            quorum = QuorumClient(replica_addrs, proposer_id=os.getpid())

        coordinator = Coordinator(tracer=self.tracer,
                                  on_progress=on_progress)
        launcher = WindowedLauncher(
            self._make_spawn(coordinator.address),
            window=self.window,
            retries=self.spawn_retries,
            backoff=self.backoff,
            startup_timeout=self.startup_timeout,
        )
        procs: Dict[str, subprocess.Popen] = {}
        stop_reaper = threading.Event()
        stop_pump = threading.Event()
        reaper: Optional[threading.Thread] = None
        try:
            launch_report = launcher.launch(self.plan.chain,
                                            coordinator.wait_registered)
            self.launch_report = launch_report
            procs = {name: nl.proc for name, nl in launch_report.nodes.items()
                     if nl.ok}
            launch_failures = self._record_launch_failures(launch_report)

            head_nl = launch_report.nodes[self.plan.head]
            final_receivers = tuple(r for r in self.plan.receivers
                                    if launch_report.nodes[r].ok)
            if not head_nl.ok or not final_receivers:
                why = ("head agent failed to launch" if not head_nl.ok
                       else "no receiver agent launched")
                return self._failed_result(
                    started, launch_report, launch_failures, why)

            # §III-B: the chain is re-planned around launch failures
            # before a single payload byte flows — every stripe drops
            # the dead node while keeping its surviving order.
            dead = tuple(r for r in self.plan.receivers
                         if not launch_report.nodes[r].ok)
            final_chain = self.chain_plan.replan_without(dead)
            final_plan = final_chain.base
            reaper = threading.Thread(
                target=supervise,
                args=(coordinator, procs, final_plan.chain, stop_reaper),
                kwargs={"heartbeat_timeout": self.heartbeat_timeout,
                        "tracer": self.tracer},
                name="coord-reaper", daemon=True,
            )
            reaper.start()
            if quorum is not None:
                # Replicate everything a restarted (or surviving)
                # coordinator needs: who is where, and the active plan.
                for node_name in final_plan.chain:
                    agent = coordinator.agent(node_name)
                    if agent is not None:
                        quorum.commit({
                            "kind": "register", "node": node_name,
                            "host": agent.address.host,
                            "port": agent.address.port, "pid": agent.pid,
                        })
                quorum.commit({"kind": "plan",
                               "plan": final_chain.to_dict()})
                pump = threading.Thread(
                    target=self._watermark_pump,
                    args=(coordinator, final_plan.receivers, quorum,
                          stop_pump),
                    name="coord-watermarks", daemon=True,
                )
                pump.start()
            if self._failover_enabled:
                head_agent = coordinator.agent(final_plan.head)
                if head_agent is not None:
                    self.chaos.register_external(final_plan.head,
                                                 head_agent.pid)
            self._send_starts(coordinator, final_chain, source_path, timeout)

            deadline = started + timeout
            current_chain = final_chain
            can_failover = self._failover_enabled and quorum is not None
            while True:
                # The head's death ends the wait (the reaper's mark_dead
                # notifies): the re-root starts then, not a tick later.
                unresolved = coordinator.wait_statuses(
                    final_plan.chain, deadline,
                    or_dead=final_plan.head if can_failover else None)
                if not unresolved:
                    break
                if time.monotonic() >= deadline:
                    for name in unresolved:
                        coordinator.mark_dead(
                            name,
                            f"no status within the {timeout}s run deadline")
                    break
                head_agent = coordinator.agent(final_plan.head)
                if (can_failover and head_agent is not None
                        and head_agent.dead_reason):
                    can_failover = False  # one re-root per run
                    if head_agent.status is None:
                        new_chain = self._orchestrate_failover(
                            coordinator, current_chain, source_path, quorum)
                        if new_chain is not None:
                            current_chain = new_chain
            return self._collect(coordinator, final_chain, launch_report,
                                 launch_failures, crashed_by_chaos,
                                 started, wall0,
                                 effective_chain=current_chain)
        finally:
            stop_reaper.set()
            stop_pump.set()
            if reaper is not None:
                reaper.join(timeout=2.0)
            self._teardown(procs, coordinator)
            coordinator.close()
            if quorum is not None:
                quorum.close()
            if replica_procs:
                from ..control.replica import kill_replicas

                kill_replicas(replica_procs)
            cleanup_source()

    # -- the replicated control plane ------------------------------------

    def _watermark_pump(
        self,
        coordinator: Coordinator,
        receivers: Sequence[str],
        quorum,
        stop: threading.Event,
    ) -> None:
        """Replicate per-node progress watermarks into the quorum.

        Runs beside the hot progress path, not on it: agents report
        every ``progress_every`` bytes, but a quorum commit costs three
        round trips, so the pump snapshots the latest counters on a
        fixed tick and commits only what grew.  The watermarks are what
        the election reads — they only need to be *recent*, not exact;
        the failover handshake re-commits each survivor's precise
        detach offset before anyone is elected.
        """
        from ..control.client import QuorumError

        last: Dict[str, int] = {}
        while not stop.wait(0.25):
            for name in receivers:
                agent = coordinator.agent(name)
                if agent is None:
                    continue
                received = agent.bytes_received
                if received > last.get(name, -1):
                    last[name] = received
                    try:
                        quorum.commit({"kind": "watermark", "node": name,
                                       "bytes": received})
                    except QuorumError:
                        return  # majority gone: nothing left to replicate to

    def _orchestrate_failover(
        self,
        coordinator: Coordinator,
        chain: ChainPlan,
        source_path: str,
        quorum,
    ) -> Optional[ChainPlan]:
        """Re-root the chain around its dead head; returns the new plan.

        Two-phase: every surviving receiver is detached first (it
        interrupts its transfer loops, drains writeback, keeps its sink,
        rebinds a fresh data port, and replies ``failover_ready`` with
        its exact stream offset), *then* the quorum decides — authoritative
        watermarks are committed, the most-complete survivor is elected
        and recorded as a replicated decree, and everyone resumes under
        the re-rooted plan.  The promoted node serves PGET below the
        election watermark from the source file, so survivors behind it
        recover their gap exactly like a §III-D2 hole.

        Returns ``None`` when nothing survives to resume (no live
        receivers, or the control quorum itself is gone) — the run then
        fails through the normal unresolved-agent path.
        """
        from ..control.client import QuorumError

        plan = chain.base
        old_head = plan.head
        dead: List[str] = []
        finished: List[str] = []
        survivors: List[str] = []
        for name in plan.receivers:
            agent = coordinator.agent(name)
            if agent is None or agent.dead_reason:
                dead.append(name)
            elif agent.status is not None:
                finished.append(name)
            else:
                survivors.append(name)
        if not survivors:
            return None

        for name in survivors:
            coordinator.send(name, {"op": "failover", "dead": [old_head]})
        coordinator.wait_failover_ready(survivors, 10.0)

        ready: Dict[str, dict] = {}
        for name in survivors:
            agent = coordinator.agent(name)
            if agent is None or agent.dead_reason:
                dead.append(name)
            elif agent.failover_ready is not None:
                ready[name] = agent.failover_ready
            elif agent.status is not None:
                finished.append(name)
            else:
                dead.append(name)  # never detached: cannot be re-wired
        if not ready:
            return None

        try:
            # Authoritative watermarks: the detach offsets are exact,
            # unlike the throttled progress feed the pump replicates.
            for name, reply in ready.items():
                quorum.commit({"kind": "watermark", "node": name,
                               "bytes": int(reply.get("offset", 0))})
            for name in finished:
                agent = coordinator.agent(name)
                done = (int(agent.status.get("bytes", 0))
                        if agent is not None and agent.status else 0)
                quorum.commit({"kind": "watermark", "node": name,
                               "bytes": done})
            state = quorum.read_state()
            excluded = [old_head] + dead + finished
            new_head = state.most_complete(exclude=excluded)
            if new_head is None or new_head not in ready:
                # Replicated view is behind our local one (a replica
                # minority answered the read); fall back to what we
                # just measured directly.
                new_head = max(
                    ready,
                    key=lambda n: (int(ready[n].get("offset", 0)), n))
            resume_offset = int(ready[new_head].get("offset", 0))
            quorum.commit({"kind": "election", "head": new_head,
                           "dead": [old_head]})
        except QuorumError:
            return None

        self.tracer.emit(
            tracing.ELECTION, "coordinator", peer=new_head,
            offset=resume_offset,
            detail=(f"quorum elected {new_head} to replace {old_head} "
                    f"at watermark {resume_offset}"),
        )
        drop = [n for n in set(dead) | set(finished) if n != new_head]
        try:
            new_chain = chain.reroot(new_head, dead=drop)
        except KascadeError:
            return None
        try:
            quorum.commit({"kind": "plan", "plan": new_chain.to_dict()})
        except QuorumError:
            return None

        agents = {name: coordinator.agent(name) for name in new_chain.nodes}
        if None in agents.values():
            return None
        # Resumed nodes only hash the bytes they stream after the
        # re-root, so an in-protocol end-to-end digest check would be a
        # false alarm; byte-exactness is still proven by the per-node
        # digests in the collected statuses (the sinks — and their
        # hashes — survived the hand-off intact).
        base = {
            "op": "resume",
            **wiring_to_wire(
                new_chain,
                {n: (a.address.host, a.ports) for n, a in agents.items()},
                dataclasses.replace(self.config, verify_digest=False)),
            "resume_offset": resume_offset,
        }
        for name in new_chain.nodes:
            msg = dict(base)
            if name == new_chain.head:
                msg["source"] = source_path
            coordinator.send(name, msg)
        return new_chain

    # -- pieces of run() -------------------------------------------------

    def _record_launch_failures(
        self, launch_report: LaunchReport
    ) -> List[FailureRecord]:
        records = []
        for name in launch_report.failed:
            nl = launch_report.nodes[name]
            reason = f"launch-failed: {nl.error} after {nl.attempts} attempt(s)"
            records.append(FailureRecord(
                node=name, detected_by="launcher", at_offset=0, reason=reason,
            ))
            detector = (tracing.DETECTOR_PROC_EXIT
                        if "exited before registering" in (nl.error or "")
                        else tracing.DETECTOR_CONNECT)
            self.tracer.emit(tracing.FAILOVER, "launcher", peer=name,
                             offset=0, detail=reason, detector=detector)
        return records

    def _send_starts(self, coordinator: Coordinator, final_chain: ChainPlan,
                     source_path: str, timeout: float) -> None:
        final_plan = final_chain.base
        # launched => registered, so every agent of the chain is known
        agents = {name: coordinator.agent(name) for name in final_plan.chain}
        base = {
            "op": "start",
            **wiring_to_wire(
                final_chain,
                {n: (a.address.host, a.ports) for n, a in agents.items()},
                self.config),
            "run_timeout": timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "progress_every": self.progress_every,
        }
        if self._failover_enabled:
            # Agents stay on the control channel while the node runs so
            # a mid-transfer re-root can reach them.
            base["failover"] = True
        for name in final_plan.chain:
            msg = dict(base)
            if name == final_plan.head:
                msg["source"] = source_path
            elif self.output_template is not None:
                msg["output"] = self.output_template.replace("{node}", name)
            coordinator.send(name, msg)
        # Agents registered but re-planned out (e.g. a late duplicate
        # registration) must not sit waiting for a start that never comes.
        for name in set(coordinator.registered_names()) - set(final_plan.chain):
            coordinator.send(name, {"op": "cancel",
                                    "reason": "not in final chain"})

    def _collect(
        self,
        coordinator: Coordinator,
        final_chain: ChainPlan,
        launch_report: LaunchReport,
        launch_failures: List[FailureRecord],
        crashed_by_chaos: Dict[str, str],
        started: float,
        wall0: float,
        effective_chain: Optional[ChainPlan] = None,
    ) -> BroadcastResult:
        final_plan = final_chain.base
        # After a head failover the run is judged against the re-rooted
        # chain: the promoted node is the head whose report and byte
        # count matter, while every originally-started agent still gets
        # an outcome.
        effective = effective_chain if effective_chain is not None \
            else final_chain
        effective_head = effective.base.head
        duration = time.monotonic() - started
        outcomes: Dict[str, NodeOutcome] = {}
        perfstats: Dict[str, int] = {}
        head_report: Optional[TransferReport] = None
        merged_events: list = []

        for name in launch_report.failed:
            nl = launch_report.nodes[name]
            outcomes[name] = NodeOutcome(
                name=name, ok=False,
                error=f"launch failed: {nl.error}",
            )
        for name in final_plan.chain:
            agent = coordinator.agent(name)
            status = agent.status if agent is not None else None
            if status is not None:
                outcomes[name] = NodeOutcome(
                    name=name,
                    ok=bool(status.get("ok")),
                    bytes_received=int(status.get("bytes", 0)),
                    crashed=bool(status.get("crashed")),
                    error=status.get("error"),
                    digest=status.get("digest"),
                )
                for key, value in (status.get("perfstats") or {}).items():
                    perfstats[key] = perfstats.get(key, 0) + int(value)
                merged_events.extend(rebase_events(status, wall0))
                if name == effective_head and status.get("report"):
                    head_report = TransferReport.decode(
                        bytes.fromhex(status["report"]))
                    outcomes[name].failures_detected = list(
                        head_report.failures)
                    self.tracer.emit(tracing.REPORT, "coordinator",
                                     detail="ring-closure via head status")
            else:
                reason = (agent.dead_reason if agent is not None
                          and agent.dead_reason else "agent never resolved")
                outcomes[name] = NodeOutcome(
                    name=name, ok=False, crashed=True, error=reason,
                    bytes_received=(agent.bytes_received
                                    if agent is not None else 0),
                )

        for event in sorted(merged_events, key=lambda e: e.t):
            self.tracer.emit(event.type, event.node, t=event.t,
                             offset=event.offset, peer=event.peer,
                             detail=event.detail, detector=event.detector)

        report = head_report if head_report is not None else TransferReport()
        # Launch failures happened before the protocol's own report
        # existed; surface them to the caller alongside transfer failures.
        report.failures[:0] = launch_failures

        head_outcome = outcomes[effective_head]
        # Same accounting as LocalBroadcast: only *planned* deaths are
        # excused, so an unexpected launch failure fails the run even
        # though the survivors were served around it.
        intended = [r for r in self.plan.receivers
                    if r not in self.chaos.targets()]
        ok = head_outcome.ok and all(outcomes[r].ok for r in intended)
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=head_outcome.bytes_received,
            report=report,
            outcomes=outcomes,
            trace=(self.tracer if isinstance(self.tracer, TraceCollector)
                   else None),
            perfstats=perfstats,
            backend="procs",
            launch=launch_report,
            plan=effective,
        )

    def _failed_result(
        self,
        started: float,
        launch_report: LaunchReport,
        launch_failures: List[FailureRecord],
        why: str,
    ) -> BroadcastResult:
        outcomes = {
            name: NodeOutcome(
                name=name, ok=False,
                error=(None if nl.ok else f"launch failed: {nl.error}"),
            )
            for name, nl in launch_report.nodes.items()
        }
        report = TransferReport()
        report.extend(launch_failures)
        return BroadcastResult(
            ok=False,
            duration=time.monotonic() - started,
            total_bytes=0,
            report=report,
            outcomes=outcomes,
            trace=(self.tracer if isinstance(self.tracer, TraceCollector)
                   else None),
            perfstats={},
            backend="procs",
            launch=launch_report,
            plan=self.chain_plan,
        )

    def _teardown(
        self,
        procs: Dict[str, subprocess.Popen],
        coordinator: Optional[Coordinator] = None,
        grace: float = 2.0,
    ) -> None:
        """Guaranteed cleanup: no agent outlives the run.

        Agents that completed cleanly (status received, never targeted
        by chaos) are *drained*: they get a ``quit`` on the control
        socket and up to ``grace`` seconds to exit on their own, so a
        clean run ends with exit code 0 across the fleet instead of a
        blanket ``SIGKILL`` masquerading as a crash in process
        accounting.  Everything else — chaos-stopped, hung, or
        unresolved agents — is killed immediately: ``SIGKILL`` rather
        than ``SIGTERM`` because a chaos-stopped process cannot run a
        handler; kill is the one signal that works on a ``SIGSTOP``ped
        child.  Drained agents that overstay the grace window are
        killed too — graceful is a courtesy, not a liveness dependency.
        """
        chaos_hit = set(self.chaos.fired) if self.chaos is not None else set()
        drained: List[subprocess.Popen] = []
        for name, proc in procs.items():
            if proc is None or proc.poll() is not None:
                continue
            agent = coordinator.agent(name) if coordinator is not None else None
            if (agent is not None and agent.status is not None
                    and name not in chaos_hit):
                coordinator.send(name, {"op": "quit"})
                drained.append(proc)
            else:
                try:
                    proc.kill()
                except (OSError, ProcessLookupError):
                    pass
        deadline = time.monotonic() + grace
        for proc in drained:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                except (OSError, ProcessLookupError):
                    pass
        for proc in procs.values():
            if proc is not None:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
