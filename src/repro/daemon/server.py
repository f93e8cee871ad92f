"""The supervisor: one fleet of agents, any number of sessions.

:class:`DaemonServer` owns an agent fleet (launched once, windowed) and
runs *named broadcast sessions* on it.  ``kascade serve`` keeps one up
for many submits, so interpreter start + import + register is paid once
at :meth:`DaemonServer.start` and amortised over every
:meth:`~DaemonServer.submit`; a one-shot ``backend="procs"`` broadcast
(``run_broadcast``) is the same server with a lifetime of one session.
A submit into a warm fleet carries ``launch=None`` on its
:class:`~repro.runtime.BroadcastResult` because no process was launched
for it.

A session runs in two phases, either of which may be empty:

1. **Warm partition** — on a fleet with a chunk cache, the
   ``session_open`` acks carry each agent's content-addressed cache
   state for the artifact; receivers that already hold every chunk are
   told ``session_serve_cached`` and never touch upstream (local replay
   + digest proof, zero wire bytes).
2. **Push** — the remaining receivers run the ordinary pipelined chain
   via ``session_start``, on the session's :class:`~repro.core.plan.
   ChainPlan` (the caller's, or one built from ``order``) re-planned
   without the members that never launched, have died since, or were
   served from cache.  When the session opted in (``allow_head_chaos``),
   a head that dies mid-push is re-rooted instead of fatal.

Late joiners (:class:`LateJoin`) are let in once the push has moved
``after_bytes``, or once it is over: those let in together are a
session of their own on the same fleet and the same spooled file — one
chain from the head, or a cache replay for a joiner that holds every
chunk — whose outcomes and trace fold into the session that let them in.

What a fleet does follows from what it was given: with
``cache_bytes == 0`` there is no artifact identity (no hash pass over
the source) and no cache tap — so no warm partition either.

What a session may ask is decided by the one validation of every
backend (:func:`repro.runtime.result.check_run`, called by
:meth:`DaemonServer.admit`): a fault must target a session member —
naming a fleet member outside the session is its own, clearer error
than naming an unknown node.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core import tracing
from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.errors import KascadeError
from ..core.plan import ChainPlan
from ..core.report import FailureRecord, TransferReport
from ..core.sources import Source
from ..core.tracing import NULL_TRACER, NullRecorder, TraceCollector
from ..deploy.chaos import ChaosEngine
from ..deploy.coordinator import (
    Coordinator,
    drain,
    materialize_source,
    rebase_events,
    supervise,
)
from ..deploy.launcher import (
    ForkServer,
    LaunchReport,
    ProcessHandle,
    WindowedLauncher,
)
from ..deploy.protocol import wiring_to_wire
from ..runtime.result import (
    BroadcastResult,
    LateJoin,
    NodeOutcome,
    check_run,
    late_joins,
)

if TYPE_CHECKING:
    from ..core.cache import ArtifactMeta


@dataclass
class _Session:
    """Supervisor-side record of one in-flight session: who takes part,
    and everything they have said so far."""

    id: str
    #: The schedule as asked for, every participant included.
    plan: ChainPlan
    #: Content identity of the payload; ``None`` on a cache-less fleet.
    artifact: Optional[ArtifactMeta]
    chaos: ChaosEngine
    output_template: Optional[str]
    tracer: object
    wall0: float
    deadline: float
    #: A dead head is re-rooted (once) instead of failing the session.
    failover: bool
    pending_joins: List[LateJoin]
    #: The spooled file the head streams (a join session's head too).
    source_path: Optional[str] = None
    #: The join sessions let in, and the results of those that are over
    #: (``None`` for one that raised).
    joins: List[threading.Thread] = field(default_factory=list)
    join_results: List[Optional[BroadcastResult]] = field(
        default_factory=list)
    cond: threading.Condition = field(default_factory=threading.Condition)
    acks: Dict[str, dict] = field(default_factory=dict)
    #: node -> its per-session data ports, one per stripe (from the ack;
    #: re-bound by a ``failover_ready``).
    ports: Dict[str, List[int]] = field(default_factory=dict)
    statuses: Dict[str, dict] = field(default_factory=dict)
    dead: Dict[str, str] = field(default_factory=dict)
    progress: Dict[str, int] = field(default_factory=dict)
    #: node -> its ``failover_ready`` reply while a re-root is in flight.
    failover_ready: Dict[str, dict] = field(default_factory=dict)
    #: Names a final status is expected from.
    expected: set = field(default_factory=set)
    #: The push participants (head + cold receivers) — "push done" means
    #: all of these resolved, which force-triggers any remaining joins.
    push_nodes: set = field(default_factory=set)
    #: Members asked for that could not take part (never launched, dead
    #: since, or left without a head to feed them), with the outcome
    #: that says why; ``lost`` holds the failure records of the first two.
    absent: Dict[str, NodeOutcome] = field(default_factory=dict)
    lost: List[FailureRecord] = field(default_factory=list)
    active_hwm: int = 1

    def resolved(self, name: str) -> bool:
        return name in self.statuses or name in self.dead

    def settled(self) -> bool:
        """Every expected status is in (or its node dead), the join
        queue is drained and every join session is over.  Call with
        ``cond`` held."""
        return (not self.pending_joins
                and len(self.join_results) == len(self.joins)
                and all(self.resolved(n) for n in self.expected))

    def emit(self, type_: str, detail: str = "", **fields) -> None:
        """One supervisor-side event on this session's time line — the
        same zero the agents' events are rebased to."""
        self.tracer.emit(type_, "coordinator", t=time.time() - self.wall0,
                         detail=detail, **fields)

    def note(self, detail: str) -> None:
        self.emit(tracing.SESSION, f"{self.id}: {detail}")

    def output_for(self, name: str) -> Optional[str]:
        return (self.output_template.replace("{node}", name)
                if self.output_template else None)


def _sha256_file(path: str) -> Tuple[str, int]:
    import hashlib  # only a fleet with a cache hashes its sources

    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


class DaemonServer:
    """Broadcast-as-a-service: launch a fleet once, submit many times.

    Parameters
    ----------
    fleet:
        Agent names, e.g. ``["n1", ..., "n8"]``.  Every session's head,
        receivers, and late joiners must come from this set.
    config:
        Protocol tunables shared by every session (``config.cache_bytes``
        sizes each agent's chunk cache unless ``cache_bytes`` overrides;
        0 means the fleet has no cache at all).
    window / spawn_retries / startup_timeout / backoff:
        Windowed-launcher knobs (§III-B, see
        :class:`~repro.deploy.launcher.WindowedLauncher`), paid once at
        :meth:`start`; ``startup_timeout`` also bounds the fork
        server's boot (:class:`~repro.deploy.launcher.ForkServer`).
    heartbeat_interval / heartbeat_timeout:
        Agent liveness tick and how long the supervisor tolerates
        control-plane silence before declaring an agent dead.
    progress_every:
        Bytes between agent progress reports (chaos trigger resolution).
    python:
        Interpreter of the fork server the agents are forked from
        (default ``sys.executable``).
    bind_host:
        Address agents bind their data ports on (default localhost).
    agent_args:
        ``fn(name, attempt) -> [extra argv]`` hook appended to the agent
        command line — how tests make specific spawn attempts fail.
    stderr_dir:
        When set, each agent's stderr goes to ``<dir>/<name>.stderr.log``
        (the fork server's to ``<dir>/fork-server.stderr.log``) instead
        of ``/dev/null``.

    Usage::

        with DaemonServer(["n1", "n2", "n3"], config=cfg) as server:
            first = server.submit(FileSource(path))       # cold: push chain
            again = server.submit(FileSource(path))       # warm: from cache
    """

    def __init__(
        self,
        fleet: Sequence[str],
        *,
        config: KascadeConfig = DEFAULT_CONFIG,
        cache_bytes: Optional[int] = None,
        window: int = 8,
        spawn_retries: int = 1,
        startup_timeout: float = 15.0,
        backoff: float = 0.2,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = None,
        progress_every: int = 1 << 18,
        python: Optional[str] = None,
        bind_host: str = "127.0.0.1",
        agent_args: Optional[Callable[[str, int], Sequence[str]]] = None,
        stderr_dir: Optional[str] = None,
        tracer=NULL_TRACER,
    ) -> None:
        if len(fleet) < 2:
            raise KascadeError("a fleet needs at least a head and a receiver")
        if len(set(fleet)) != len(fleet):
            raise KascadeError("duplicate names in fleet")
        self.fleet = tuple(fleet)
        self.config = config
        self.cache_bytes = (cache_bytes if cache_bytes is not None
                            else config.cache_bytes)
        self.window = window
        self.spawn_retries = spawn_retries
        self.startup_timeout = startup_timeout
        self.backoff = backoff
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else max(2.0, 5 * heartbeat_interval))
        self.progress_every = progress_every
        self.python = python or sys.executable
        self.bind_host = bind_host
        self.agent_args = agent_args
        self.stderr_dir = stderr_dir
        self.tracer = tracer
        #: Filled by :meth:`start` — the one windowed launch the whole
        #: fleet lifetime amortises.
        self.launch_report: Optional[LaunchReport] = None

        self._coordinator: Optional[Coordinator] = None
        #: The host's fork server every agent of this fleet is forked from.
        self._spawner: Optional[ForkServer] = None
        self._procs: Dict[str, ProcessHandle] = {}
        self._lock = threading.Lock()
        self._sessions: Dict[str, _Session] = {}
        self._session_seq = 0
        self._sessions_completed = 0
        self._artifact_memo: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
        #: Members a session's chaos hit or that left one waiting: they
        #: are killed, not drained, at shutdown.
        self._suspect: set = set()
        self._stop_reaper = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        self._started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "DaemonServer":
        """Launch the fleet (windowed) and start supervision.

        A member that never comes up does not fail the start: sessions
        are re-planned around it (§III-B: launcher failures are handled
        before the transfer) and name it in their results.
        """
        if self._started:
            return self
        self._started = True
        self._coordinator = Coordinator(router=self._route,
                                        tracer=self.tracer)
        control = self._coordinator.address
        self._spawner = ForkServer(
            self.python,
            ["--coordinator", f"{control.host}:{control.port}",
             "--bind", self.bind_host,
             "--cache-bytes", str(self.cache_bytes),
             "--start-timeout", str(max(60.0, self.startup_timeout * 4))],
            cached=self.cache_bytes > 0, stderr_dir=self.stderr_dir,
            agent_args=self.agent_args, boot_timeout=self.startup_timeout)
        launcher = WindowedLauncher(
            self._spawner,
            window=self.window,
            retries=self.spawn_retries,
            backoff=self.backoff,
            startup_timeout=self.startup_timeout,
        )
        report = launcher.launch(self.fleet, self._coordinator.wait_registered)
        self.launch_report = report
        self._procs = {name: nl.proc for name, nl in report.nodes.items()
                       if nl.ok}
        for name in report.failed:
            record = self._launch_failure(name)
            detector = (tracing.DETECTOR_PROC_EXIT
                        if "exited before registering" in record.reason
                        else tracing.DETECTOR_CONNECT)
            self.tracer.emit(tracing.FAILOVER, "launcher", peer=name,
                             offset=0, detail=record.reason,
                             detector=detector)
        self._reaper = threading.Thread(target=self._reaper_loop,
                                        name="fleet-reaper", daemon=True)
        self._reaper.start()
        return self

    def _launch_failure(self, name: str) -> FailureRecord:
        nl = self.launch_report.nodes[name]
        return FailureRecord(
            node=name, detected_by="launcher", at_offset=0,
            reason=f"launch-failed: {nl.error} after {nl.attempts} attempt(s)")

    def shutdown(self, grace: float = 5.0) -> None:
        """Fleet teardown: quit and drain the healthy, kill the rest
        (:func:`repro.deploy.coordinator.drain`), then end the fork
        server and reap it; no agent process outlives this call, and
        every agent's CPU is in this process's ``RUSAGE_CHILDREN`` when
        it returns."""
        if self._closed:
            return
        self._closed = True
        self._stop_reaper.set()
        if self._reaper is not None:
            self._reaper.join(timeout=2.0)
        if self._coordinator is not None:
            healthy = [
                name for name in self._procs
                if name not in self._suspect
                and self._coordinator.agent(name).dead_reason is None]
            drain(self._coordinator, self._procs, healthy, grace)
            self._coordinator.close()
        if self._spawner is not None:
            self._spawner.close()

    def __enter__(self) -> "DaemonServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def registered(self) -> List[str]:
        return (self._coordinator.registered_names()
                if self._coordinator is not None else [])

    @property
    def sessions_completed(self) -> int:
        with self._lock:
            return self._sessions_completed

    # -- supervision -----------------------------------------------------

    def _reaper_loop(self) -> None:
        """waitpid + heartbeat supervision over the whole fleet
        (:func:`repro.deploy.coordinator.supervise`)."""
        supervise(self._coordinator, self._procs, self.fleet,
                  self._stop_reaper,
                  heartbeat_timeout=self.heartbeat_timeout,
                  on_dead=self._fail_open_sessions)

    def _fail_open_sessions(self, name: str, reason: str, detector: str,
                            detail: str) -> None:
        """A dead fleet agent resolves every session it owed a status
        to — sessions must never hang on a process that no longer
        exists — and the FAILOVER lands on those sessions' time lines
        (on the fleet's own when no session was waiting on it)."""
        with self._lock:
            sessions = list(self._sessions.values())
        owed = False
        for sess in sessions:
            with sess.cond:
                if name not in sess.expected or sess.resolved(name):
                    continue
                owed = True
                sess.dead[name] = reason
                sess.emit(tracing.FAILOVER, detail, peer=name,
                          offset=sess.progress.get(name), detector=detector)
                sess.cond.notify_all()
            self._maybe_trigger_joins(sess)
        if not owed:
            self.tracer.emit(tracing.FAILOVER, "coordinator", peer=name,
                             detail=detail, detector=detector)

    # -- message routing -------------------------------------------------

    def _route(self, agent, msg: dict) -> None:
        op = msg["op"]
        with self._lock:
            sess = self._sessions.get(str(msg.get("session")))
        if sess is None:
            return
        if op == "progress":
            received = int(msg.get("bytes", 0))
            with sess.cond:
                sess.progress[agent.name] = max(
                    sess.progress.get(agent.name, 0), received)
            fired = sess.chaos.on_progress(agent.name, received, agent.pid)
            if fired is not None:
                sess.note(f"chaos fired {fired} at {agent.name}")
            self._maybe_trigger_joins(sess)
            return
        with sess.cond:
            if op == "session_ack":
                sess.acks[agent.name] = msg
                sess.ports[agent.name] = [int(p) for p in msg["ports"]]
            elif op == "session_status":
                sess.statuses[agent.name] = msg
            elif op == "failover_ready":
                # The agent detached its node and rebound: adopt the new
                # data-plane port so the resume wiring is correct.
                sess.failover_ready[agent.name] = msg
                sess.ports[agent.name] = [int(p) for p in msg["ports"]]
            sess.cond.notify_all()
        if op == "session_status":
            self._maybe_trigger_joins(sess)

    # -- late joiners -----------------------------------------------------

    def _maybe_trigger_joins(self, sess: _Session) -> None:
        with sess.cond:
            if not sess.pending_joins or sess.source_path is None:
                return
            push_done = all(sess.resolved(n) for n in sess.push_nodes)
            top = max(sess.progress.values(), default=0)
            ready = [lj for lj in sess.pending_joins
                     if push_done or top >= lj.after_bytes]
            if not ready:
                return
            sess.pending_joins = [lj for lj in sess.pending_joins
                                  if lj not in ready]
            thread = threading.Thread(
                target=self._join, args=(sess, [lj.node for lj in ready]),
                name=f"join-{sess.id}", daemon=True)
            sess.joins.append(thread)
        thread.start()

    def _join(self, sess: _Session, joiners: List[str]) -> None:
        """Let ``joiners`` in: a session of their own, on one chain from
        ``sess``'s head over the same spooled file (a joiner holding
        every chunk is served from its cache), whose result
        :meth:`_collect` folds into ``sess``'s."""
        plan = ChainPlan.single(sess.plan.head, joiners)
        sess.note(f"late join {', '.join(joiners)}: chain "
                  + " → ".join(plan.nodes))
        sub = _Session(
            id=f"{sess.id}+{','.join(joiners)}", plan=plan,
            artifact=sess.artifact, chaos=sess.chaos,
            output_template=sess.output_template, tracer=sess.tracer,
            wall0=sess.wall0, deadline=sess.deadline, failover=False,
            pending_joins=[], source_path=sess.source_path)
        result = None
        with self._lock:
            self._sessions[sub.id] = sub
        try:
            started = time.monotonic()
            result = self._run_session(sub, started, sub.deadline - started)
        finally:
            with self._lock:
                self._sessions.pop(sub.id, None)
                self._suspect |= set(sub.dead)
            with sess.cond:
                sess.join_results.append(result)
                sess.cond.notify_all()

    # -- artifact identity -----------------------------------------------

    def _artifact_for(self, path: str, chunk_size: int) -> ArtifactMeta:
        """Content identity of the file at ``path`` (sha256 + size),
        memoized on (path, size, mtime) so repeat submits of the same
        artifact skip the hash pass."""
        from ..core.cache import ArtifactMeta

        stat = os.stat(path)
        key = (os.path.abspath(path), stat.st_size, stat.st_mtime_ns)
        with self._lock:
            memo = self._artifact_memo.get(key)
        if memo is None:
            memo = _sha256_file(path)
            with self._lock:
                self._artifact_memo[key] = memo
        digest, size = memo
        return ArtifactMeta(digest, size=size, chunk_size=chunk_size)

    # -- session orchestration -------------------------------------------

    def admit(
        self,
        plan: ChainPlan,
        *,
        crashes: Sequence = (),
        late_join: Sequence = (),
        output_template: Optional[str] = None,
        allow_head_chaos: bool = False,
    ) -> ChaosEngine:
        """What a session asks of this fleet, refused by
        :func:`~repro.runtime.result.check_run` or returned as the
        session's chaos engine.  Needs no running fleet, so a one-shot
        checks before it launches anything."""
        return ChaosEngine(check_run(
            plan, crashes, backend="daemon",
            data_plane=self.config.data_plane,
            allow_head_chaos=allow_head_chaos, fleet=self.fleet,
            late_join=late_join, output_template=output_template))

    def submit(
        self,
        source: Source,
        receivers: Optional[Sequence[str]] = None,
        *,
        head: Optional[str] = None,
        order: str = "given",
        plan: Optional[ChainPlan] = None,
        output_template: Optional[str] = None,
        crashes: Sequence = (),
        late_join: Sequence = (),
        allow_head_chaos: bool = False,
        session: Optional[str] = None,
        trace=None,
        timeout: float = 120.0,
        wall0: Optional[float] = None,
    ) -> BroadcastResult:
        """Run one named session on the fleet; blocks until done.

        Thread-safe: concurrent ``submit`` calls multiplex over the same
        fleet (that is the point).  Returns the same
        :class:`~repro.runtime.BroadcastResult` shape as every other
        backend, with ``backend="daemon"`` and ``launch=None`` — the
        fleet launch happened once, at :meth:`start`, not here.

        The session runs ``plan`` when given (its head and receivers
        win), else a chain over ``receivers`` (default: the whole fleet
        minus ``head`` and the late joiners) in ``order``.  Members that never launched or
        have died since are planned around and fail the result by name.
        ``crashes`` (:class:`~repro.runtime.CrashPlan`) fire as real
        signals; ``allow_head_chaos`` lets them target the head and has
        the supervisor re-root the chain when it dies.  ``late_join``
        takes :class:`LateJoin` (or ``(node, after_bytes)`` pairs).
        ``wall0`` is the trace's wall-clock zero (default: now).
        """
        if not self._started or self._closed:
            raise KascadeError("DaemonServer is not running (call start())")
        late_join = late_joins(late_join)
        if plan is None:
            head = head or self.fleet[0]
            if receivers is None:
                joiners = {lj.node for lj in late_join}
                receivers = tuple(n for n in self.launch_report.launched
                                  if n != head and n not in joiners)
        else:
            head, receivers = plan.head, plan.receivers
        plan = ChainPlan.resolve(plan, head, receivers,
                                 stripes=self.config.stripes, order=order)
        engine = self.admit(plan, crashes=crashes, late_join=late_join,
                            output_template=output_template,
                            allow_head_chaos=allow_head_chaos)

        from ..session import _resolve_trace
        if isinstance(trace, NullRecorder):
            tracer, trace_path = trace, None  # explicitly disabled
        else:
            tracer, trace_path = _resolve_trace(trace)

        started = time.monotonic()
        with self._lock:
            self._session_seq += 1
            sid = str(session) if session else f"s{self._session_seq}"
            if sid in self._sessions:
                raise KascadeError(f"session {sid!r} already running")
            # Entered under the lock that checked the name, before the
            # source is spooled or hashed: a second submit under the same
            # name is refused, never let in to take this one's record.
            sess = self._sessions[sid] = _Session(
                id=sid, plan=plan, chaos=engine, tracer=tracer,
                artifact=None, output_template=output_template,
                wall0=wall0 if wall0 is not None else time.time(),
                deadline=started + timeout, failover=allow_head_chaos,
                pending_joins=list(late_join),
            )
            active = len(self._sessions)
            for other in self._sessions.values():
                other.active_hwm = max(other.active_hwm, active)
        from ..core.perfstats import get_stats  # not worth a start-up import

        get_stats().note_sessions_active(active)
        try:
            path, cleanup_source = materialize_source(source)
            try:
                if self.cache_bytes:
                    sess.artifact = self._artifact_for(
                        path, self.config.chunk_size)
                sess.source_path = path
                result = self._run_session(sess, started, timeout)
            finally:
                cleanup_source()
        finally:
            with self._lock:
                self._sessions.pop(sid, None)
                self._sessions_completed += 1
                self._suspect |= set(engine.fired) | set(sess.dead)
        if trace_path is not None and isinstance(tracer, TraceCollector):
            tracer.to_jsonl(trace_path)
        return result

    def _plan_around_absent(self, sess: _Session) -> Optional[ChainPlan]:
        """§III-B: the chain is re-planned around launch failures (and
        members lost since) before a single payload byte flows — every
        stripe drops the dead node while keeping its surviving order.
        Returns ``None`` when no chain is left to run."""
        joiners = [lj.node for lj in sess.pending_joins]
        for name in (*sess.plan.nodes, *joiners):
            nl = self.launch_report.nodes[name]
            if not nl.ok:
                sess.absent[name] = NodeOutcome(
                    name=name, ok=False, error=f"launch failed: {nl.error}")
                sess.lost.append(self._launch_failure(name))
                continue
            reason = self._coordinator.agent(name).dead_reason
            if reason is not None:
                sess.absent[name] = NodeOutcome(
                    name=name, ok=False, crashed=True, error=reason)
                sess.lost.append(FailureRecord(
                    node=name, detected_by="coordinator", at_offset=0,
                    reason=reason))
        sess.pending_joins = [lj for lj in sess.pending_joins
                              if lj.node not in sess.absent]
        present = [r for r in sess.plan.receivers if r not in sess.absent]
        if sess.plan.head not in sess.absent and present:
            return sess.plan.replan_without(
                [r for r in sess.plan.receivers if r in sess.absent])
        why = ("head agent failed to launch" if sess.plan.head in sess.absent
               else "no receiver agent launched")
        for name in (sess.plan.head, *present):
            sess.absent.setdefault(name, NodeOutcome(
                name=name, ok=False, error=f"not started: {why}"))
        sess.pending_joins = []
        return None

    def _run_session(self, sess: _Session, started: float,
                     timeout: float) -> BroadcastResult:
        coordinator = self._coordinator
        source_path = sess.source_path
        deadline = sess.deadline
        artifact = sess.artifact
        sess.note("open " + (f"artifact={artifact.digest[:12]} "
                             f"size={artifact.size} " if artifact else "")
                  + f"nodes={len(sess.plan.nodes)}")

        plan = self._plan_around_absent(sess)
        if plan is None:
            return self._collect(sess, None, started)

        open_msg = {"op": "session_open", "session": sess.id,
                    "stripes": plan.stripe_count,
                    "heartbeat_interval": self.heartbeat_interval}
        if artifact is not None:
            open_msg["artifact"] = artifact.to_wire()
        for name in plan.nodes:
            coordinator.send(name, open_msg)
        with sess.cond:
            sess.cond.wait_for(
                lambda: all(n in sess.acks or n in sess.dead
                            for n in plan.nodes),
                timeout=max(0.0, min(deadline - time.monotonic(), 15.0)))
            for name in plan.nodes:
                if name not in sess.acks:
                    sess.dead.setdefault(name, "no session_ack")
            warm = tuple(r for r in plan.receivers
                         if sess.acks.get(r, {}).get("has_all"))
            cold = tuple(r for r in plan.receivers
                         if r not in warm and r not in sess.dead)

        if cold and plan.head in sess.acks:
            plan = plan.replan_without([r for r in plan.receivers
                                        if r not in cold])
            if sess.failover:
                sess.chaos.register_external(
                    plan.head, coordinator.agent(plan.head).pid)
            with sess.cond:
                sess.push_nodes = set(plan.nodes)
                sess.expected |= sess.push_nodes
            sess.note(f"push chain over {len(cold)} cold receiver(s)")
            extra = {"run_timeout": max(1.0, deadline - time.monotonic()),
                     "progress_every": self.progress_every}
            if sess.failover:
                # Agents follow the control channel while the node runs
                # so a mid-transfer re-root can reach them.
                extra["failover"] = True
            self._send_starts(sess, "session_start", plan, source_path,
                              **extra)
        else:
            # Nothing to push: whoever opened but will not run releases
            # the listeners it bound right away.
            for name in (plan.head, *cold):
                coordinator.send(name, {"op": "session_cancel",
                                        "session": sess.id})
            plan = None
        for name in warm:
            with sess.cond:
                sess.expected.add(name)
            coordinator.send(name, {
                "op": "session_serve_cached",
                "session": sess.id,
                "output": sess.output_for(name),
            })
        if warm:
            sess.note(f"{len(warm)} receiver(s) fully cached: "
                      f"serving locally, zero upstream")
        self._maybe_trigger_joins(sess)

        # Wait for every expected status (``expected`` grows as joins
        # trigger; a drained join queue is part of "done") — or, in a
        # session that may re-root, for the head's death: the reaper's
        # verdict notifies, so the re-root starts then, not a tick later.
        can_reroot = sess.failover and plan is not None

        def head_lost() -> bool:
            return can_reroot and plan.head in sess.dead

        while True:
            with sess.cond:
                sess.cond.wait_for(
                    lambda: sess.settled() or head_lost(),
                    timeout=max(0.0, deadline - time.monotonic()))
                if sess.settled() or not head_lost():
                    for name in sess.expected:
                        if not sess.resolved(name):
                            sess.dead[name] = (f"no status within the "
                                               f"{timeout}s session deadline")
                    sess.pending_joins = []
                    break
            can_reroot = False  # one re-root per session
            plan = self._orchestrate_failover(sess, plan, source_path) or plan
        for thread in sess.joins:  # over by the same deadline
            thread.join()
        return self._collect(sess, plan, started)

    def _send_starts(self, sess: _Session, op: str, plan: ChainPlan,
                     source_path: str, **fields) -> None:
        """Send every node of ``plan`` its start-shaped message
        (``session_start``, or the ``resume`` of a re-root): the wiring
        and the stream's size (a receiver's file reserves it before its
        first byte), plus the source path for the head and the output
        path for a receiver (a resumed one keeps the sink it has)."""
        # Session listeners are per-session: the ports come from each
        # agent's session_ack, the host from its registration.
        endpoints = {
            name: (self._coordinator.agent(name).host, sess.ports[name])
            for name in plan.nodes
        }
        base = {"op": op, "session": sess.id,
                "size": os.path.getsize(source_path),
                **wiring_to_wire(plan, endpoints, self.config), **fields}
        for name in plan.nodes:
            msg = dict(base)
            if name == plan.head:
                msg["source"] = source_path
            elif sess.output_template is not None:
                msg["output"] = sess.output_for(name)
            self._coordinator.send(name, msg)

    def _orchestrate_failover(self, sess: _Session, chain: ChainPlan,
                              source_path: str) -> Optional[ChainPlan]:
        """Re-root the chain around its dead head; returns the new plan.

        Two-phase: every surviving receiver is told at once to let go
        (it interrupts its transfer loops, drains writeback, keeps its
        sink, rebinds a fresh data port, and replies ``failover_ready``
        with its exact stream offset — or, already finished, sends its
        status), *then* :meth:`ChainPlan.elect` decides over those exact
        offsets, the rule the in-process drivers follow too, and
        everyone resumes under the re-rooted plan; the agents rebuild
        their hosts by the same rule as well.  The promoted node serves
        PGET below the election watermark from the source file, so
        survivors behind it recover their gap exactly like a §III-D2
        hole.

        Returns ``None`` when no live receiver is left to resume — the
        session then fails through the normal unresolved-agent path.
        """
        old_head = chain.head
        with sess.cond:
            survivors = [n for n in chain.receivers if not sess.resolved(n)]
        if not survivors:
            return None
        for name in survivors:
            self._coordinator.send(name, {"op": "failover",
                                          "session": sess.id,
                                          "dead": [old_head]})
        with sess.cond:
            sess.cond.wait_for(
                lambda: all(n in sess.failover_ready or sess.resolved(n)
                            for n in survivors), timeout=10.0)
            # Whoever neither finished nor let go cannot be re-wired.
            offsets = {n: int(sess.failover_ready[n].get("offset", 0))
                       for n in survivors
                       if n in sess.failover_ready and not sess.resolved(n)}
        if not offsets:
            return None
        new_chain, new_head, watermark = chain.elect(offsets)
        sess.emit(tracing.ELECTION,
                  f"supervisor elected {new_head} to replace {old_head} "
                  f"at watermark {watermark}",
                  peer=new_head, offset=watermark)
        self._send_starts(sess, "resume", new_chain, source_path)
        return new_chain

    def _collect(self, sess: _Session, plan: Optional[ChainPlan],
                 started: float) -> BroadcastResult:
        """Fold what the session's nodes said into one result.  ``plan``
        is the chain the push ended on (re-rooted after a head failover:
        the promoted node is then the head whose report and byte count
        matter) or ``None`` when nothing was pushed."""
        duration = time.monotonic() - started
        outcomes: Dict[str, NodeOutcome] = dict(sess.absent)
        perfstats: Dict[str, int] = {}
        head = plan.head if plan is not None else sess.plan.head
        head_report: Optional[TransferReport] = None
        merged_events: list = []
        from_cache = 0

        with sess.cond:
            statuses = dict(sess.statuses)
            dead = dict(sess.dead)
        for name in sess.plan.nodes:
            if name in sess.absent:
                continue
            status = statuses.get(name)
            if status is not None:
                outcomes[name] = NodeOutcome(
                    name=name,
                    ok=bool(status.get("ok")),
                    bytes_received=int(status.get("bytes", 0)),
                    crashed=bool(status.get("crashed")),
                    error=status.get("error"),
                    digest=status.get("digest"),
                )
                from_cache += int(status.get("from_cache", 0))
                for key, value in (status.get("perfstats") or {}).items():
                    perfstats[key] = perfstats.get(key, 0) + int(value)
                merged_events.extend(rebase_events(status, sess.wall0))
                if name == head and status.get("report"):
                    head_report = TransferReport.decode(
                        bytes.fromhex(status["report"]))
                    outcomes[name].failures_detected = list(
                        head_report.failures)
                    sess.emit(tracing.REPORT, "ring-closure via head status")
            elif name in dead:
                outcomes[name] = NodeOutcome(
                    name=name, ok=False, crashed=True, error=dead[name],
                    bytes_received=sess.progress.get(name, 0),
                )
            elif name == head and plan is None:
                # All-warm session: the head never ran, by design.
                outcomes[name] = NodeOutcome(name=name, ok=True)
            else:
                outcomes[name] = NodeOutcome(
                    name=name, ok=False, crashed=True,
                    error="agent never resolved")

        # A join session's counters overlap this one's in the processes
        # both use (the head's, at least): of them, only its
        # worker-counted ``from_cache`` is its own.
        join_failures = []
        for joined in filter(None, sess.join_results):
            outcomes.update((name, outcome)
                            for name, outcome in joined.outcomes.items()
                            if name != sess.plan.head)
            join_failures += joined.report.failures
            from_cache += joined.perfstats["bytes_from_cache"]

        for event in sorted(merged_events, key=lambda e: e.t):
            sess.tracer.emit(event.type, event.node, t=event.t,
                             offset=event.offset, peer=event.peer,
                             detail=event.detail, detector=event.detector)

        report = head_report if head_report is not None else TransferReport()
        # Members lost before the protocol's own report existed; surface
        # them to the caller alongside transfer failures.
        report.failures[:0] = sess.lost
        report.extend(join_failures)
        # Per-session cache accounting: the agents' perfstats deltas
        # overlap under concurrent sessions in one process, so the
        # worker-counted ``from_cache`` in each status is authoritative.
        perfstats["bytes_from_cache"] = max(
            perfstats.get("bytes_from_cache", 0), from_cache)
        with self._lock:
            completed = self._sessions_completed + 1
        perfstats["sessions_active"] = sess.active_hwm
        perfstats["launch_amortized_s"] = (
            self.launch_report.total_s / completed)

        # Only *planned* deaths are excused, so an unexpected launch
        # failure (or a member lost before the session) fails it even
        # though the survivors were served around it.  A head that was
        # re-rooted away from is judged by its successor.
        excused = sess.chaos.targets() | {sess.plan.head}
        ok = outcomes[head].ok and all(
            outcome.ok for name, outcome in outcomes.items()
            if name not in excused)
        if plan is not None:
            total_bytes = outcomes[head].bytes_received
        else:  # every receiver served from cache, or nothing ran at all
            total_bytes = (sess.artifact.size
                           if sess.artifact and outcomes[head].ok else 0)
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=total_bytes,
            report=report,
            outcomes=outcomes,
            trace=(sess.tracer if isinstance(sess.tracer, TraceCollector)
                   else None),
            perfstats=perfstats,
            backend="daemon",
            launch=None,
            plan=plan,
        )
