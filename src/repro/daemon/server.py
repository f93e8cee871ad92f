"""The ``kascade serve`` coordinator: one warm fleet, many sessions.

:class:`DaemonServer` owns a persistent agent fleet (launched once,
windowed, exactly like the procs backend) and multiplexes *named
broadcast sessions* over it.  The per-broadcast cost model changes
shape: the one-shot procs backend pays interpreter start + import +
register per broadcast; here that is paid once at :meth:`start` and
amortised over every :meth:`submit` — a warm-session submit carries
``launch=None`` on its :class:`~repro.runtime.BroadcastResult` because
no process was launched for it.

A session runs in three phases, any of which may be empty:

1. **Warm partition** — the ``session_open`` acks carry each agent's
   content-addressed cache state for the artifact; receivers that
   already hold every chunk are told ``session_serve_cached`` and never
   touch upstream (local replay + digest proof, zero wire bytes).
2. **Push** — the remaining cold receivers get a fresh
   :class:`~repro.core.plan.ChainPlan` and run the ordinary pipelined
   chain via ``session_start``.
3. **Pull** — late joiners (registered mid-session via
   :class:`LateJoin`) catch up on the already-broadcast prefix by
   PGETting chunks from cache-warm peers' pull servers while the push
   continues undisturbed.

Per-session chaos plans are validated against the *session's*
participants: naming a fleet member that is not in the session is its
own, clearer error than naming an unknown node (see
:meth:`repro.deploy.chaos.ChaosEngine.validate`).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
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
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.report import TransferReport
from ..core.sources import Source
from ..core.tracing import NULL_TRACER, TraceCollector
from ..deploy.chaos import ChaosEngine, ChaosPlan
from ..deploy.coordinator import (
    Coordinator,
    materialize_source,
    rebase_events,
    supervise,
)
from ..deploy.launcher import (
    LaunchReport,
    WindowedLauncher,
    agent_spawner,
    spawn_env,
)
from ..deploy.protocol import wiring_to_wire
from ..runtime.result import BroadcastResult, NodeOutcome

if TYPE_CHECKING:
    from ..core.cache import ArtifactMeta


@dataclass(frozen=True)
class LateJoin:
    """Register ``node`` into a running session once the push has moved
    ``after_bytes`` — the node then *pulls* the missing prefix from
    cache-warm peers instead of restarting the broadcast."""

    node: str
    after_bytes: int = 0


@dataclass
class _Session:
    """Server-side record of one in-flight session."""

    id: str
    artifact: ArtifactMeta
    head: str
    receivers: Tuple[str, ...]
    chaos: ChaosEngine
    output_template: Optional[str]
    wall0: float
    deadline: float
    cond: threading.Condition = field(default_factory=threading.Condition)
    acks: Dict[str, dict] = field(default_factory=dict)
    statuses: Dict[str, dict] = field(default_factory=dict)
    dead: Dict[str, str] = field(default_factory=dict)
    progress: Dict[str, int] = field(default_factory=dict)
    #: Names a final status is expected from (grows as joiners trigger).
    expected: set = field(default_factory=set)
    #: The push participants (head + cold receivers) — "push done" means
    #: all of these resolved, which force-triggers any remaining joins.
    push_nodes: set = field(default_factory=set)
    pending_joins: List[LateJoin] = field(default_factory=list)
    joined: List[str] = field(default_factory=list)
    crashed_by_chaos: Dict[str, str] = field(default_factory=dict)
    #: (t_relative, detail) server-side session milestones, emitted into
    #: the merged trace at collect time.
    events: List[Tuple[float, str]] = field(default_factory=list)
    active_hwm: int = 1

    def resolved(self, name: str) -> bool:
        return name in self.statuses or name in self.dead

    def note(self, detail: str) -> None:
        self.events.append((time.time() - self.wall0, detail))


class FleetCoordinator(Coordinator):
    """A :class:`~repro.deploy.coordinator.Coordinator` whose read loop
    routes session-scoped messages to the server instead of assuming the
    one-broadcast-per-process shape."""

    def __init__(self, *, router: Callable[[object, dict], None],
                 **kwargs) -> None:
        self._router = router
        super().__init__(**kwargs)

    def _read_loop(self, agent) -> None:
        while not self._closed:
            try:
                msg = agent.channel.recv(timeout=0.5)
            except TimeoutError:
                continue
            except Exception:
                break
            if msg is None:
                break
            with self._cond:
                agent.last_heard = time.monotonic()
            if msg.get("op") == "heartbeat":
                continue
            self._router(agent, msg)


def _sha256_file(path: str) -> Tuple[str, int]:
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
        sizes each agent's chunk cache unless ``cache_bytes`` overrides).
    window / spawn_retries / startup_timeout / backoff:
        Windowed-launcher knobs, paid once at :meth:`start`.
    heartbeat_interval / heartbeat_timeout / progress_every / python /
    bind_host / stderr_dir:
        As on :class:`~repro.deploy.ProcBroadcast`.

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
        stderr_dir: Optional[str] = None,
        coordinator_replicas: int = 0,
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
        self.stderr_dir = stderr_dir
        self.coordinator_replicas = coordinator_replicas
        self.tracer = tracer
        #: Filled by :meth:`start` — the one windowed launch the whole
        #: server lifetime amortises.
        self.launch_report: Optional[LaunchReport] = None

        self._coordinator: Optional[FleetCoordinator] = None
        self._quorum = None
        self._replica_procs: List[subprocess.Popen] = []
        self._procs: Dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self._sessions: Dict[str, _Session] = {}
        self._session_seq = 0
        self._sessions_completed = 0
        self._artifact_memo: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
        self._stop_reaper = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        self._pump: Optional[threading.Thread] = None
        self._started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "DaemonServer":
        """Launch the fleet (windowed) and start supervision."""
        if self._started:
            return self
        if self.coordinator_replicas >= 1:
            from ..control.client import QuorumClient
            from ..control.replica import spawn_replicas

            self._replica_procs, addrs = spawn_replicas(
                self.coordinator_replicas, python=self.python,
                bind_host=self.bind_host, env=spawn_env(),
            )
            self._quorum = QuorumClient(addrs, proposer_id=os.getpid())
        self._coordinator = FleetCoordinator(router=self._route,
                                             tracer=self.tracer)
        launcher = WindowedLauncher(
            self._make_spawn(self._coordinator.address),
            window=self.window,
            retries=self.spawn_retries,
            backoff=self.backoff,
            startup_timeout=self.startup_timeout,
        )
        report = launcher.launch(self.fleet, self._coordinator.wait_registered)
        self.launch_report = report
        self._procs = {name: nl.proc for name, nl in report.nodes.items()
                       if nl.ok}
        if not report.launched:
            self._coordinator.close()
            self._stop_replicas()
            raise KascadeError("no fleet agent launched")
        for name in self._coordinator.registered_names():
            agent = self._coordinator.agent(name)
            if agent is not None and agent.address is not None:
                self._commit({"kind": "register", "node": name,
                              "host": agent.address.host,
                              "port": agent.address.port,
                              "pid": agent.pid})
        self._reaper = threading.Thread(target=self._reaper_loop,
                                        name="fleet-reaper", daemon=True)
        self._reaper.start()
        if self._quorum is not None:
            self._pump = threading.Thread(target=self._watermark_pump,
                                          name="fleet-watermarks",
                                          daemon=True)
            self._pump.start()
        self._started = True
        return self

    # -- the replicated control plane ------------------------------------

    def _commit(self, command: dict) -> None:
        """Replicate ``command`` to the control quorum, best-effort.

        The fleet's data plane never depends on a commit: a minority of
        dead replicas commits fine (majority rule), and even full quorum
        loss only stops state from being replicated — open sessions ride
        on, which is the availability contract the replicas exist to
        serve in the first place.
        """
        if self._quorum is None:
            return
        from ..control.client import QuorumError
        try:
            self._quorum.commit(command)
        except QuorumError:
            pass

    def _watermark_pump(self) -> None:
        """Replicate per-session progress high-water marks (0.25s tick).

        Watermark keys are ``<session>/<node>`` — the fleet multiplexes
        sessions, so progress is per (session, node), not per node.
        """
        last: Dict[str, int] = {}
        while not self._stop_reaper.wait(0.25):
            with self._lock:
                sessions = list(self._sessions.values())
            for sess in sessions:
                with sess.cond:
                    marks = dict(sess.progress)
                for node, received in sorted(marks.items()):
                    key = f"{sess.id}/{node}"
                    if received > last.get(key, -1):
                        last[key] = received
                        self._commit({"kind": "watermark", "node": key,
                                      "bytes": received})

    def _stop_replicas(self) -> None:
        if self._quorum is not None:
            try:
                self._quorum.shutdown_replicas()
            finally:
                self._quorum.close()
        if self._replica_procs:
            from ..control.replica import kill_replicas

            kill_replicas(self._replica_procs)

    def shutdown(self, grace: float = 5.0) -> None:
        """Graceful fleet teardown: quit, drain, kill only stragglers."""
        if self._closed:
            return
        self._closed = True
        self._stop_reaper.set()
        if self._reaper is not None:
            self._reaper.join(timeout=2.0)
        if self._pump is not None:
            self._pump.join(timeout=2.0)
        if self._coordinator is not None:
            for name in self._coordinator.registered_names():
                self._coordinator.send(name, {"op": "quit"})
        deadline = time.monotonic() + grace
        for proc in self._procs.values():
            if proc is None:
                continue
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                except (OSError, ProcessLookupError):
                    pass
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        if self._coordinator is not None:
            self._coordinator.close()
        self._stop_replicas()

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

    # -- fleet spawning --------------------------------------------------

    def _make_spawn(self, control) -> Callable[[str, int], subprocess.Popen]:
        argv = [
            self.python, "-m", "repro.cli.kascade", "agent", "--fleet",
            "--coordinator", f"{control.host}:{control.port}",
            "--bind", self.bind_host,
            "--cache-bytes", str(self.cache_bytes),
            "--start-timeout", str(max(60.0, self.startup_timeout * 4)),
        ]
        return agent_spawner(argv, stderr_dir=self.stderr_dir)

    # -- supervision -----------------------------------------------------

    def _reaper_loop(self) -> None:
        """waitpid + heartbeat supervision over the whole fleet — the
        procs backend's loop (:func:`repro.deploy.coordinator.supervise`).

        A dead fleet agent resolves every session it owed a status to —
        sessions must never hang on a process that no longer exists.
        """
        assert self._coordinator is not None
        supervise(self._coordinator, self._procs, self.fleet,
                  self._stop_reaper,
                  heartbeat_timeout=self.heartbeat_timeout,
                  tracer=self.tracer, emitter="server",
                  on_dead=self._fail_open_sessions)

    def _fail_open_sessions(self, name: str, reason: str) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
        for sess in sessions:
            with sess.cond:
                if name in sess.expected and not sess.resolved(name):
                    sess.dead[name] = reason
                    sess.note(f"{name} died: {reason}")
                    sess.cond.notify_all()
            self._maybe_trigger_joins(sess)

    # -- message routing -------------------------------------------------

    def _route(self, agent, msg: dict) -> None:
        op = msg.get("op")
        sid = msg.get("session")
        if sid is None:
            return
        with self._lock:
            sess = self._sessions.get(str(sid))
        if sess is None:
            return
        if op == "session_ack":
            with sess.cond:
                sess.acks[agent.name] = msg
                sess.cond.notify_all()
        elif op == "progress":
            received = int(msg.get("bytes", 0))
            with sess.cond:
                sess.progress[agent.name] = max(
                    sess.progress.get(agent.name, 0), received)
            fired = sess.chaos.on_progress(agent.name, received, agent.pid)
            if fired is not None:
                with sess.cond:
                    sess.crashed_by_chaos[agent.name] = fired
                    sess.note(f"chaos fired {fired} at {agent.name}")
            self._maybe_trigger_joins(sess)
        elif op == "session_status":
            with sess.cond:
                sess.statuses[agent.name] = msg
                sess.cond.notify_all()
            self._maybe_trigger_joins(sess)

    # -- late-joiner triggering ------------------------------------------

    def _maybe_trigger_joins(self, sess: _Session) -> None:
        with sess.cond:
            if not sess.pending_joins:
                return
            push_done = all(sess.resolved(n) for n in sess.push_nodes)
            top = max(sess.progress.values(), default=0)
            ready = [lj for lj in sess.pending_joins
                     if push_done or top >= lj.after_bytes]
            if not ready:
                return
            sess.pending_joins = [lj for lj in sess.pending_joins
                                  if lj not in ready]
        for lj in ready:
            self._send_join(sess, lj)

    def _send_join(self, sess: _Session, lj: LateJoin) -> None:
        assert self._coordinator is not None
        # Nearest-cache-warm-first: peers ordered by how much of the
        # artifact they had at ack time (receivers keep caching as the
        # push runs, so even a cold-at-ack peer fills in behind us).
        def warmth(name: str) -> int:
            ack = sess.acks.get(name, {})
            return int(ack.get("cached", 0))

        candidates = [n for n in (*sess.receivers, *sess.joined)
                      if n not in sess.dead and n != lj.node]
        peers = []
        for name in sorted(candidates, key=warmth, reverse=True):
            agent = self._coordinator.agent(name)
            if agent is not None:
                peers.append([agent.address.host, agent.address.port])
        output = (sess.output_template.replace("{node}", lj.node)
                  if sess.output_template else None)
        with sess.cond:
            sess.expected.add(lj.node)
            sess.joined.append(lj.node)
            sess.note(f"late join {lj.node} after {lj.after_bytes} bytes "
                      f"({len(peers)} pull peers)")
            sess.cond.notify_all()
        self._coordinator.send(lj.node, {
            "op": "session_join",
            "session": sess.id,
            "artifact": sess.artifact.to_wire(),
            "peers": peers,
            "output": output,
            "progress_every": self.progress_every,
            "run_timeout": max(1.0, sess.deadline - time.monotonic()),
        })

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

    def submit(
        self,
        source: Source,
        receivers: Optional[Sequence[str]] = None,
        *,
        head: Optional[str] = None,
        output_template: Optional[str] = None,
        chaos: Sequence[ChaosPlan] = (),
        late_join: Sequence[LateJoin] = (),
        session: Optional[str] = None,
        trace=None,
        timeout: float = 120.0,
    ) -> BroadcastResult:
        """Run one named session on the warm fleet; blocks until done.

        Thread-safe: concurrent ``submit`` calls multiplex over the same
        fleet (that is the point).  Returns the same
        :class:`~repro.runtime.BroadcastResult` shape as every other
        backend, with ``backend="daemon"`` and ``launch=None`` — the
        fleet launch happened once, at :meth:`start`, not here.
        """
        if not self._started or self._closed:
            raise KascadeError("DaemonServer is not running (call start())")
        assert self._coordinator is not None
        registered = set(self._coordinator.registered_names())
        head = head or self.fleet[0]
        if receivers is None:
            receivers = tuple(n for n in self.fleet
                              if n != head and n in registered)
        receivers = tuple(receivers)
        joiners = tuple(lj.node for lj in late_join)
        for name in (head, *receivers, *joiners):
            if name not in self.fleet:
                raise KascadeError(
                    f"{name!r} is not a fleet member "
                    f"(fleet: {sorted(self.fleet)})")
            if name not in registered:
                raise KascadeError(f"fleet member {name!r} is not registered "
                                   f"(died or never launched)")
        if head in receivers:
            raise KascadeError(f"head {head!r} cannot also be a receiver")
        overlap = set(joiners) & ({head} | set(receivers))
        if overlap:
            raise KascadeError(
                f"late joiners must not be in the session already: "
                f"{sorted(overlap)}")
        engine = ChaosEngine(chaos)
        engine.validate((*receivers, *joiners), known=self.fleet,
                        what="session")

        from ..core.tracing import NullRecorder
        from ..session import _resolve_trace
        if isinstance(trace, NullRecorder):
            tracer, trace_path = trace, None  # explicitly disabled
        else:
            tracer, trace_path = _resolve_trace(trace)

        with self._lock:
            self._session_seq += 1
            sid = str(session) if session else f"s{self._session_seq}"
            if sid in self._sessions:
                raise KascadeError(f"session {sid!r} already running")

        path, cleanup_source = materialize_source(source)
        started = time.monotonic()
        wall0 = time.time()
        try:
            artifact = self._artifact_for(path, self.config.chunk_size)
            sess = _Session(
                id=sid, artifact=artifact, head=head, receivers=receivers,
                chaos=engine, output_template=output_template, wall0=wall0,
                deadline=started + timeout,
                pending_joins=list(late_join),
            )
            self._register(sess)
            try:
                result = self._run_session(sess, path, tracer,
                                           started, timeout)
            finally:
                with self._lock:
                    self._sessions.pop(sid, None)
                    self._sessions_completed += 1
        finally:
            cleanup_source()
        if trace_path is not None and isinstance(tracer, TraceCollector):
            tracer.to_jsonl(trace_path)
        return result

    def _register(self, sess: _Session) -> None:
        with self._lock:
            self._sessions[sess.id] = sess
            active = len(self._sessions)
            for other in self._sessions.values():
                other.active_hwm = max(other.active_hwm, active)
        get_stats().note_sessions_active(active)

    def _run_session(
        self,
        sess: _Session,
        source_path: str,
        tracer,
        started: float,
        timeout: float,
    ) -> BroadcastResult:
        assert self._coordinator is not None
        coordinator = self._coordinator
        deadline = started + timeout
        artifact = sess.artifact
        sess.note(f"open artifact={artifact.digest[:12]} "
                  f"size={artifact.size} nodes={len(sess.receivers) + 1}")

        open_targets = [sess.head, *sess.receivers]
        for name in open_targets:
            coordinator.send(name, {
                "op": "session_open",
                "session": sess.id,
                "stripes": self.config.stripes,
                "artifact": artifact.to_wire(),
            })
        ack_deadline = min(deadline, time.monotonic() + 15.0)
        with sess.cond:
            sess.cond.wait_for(
                lambda: all(n in sess.acks or n in sess.dead
                            for n in open_targets),
                timeout=max(0.0, ack_deadline - time.monotonic()))
            missing = [n for n in open_targets
                       if n not in sess.acks and n not in sess.dead]
            for name in missing:
                sess.dead[name] = "no session_ack"
            warm = tuple(r for r in sess.receivers
                         if r in sess.acks and sess.acks[r].get("has_all"))
            cold = tuple(r for r in sess.receivers
                         if r not in warm and r not in sess.dead)

        plan: Optional[ChainPlan] = None
        head_runs = bool(cold) and sess.head in sess.acks
        if head_runs:
            plan = ChainPlan.build(sess.head, cold,
                                   stripes=self.config.stripes,
                                   order="given")
            self._commit({"kind": "plan", "plan": plan.to_dict()})
            self._send_session_starts(sess, plan, source_path, deadline)
            with sess.cond:
                sess.push_nodes = set(plan.base.chain)
                sess.expected |= sess.push_nodes
            sess.note(f"push chain over {len(cold)} cold receiver(s)")
        else:
            # Nothing to push: the head never runs, so its listeners —
            # bound at open — are released right away.
            coordinator.send(sess.head, {"op": "session_cancel",
                                         "session": sess.id})
        for name in warm:
            output = (sess.output_template.replace("{node}", name)
                      if sess.output_template else None)
            coordinator.send(name, {
                "op": "session_serve_cached",
                "session": sess.id,
                "artifact": artifact.to_wire(),
                "output": output,
            })
            with sess.cond:
                sess.expected.add(name)
        if warm:
            sess.note(f"{len(warm)} receiver(s) fully cached: "
                      f"serving locally, zero upstream")
        self._maybe_trigger_joins(sess)

        # Wait for every expected status; ``expected`` grows as joins
        # trigger, and a drained join queue is part of "done".
        while True:
            with sess.cond:
                unresolved = [n for n in sess.expected
                              if not sess.resolved(n)]
                pending = list(sess.pending_joins)
                if not unresolved and not pending:
                    break
                if time.monotonic() >= deadline:
                    for name in unresolved:
                        sess.dead[name] = (f"no status within the "
                                           f"{timeout}s session deadline")
                    sess.pending_joins = []
                    break
                sess.cond.wait(timeout=0.2)
            if pending and not unresolved:
                # Push finished with joins still queued (e.g. trigger
                # threshold above the artifact size): fire them now.
                self._maybe_trigger_joins(sess)
        # Final watermarks: a short session can finish between pump
        # ticks, so replicate the settled per-node byte counts here.
        with sess.cond:
            marks = dict(sess.progress)
            for name, status in sess.statuses.items():
                marks[name] = max(marks.get(name, 0),
                                  int(status.get("bytes", 0)))
        for name, received in sorted(marks.items()):
            self._commit({"kind": "watermark", "node": f"{sess.id}/{name}",
                          "bytes": received})
        return self._collect(sess, plan, head_runs, tracer, started)

    def _send_session_starts(self, sess: _Session, plan: ChainPlan,
                             source_path: str, deadline: float) -> None:
        assert self._coordinator is not None
        base_plan = plan.base
        # Session listeners are per-session: the ports come from each
        # agent's session_ack, the host from its registration.
        endpoints = {
            name: (self._coordinator.agent(name).address.host,
                   [int(p) for p in sess.acks[name]["ports"]])
            for name in base_plan.chain
        }
        base = {
            "op": "session_start",
            "session": sess.id,
            **wiring_to_wire(plan, endpoints, self.config),
            "artifact": sess.artifact.to_wire(),
            "run_timeout": max(1.0, deadline - time.monotonic()),
            "progress_every": self.progress_every,
        }
        for name in base_plan.chain:
            msg = dict(base)
            if name == base_plan.head:
                msg["source"] = source_path
            elif sess.output_template is not None:
                msg["output"] = sess.output_template.replace("{node}", name)
            self._coordinator.send(name, msg)

    def _collect(self, sess: _Session, plan: Optional[ChainPlan],
                 head_runs: bool, tracer, started: float) -> BroadcastResult:
        duration = time.monotonic() - started
        outcomes: Dict[str, NodeOutcome] = {}
        perfstats: Dict[str, int] = {}
        head_report: Optional[TransferReport] = None
        merged_events: list = []
        from_cache = 0

        with sess.cond:
            statuses = dict(sess.statuses)
            dead = dict(sess.dead)
            participants = [sess.head, *sess.receivers, *sess.joined]
            session_events = list(sess.events)

        for name in participants:
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
                if name == sess.head and status.get("report"):
                    head_report = TransferReport.decode(
                        bytes.fromhex(status["report"]))
                    outcomes[name].failures_detected = list(
                        head_report.failures)
            elif name in dead:
                outcomes[name] = NodeOutcome(
                    name=name, ok=False, crashed=True, error=dead[name],
                    bytes_received=sess.progress.get(name, 0),
                )
            elif name == sess.head and not head_runs:
                # All-warm session: the head never ran, by design.
                outcomes[name] = NodeOutcome(name=name, ok=True)
            else:
                outcomes[name] = NodeOutcome(
                    name=name, ok=False, crashed=True,
                    error="agent never resolved")

        for t_rel, detail in session_events:
            tracer.emit(tracing.SESSION, "server", t=t_rel,
                        detail=f"{sess.id}: {detail}")
        for event in sorted(merged_events, key=lambda e: e.t):
            tracer.emit(event.type, event.node, t=event.t,
                        offset=event.offset, peer=event.peer,
                        detail=event.detail, detector=event.detector)

        report = head_report if head_report is not None else TransferReport()
        # Per-session cache accounting: the agents' perfstats deltas
        # overlap under concurrent sessions in one process, so the
        # worker-counted ``from_cache`` in each status is authoritative.
        perfstats["bytes_from_cache"] = max(
            perfstats.get("bytes_from_cache", 0), from_cache)
        with self._lock:
            completed = self._sessions_completed + 1
        perfstats["sessions_active"] = sess.active_hwm
        if self.launch_report is not None:
            perfstats["launch_amortized_s"] = (
                self.launch_report.total_s / completed)

        excused = set(sess.chaos.targets())
        intended = [n for n in (*sess.receivers, *sess.joined)
                    if n not in excused]
        head_ok = outcomes[sess.head].ok
        ok = head_ok and all(outcomes[n].ok for n in intended)
        if head_runs:
            total_bytes = outcomes[sess.head].bytes_received
        else:
            total_bytes = sess.artifact.size
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=total_bytes,
            report=report,
            outcomes=outcomes,
            trace=(tracer if isinstance(tracer, TraceCollector) else None),
            perfstats=perfstats,
            backend="daemon",
            launch=None,
            plan=plan,
        )
