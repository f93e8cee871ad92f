"""The ``kascade agent`` process: one node program, started everywhere.

An agent is what the launcher starts on every node (locally today; the
command line is ssh-able by construction) — the paper's one node
program (§III-B).  It registers once and then serves *sessions* until
the supervisor says ``quit``:

1. dial the supervisor's control socket and register (``hello`` with
   name, pid and the host its peers dial);
2. per ``session_open`` bind one data-plane listener per stripe and ack
   with the ports (plus the cache state for the artifact, if any);
3. per ``session_start`` run the unmodified :mod:`repro.runtime` node
   logic (head or receiver) over real TCP on a worker thread —
   :func:`execute_transfer`, the one transfer function — heartbeating
   on the control socket throughout; a node with a crash plan fires it
   in its own loop (a ``note``, then a real signal to itself), and a
   head with late joiners notes the thresholds it crosses;
4. send a structured ``session_status`` — outcome, payload digest, the
   encoded ring report (head only), perfstats, and the trace events —
   and go back to waiting;
5. on ``quit`` (or control EOF) let in-flight sessions finish, exit 0.

An agent is not booted: it is forked.  The launcher starts one warm
agent per host, :func:`serve_forks`, that has loaded all of the above
and does nothing but ``fork()`` on request; each child runs
:func:`serve_sessions` with the command line an agent of its own would
have had.  A host pays for one interpreter, not one per node.

A one-shot ``kascade deploy`` is a fleet that serves one session.  What
an agent does follows from what it was given: with ``--cache-bytes 0``
there is no chunk cache and no cache code loaded
(:mod:`repro.daemon.replay` holds what is not the cache itself).

Exit codes: 0 drained, 2 usage/registration error, 3 deliberate startup
death (the ``--die-on-start`` test hook).
"""

from __future__ import annotations

import json
import os
import queue
import select
import signal
import socket
import sys
import threading
import time
import traceback
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import KascadeConfig
from ..core.engine import CrashGate
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.sinks import FileSink, HashingSink, NullSink, Sink
from ..core.sources import FileSource
from ..core.tracing import NULL_TRACER, TraceCollector
from ..runtime.host import HostChains
from ..runtime.registry import Address, Registry
from ..runtime.result import CrashPlan, crash_gate
from ..runtime.transport import Listener
from .protocol import (  # noqa: F401 - config_to_wire/wiring_to_wire re-exported
    HEARTBEAT_INTERVAL,
    ControlChannel,
    DeployError,
    config_to_wire,
    connect_control,
    wiring_to_wire,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIED_ON_START = 3


def _beat(channel: ControlChannel, stop: threading.Event) -> None:
    """Liveness tick on the control channel, every
    :data:`~repro.deploy.protocol.HEARTBEAT_INTERVAL` seconds, until
    ``stop`` is set.

    A SIGSTOPped agent stops ticking — that silence is exactly what the
    coordinator's supervision (and the peers' data-plane pings) must
    resolve, so the thread deliberately has no failure handling beyond
    "stop quietly when the channel is gone".
    """
    while not stop.wait(HEARTBEAT_INTERVAL):
        if not channel.send({"op": "heartbeat"}):
            return


#: Crash mode → the real signal an agent sends itself (§III-D):
#: ``"close"`` → ``SIGKILL``, the kernel closes every socket (peers see
#: RST); ``"silent"`` → ``SIGSTOP``, frozen with every socket open (peers
#: must tell it from congestion by timeout + ping).
SIGNALS = {"close": signal.SIGKILL, "silent": signal.SIGSTOP}


def _fault_gate(state: "_SessionState", name: str,
                msg: dict) -> Optional[CrashGate]:
    """This host's gate for the session ``msg`` starts, if it needs one.

    Its own crash plan (``crash``: ``[after_bytes, mode]``) fires in its
    own loop, the gate every backend builds
    (:func:`~repro.runtime.result.crash_gate`): a ``note`` on the control
    channel, then the real signal to this process, so it dies at the
    stored byte it would die at on threads.  A head with late joiners
    (``joins``: their thresholds) notes each one it crosses instead, so
    the supervisor lets them in on the head's bytes.
    """
    if msg.get("crash"):
        plan = CrashPlan(name, *msg["crash"])

        def fire(received: int) -> None:
            state.send("note", bytes=received, mode=plan.mode)
            os.kill(os.getpid(), SIGNALS[plan.mode])

        return crash_gate(plan, fire)
    joins = sorted(msg.get("joins") or ())
    if not joins:
        return None

    def gate(received: int) -> Optional[str]:
        if joins and received >= joins[0]:
            state.send("note", bytes=received)
            joins[:] = [after for after in joins if after > received]
        return None

    return gate


class TransferSetupError(Exception):
    """The start message and this agent's bound resources disagree
    (no plan/ports, stripe-count mismatch) — a refused session, not a
    transfer failure."""


class _SessionState:
    """Agent-side record of one open session."""

    def __init__(self, session: str, channel: ControlChannel,
                 listeners: List[Listener]) -> None:
        self.session = session
        self.listeners = listeners
        #: :class:`~repro.core.cache.ArtifactMeta`, pinned in the cache
        #: for the session's lifetime; ``None`` on an agent without one.
        self.artifact = None
        self.worker: Optional[threading.Thread] = None
        #: What a running transfer reacts to, in arrival order:
        #: ``("control", msg)`` routed here by the agent's one control
        #: loop, ``("exit", host)`` when a host it is running ends.
        self.events: "queue.Queue[Tuple[str, object]]" = queue.Queue()
        self._channel = channel

    def send(self, op: str, **fields) -> bool:
        return self._channel.send(
            {"op": op, "session": self.session, **fields})

    def close_listeners(self) -> None:
        for listener in self.listeners:
            listener.close()
        self.listeners = []


def _wiring(msg: dict, listeners: List[Listener]):
    """``(config, chain_plan, registries)`` from a start-shaped message.

    ``plan`` and ``ports`` are mandatory (``session_start`` and
    ``resume`` both carry them): stripe ``j`` of every node listens on
    the ``j``-th port the node acked at ``session_open``.
    """
    if not msg.get("plan") or not msg.get("ports"):
        raise TransferSetupError(
            f"{msg.get('op', 'session_start')} message carries no plan/ports")
    config = KascadeConfig(**msg["config"])
    chain_plan = ChainPlan.from_dict(msg["plan"])
    if chain_plan.stripe_count != len(listeners):
        raise TransferSetupError(
            f"{chain_plan.stripe_count}-stripe plan vs "
            f"{len(listeners)} bound listeners")
    hosts = {n: h for n, h, _port in msg["nodes"]}
    registries = [
        Registry({n: Address(hosts[n], int(msg["ports"][n][j]))
                  for n in hosts})
        for j in range(len(listeners))
    ]
    return config, chain_plan, registries


def execute_transfer(msg: dict, state: _SessionState, name: str, *,
                     cache=None) -> dict:
    """Run the transfer one ``session_start`` message describes.

    The one transfer function: an agent calls it once *per session*, on
    that session's listeners, and this process is one host of the
    schedule for its duration — one
    :class:`~repro.runtime.host.HostChains`.

    Returns the status payload (everything but ``op``/``session``).  A
    session the supervisor traces (``trace`` in the message) gets a
    collector, whose events the status carries; an untraced one records
    nothing and ships an empty ``trace``.  The trace collector — and
    therefore ``trace_epoch`` — is created *here*,
    at transfer start, so a long-lived agent running many sessions gets
    per-session time bases and the supervisor's merge rebases each
    session independently (not against the agent's process start).

    ``cache`` is the agent's :class:`~repro.core.cache.ChunkCache`, if
    it has one; when the message also carries an ``artifact`` identity,
    a receiving agent taps the merged stream into it chunk-by-chunk,
    becoming cache-warm for repeat broadcasts while this push is still
    running.

    On the threaded plane this thread follows the session's control
    events while the host runs (:func:`_follow_control`), so a session
    the supervisor re-roots mid-transfer — one admitted with
    ``allow_head_chaos``, and only such a one — can reach it.
    """
    listeners = state.listeners
    config, chain_plan, registries = _wiring(msg, listeners)
    run_timeout = float(msg.get("run_timeout", 600.0))

    # An untraced session's events would only be dropped by the
    # supervisor: record none and ship none.
    tracer = TraceCollector() if msg.get("trace") else NULL_TRACER
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()

    # data_plane travels inside the config: the supervisor's choice
    # reaches every agent without a new wire field.  Receivers always
    # wrap their sink in a HashingSink (the supervisor's byte-exactness
    # proof), which is not a bare NullSink — so evloop agents take the
    # userspace relay path and digests stay comparable across planes.
    digest_sink: Optional[HashingSink] = None
    role: dict = {"gate": _fault_gate(state, name, msg)}
    if name == chain_plan.head:
        role["source"] = FileSource(msg["source"])
        if config.data_plane == "evloop":
            role["gate"] = None  # takes none: its joiners come in at the end
    else:
        inner: Sink = (FileSink(msg["output"], expected_size=msg.get("size"))
                       if msg.get("output") else NullSink())
        # The digest hashes the *merged* stream, so it is comparable
        # across any stripe count (and with the head's source digest).
        digest_sink = HashingSink(inner)
        top: Sink = digest_sink
        if state.artifact is not None:
            from ..core.cache import CacheTapSink
            top = CacheTapSink(digest_sink, cache, state.artifact)
        role["sink"] = top
    host = HostChains(name, chain_plan, registries, listeners, config,
                      tracer=tracer, **role)

    stranded = False
    if config.data_plane == "evloop":
        from ..runtime.evloop import run_nodes

        # This thread drives the event loops (heartbeat stays threaded).
        run_nodes(list(host.nodes.values()), duration=run_timeout)
    else:
        deadline = time.monotonic() + run_timeout
        host.start()
        host, stranded = _follow_control(
            host, state, deadline, tracer=tracer, gate=role.get("gate"))
        host.expire(f"agent run exceeded {run_timeout}s")
    host.close()

    outcome = host.outcome
    ok = outcome.ok and not stranded
    error = outcome.error or ("failover interrupted" if stranded else None)
    host.settle(ok)
    if host.source is not None:
        host.source.close()

    final_report = host.report if host.is_head else None
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": bool(ok),
        "bytes": int(outcome.bytes_received),
        "crashed": bool(outcome.crashed),
        "error": error,
        "digest": digest_sink.hexdigest() if digest_sink is not None else None,
        "report": (final_report.encode().hex()
                   if final_report is not None else None),
        "perfstats": {k_: stats_after[k_] - stats_before.get(k_, 0)
                      for k_ in stats_after},
        "trace": tracer.to_jsonl() if tracer.enabled else "",
        "trace_epoch": trace_epoch,
    }


def _follow_control(
    host: HostChains,
    state: _SessionState,
    deadline: float,
    *,
    tracer,
    gate,
) -> Tuple[HostChains, bool]:
    """Wait out ``host``'s run while serving ``failover``/``resume`` ops.

    How :func:`execute_transfer` waits on the threaded plane: the host runs
    on its own threads while *this* thread follows the session's event
    queue.  When the supervisor announces head death (``failover``), the
    host lets go (:meth:`~repro.runtime.host.Host.let_go` — or, already
    finished, ends the run with its status), a fresh listener is bound,
    and the offset + new port go back as ``failover_ready``.  The
    supervisor's ``resume`` then rebuilds the host on the re-rooted plan
    by :meth:`~repro.runtime.host.Host.resume`, the rule the in-process
    drivers follow too.

    Returns the host that ended the run — the one given, or the one
    rebuilt on the re-rooted plan — and whether the transfer was left
    stranded between ``failover`` and a ``resume`` that never came.
    """
    # One queue carries everything this loop reacts to, in arrival
    # order: the session's control messages (put there by the agent's
    # control loop, which blocks on the socket) and the exit of the host
    # it is running (a watcher blocks on the threads) — so neither a
    # failover nor a finished transfer waits out a poll interval.
    events = state.events
    listeners = state.listeners

    def watch(running: HostChains) -> None:
        def wait() -> None:
            running.join()
            events.put(("exit", running))

        threading.Thread(target=wait, name=f"agent-watch-{host.name}",
                         daemon=True).start()

    watch(host)

    awaiting_resume = False
    while True:
        try:
            kind, item = events.get(
                timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            break  # out of time: the caller blames and stops what is left
        if kind == "exit":
            # The exit of a host detached for failover is expected; the
            # transfer is over when the *current* host's threads end.
            if item is host and not awaiting_resume:
                break
            continue
        ctl = item
        if ctl is None:
            # Supervisor gone (or draining us).  Mid-failover there is
            # nothing left to resume against; otherwise let the
            # transfer run out.
            if not awaiting_resume:
                host.join(deadline)
            break
        op = ctl.get("op")
        if op == "failover" and not host.is_head:
            if not host.let_go():
                break  # it finished (or would not stop): its status says so
            # The old listener stays open with the old connections (see
            # ``begin_failover``): a predecessor not yet told of the
            # failover may be dialling it.
            listeners[0] = Listener(host=listeners[0].address.host, port=0)
            awaiting_resume = True
            state.send("failover_ready", offset=host.offset,
                       ports=[listeners[0].address.port])
        elif op == "resume" and awaiting_resume:
            config, chain_plan, registries = _wiring(ctl, listeners)
            # Every survivor has detached by now (the supervisor waits
            # for all of them before it elects), so nobody is still
            # writing to the old host's connections.
            host.close_connections()
            host = host.resume(
                chain_plan,
                lambda name, **role: HostChains(
                    name, chain_plan, registries, listeners, config,
                    tracer=tracer, **role),
                source=ctl.get("source") and FileSource(ctl["source"]),
                gate=gate)
            awaiting_resume = False
            host.start()
            watch(host)
    if awaiting_resume:
        host.close_connections()  # stranded: no resume will come to do it
    return host, awaiting_resume


def serve_sessions(
    coordinator: Tuple[str, int],
    name: str,
    *,
    bind: str = "127.0.0.1",
    advertise: Optional[str] = None,
    start_timeout: float = 60.0,
    cache_bytes: int = 0,
    die_on_start: bool = False,
) -> int:
    """Run one agent until the supervisor says ``quit``; returns the
    process exit code.

    Registers once, then serves sessions: per ``session_open`` it binds
    fresh per-session data-plane listeners (one per stripe) and acks
    with their ports; ``session_start`` and ``session_serve_cached``
    each run on their own worker thread, so many
    sessions overlap inside one process, while this thread stays on the
    control socket and routes a running session's ``failover`` /
    ``resume`` to it.  ``quit`` drains: active workers finish, then the
    process exits 0 — ``SIGKILL`` stays the supervisor's abort path, not
    its happy path.

    ``cache_bytes > 0`` gives the agent a cross-session chunk cache;
    with 0 it has none, and none of that code is imported.
    """
    if die_on_start:
        # Test hook: a node whose process dies before it can register,
        # exercising the launcher's retry + re-plan path for real.
        return EXIT_DIED_ON_START

    cache = None
    if cache_bytes > 0:
        from ..core.cache import ArtifactMeta, ChunkCache
        from ..daemon.replay import serve_from_cache

        cache = ChunkCache(cache_bytes, stats=get_stats())
    try:
        channel = connect_control(coordinator[0], coordinator[1],
                                  timeout=start_timeout)
    except DeployError:
        return EXIT_USAGE
    # Sessions bind their own data ports: the host is all peers need.
    channel.send({"op": "hello", "name": name, "pid": os.getpid(),
                  "host": advertise or bind})
    stop_beating = threading.Event()
    threading.Thread(target=_beat, args=(channel, stop_beating),
                     name="agent-heartbeat", daemon=True).start()
    sessions: Dict[str, _SessionState] = {}
    lock = threading.Lock()
    exit_code = EXIT_OK

    def release(state: _SessionState) -> None:
        state.close_listeners()
        if state.artifact is not None:
            cache.unpin_artifact(state.artifact.digest)
        with lock:
            sessions.pop(state.session, None)

    def start_worker(state: _SessionState, fn: Callable[[], dict]) -> None:
        def run() -> None:
            try:
                status = fn()
            except Exception as exc:  # a session must never kill the agent
                # A start message this agent cannot honour is a refusal,
                # not a crash.
                refused = isinstance(exc, TransferSetupError)
                status = {"name": name, "ok": False, "bytes": 0,
                          "crashed": not refused,
                          "error": (str(exc) if refused
                                    else f"{type(exc).__name__}: {exc}"),
                          "digest": None, "report": None,
                          "perfstats": {}, "trace": "",
                          "trace_epoch": time.time()}
            state.send("session_status", **status)
            release(state)

        state.worker = threading.Thread(
            target=run, name=f"session-{state.session}", daemon=True)
        state.worker.start()

    try:
        while True:
            try:
                msg = channel.recv(timeout=0.5)
            except TimeoutError:
                continue
            except DeployError:
                exit_code = EXIT_USAGE  # the supervisor broke the protocol
                break
            if msg is None or msg["op"] == "quit":
                break  # told to go, or the supervisor is gone: drain
            op = msg["op"]
            session = str(msg.get("session", ""))
            with lock:
                state = sessions.get(session)

            if op == "session_open":
                listeners = [Listener(host=bind, port=0)
                             for _ in range(max(1, int(msg.get("stripes", 1))))]
                state = _SessionState(session, channel, listeners)
                ack = {"name": name,
                       "ports": [ln.address.port for ln in listeners]}
                if cache is not None and msg.get("artifact"):
                    artifact = ArtifactMeta.from_wire(msg["artifact"])
                    # Pin for the session's lifetime: a serve-cached
                    # agent must not lose chunks to LRU mid-session.
                    cache.pin_artifact(artifact.digest)
                    state.artifact = artifact
                    ack["has_all"] = cache.has_artifact(artifact.digest,
                                                        artifact.chunks)
                with lock:
                    sessions[session] = state
                state.send("session_ack", **ack)
            elif state is None:
                continue  # opened elsewhere, cancelled, or already over
            elif op == "session_start":
                start_worker(state, partial(execute_transfer, msg, state,
                                            name, cache=cache))
            elif op == "session_serve_cached" and state.artifact is not None:
                start_worker(state, partial(serve_from_cache, name, cache,
                                            state.artifact, msg.get("output"),
                                            bool(msg.get("trace"))))
            elif op in ("failover", "resume"):
                state.events.put(("control", msg))
            elif op == "session_cancel" and state.worker is None:
                release(state)
            # anything else: ignore — forward compatibility
    finally:
        # Drain: let in-flight sessions finish before exiting cleanly
        # (one waiting on a ``resume`` learns that none will come).
        with lock:
            running = [s for s in sessions.values() if s.worker is not None]
        for state in running:
            state.events.put(("control", None))
        for state in running:
            state.worker.join(timeout=10.0)
        stop_beating.set()
        channel.close()
    return exit_code


def serve_forks(channel: int, run: Callable[[List[str]], int], *,
                cached: bool = False) -> int:
    """Be this host's fork server: every agent on it is a ``fork()`` of
    this process.  Returns the exit code once the supervisor is gone and
    every child has been reaped.

    Everything an agent runs is loaded by now (with the cache's modules
    when ``cached``), so a child imports nothing: it starts where this
    process stands.  Requests arrive on ``channel``, one end of a
    ``SOCK_SEQPACKET`` pair, one JSON message per packet:

    * ``spawn{id, argv, stderr}`` → fork a child that runs
      ``run(argv)`` with stdin and stdout on ``/dev/null`` and stderr
      appended to the file named (``/dev/null`` when none); answer
      ``spawned{id, pid}`` with a pidfd of the child attached, or
      ``failed{id, error}``;
    * a child exits → reap it and say ``exit{pid, code}``, a signal as
      a negative code, as ``subprocess.Popen`` reports one;
    * end of file: the supervisor is done (or gone) — kill the children
      left, reap and report them, return.

    No thread is ever started here, so every fork copies one thread;
    children are watched through their pidfds, not ``SIGCHLD``.
    ``gc.freeze()`` keeps the collector off the pages the children
    share with this process.
    """
    import gc

    if cached:
        from ..core import cache  # noqa: F401 - loaded once, for every child
        from ..daemon import replay  # noqa: F401
    sock = socket.socket(fileno=channel)
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    children: Dict[int, int] = {}  # pidfd -> pid
    listening = True

    def say(fds=(), **msg) -> None:
        try:
            socket.send_fds(sock, [json.dumps(msg).encode()], fds)
        except OSError:  # the supervisor is gone
            if listening:
                hang_up()

    def hang_up() -> None:
        nonlocal listening
        listening = False
        poller.unregister(sock)
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)  # not reaped yet: still ours

    gc.freeze()
    say(op="ready")
    while listening or children:
        for fd, _events in poller.poll():
            if fd in children:
                pid = children.pop(fd)
                poller.unregister(fd)
                os.close(fd)
                _, status = os.waitpid(pid, 0)
                say(op="exit", pid=pid,
                    code=os.waitstatus_to_exitcode(status))
                continue
            try:
                request = sock.recv(1 << 16)
            except OSError:
                request = b""
            if not request:
                hang_up()
                continue
            request = json.loads(request)
            try:
                pid = _fork_agent(request, run, [channel, *children])
            except OSError as exc:
                say(op="failed", id=request["id"], error=str(exc))
                continue
            try:
                pidfd = os.pidfd_open(pid)
            except OSError as exc:  # out of descriptors: unwatchable
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                say(op="failed", id=request["id"], error=str(exc))
                continue
            children[pidfd] = pid
            poller.register(pidfd, select.POLLIN)
            say([pidfd], op="spawned", id=request["id"], pid=pid)
    sock.close()
    return EXIT_OK


def _fork_agent(request: dict, run: Callable[[List[str]], int],
                inherited: List[int]) -> int:
    """Fork one agent; in the child, run it and never come back."""
    sys.stderr.flush()  # or the child writes this process's buffer again
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        null = os.open(os.devnull, os.O_RDWR)
        err = (os.open(request["stderr"],
                       os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
               if request.get("stderr") else null)
        for target, fd in ((0, null), (1, null), (2, err)):
            os.dup2(fd, target)
        for fd in {null, err} - {0, 1, 2}:
            os.close(fd)
        code = run(request["argv"])
    except SystemExit as exc:
        if isinstance(exc.code, int) or exc.code is None:
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
    except BaseException:  # noqa: BLE001 - a child never returns to the loop
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)
