"""The ``kascade agent`` process: one pipeline node, one OS process.

An agent is what the launcher starts on every node (locally today; the
command line is ssh-able by construction).  Its life cycle mirrors the
paper's startup phase (§III-B):

1. bind the data-plane listen socket on an ephemeral port;
2. dial the coordinator's control socket and register (``hello`` with
   name, pid, and the bound address);
3. wait for ``start`` — the final node list (re-planned around launch
   failures), the config, and this node's source/sink assignment;
4. run the unmodified :mod:`repro.runtime` node logic (head or
   receiver) over real TCP, heartbeating on the control socket and
   reporting throttled progress (which drives the chaos hook);
5. send a structured ``status`` — outcome, payload digest, the encoded
   ring report (head only), perfstats, and the agent's trace events —
   then exit with a structured code.

Exit codes: 0 ok, 1 transfer failed, 2 usage/registration error,
3 deliberate startup death (the ``--die-on-start`` test hook),
4 cancelled by the coordinator.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from typing import Callable, List, Optional, Tuple

from ..core.config import KascadeConfig
from ..core.errors import KascadeError
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.sinks import FileSink, NullSink, Sink
from ..core.sources import FileSource
from ..core.tracing import TraceCollector
from ..runtime.host import HostChains
from ..runtime.registry import Address, Registry
from ..runtime.result import check_head_failover
from ..runtime.transport import Listener
from .protocol import (  # noqa: F401 - config_to_wire/wiring_to_wire re-exported
    ControlChannel,
    DeployError,
    config_to_wire,
    connect_control,
    wiring_to_wire,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DIED_ON_START = 3
EXIT_CANCELLED = 4


class DigestSink(Sink):
    """Hash every chunk on its way into the real sink.

    Gives the coordinator an end-to-end payload digest per node without
    shipping payload bytes over the control plane — survivors of a chaos
    run prove byte-exactness with one hex string.
    """

    def __init__(self, inner: Sink) -> None:
        self.inner = inner
        self._hash = hashlib.sha256()
        self.bytes_written = 0

    def write_chunk(self, data) -> None:
        self._hash.update(data)
        self.bytes_written += len(data)
        self.inner.write_chunk(data)

    def preallocate(self, size: int) -> None:
        self.inner.preallocate(size)

    def finish(self) -> None:
        self.inner.finish()

    def abort(self) -> None:
        self.inner.abort()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class _Heartbeat:
    """Background liveness tick on the control channel.

    A SIGSTOPped agent stops ticking — that silence is exactly what the
    coordinator's supervision (and the peers' data-plane pings) must
    resolve, so the thread deliberately has no failure handling beyond
    "stop quietly when the channel is gone".
    """

    def __init__(self, channel: ControlChannel, interval: float) -> None:
        self._channel = channel
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="agent-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._channel.send({"op": "heartbeat"}):
                return


def _progress_gate(send: Callable[[int], None], every: int):
    """A host-level :data:`~repro.runtime.node.CrashGate` that never
    crashes.

    Reuses the receiver's per-chunk gate slot to stream throttled
    progress (via ``send(total_bytes)``, the host's *aggregate* count
    across stripes) to the coordinator — the signal the chaos engine
    keys on, and chaos thresholds are host-level.
    """
    last = [0]

    def gate(received: int) -> Optional[str]:
        if received - last[0] >= every:
            last[0] = received
            send(received)
        return None

    return gate


def run_agent(
    coordinator: Tuple[str, int],
    name: str,
    *,
    bind: str = "127.0.0.1",
    advertise: Optional[str] = None,
    start_timeout: float = 60.0,
    die_on_start: bool = False,
    stripes: int = 1,
) -> int:
    """Run one agent to completion; returns the process exit code.

    One data-plane listener is bound per stripe; the hello advertises
    every port and the start message carries the
    :class:`~repro.core.plan.ChainPlan` naming this node's feeder and
    successor per stripe.
    """
    if die_on_start:
        # Test hook: a node whose process dies before it can register,
        # exercising the launcher's retry + re-plan path for real.
        return EXIT_DIED_ON_START

    listeners = [Listener(host=bind, port=0) for _ in range(max(1, stripes))]
    try:
        channel = connect_control(coordinator[0], coordinator[1],
                                  timeout=start_timeout)
    except DeployError:
        for listener in listeners:
            listener.close()
        return EXIT_USAGE
    try:
        return _run_registered(channel, listeners, name,
                               advertise or listeners[0].address.host,
                               start_timeout)
    finally:
        channel.close()
        for listener in listeners:
            listener.close()


def _run_registered(
    channel: ControlChannel,
    listeners: List[Listener],
    name: str,
    advertise_host: str,
    start_timeout: float,
) -> int:
    channel.send({
        "op": "hello",
        "name": name,
        "pid": os.getpid(),
        "host": advertise_host,
        "ports": [ln.address.port for ln in listeners],
    })
    try:
        msg = channel.recv(timeout=start_timeout)
    except (TimeoutError, DeployError):
        return EXIT_USAGE
    if msg is None or msg.get("op") == "cancel":
        return EXIT_CANCELLED
    if msg.get("op") != "start":
        return EXIT_USAGE

    heartbeat = _Heartbeat(channel, float(msg.get("heartbeat_interval", 0.5)))
    heartbeat.start()
    progress_send = lambda total: channel.send(  # noqa: E731
        {"op": "progress", "bytes": total})
    try:
        # A coordinator with a replicated control plane may re-root the
        # chain mid-transfer ("failover"): the transfer then stays on
        # the control channel while the host runs.
        status = execute_transfer(
            msg, listeners, name, progress_send=progress_send,
            control=channel if msg.get("failover") else None,
        )
    except TransferSetupError:
        return EXIT_USAGE
    finally:
        heartbeat.stop()
    channel.send({"op": "status", **status})
    return EXIT_OK if status["ok"] else EXIT_FAILED


class TransferSetupError(Exception):
    """The start message and this agent's bound resources disagree
    (no plan/ports, stripe-count mismatch, a failover this agent cannot
    survive) — a usage error, not a transfer failure."""


def _wiring(msg: dict, listeners: List[Listener]):
    """``(config, chain_plan, registries)`` from a start-shaped message.

    ``plan`` and ``ports`` are mandatory (``start``, ``resume`` and
    ``session_start`` all carry them): stripe ``j`` of every node
    listens on the ``j``-th port the node advertised in its hello.
    """
    if not msg.get("plan") or not msg.get("ports"):
        raise TransferSetupError(
            f"{msg.get('op', 'start')} message carries no plan/ports")
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


def execute_transfer(
    msg: dict,
    listeners: List[Listener],
    name: str,
    *,
    progress_send: Callable[[int], None],
    cache=None,
    control: Optional[ControlChannel] = None,
) -> dict:
    """Run the transfer one ``start``-shaped message describes.

    The reusable heart of an agent: the one-shot ``kascade agent``
    process calls this exactly once; a persistent daemon fleet agent
    (:mod:`repro.daemon.agent`) calls it once *per session*, from an
    already-registered process, with per-session listeners.  Either way
    this process is one host of the schedule: one
    :class:`~repro.runtime.host.HostChains`.

    Returns the status payload (everything but the ``op`` field).  The
    trace collector — and therefore ``trace_epoch`` — is created *here*,
    at transfer start, so a long-lived agent running many sessions gets
    per-session time bases and the coordinator's merge rebases each
    session independently (not against the agent's process start).

    ``cache`` is an optional :class:`~repro.core.cache.ChunkCache`;
    when the message carries an ``artifact`` identity, a receiving
    agent taps the merged stream into it chunk-by-chunk, becoming
    cache-warm for repeat broadcasts and pull-phase peers while this
    push is still running.

    ``control`` makes the transfer failover-capable: the coordinator
    runs a replicated control plane and may re-root the chain
    mid-transfer, so this thread stays on the channel while the host
    runs (:func:`_follow_control`).
    """
    config, chain_plan, registries = _wiring(msg, listeners)
    if control is not None:
        try:
            check_head_failover(chain_plan.stripe_count, config.data_plane)
        except KascadeError as exc:
            raise TransferSetupError(str(exc)) from None
    run_timeout = float(msg.get("run_timeout", 600.0))

    tracer = TraceCollector()
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()

    # data_plane travels inside the config: the coordinator's choice
    # reaches every agent without a new wire field.  Receivers always
    # wrap their sink in DigestSink (the coordinator's byte-exactness
    # proof), which is not a bare NullSink — so evloop agents take the
    # userspace relay path and digests stay comparable across planes.
    digest_sink: Optional[DigestSink] = None
    role: dict = {}
    if name == chain_plan.head:
        role["source"] = FileSource(msg["source"])
    else:
        inner: Sink = (FileSink(msg["output"]) if msg.get("output")
                       else NullSink())
        # The digest hashes the *merged* stream, so it is comparable
        # across any stripe count (and with the head's source digest).
        digest_sink = DigestSink(inner)
        top: Sink = digest_sink
        if cache is not None and msg.get("artifact"):
            from ..core.cache import ArtifactMeta, CacheTapSink
            top = CacheTapSink(digest_sink, cache,
                               ArtifactMeta.from_wire(msg["artifact"]))
        role["sink"] = _FinishGuard(top) if control is not None else top
        role["gate"] = _progress_gate(
            progress_send, int(msg.get("progress_every", 1 << 18)))
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
        if control is None:
            host.join(deadline)
        else:
            host, stranded = _follow_control(
                host, control, listeners, deadline,
                tracer=tracer, gate=role.get("gate"))
        host.expire(f"agent run exceeded {run_timeout}s")
    host.close()

    outcome = host.outcome
    ok = outcome.ok and not stranded
    error = outcome.error
    if stranded:
        error = error or "failover interrupted"
    promoted = host.is_head and host.resume_offset is not None
    if promoted:
        if ok:
            host.complete_own_copy()
        else:
            host.sink.abort()
    if host.source is not None:
        host.source.close()

    report_hex: Optional[str] = None
    failures: List[str] = []
    final_report = host.report if host.is_head else None
    if final_report is not None:
        report_hex = final_report.encode().hex()
        failures = final_report.failed_nodes
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": bool(ok),
        "bytes": int(outcome.bytes_received),
        "crashed": bool(outcome.crashed),
        "error": error,
        "digest": digest_sink.hexdigest() if digest_sink is not None else None,
        "report": report_hex,
        "failures": failures,
        "promoted": promoted,
        "perfstats": {k_: stats_after[k_] - stats_before.get(k_, 0)
                      for k_ in stats_after},
        "trace": tracer.to_jsonl(),
        "trace_epoch": trace_epoch,
    }


class _FinishGuard(Sink):
    """Protects a sink retained across a failover hand-off.

    ``finish`` becomes idempotent (a node that completed before the
    failover already finished the chain; the resumed node finishes it
    again), and ``abort`` after a successful finish is a no-op — a
    completed output file must never be unlinked by a hiccup in the
    trivial resumed transfer that follows.
    """

    def __init__(self, inner: Sink) -> None:
        self.inner = inner
        self._settled = False

    def write_chunk(self, data) -> None:
        self.inner.write_chunk(data)

    def preallocate(self, size: int) -> None:
        self.inner.preallocate(size)

    def finish(self) -> None:
        if not self._settled:
            self._settled = True
            self.inner.finish()

    def abort(self) -> None:
        if not self._settled:
            self._settled = True
            self.inner.abort()


def _follow_control(
    host: HostChains,
    control: ControlChannel,
    listeners: List[Listener],
    deadline: float,
    *,
    tracer,
    gate,
) -> Tuple[HostChains, bool]:
    """Wait out ``host``'s run while serving ``failover``/``resume`` ops.

    The head-failover episode of :func:`execute_transfer`: the host runs
    on its own threads while *this* thread stays on the control channel.
    When the coordinator announces head death (``failover``), the host
    is detached — loops interrupted, writeback drained, sink preserved,
    stream offset captured — a fresh listener is bound, and the offset +
    new port go back as ``failover_ready``.  The quorum's ``resume``
    then rebuilds the host under the re-rooted plan: the promoted
    survivor becomes a head streaming the source from the election
    watermark (serving PGET below it), everyone else becomes a receiver
    that keeps its sink and asks for bytes from where it stopped.

    Returns the host that ended the run — the one given, or the one
    rebuilt on the re-rooted plan — and whether the transfer was left
    stranded between ``failover`` and a ``resume`` that never came.
    """
    # One queue carries everything this loop reacts to, in arrival
    # order: control messages and the exit of the host it is running.
    # Both producers block (on the socket, on the threads), so neither a
    # failover nor a finished transfer waits out a poll interval.
    events: "queue.Queue[Tuple[str, object]]" = queue.Queue()

    def read_control() -> None:
        while True:
            try:
                ctl = control.recv(timeout=None)
            except DeployError:
                continue  # one poisoned control line must not kill the agent
            events.put(("control", ctl))
            if ctl is None:
                return

    def watch(running: HostChains) -> None:
        def wait() -> None:
            running.join()
            events.put(("exit", running))

        threading.Thread(target=wait, name=f"agent-watch-{host.name}",
                         daemon=True).start()

    threading.Thread(target=read_control, name=f"agent-control-{host.name}",
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
            # Coordinator gone.  Mid-failover there is nothing left to
            # resume against; otherwise let the transfer run out.
            if not awaiting_resume:
                host.join(deadline)
            break
        op = ctl.get("op")
        if op == "failover" and not host.is_head:
            host.detach()
            host.retained_sink()
            bind_host = listeners[0].address.host
            listeners[0].close()
            listeners[0] = Listener(host=bind_host, port=0)
            awaiting_resume = True
            control.send({
                "op": "failover_ready",
                "offset": host.offset,
                "ports": [listeners[0].address.port],
            })
        elif op == "resume" and awaiting_resume:
            config, chain_plan, registries = _wiring(ctl, listeners)
            # Every survivor has detached by now (the coordinator waits
            # for all of them before it elects), so nobody is still
            # writing to the old host's connections.
            host.close_connections()
            if host.name == chain_plan.head:
                role = {"source": FileSource(ctl["source"]),
                        "resume_offset": int(ctl["resume_offset"])}
            else:
                role = {"gate": gate, "resume_offset": host.offset}
            host = HostChains(host.name, chain_plan, registries, listeners,
                              config, sink=host.sink, tracer=tracer, **role)
            awaiting_resume = False
            host.start()
            watch(host)
        elif op in ("cancel", "quit"):
            host.shutdown()
            host.join(time.monotonic() + 2.0)
            break
    return host, awaiting_resume
