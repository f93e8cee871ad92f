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

import dataclasses
import hashlib
import os
import queue
import threading
import time
from typing import Callable, List, Optional, Tuple

from ..core.config import KascadeConfig
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.report import TransferReport
from ..core.sinks import FileSink, NullSink, Sink
from ..core.sources import FileSource, ResumeView
from ..core.stripes import StripeMergeSink, StripeSource
from ..core.tracing import TraceCollector
from ..runtime.node import HeadNode, ReceiverNode
from ..runtime.registry import Registry
from ..runtime.transport import Address, Listener
from .protocol import ControlChannel, DeployError, connect_control

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
    """A :data:`~repro.runtime.node.CrashGate` that never crashes.

    Reuses the receiver's per-chunk gate slot to stream throttled
    progress (via ``send(total_bytes)``) to the coordinator — the
    signal the chaos engine keys on.
    """
    last = [0]

    def gate(received: int) -> Optional[str]:
        if received - last[0] >= every:
            last[0] = received
            send(received)
        return None

    return gate


def _progress_gates(send: Callable[[int], None], every: int, stripes: int):
    """Per-stripe gates reporting the host's *aggregate* byte count.

    Chaos thresholds are host-level on a striped run, so the progress
    stream the chaos engine keys on must be too.
    """
    lock = threading.Lock()
    seen = [0] * stripes
    last = [0]

    def for_stripe(stripe: int):
        def gate(received: int) -> Optional[str]:
            with lock:
                seen[stripe] = received
                total = sum(seen)
                if total - last[0] < every:
                    return None
                last[0] = total
            send(total)
            return None

        return gate

    return for_stripe


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

    ``stripes > 1`` binds one data-plane listener per stripe; the hello
    advertises every port and the start message carries the
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
        # "port" stays for pre-stripe readers; "ports" is the full set.
        "port": listeners[0].address.port,
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
        if msg.get("failover"):
            # The coordinator runs a replicated control plane and may
            # re-root the chain mid-transfer: stay on the control
            # channel while the node runs.
            status = _run_failover_capable(channel, listeners, name, msg,
                                           progress_send=progress_send)
        else:
            status = execute_transfer(
                msg, listeners, name, progress_send=progress_send,
            )
    except TransferSetupError:
        return EXIT_USAGE
    finally:
        heartbeat.stop()
    channel.send({"op": "status", **status})
    return EXIT_OK if status["ok"] else EXIT_FAILED


class TransferSetupError(Exception):
    """The start message and this agent's bound resources disagree
    (e.g. stripe-count mismatch) — a usage error, not a transfer failure."""


def execute_transfer(
    msg: dict,
    listeners: List[Listener],
    name: str,
    *,
    progress_send: Callable[[int], None],
    cache=None,
) -> dict:
    """Run the transfer one ``start``-shaped message describes.

    The reusable heart of an agent: the one-shot ``kascade agent``
    process calls this exactly once; a persistent daemon fleet agent
    (:mod:`repro.daemon.agent`) calls it once *per session*, from an
    already-registered process, with per-session listeners.

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
    """
    config = KascadeConfig(**msg["config"])
    nodes = [(n, Address(h, p)) for n, h, p in msg["nodes"]]
    head = msg["head"]
    if msg.get("plan"):
        chain_plan = ChainPlan.from_dict(msg["plan"])
    else:
        chain_plan = ChainPlan.single(
            head, tuple(n for n, _ in nodes if n != head))
    k = chain_plan.stripe_count
    if k != len(listeners):
        raise TransferSetupError(
            f"{k}-stripe plan vs {len(listeners)} bound listeners")
    # Stripe j of every node listens on its j-th advertised port; the
    # legacy single-port start message is the k == 1 degenerate case.
    ports = {n: [a.port] for n, a in nodes}
    for node_name, node_ports in (msg.get("ports") or {}).items():
        ports[node_name] = [int(p) for p in node_ports]
    hosts = {n: a.host for n, a in nodes}
    registries = [
        Registry({n: Address(hosts[n], ports[n][j]) for n in hosts})
        for j in range(k)
    ]
    run_timeout = float(msg.get("run_timeout", 600.0))
    artifact = msg.get("artifact")

    tracer = TraceCollector()
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()

    # data_plane travels inside the config: the coordinator's choice
    # reaches every agent without a new wire field.  Receivers always
    # wrap their sink in DigestSink (the coordinator's byte-exactness
    # proof), which is not a bare NullSink — so evloop agents take the
    # userspace relay path and digests stay comparable across planes.
    evloop_plane = config.data_plane == "evloop"
    if evloop_plane:
        from ..runtime.evloop import EvHeadNode, EvReceiverNode, run_nodes
        head_cls, recv_cls = EvHeadNode, EvReceiverNode
    else:
        head_cls, recv_cls = HeadNode, ReceiverNode

    digest_sink: Optional[DigestSink] = None
    source: Optional[FileSource] = None
    progress_every = int(msg.get("progress_every", 1 << 18))
    agent_nodes = []
    if name == head:
        source = FileSource(msg["source"])
        for j in range(k):
            src = (source if k == 1
                   else StripeSource(source, j, k, config.chunk_size))
            agent_nodes.append(head_cls(
                name, chain_plan.stripe(j), registries[j], listeners[j],
                config, src, tracer=tracer,
            ))
    else:
        inner: Sink = (FileSink(msg["output"]) if msg.get("output")
                       else NullSink())
        # The digest hashes the *merged* stream, so it is comparable
        # across any stripe count (and with the head's source digest).
        digest_sink = DigestSink(inner)
        top: Sink = digest_sink
        if cache is not None and artifact:
            from ..core.cache import ArtifactMeta, CacheTapSink
            top = CacheTapSink(digest_sink, cache,
                               ArtifactMeta.from_wire(artifact))
        if k == 1:
            stripe_sinks: List[Sink] = [top]
            gate_for = lambda j: _progress_gate(progress_send, progress_every)
        else:
            merger = StripeMergeSink(top, k, config.chunk_size)
            stripe_sinks = [merger.port(j) for j in range(k)]
            gates = _progress_gates(progress_send, progress_every, k)
            gate_for = gates
        for j in range(k):
            agent_nodes.append(recv_cls(
                name, chain_plan.stripe(j), registries[j], listeners[j],
                config, stripe_sinks[j], crash_gate=gate_for(j),
                tracer=tracer,
            ))

    if evloop_plane:
        # This thread *is* the event loop (heartbeat stays threaded).
        run_nodes(agent_nodes, duration=run_timeout)
        for node in agent_nodes:
            if not node.finished:
                node.outcome.error = node.outcome.error or (
                    f"agent run exceeded {run_timeout}s"
                )
    else:
        deadline = time.monotonic() + run_timeout
        for node in agent_nodes:
            node.start()
        for node in agent_nodes:
            node.join(max(0.0, deadline - time.monotonic()))
            if node.thread.is_alive():
                node.outcome.error = node.outcome.error or (
                    f"agent run exceeded {run_timeout}s"
                )
                node.shutdown()
                node.join(2.0)
    if source is not None:
        source.close()

    outcomes = [node.outcome for node in agent_nodes]
    ok = all(o.ok for o in outcomes)
    total = sum(o.bytes_received for o in outcomes)
    error = next((o.error for o in outcomes if o.error), None)
    crashed = any(o.crashed for o in outcomes)
    report_hex: Optional[str] = None
    failures: List[str] = []
    if name == head:
        if k == 1:
            final_report = agent_nodes[0].final_report
        else:
            # Pool the per-stripe ring reports (no single source digest
            # spans a striped stream, so the merged report carries none).
            final_report = TransferReport()
            for node in agent_nodes:
                if node.final_report is not None:
                    final_report.extend(node.final_report.failures)
        if final_report is not None:
            report_hex = final_report.encode().hex()
            failures = final_report.failed_nodes
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": bool(ok),
        "bytes": int(total),
        "crashed": bool(crashed),
        "error": error,
        "digest": digest_sink.hexdigest() if digest_sink is not None else None,
        "report": report_hex,
        "failures": failures,
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


def _run_failover_capable(
    msg_channel: ControlChannel,
    listeners: List[Listener],
    name: str,
    msg: dict,
    *,
    progress_send: Callable[[int], None],
) -> dict:
    """Run the transfer while serving ``failover``/``resume`` ops.

    The head-failover variant of :func:`execute_transfer`: the node runs
    on its own threads while *this* thread stays on the control channel.
    When the coordinator announces head death (``failover``), the node
    is detached — loops interrupted, writeback drained, sink preserved,
    stream offset captured — a fresh listener is bound, and the offset +
    new port go back as ``failover_ready``.  The quorum's ``resume``
    then rebuilds the node under the re-rooted plan: the promoted
    survivor becomes a head streaming the source from the election
    watermark (serving PGET below it), everyone else becomes a receiver
    that keeps its sink and asks for bytes from where it stopped.

    Single-stripe, threaded data plane only — the coordinator enforces
    both before opting a run into failover.
    """
    config = KascadeConfig(**msg["config"])
    nodes = [(n, Address(h, p)) for n, h, p in msg["nodes"]]
    head = msg["head"]
    if msg.get("plan"):
        chain_plan = ChainPlan.from_dict(msg["plan"])
    else:
        chain_plan = ChainPlan.single(
            head, tuple(n for n, _ in nodes if n != head))
    if chain_plan.stripe_count != 1 or len(listeners) != 1:
        raise TransferSetupError("head failover requires a 1-stripe plan")
    if config.data_plane == "evloop":
        raise TransferSetupError(
            "head failover is not survivable on data_plane='evloop'")
    ports = {n: [a.port] for n, a in nodes}
    for node_name, node_ports in (msg.get("ports") or {}).items():
        ports[node_name] = [int(p) for p in node_ports]
    hosts = {n: a.host for n, a in nodes}
    registry = Registry({n: Address(hosts[n], ports[n][0]) for n in hosts})
    run_timeout = float(msg.get("run_timeout", 600.0))
    progress_every = int(msg.get("progress_every", 1 << 18))

    tracer = TraceCollector()
    trace_epoch = time.time()
    stats_before = get_stats().snapshot()

    digest_sink: Optional[DigestSink] = None
    guard: Optional[_FinishGuard] = None
    source: Optional[FileSource] = None
    if name == head:
        source = FileSource(msg["source"])
        node = HeadNode(name, chain_plan.stripe(0), registry, listeners[0],
                        config, source, tracer=tracer)
    else:
        inner: Sink = (FileSink(msg["output"]) if msg.get("output")
                       else NullSink())
        digest_sink = DigestSink(inner)
        guard = _FinishGuard(digest_sink)
        node = ReceiverNode(
            name, chain_plan.stripe(0), registry, listeners[0], config, guard,
            crash_gate=_progress_gate(progress_send, progress_every),
            tracer=tracer,
        )
    # One queue carries everything this loop reacts to, in arrival
    # order: control messages and the exit of the node it is running.
    # Both producers block (on the socket, on the thread), so neither a
    # failover nor a finished transfer waits out a poll interval.
    events: "queue.Queue[Tuple[str, object]]" = queue.Queue()

    def read_control() -> None:
        while True:
            try:
                ctl = msg_channel.recv(timeout=None)
            except DeployError:
                continue  # one poisoned control line must not kill the agent
            events.put(("control", ctl))
            if ctl is None:
                return

    def run_node(started: "HeadNode | ReceiverNode") -> None:
        def watch() -> None:
            started.join()
            events.put(("exit", started))

        started.start()
        threading.Thread(target=watch, name=f"agent-watch-{name}",
                         daemon=True).start()

    threading.Thread(target=read_control, name=f"agent-control-{name}",
                     daemon=True).start()
    run_node(node)

    deadline = time.monotonic() + run_timeout
    awaiting_resume = False
    promoted = False
    promoted_source: Optional[FileSource] = None
    prefix_bytes = 0  # bytes already in this node's sink at detach time

    while True:
        try:
            kind, item = events.get(
                timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            node.outcome.error = node.outcome.error or (
                f"agent run exceeded {run_timeout}s")
            node.shutdown()
            node.join(2.0)
            break
        if kind == "exit":
            # The exit of a node detached for failover is expected; the
            # transfer is over when the *current* node's thread ends.
            if item is node and not awaiting_resume:
                break
            continue
        ctl = item
        if ctl is None:
            # Coordinator gone.  Mid-failover there is nothing left to
            # resume against; otherwise let the transfer run out.
            if awaiting_resume:
                break
            node.join(max(0.0, deadline - time.monotonic()))
            break
        op = ctl.get("op")
        if op == "failover" and name != head and not promoted:
            node.begin_failover()
            node.join(5.0)
            prefix_bytes = node.state.offset
            node.detach_sink()
            bind_host = listeners[0].address.host
            listeners[0].close()
            listeners[0] = Listener(host=bind_host, port=0)
            awaiting_resume = True
            msg_channel.send({
                "op": "failover_ready",
                "offset": prefix_bytes,
                "ports": [listeners[0].address.port],
            })
        elif op == "resume" and awaiting_resume:
            rconfig = KascadeConfig(**ctl["config"])
            rplan = ChainPlan.from_dict(ctl["plan"])
            rhosts = {n: h for n, h, _ in ctl["nodes"]}
            rports = {n: [int(p) for p in ps]
                      for n, ps in ctl["ports"].items()}
            rregistry = Registry({n: Address(rhosts[n], rports[n][0])
                                  for n in rhosts})
            # Every survivor has detached by now (the coordinator waits
            # for all of them before it elects), so nobody is still
            # writing to the old node's connections.
            node.close_connections()
            if name == ctl["head"]:
                promoted = True
                resume_at = int(ctl["resume_offset"])
                promoted_source = FileSource(ctl["source"])
                node = HeadNode(
                    name, rplan.stripe(0), rregistry, listeners[0], rconfig,
                    ResumeView(promoted_source, resume_at), tracer=tracer,
                    resume_offset=resume_at,
                )
            else:
                node = ReceiverNode(
                    name, rplan.stripe(0), rregistry, listeners[0], rconfig,
                    guard,
                    crash_gate=_progress_gate(progress_send, progress_every),
                    tracer=tracer, resume_offset=prefix_bytes,
                )
            awaiting_resume = False
            run_node(node)
        elif op in ("cancel", "quit"):
            node.shutdown()
            node.join(2.0)
            break

    outcome = node.outcome
    ok = outcome.ok and not awaiting_resume
    total = outcome.bytes_received
    if promoted and promoted_source is not None:
        # The promoted head streamed [watermark, size) to the chain but
        # its *own* copy ends at its receiver-phase prefix.  Complete it
        # straight from the source so this node, too, holds (and can
        # prove, via the digest) the full payload.
        if ok:
            size = promoted_source.size
            pos = prefix_bytes
            while pos < size:
                piece = promoted_source.read_range(
                    pos, min(config.chunk_size, size - pos))
                guard.write_chunk(piece)
                pos += len(piece)
            guard.finish()
            total = size
        else:
            guard.abort()
        promoted_source.close()
    if source is not None:
        source.close()

    report_hex: Optional[str] = None
    failures: List[str] = []
    final_report = getattr(node, "final_report", None)
    if final_report is not None:
        report_hex = final_report.encode().hex()
        failures = final_report.failed_nodes
    stats_after = get_stats().snapshot()
    return {
        "name": name,
        "ok": bool(ok),
        "bytes": int(total),
        "crashed": bool(outcome.crashed),
        "error": None if ok else (outcome.error or "failover interrupted"),
        "digest": digest_sink.hexdigest() if digest_sink is not None else None,
        "report": report_hex,
        "failures": failures,
        "promoted": promoted,
        "perfstats": {k_: stats_after[k_] - stats_before.get(k_, 0)
                      for k_ in stats_after},
        "trace": tracer.to_jsonl(),
        "trace_epoch": trace_epoch,
    }


def config_to_wire(config: KascadeConfig) -> dict:
    """JSON-safe dict for the ``start`` message (coordinator side)."""
    return dataclasses.asdict(config)
