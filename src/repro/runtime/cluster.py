"""Local broadcast orchestration: run a real Kascade pipeline on localhost.

Each pipeline node is a thread with its own listening TCP socket, so the
full wire protocol — framing, GET handshakes, ping probes, PGET recovery,
ring-closure report — is exercised byte-for-byte.  This is the runtime
behind the ``kascade`` CLI and the integration test suite; the paper's
*performance* experiments use :mod:`repro.simnet` instead (a laptop
loopback device says nothing about a 200-node fat tree).

Crash injection reproduces the Distem experiments' failure modes:

* ``"close"`` — process death: every socket is closed (peers see RST);
* ``"silent"`` — hang/partition: sockets stay open but the node stops
  reading, writing, and answering pings, so peers must detect the death
  via the timeout + ping mechanism of §III-D1.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core import tracing
from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.errors import KascadeError
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.recovery import SourceKind
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import ResumeView, Source
from ..core.stripes import StripeMergeSink, StripeSource
from ..core.tracing import NULL_TRACER, TraceCollector
from .node import HeadNode, NodeOutcome, ReceiverNode
from .registry import Registry
from .transport import Listener


@dataclass(frozen=True)
class CrashPlan:
    """Kill ``node`` once it has received ``after_bytes`` of the stream."""

    node: str
    after_bytes: int
    mode: str = "close"  # "close" | "silent"

    def __post_init__(self) -> None:
        if self.mode not in ("close", "silent"):
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if self.after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")


@dataclass
class BroadcastResult:
    """Outcome of one broadcast — the shape every backend returns.

    ``duration`` is wall-clock seconds for the local backend and
    simulated seconds for ``backend="simnet"``; ``trace`` carries the
    :class:`~repro.core.tracing.TraceCollector` when tracing was on, and
    ``perfstats`` the delta of the process-wide I/O counters across the
    run (empty for the simulator, which does no real I/O).
    """

    ok: bool
    duration: float
    total_bytes: int
    report: TransferReport
    outcomes: Dict[str, NodeOutcome] = field(default_factory=dict)
    trace: Optional[TraceCollector] = None
    perfstats: Dict[str, int] = field(default_factory=dict)
    backend: str = "local"
    #: ``backend="procs"`` only: the measured windowed-startup timings
    #: (a :class:`repro.deploy.LaunchReport`), ``None`` elsewhere.
    launch: Optional[object] = None
    #: The schedule the broadcast executed: which chain carried each
    #: stripe (a :class:`~repro.core.plan.ChainPlan`).
    plan: Optional[ChainPlan] = None

    @property
    def completed_nodes(self) -> List[str]:
        return [n for n, o in self.outcomes.items() if o.ok]

    @property
    def failed_nodes(self) -> List[str]:
        return [n for n, o in self.outcomes.items() if not o.ok]

    @property
    def throughput(self) -> float:
        """Bytes per second, the paper's metric (size / transfer time)."""
        return self.total_bytes / self.duration if self.duration > 0 else 0.0


class LocalBroadcast:
    """One Kascade broadcast over localhost TCP.

    Parameters
    ----------
    source:
        What the head streams (file, bytes, synthetic pattern...).
    receivers:
        Receiver node names, e.g. ``["n2", "n3", "n4"]``.
    sink_factory:
        Called once per receiver name to build its output sink.
    config:
        Protocol tunables; tests shrink chunk size and timeouts.
    head:
        Name of the sending node.
    order:
        Node ordering strategy passed to :meth:`ChainPlan.build`.
    crashes:
        Failure injection plans (see :class:`CrashPlan`).  With
        ``stripes > 1`` a crash is *host*-level: the threshold counts
        the host's bytes across every stripe and firing kills all of
        the host's chain instances, as a real process death would.
    plan:
        Optional pre-built :class:`~repro.core.plan.ChainPlan`.  When
        given it is the schedule (its head and per-stripe orders win);
        its receiver set must match ``receivers``.  Otherwise a plan is
        built from ``head``/``order``/``config.stripes``.
    tracer:
        A :class:`~repro.core.tracing.TraceCollector` every node emits
        structured events into, or the default no-op recorder.  On a
        striped run event node names carry an ``@s<j>`` stripe suffix.

    Prefer :func:`repro.run_broadcast` for new code — it fronts this
    class and the simulator behind one backend-selectable entry point.
    """

    def __init__(
        self,
        source: Source,
        receivers: Sequence[str],
        *,
        sink_factory: Optional[Callable[[str], Sink]] = None,
        config: KascadeConfig = DEFAULT_CONFIG,
        head: str = "n1",
        order: str = "given",
        crashes: Sequence[CrashPlan] = (),
        plan: Optional[ChainPlan] = None,
        tracer=NULL_TRACER,
        allow_head_chaos: bool = False,
    ) -> None:
        self.source = source
        self.config = config
        self.tracer = tracer
        if plan is not None:
            if set(plan.receivers) != set(receivers):
                raise KascadeError(
                    "chain plan covers different receivers than requested: "
                    f"{sorted(plan.receivers)} vs {sorted(receivers)}"
                )
            if config.stripes not in (1, plan.stripe_count):
                raise KascadeError(
                    f"config.stripes={config.stripes} conflicts with a "
                    f"{plan.stripe_count}-stripe plan"
                )
            self.chain_plan = plan
        else:
            self.chain_plan = ChainPlan.build(
                head, receivers, stripes=config.stripes, order=order
            )
        self.stripes = self.chain_plan.stripe_count
        #: Canonical (stripe-0) order, kept for single-chain callers.
        self.plan = self.chain_plan.stripe(0)
        self.sink_factory = sink_factory or (lambda name: NullSink())
        self.crashes = {c.node: c for c in crashes}
        #: Injected head death + in-process promotion (the thread-level
        #: twin of the procs backend's quorum-backed head failover).
        self._head_crash: Optional[CrashPlan] = None
        if self.plan.head in self.crashes:
            if not allow_head_chaos:
                raise KascadeError(
                    f"crash plan targets the head {self.plan.head!r}: "
                    "killing the head interrupts the stream for every "
                    "receiver; opt in with allow_head_chaos=True to "
                    "promote the most-complete survivor instead"
                )
            if self.stripes != 1:
                raise KascadeError(
                    "head failover currently requires a 1-stripe plan: "
                    "per-stripe watermark re-rooting of a striped merge "
                    "is not supported"
                )
            if config.data_plane == "evloop":
                raise KascadeError(
                    "head failover is not survivable on "
                    "data_plane='evloop': the reactor cannot detach its "
                    "nodes mid-run; use data_plane='threaded'"
                )
            if source.kind is not SourceKind.SEEKABLE_FILE:
                raise KascadeError(
                    "head failover needs a seekable source: the promoted "
                    "head must serve PGET below the election watermark "
                    "by random access"
                )
            self._head_crash = self.crashes.pop(self.plan.head)
        unknown = set(self.crashes) - set(self.plan.receivers)
        if unknown:
            raise KascadeError(f"crash plans for unknown nodes: {sorted(unknown)}")
        self.sinks: Dict[str, Sink] = {}
        self.nodes: Dict[str, object] = {}
        #: The chain the run actually finished on (rerooted after a head
        #: failover); also returned as ``result.plan``.
        self.effective_plan: Optional[ChainPlan] = None

    def _crash_gate(self, node: str) -> Optional[Callable[[int], Optional[str]]]:
        plan = self.crashes.get(node)
        if plan is None:
            return None

        def gate(received: int, _plan: CrashPlan = plan) -> Optional[str]:
            return _plan.mode if received >= _plan.after_bytes else None

        return gate

    def run(self, timeout: float = 120.0) -> BroadcastResult:
        """Execute the broadcast and gather every node's outcome.

        ``config.data_plane`` selects the execution engine: ``"threaded"``
        runs each node as a thread pair (the conformance reference),
        ``"evloop"`` hosts every node on one shared reactor in the
        calling thread (:mod:`repro.runtime.evloop`).
        """
        evloop_plane = self.config.data_plane == "evloop"
        if evloop_plane:
            from .evloop import EvHeadNode, EvReceiverNode, run_nodes
            head_cls, recv_cls = EvHeadNode, EvReceiverNode
        else:
            head_cls, recv_cls = HeadNode, ReceiverNode

        if self.stripes > 1:
            return self._run_striped(timeout, head_cls, recv_cls)

        listeners = {name: Listener() for name in self.plan.chain}
        registry = Registry({n: l.address for n, l in listeners.items()})

        head = head_cls(
            self.plan.head, self.plan, registry,
            listeners[self.plan.head], self.config, self.source,
            tracer=self.tracer,
        )
        receivers: List = []
        for name in self.plan.receivers:
            sink = self.sink_factory(name)
            self.sinks[name] = sink
            receivers.append(
                recv_cls(
                    name, self.plan, registry, listeners[name], self.config,
                    sink, crash_gate=self._crash_gate(name),
                    tracer=self.tracer,
                )
            )
        self.nodes = {head.name: head, **{r.name: r for r in receivers}}

        stats_before = get_stats().snapshot()
        started = time.monotonic()
        if self._head_crash is not None:
            return self._run_rerooted(head, receivers, started,
                                      stats_before, timeout)
        if evloop_plane:
            # The calling thread *is* the event loop; run_nodes returns
            # once every node finished (or the shared deadline expired).
            run_nodes([head, *receivers], duration=timeout)
            duration = time.monotonic() - started
            head_done = head.finished
        else:
            for node in receivers:
                node.start()
            head.start()

            # One deadline bounds the *whole* run: joins consume the shared
            # remaining budget (plus a single one-second grace for teardown),
            # so a wedged head cannot double the effective wall-clock bound.
            deadline = started + timeout
            head.join(max(0.0, deadline - time.monotonic()))
            grace = deadline + 1.0
            for node in receivers:
                node.join(max(0.0, grace - time.monotonic()))
            duration = time.monotonic() - started
            head_done = not head.thread.is_alive()

        # Force shutdown of anything still alive (e.g. silent crash remains).
        for node in (head, *receivers):
            node.shutdown()

        outcomes = {n.name: n.outcome for n in (head, *receivers)}
        # NB: TransferReport is falsy when it has no failures — test
        # identity, not truth, or a clean run's report (and its source
        # digest) would be silently replaced.
        report = (
            head.final_report if head.final_report is not None
            else TransferReport()
        )
        intended = [r for r in receivers if r.name not in self.crashes]
        ok = (
            head.outcome.ok
            and all(r.outcome.ok for r in intended)
            and head_done
        )
        stats_after = get_stats().snapshot()
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=head.outcome.bytes_received,
            report=report,
            outcomes=outcomes,
            trace=self.tracer if isinstance(self.tracer, TraceCollector) else None,
            perfstats={k: stats_after[k] - stats_before.get(k, 0)
                       for k in stats_after},
            backend="local",
            plan=self.chain_plan,
        )

    # ------------------------------------------------------------------
    # Head failover (an injected head death + in-process promotion)
    # ------------------------------------------------------------------

    def _run_rerooted(self, head, receivers, started, stats_before,
                      timeout) -> BroadcastResult:
        """Threaded run that survives the planned head death.

        The in-process twin of the procs backend's quorum failover,
        with the coordinator role played by this thread: a trigger
        fires the head's crash once any receiver's progress crosses the
        threshold, the most-complete survivor is promoted via
        :meth:`ChainPlan.reroot`, and the others resume from their ring
        offsets against the promoted head (which serves PGET below the
        election watermark straight from the source).
        """
        crash = self._head_crash
        old_head = head

        def gate(sent: int) -> Optional[str]:
            return crash.mode if sent >= crash.after_bytes else None

        # The gate runs on the head's own streaming thread (like the
        # receiver-side crash gates): a cross-thread kill would race the
        # send loop, which treats a failing socket as a *downstream*
        # death and routes around it instead of dying.
        head.crash_gate = gate

        for node in receivers:
            node.start()
        head.start()

        deadline = started + timeout
        promotion = None
        current = list(receivers)
        head.join(max(0.0, deadline - time.monotonic()))
        if old_head.outcome.crashed:
            self.tracer.emit(
                tracing.FAILOVER, "coordinator", peer=old_head.name,
                detail=f"injected head crash ({crash.mode})",
                detector=(tracing.DETECTOR_ERROR if crash.mode == "close"
                          else tracing.DETECTOR_PING),
            )
            promotion = self._promote_survivor(old_head, receivers)
            if promotion is not None:
                head, current = promotion["head"], promotion["receivers"]
                self.nodes.update({n.name: n for n in (head, *current)})
                head.join(max(0.0, deadline - time.monotonic()))
        grace = deadline + 1.0
        for node in current:
            node.join(max(0.0, grace - time.monotonic()))
        duration = time.monotonic() - started
        head_done = not head.thread.is_alive()
        for node in {id(n): n for n in
                     (old_head, head, *receivers, *current)}.values():
            node.shutdown()

        if promotion is not None and head.outcome.ok:
            # The promoted node streamed [watermark, size) to the chain
            # but its *own* sink ends at its receiver-phase prefix —
            # complete it straight from the source, as the procs agent
            # does, so the promoted head holds the full payload too.
            sink = promotion["sink"]
            pos = promotion["prefix"]
            size = self.source.size
            while pos < size:
                piece = self.source.read_range(
                    pos, min(self.config.chunk_size, size - pos))
                sink.write_chunk(piece)
                pos += len(piece)
            sink.finish()

        outcomes = {old_head.name: old_head.outcome}
        latest = {n.name: n for n in receivers}
        latest.update({n.name: n for n in current})
        if promotion is not None:
            latest[head.name] = head
        outcomes.update({name: n.outcome for name, n in latest.items()})

        report = (head.final_report if head.final_report is not None
                  else TransferReport())
        # The head's death was planned, so — as everywhere else — it is
        # excused; every intended receiver (including the promoted one)
        # must have completed.
        intended = [r for r in self.plan.receivers if r not in self.crashes]
        ok = (head.outcome.ok
              and all(outcomes[name].ok for name in intended)
              and head_done)
        stats_after = get_stats().snapshot()
        effective = (promotion["chain"] if promotion is not None
                     else self.chain_plan)
        self.effective_plan = effective
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=head.outcome.bytes_received,
            report=report,
            outcomes=outcomes,
            trace=(self.tracer if isinstance(self.tracer, TraceCollector)
                   else None),
            perfstats={k: stats_after[k] - stats_before.get(k, 0)
                       for k in stats_after},
            backend="local",
            plan=effective,
        )

    def _promote_survivor(self, old_head, receivers) -> Optional[dict]:
        """Detach the survivors, elect the most complete, resume the rest.

        Returns ``None`` when no receiver survives to be promoted (the
        run then fails through the normal path); otherwise a dict with
        the promoted :class:`HeadNode`, the resumed receivers (already
        started), the re-rooted plan, and the promoted node's retained
        sink + prefix so the caller can complete its own copy.
        """
        survivors, finished, lost = [], [], []
        # Chain order, one at a time: a node is detached only after its
        # upstream has stopped relaying, so no survivor is still writing
        # to a neighbour that has already let go.  Each join is the time
        # a woken loop takes to unwind, not a timeout.
        for node in receivers:
            if node.thread.is_alive():
                node.begin_failover()
                node.join(5.0)
                survivors.append(node)
            elif node.outcome.ok:
                finished.append(node)
            else:
                lost.append(node)
        ready = [n for n in survivors if not n.thread.is_alive()]
        for node in ready:
            node.close_connections()
        if not ready:
            return None

        # Most-complete survivor wins; offsets are monotonically
        # non-increasing down the chain, so ties resolve to the node
        # closest to the old head (max() keeps the first maximum).
        elect = max(ready, key=lambda n: n.state.offset)
        resume_offset = elect.state.offset
        self.tracer.emit(
            tracing.ELECTION, "coordinator", peer=elect.name,
            offset=resume_offset,
            detail=(f"promoted {elect.name} to replace {old_head.name} "
                    f"at watermark {resume_offset}"),
        )
        drop = [n.name for n in (*finished, *lost)]
        drop += [n.name for n in survivors if n not in ready]
        new_chain = self.chain_plan.reroot(elect.name, dead=drop)
        new_plan = new_chain.stripe(0)

        listeners = {name: Listener() for name in new_plan.chain}
        registry = Registry({n: l.address for n, l in listeners.items()})
        elect_sink = elect.detach_sink()
        # The promoted head only streams [watermark, size), so its digest
        # would cover a suffix — integrity mode cannot span a re-root
        # (the procs backend disables it on resume too).
        resume_config = dataclasses.replace(self.config, verify_digest=False)
        new_head = HeadNode(
            elect.name, new_plan, registry, listeners[elect.name],
            resume_config, ResumeView(self.source, resume_offset),
            tracer=self.tracer, resume_offset=resume_offset,
        )
        resumed = []
        for node in ready:
            if node is elect:
                continue
            resumed.append(ReceiverNode(
                node.name, new_plan, registry, listeners[node.name],
                resume_config, node.detach_sink(),
                crash_gate=self._crash_gate(node.name),
                tracer=self.tracer, resume_offset=node.state.offset,
            ))
        for node in resumed:
            node.start()
        new_head.start()
        return {
            "head": new_head,
            "receivers": resumed,
            "chain": new_chain,
            "sink": elect_sink,
            "prefix": resume_offset,
        }

    # ------------------------------------------------------------------
    # Striped execution (config.stripes > 1)
    # ------------------------------------------------------------------

    def _run_striped(self, timeout, head_cls, recv_cls) -> BroadcastResult:
        """Run ``k`` chain sub-broadcasts and merge per-host results.

        Each stripe is a complete, independent broadcast — its own
        listeners, registry, ring buffers, and recovery — over a view
        of the shared source (:class:`StripeSource`).  Hosts that write
        real data get a :class:`StripeMergeSink` reassembling global
        chunk order; null sinks stay per-instance so the evloop plane's
        splice relay engages with one pipe per stripe.
        """
        k = self.stripes
        evloop_plane = self.config.data_plane == "evloop"
        if evloop_plane:
            from .evloop import run_nodes

        sources = [
            StripeSource(self.source, j, k, self.config.chunk_size)
            for j in range(k)
        ]
        instance_sinks, mergers = self._striped_sinks(k)
        gates = {
            name: _HostCrashGate(crash, k)
            for name, crash in self.crashes.items()
        }
        tracers = [_StripeTracer(self.tracer, j) for j in range(k)]

        heads: List = []
        stripe_receivers: List[List] = [[] for _ in range(k)]
        for j in range(k):
            plan_j = self.chain_plan.stripe(j)
            listeners = {name: Listener() for name in plan_j.chain}
            registry = Registry({n: l.address for n, l in listeners.items()})
            heads.append(head_cls(
                plan_j.head, plan_j, registry, listeners[plan_j.head],
                self.config, sources[j], tracer=tracers[j],
            ))
            for name in plan_j.receivers:
                gate = gates.get(name)
                stripe_receivers[j].append(recv_cls(
                    name, plan_j, registry, listeners[name], self.config,
                    instance_sinks[name][j],
                    crash_gate=gate.for_stripe(j) if gate else None,
                    tracer=tracers[j],
                ))
        all_nodes = [n for j in range(k)
                     for n in (heads[j], *stripe_receivers[j])]
        self.nodes = {f"{n.name}@s{j}": n
                      for j in range(k)
                      for n in (heads[j], *stripe_receivers[j])}

        stats_before = get_stats().snapshot()
        started = time.monotonic()
        if evloop_plane:
            run_nodes(all_nodes, duration=timeout)
            duration = time.monotonic() - started
            head_done = all(h.finished for h in heads)
        else:
            for receivers in stripe_receivers:
                for node in receivers:
                    node.start()
            for head in heads:
                head.start()
            deadline = started + timeout
            for head in heads:
                head.join(max(0.0, deadline - time.monotonic()))
            grace = deadline + 1.0
            for receivers in stripe_receivers:
                for node in receivers:
                    node.join(max(0.0, grace - time.monotonic()))
            duration = time.monotonic() - started
            head_done = not any(h.thread.is_alive() for h in heads)

        for node in all_nodes:
            node.shutdown()
        for source in sources:
            source.close()

        by_host: Dict[str, List] = {}
        for j in range(k):
            for node in (heads[j], *stripe_receivers[j]):
                by_host.setdefault(node.name, []).append(node)
        outcomes = {name: _merge_outcomes(name, nodes)
                    for name, nodes in by_host.items()}

        # One report per stripe head; pool the failure records.  A
        # merged stream has no single source digest (each stripe ships
        # its own), so the pooled report carries none.
        report = TransferReport()
        for head in heads:
            if head.final_report is not None:
                report.extend(head.final_report.failures)

        intended = [name for name in self.plan.receivers
                    if name not in self.crashes]
        ok = (
            outcomes[self.plan.head].ok
            and all(outcomes[name].ok for name in intended)
            and head_done
        )
        stats_after = get_stats().snapshot()
        return BroadcastResult(
            ok=ok,
            duration=duration,
            total_bytes=sum(h.outcome.bytes_received for h in heads),
            report=report,
            outcomes=outcomes,
            trace=self.tracer if isinstance(self.tracer, TraceCollector) else None,
            perfstats={k_: stats_after[k_] - stats_before.get(k_, 0)
                       for k_ in stats_after},
            backend="local",
            plan=self.chain_plan,
        )

    def _striped_sinks(self, k: int):
        """Per-host instance sinks: merge ports, or per-stripe nulls.

        Returns ``(instance_sinks, mergers)`` where ``instance_sinks``
        maps host name to its ``k`` per-stripe sinks.  A host whose
        factory sink is a bare :class:`NullSink` skips the merger —
        there is nothing to reassemble, and per-instance null sinks
        keep each stripe's relay eligible for the kernel splice path.
        """
        instance_sinks: Dict[str, List[Sink]] = {}
        mergers: Dict[str, StripeMergeSink] = {}
        for name in self.plan.receivers:
            sink = self.sink_factory(name)
            self.sinks[name] = sink
            if type(sink) is NullSink:
                instance_sinks[name] = [NullSink() for _ in range(k)]
            else:
                merger = StripeMergeSink(sink, k, self.config.chunk_size)
                mergers[name] = merger
                instance_sinks[name] = [merger.port(j) for j in range(k)]
        return instance_sinks, mergers


class _HostCrashGate:
    """One host's crash plan, shared by its ``k`` stripe instances.

    The threshold counts the host's *aggregate* received bytes; once it
    fires, every instance's next gate check reports the crash mode, so
    all of the host's chains die — the closest thread-level analogue of
    one OS process taking all of its stripes down with it.
    """

    def __init__(self, crash: CrashPlan, stripes: int) -> None:
        self._crash = crash
        self._seen = [0] * stripes
        self._fired = False
        self._lock = threading.Lock()

    def for_stripe(self, stripe: int):
        def gate(received: int) -> Optional[str]:
            with self._lock:
                self._seen[stripe] = received
                if self._fired or sum(self._seen) >= self._crash.after_bytes:
                    self._fired = True
                    return self._crash.mode
            return None
        return gate


class _StripeTracer:
    """Tag trace events with the stripe their chain instance ran."""

    def __init__(self, inner, stripe: int) -> None:
        self._inner = inner
        self._suffix = f"@s{stripe}"
        self.enabled = inner.enabled

    def emit(self, type_: str, node: str, **kwargs) -> None:
        peer = kwargs.get("peer")
        if peer is not None:
            kwargs["peer"] = peer + self._suffix
        self._inner.emit(type_, node + self._suffix, **kwargs)


def _merge_outcomes(name: str, nodes: Sequence) -> NodeOutcome:
    """Fold one host's per-stripe instance outcomes into one."""
    merged = NodeOutcome(name=name)
    merged.ok = all(n.outcome.ok for n in nodes)
    merged.bytes_received = sum(n.outcome.bytes_received for n in nodes)
    merged.crashed = any(n.outcome.crashed for n in nodes)
    merged.error = next(
        (n.outcome.error for n in nodes if n.outcome.error), None
    )
    for n in nodes:
        merged.failures_detected.extend(n.outcome.failures_detected)
    return merged


def broadcast(
    source: Source,
    receivers: Sequence[str],
    timeout: float = 120.0,
    **kwargs,
) -> BroadcastResult:
    """Deprecated: use :func:`repro.run_broadcast` instead.

    Kept as a thin shim over :class:`LocalBroadcast` for callers of the
    pre-facade API.
    """
    warnings.warn(
        "repro.runtime.broadcast() is deprecated; use repro.run_broadcast()",
        DeprecationWarning,
        stacklevel=2,
    )
    return LocalBroadcast(source, receivers, **kwargs).run(timeout=timeout)
