"""Orchestration of protocol-exact simulated broadcasts.

:class:`ProtoBroadcast` mirrors :class:`repro.runtime.LocalBroadcast`:
build a pipeline, run it, inject crashes — but on the DES, so failure
timing is *exact* (down to the simulated microsecond and byte offset)
and every run is perfectly reproducible.

Striping (``config.stripes > 1`` or a multi-stripe ``plan``) runs one
chain instance per (host, stripe) on a single shared hub and engine.
Instances are registered under suffixed names (``n2@s1``); results are
aggregated back to host names.  Because every :class:`~repro.simnet.
channels.SimChannel` models its own link bandwidth, ``k`` interleaved
chains really do move ``k`` links' worth of bytes per simulated second —
this backend is where the predicted k-way speedup is validated before
trusting TCP numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.engine import Head, InjectedCrash, Receiver
from ..core.errors import KascadeError
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan, StripePlan
from ..core.report import FailureRecord, TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import Source
from ..core.stripes import StripeMergeSink, StripeSource
from ..core.tracing import NULL_TRACER, TraceCollector
from ..simnet.channels import SimNetHub
from ..simnet.engine import Engine
from .node import SimPort, SimTracer


@dataclass(frozen=True)
class ProtoCrash:
    """Kill ``node`` either when it has stored ``after_bytes``
    (byte-exact, triggered from inside its receive path) or at simulated
    time ``at_time`` (wall-clock-exact, triggered externally).

    On a striped run the crash is host-level: ``after_bytes`` counts the
    host's aggregate across stripes and the death takes every one of
    its chain instances down, like one OS process dying."""

    node: str
    after_bytes: Optional[int] = None
    at_time: Optional[float] = None
    mode: str = "close"  # "close" | "silent"

    def __post_init__(self) -> None:
        if self.mode not in ("close", "silent"):
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if (self.after_bytes is None) == (self.at_time is None):
            raise ValueError("set exactly one of after_bytes / at_time")


@dataclass
class ProtoResult:
    """Outcome of one protocol-exact broadcast (host-level keys)."""

    ok: bool
    sim_time: float
    total_bytes: int
    report: TransferReport
    node_ok: Dict[str, bool] = field(default_factory=dict)
    node_bytes: Dict[str, int] = field(default_factory=dict)
    node_errors: Dict[str, Optional[str]] = field(default_factory=dict)
    crashed: List[str] = field(default_factory=list)
    #: Raw message trace when run with ``trace=True``:
    #: ``(time, src, dst, message, payload_len)`` tuples.
    message_log: Optional[List] = None
    #: Structured event trace when a collector was passed to ``run``.
    trace: Optional[TraceCollector] = None
    #: Simulation-kernel counters for this run (``sim_events_processed``,
    #: ``sim_cancelled_skips``, ``solver_rounds``, ``solver_full_rebuilds``
    #: as per-run deltas; ``sim_heap_peak`` as the process high-water mark).
    perfstats: Dict[str, int] = field(default_factory=dict)


class _AggregateGate:
    """Host crash threshold over the sum of its stripes' bytes."""

    def __init__(self, crash: ProtoCrash, stripes: int) -> None:
        self._crash = crash
        self._seen = [0] * stripes
        self._fired = False

    def for_stripe(self, stripe: int):
        def gate(received: int) -> Optional[str]:
            self._seen[stripe] = received
            if self._fired or sum(self._seen) >= self._crash.after_bytes:
                self._fired = True
                return self._crash.mode
            return None
        return gate


class ProtoBroadcast:
    """One protocol-exact broadcast on the DES."""

    def __init__(
        self,
        source: Source,
        receivers: Sequence[str],
        *,
        sink_factory: Optional[Callable[[str], Sink]] = None,
        config: KascadeConfig = DEFAULT_CONFIG,
        head: str = "n1",
        crashes: Sequence[ProtoCrash] = (),
        plan: Optional[ChainPlan] = None,
        bandwidth: float = 125e6,
        latency: float = 1e-4,
    ) -> None:
        self.source = source
        self.config = config
        self.chain_plan = ChainPlan.resolve(
            plan, head, receivers, stripes=config.stripes)
        self.stripes = self.chain_plan.stripe_count
        self.plan = self.chain_plan.stripe(0)
        self.sink_factory = sink_factory or (lambda name: NullSink())
        self.crashes = {c.node: c for c in crashes}
        unknown = set(self.crashes) - set(self.plan.receivers)
        if unknown:
            raise KascadeError(f"crash plans for unknown nodes: {sorted(unknown)}")
        self.bandwidth = bandwidth
        self.latency = latency
        self.nodes: Dict[str, object] = {}

    def _gate(self, name: str):
        plan = self.crashes.get(name)
        if plan is None or plan.after_bytes is None:
            return None

        def gate(received: int, _p=plan):
            return _p.mode if received >= _p.after_bytes else None

        return gate

    @staticmethod
    def _instance_name(host: str, stripe: int, stripes: int) -> str:
        return host if stripes == 1 else f"{host}@s{stripe}"

    @staticmethod
    def _host_of(instance: str) -> str:
        base, sep, tail = instance.rpartition("@s")
        return base if sep and tail.isdigit() else instance

    def run(self, sim_horizon: float = 3600.0,
            trace: bool = False, tracer=NULL_TRACER) -> ProtoResult:
        """Run to completion (or ``sim_horizon``).

        ``trace=True`` records the raw per-message log; ``tracer`` takes
        a :class:`~repro.core.tracing.TraceCollector` for the structured
        event timeline shared with the real runtime (events are stamped
        with simulated seconds).
        """
        engine = Engine(tracer=tracer)
        hub = SimNetHub(engine, bandwidth=self.bandwidth,
                        latency=self.latency)
        message_log = hub.start_tracing() if trace else None
        k = self.stripes

        if k == 1:
            sources: List[Source] = [self.source]
            instance_sinks = {
                name: [self.sink_factory(name)]
                for name in self.plan.receivers
            }
        else:
            sources = [
                StripeSource(self.source, j, k, self.config.chunk_size)
                for j in range(k)
            ]
            instance_sinks = {}
            for name in self.plan.receivers:
                sink = self.sink_factory(name)
                if type(sink) is NullSink:
                    instance_sinks[name] = [NullSink() for _ in range(k)]
                else:
                    merger = StripeMergeSink(sink, k, self.config.chunk_size)
                    instance_sinks[name] = [merger.port(j) for j in range(k)]
        gates = {
            name: _AggregateGate(crash, k)
            for name, crash in self.crashes.items()
            if crash.after_bytes is not None
        } if k > 1 else {}

        sim_tracer = SimTracer(engine)
        heads: List[Head] = []
        by_host: Dict[str, List] = {}
        for j in range(k):
            sp = self.chain_plan.stripe(j)
            plan_j = StripePlan(
                head=self._instance_name(sp.head, j, k),
                receivers=tuple(self._instance_name(r, j, k)
                                for r in sp.receivers),
                stripe=sp.stripe, of=sp.of,
            )
            head = Head(plan_j.head, plan_j, SimPort(plan_j.head, hub, engine),
                        self.config, sources[j], tracer=sim_tracer)
            heads.append(head)
            by_host.setdefault(sp.head, []).append(head)
            for host, name in zip(sp.receivers, plan_j.receivers):
                if k == 1:
                    gate = self._gate(host)
                else:
                    agg = gates.get(host)
                    gate = agg.for_stripe(j) if agg else None
                recv = Receiver(name, plan_j, SimPort(name, hub, engine),
                                self.config, instance_sinks[host][j],
                                crash_gate=gate, tracer=sim_tracer)
                by_host.setdefault(host, []).append(recv)
        self.nodes = {n.name: n
                      for nodes in by_host.values() for n in nodes}
        crashed: List[str] = []

        def die(node, mode):
            """The node's host is gone: nothing of it runs again."""
            for proc in node.port.procs:
                proc.kill()
            node.outcome.crashed = True
            node.outcome.error = f"injected crash ({mode})"
            crashed.append(node.name)
            if mode == "silent":
                hub.kill_silent(node.name)
            else:
                hub.kill(node.name)

        def supervisor_of(node):
            # Installed as ``Process.on_error`` instead of wrapping
            # ``node.run()`` in a try/except generator: a wrapper would
            # cost a delegation hop on every resume of every node.
            def absorb(exc: BaseException) -> bool:
                if isinstance(exc, InjectedCrash):
                    die(node, exc.mode)
                    return True
                if isinstance(exc, KascadeError):
                    # As on threads: the node records why and stops
                    # listening; its connections are left as they are.
                    node.outcome.error = f"{type(exc).__name__}: {exc}"
                    node.port.close()
                    return True
                return False

            return absorb

        mains = {}
        for node in self.nodes.values():
            node.port.spawn(node.port.acceptor(node), name="accept")
            mains[node.name] = main = node.port.spawn(node.run(), name="node")
            main.on_error = supervisor_of(node)

        def kill_at(node, mode):
            return lambda: mains[node.name].done or die(node, mode)

        for crash in self.crashes.values():
            if crash.at_time is not None:
                # Host death: every stripe instance dies at that instant.
                for node in by_host[crash.node]:
                    engine.call_at(crash.at_time, kill_at(node, crash.mode))

        stats = get_stats()
        before = stats.snapshot()
        engine.run(until=sim_horizon)
        after = stats.snapshot()
        perf = {
            key: after[key] - before[key]
            for key in ("sim_events_processed", "sim_cancelled_skips",
                        "solver_rounds", "solver_full_rebuilds")
        }
        perf["sim_heap_peak"] = after["sim_heap_peak"]

        # Pool the per-stripe head reports, projecting instance names
        # back to hosts.  Identity check: an all-clear TransferReport is
        # falsy.  A merged stream carries no single source digest (each
        # stripe ships its own), so only the single-chain report keeps
        # one.
        if k == 1:
            report = (heads[0].final_report
                      if heads[0].final_report is not None
                      else TransferReport())
        else:
            report = TransferReport()
            for head in heads:
                if head.final_report is not None:
                    report.extend(
                        FailureRecord(self._host_of(rec.node),
                                      self._host_of(rec.detected_by),
                                      rec.at_offset, rec.reason)
                        for rec in head.final_report.failures
                    )

        host_ok = {host: all(n.outcome.ok for n in nodes)
                   for host, nodes in by_host.items()}
        intended = [r for r in self.plan.receivers if r not in self.crashes]
        head_host = self.plan.head
        ok = host_ok[head_host] and all(host_ok[r] for r in intended)
        crashed_hosts: List[str] = []
        for name in crashed:
            host = self._host_of(name)
            if host not in crashed_hosts:
                crashed_hosts.append(host)
        return ProtoResult(
            ok=ok,
            sim_time=engine.now,
            total_bytes=sum(h.outcome.bytes_received for h in heads),
            report=report,
            node_ok=host_ok,
            node_bytes={host: sum(n.outcome.bytes_received for n in nodes)
                        for host, nodes in by_host.items()},
            node_errors={host: next((n.outcome.error for n in nodes
                                     if n.outcome.error), None)
                         for host, nodes in by_host.items()},
            crashed=crashed_hosts,
            message_log=message_log,
            trace=tracer if isinstance(tracer, TraceCollector) else None,
            perfstats=perf,
        )
