"""The broadcast, driven on the DES: protocol-exact simulated runs.

:class:`ProtoBroadcast` is :class:`repro.runtime.cluster.Broadcast` —
the run :class:`~repro.runtime.LocalBroadcast` also is: same plan, same
fault validation, same hosts, same head re-root, same result fold — on
one :class:`~repro.simnet.engine.Engine` and one
:class:`~repro.simnet.channels.SimNetHub`, so failure timing is *exact*
(down to the simulated microsecond and byte offset) and every run is
perfectly reproducible.  What is about the DES is here: a node is an
engine ``Head``/``Receiver`` on a :class:`~.node.SimPort`, started by
spawning its acceptor and main loop, waited for by running the engine,
detached or crashed by killing its processes; ``at_time`` kills, the raw
message log and the ``sim_*`` counters are this driver's extras.

A striped run has one chain instance per (host, stripe), all on the one
hub under suffixed names (``n2@s1``, what the message log shows).
Because every :class:`~repro.simnet.channels.SimChannel` models its own
link bandwidth, ``k`` interleaved chains really do move ``k`` links'
worth of bytes per simulated second — this backend is where the
predicted k-way speedup is validated before trusting TCP numbers.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from ..core.engine import Head, InjectedCrash, Receiver
from ..core.errors import KascadeError
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan, StripePlan
from ..core.tracing import NULL_TRACER, TraceCollector
from ..runtime.cluster import Broadcast
from ..runtime.host import Host
from ..runtime.result import BroadcastResult
from ..simnet.channels import SimNetHub
from ..simnet.engine import Engine
from .node import SimPort, SimTracer


class ProtoResult(BroadcastResult):
    """The shared fold (what ``run_broadcast`` returns for
    ``backend="simnet"``), read in the simulator's terms as well:
    ``perfstats`` is the counter deltas over the run — what a simulation
    moves is the kernel's own (``sim_events_processed``,
    ``sim_cancelled_skips``, ``solver_rounds``, ``solver_full_rebuilds``)
    — bar ``sim_heap_peak``, the process high-water mark."""

    __slots__ = ("message_log",)

    def __init__(self, *args, message_log: Optional[List] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Raw message trace when run with ``trace=True``:
        #: ``(time, src, dst, message, payload_len)`` tuples.
        self.message_log = message_log

    sim_time = property(lambda self: self.duration)
    node_ok = property(lambda self: {
        name: o.ok for name, o in self.outcomes.items()})
    node_bytes = property(lambda self: {
        name: o.bytes_received for name, o in self.outcomes.items()})
    node_errors = property(lambda self: {
        name: o.error for name, o in self.outcomes.items()})
    crashed = property(lambda self: [
        name for name, o in self.outcomes.items() if o.crashed])


class HeadDown(Exception):
    """Unwinds ``Engine.run`` at the instant a head instance dies: what
    becomes of a headless chain is the run's decision, not the kernel's."""


class SimHost(Host):
    """A host on the DES: each chain instance is an acceptor process and
    a main-loop process on its own :class:`SimPort`, known to the hub by
    its label plus ``tag`` (a join chain's, beside the push's)."""

    def __init__(self, name: str, chain_plan: ChainPlan, hub: SimNetHub,
                 config, tag: str = "", **host) -> None:
        self._hub = hub
        self._tag = tag
        super().__init__(name, chain_plan, config, **host)

    def _make_node(self, label: str, plan: StripePlan, end, **kwargs):
        suffix = label[len(self.name):] + self._tag
        port = SimPort(self.name + suffix, self._hub, suffix=suffix)
        return (Head if self.is_head else Receiver)(
            self.name, plan, port, self.config, end, **kwargs)

    def start(self) -> None:
        for node in self.nodes.values():
            node.port.spawn(node.port.acceptor(node), name="accept")
            node.main = node.port.spawn(node.run(), name="node")
            # A supervisor hook, not a try/except generator around
            # ``node.run()``: a wrapper would cost a delegation hop on
            # every resume of every node.
            node.main.on_error = partial(self._absorb, node)

    def _absorb(self, node, exc: BaseException) -> bool:
        if isinstance(exc, InjectedCrash):
            self.die(node, exc.mode)
        elif isinstance(exc, KascadeError):
            # As on threads: the node records why and stops listening;
            # its connections are left as they are.
            node.outcome.error = f"{type(exc).__name__}: {exc}"
            node.port.close()
        else:
            return False
        return True

    def die(self, node, mode: str) -> None:
        """``node``'s host is gone: nothing of it runs again."""
        node.port.kill()
        node.outcome.crashed = True
        node.outcome.error = f"injected crash ({mode})"
        if mode == "silent":
            self._hub.kill_silent(node.port.name)
        else:
            self._hub.kill(node.port.name)
        if self.is_head:
            raise HeadDown

    @property
    def done(self) -> bool:
        return all(node.main.done for node in self.nodes.values())

    def detach(self) -> bool:
        """Stop every instance where it stands, sink untouched — a head
        re-root's detach and the end-of-run stop alike."""
        for node in self.nodes.values():
            node.port.kill()
        return True

    shutdown = detach

    def retained_sink(self):
        return self.sink


class ProtoBroadcast(Broadcast):
    """The broadcast on the DES (parameters: :class:`Broadcast`'s — the
    one backend whose ``crashes`` may be ``CrashPlan(at_time=…)`` — plus
    the link model: ``bandwidth`` in bytes/s and ``latency`` in seconds
    per hop)."""

    backend, result_type = "simnet", ProtoResult

    def __init__(self, source, receivers: Sequence[str], *,
                 bandwidth: float = 125e6, latency: float = 1e-4,
                 **broadcast) -> None:
        super().__init__(source, receivers, **broadcast)
        self.bandwidth = bandwidth
        self.latency = latency

    def _now(self) -> float:
        return self._hub.engine.now

    def _wire(self, chain: ChainPlan, tag: str = ""):
        # Nothing to lay: each port registers itself (afresh on a re-root).
        return lambda name, **role: SimHost(
            name, chain, self._hub, self.config, tag=tag, tracer=self.tracer,
            **role)

    def _start(self, hosts: Sequence[SimHost], deadline: float) -> None:
        for host in hosts:
            host.start()
        for host in hosts:
            crash = self.crashes.get(host.name)
            if crash is not None and crash.at_time is not None:
                # Host death: every stripe instance dies at that instant.
                for node in host.nodes.values():
                    self._hub.engine.call_at(
                        crash.at_time, lambda h=host, n=node, m=crash.mode:
                        n.main.done or h.die(n, m))

    def _wait(self, waited: Sequence[SimHost], deadline: float) -> None:
        try:
            self._hub.engine.run(until=deadline)
        except HeadDown:
            pass

    def run(self, sim_horizon: float = 3600.0,
            trace: bool = False, tracer=NULL_TRACER) -> ProtoResult:
        """Run to completion (or ``sim_horizon``).

        ``trace=True`` records the raw per-message log; ``tracer`` takes
        a :class:`~repro.core.tracing.TraceCollector` for the structured
        event timeline shared with the real runtime (events are stamped
        with simulated seconds).
        """
        engine = Engine(tracer=tracer)
        self._hub = SimNetHub(engine, bandwidth=self.bandwidth,
                              latency=self.latency)
        self.tracer = SimTracer(engine)
        message_log = self._hub.start_tracing() if trace else None
        result = super().run(sim_horizon)
        result.message_log = message_log
        result.trace = tracer if isinstance(tracer, TraceCollector) else None
        result.perfstats["sim_heap_peak"] = get_stats().sim_heap_peak
        return result
