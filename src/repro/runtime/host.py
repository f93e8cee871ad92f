"""One host, k chains: everything a host runs for one broadcast.

The paper's node is one program (§III-A/B); a striped broadcast runs it
``k`` times per host, one chain instance per stripe.  What follows from
that is :class:`Host`, once, whoever schedules the nodes: per-stripe
:class:`~repro.core.stripes.StripeSource` views and
:class:`~repro.core.stripes.StripeMergeSink` ports (or ``k`` exact
``NullSink``s, so the evloop splice relay stays eligible), host-level
gates judging the *aggregate* byte count, ``@s<j>`` names, one merged
outcome, one pooled report, the election watermark, who closes the
views.  A driver adds what a node is and how it is run:
:class:`HostChains` here (threads on sockets; what
:class:`~repro.runtime.LocalBroadcast`, the deploy agent and ``kascade
send``/``recv`` build), ``SimHost`` in :mod:`repro.protosim.broadcast`.

``k = 1`` is the one-stripe case, not a second path: the node is handed
the *same* source, sink, tracer and gate the caller gave — no wrapper on
the per-chunk path, ``sendfile``/``splice`` eligibility and trace names
unchanged.  That is decided in this module and nowhere else.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import KascadeConfig
from ..core.plan import ChainPlan, StripePlan
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import ResumeView, Source
from ..core.tracing import NULL_TRACER
from .node import CrashGate, HeadNode, ReceiverNode
from .registry import Registry
from .result import NodeOutcome, check_head_failover
from .transport import Listener

__all__ = ["Host", "HostChains", "check_head_failover"]


def _stripe_gates(gate: CrashGate, k: int) -> List[CrashGate]:
    """Per-stripe views of one host-level gate.

    ``gate`` is asked about the host's *aggregate* byte count; its
    first verdict is final and every stripe's next check reports it, so
    all of the host's chains die together — the closest thread-level
    analogue of one OS process taking its stripes down with it.
    """
    lock = threading.Lock()
    seen = [0] * k
    verdict: List[Optional[str]] = [None]

    def for_stripe(stripe: int) -> CrashGate:
        def stripe_gate(received: int) -> Optional[str]:
            with lock:
                seen[stripe] = received
                if verdict[0] is None:
                    verdict[0] = gate(sum(seen))
                return verdict[0]
        return stripe_gate

    return [for_stripe(j) for j in range(k)]


class _StripeTracer:
    """Tag trace events with the stripe their chain instance ran."""

    def __init__(self, inner, suffix: str) -> None:
        self._inner = inner
        self._suffix = suffix
        self.enabled = inner.enabled

    def emit(self, type_: str, node: str, **kwargs) -> None:
        peer = kwargs.get("peer")
        if peer is not None:
            kwargs["peer"] = peer + self._suffix
        self._inner.emit(type_, node + self._suffix, **kwargs)


class Host:
    """The chain instances one host runs: one node per stripe.

    Parameters
    ----------
    name, chain_plan:
        Which host this is in which schedule; it is a head when
        ``name == chain_plan.head``.
    source / sink:
        The head's stream / a receiver's output, unstriped.  The caller
        keeps ownership of both (:meth:`close` only closes the stripe
        views this host opened).  A *promoted* head carries both: its
        retained sink is completed by :meth:`settle`.
    gate:
        Host-level :data:`~repro.core.engine.CrashGate`, asked about
        the aggregate byte count across stripes.
    resume_offset:
        Rebuild after a head re-root (1 stripe, :meth:`resume`): the
        stream position this host resumes from.  ``0`` is a legal
        watermark — the dead head's RST can discard everything it sent —
        so "resumed" is ``is not None``, never truthiness: a promoted
        head reads through :class:`ResumeView` even at 0, because the
        old head moved the shared source's cursor.  A resumed host
        verifies no digest: a hash of a suffix cannot prove the stream.

    A driver subclass says what a node is — ``_make_node(label, plan,
    end, **kwargs)``: stripe ``plan.stripe``'s head over the source
    (view) ``end`` or receiver into the sink (port) ``end``, named
    ``name`` and reachable as ``label`` — and how it is started, waited
    for, detached (``detach``, ``retained_sink``) and stopped.
    """

    def __init__(
        self,
        name: str,
        chain_plan: ChainPlan,
        config: KascadeConfig,
        *,
        source: Optional[Source] = None,
        sink: Optional[Sink] = None,
        gate: Optional[CrashGate] = None,
        tracer=NULL_TRACER,
        resume_offset: Optional[int] = None,
    ) -> None:
        k = chain_plan.stripe_count
        if resume_offset is not None:
            if k != 1:
                raise ValueError("a striped host cannot resume from one offset")
            config = config.with_(verify_digest=False)
        self.name = name
        self.config = config
        self.source = source
        self.sink = sink
        self.resume_offset = resume_offset
        self.is_head = name == chain_plan.head
        #: Stripe views of the source this host opened (see :meth:`close`).
        self._views: List[Source] = []

        if k == 1:
            # The one-stripe case: the caller's own objects, untouched —
            # bar a resumed head's cursor (see ``resume_offset`` above).
            labels, tracers, gates = [name], [tracer], [gate]
            ends = [source if self.is_head else sink]
            if self.is_head and resume_offset is not None:
                ends = [ResumeView(source, resume_offset)]
        else:
            # Only a striped host pays for the stripe machinery.
            from ..core.stripes import StripeMergeSink, StripeSource

            suffixes = [f"@s{j}" for j in range(k)]
            labels = [name + suffix for suffix in suffixes]
            tracers = [_StripeTracer(tracer, suffix) for suffix in suffixes]
            gates = (_stripe_gates(gate, k) if gate is not None
                     else [None] * k)
            if self.is_head:
                ends = self._views = [
                    StripeSource(source, j, k, config.chunk_size)
                    for j in range(k)
                ]
            elif type(sink) is NullSink:
                # Nothing to reassemble, and per-instance null sinks keep
                # each stripe's relay eligible for the kernel splice path.
                ends = [NullSink() for _ in range(k)]
            else:
                merger = StripeMergeSink(sink, k, config.chunk_size)
                ends = [merger.port(j) for j in range(k)]
        if not chain_plan.receivers:
            labels = []  # a lone survivor of a re-root: no chain to feed
        extra = {} if resume_offset is None else {
            "resume_offset": resume_offset}
        #: ``label -> node``: the bare host name at one stripe,
        #: ``name@s<j>`` otherwise (the names trace events carry).
        self.nodes: Dict[str, object] = {}
        for j, label in enumerate(labels):
            kwargs = dict(extra, tracer=tracers[j])
            if gates[j] is not None:  # evloop heads take no gate at all
                kwargs["crash_gate"] = gates[j]
            self.nodes[label] = self._make_node(
                label, chain_plan.stripe(j), ends[j], **kwargs)

    def close(self) -> None:
        """Release the stripe views this host opened (not the source)."""
        for view in self._views:
            view.close()

    def close_connections(self) -> None:
        """Once every survivor of a re-root has been detached."""
        for node in self.nodes.values():
            node.close_connections()

    # -- results ----------------------------------------------------------

    @property
    def outcome(self) -> NodeOutcome:
        """The host's outcome: its node's own, or the stripes' folded —
        or none run at all: a lone survivor holds the stream once
        :meth:`settle` has completed its copy."""
        outcomes = [node.outcome for node in self.nodes.values()]
        if len(outcomes) == 1:
            return outcomes[0]
        return NodeOutcome(
            name=self.name,
            ok=all(o.ok for o in outcomes),
            bytes_received=(sum(o.bytes_received for o in outcomes)
                            if outcomes else self.source.size),
            crashed=any(o.crashed for o in outcomes),
            error=next((o.error for o in outcomes if o.error), None),
            failures_detected=[rec for o in outcomes
                               for rec in o.failures_detected],
        )

    @property
    def report(self) -> Optional[TransferReport]:
        """The head's ring report (``None`` until it has one).

        One report per stripe head; ``k > 1`` pools the failure records.
        A merged stream has no single source digest (each stripe ships
        its own), so the pooled report carries none.
        """
        nodes = list(self.nodes.values())
        if len(nodes) == 1:
            return nodes[0].final_report
        pooled = TransferReport()
        for node in nodes:
            if node.final_report is not None:
                pooled.extend(node.final_report.failures)
        return pooled

    @property
    def offset(self) -> int:
        """Stream bytes this host has consumed (its election watermark)."""
        return sum(n.state.offset for n in self.nodes.values())

    # -- head re-root: one episode, every driver ---------------------------

    def let_go(self) -> bool:
        """Step one: stop where it stands, sink untouched (``detach``);
        whether this host let go — it is then a survivor at
        :attr:`offset`.  A host already done, or that will not stop,
        keeps what it has and is out of the re-rooted chain.
        """
        return not self.done and self.detach()

    def resume(self, chain: ChainPlan, make: Callable[..., "Host"], *,
               source: Optional[Source], gate: Optional[CrashGate]) -> "Host":
        """Step two, after :meth:`let_go` and the election: what this
        survivor becomes on the re-rooted ``chain``, built by ``make(name,
        **role)``.  Every survivor resumes at its own offset — the
        promoted one's is the watermark: it streams ``source`` from
        there (serving PGET below it), everyone else asks upstream for
        the rest and keeps its ``gate`` — into the sink it kept.  A sink
        is finished once: a node stopped after finishing its own (it
        holds the stream, awaiting PASSED) has nothing to add, and
        resumes into a :class:`NullSink`."""
        role = ({"source": source} if self.name == chain.head
                else {"gate": gate})
        sink = self.retained_sink()
        if any(node.sink_finished for node in self.nodes.values()):
            sink = NullSink()
        return make(self.name, sink=sink, resume_offset=self.offset, **role)

    def settle(self, ok: bool) -> None:
        """The run is over: a promoted head completes its *own* copy, or
        aborts it when ``ok`` is false; any other sink is its node's.

        It streamed ``[watermark, size)`` to the chain (a lone survivor
        to nobody), but its retained sink ends at its receiver-phase
        prefix — complete it straight from the source, so the promoted
        head holds (and can prove) the full payload too.
        """
        if not self.is_head or self.resume_offset is None:
            return
        if not ok:
            self.sink.abort()
            return
        pos, size = self.resume_offset, self.source.size
        while pos < size:
            piece = self.source.read_range(
                pos, min(self.config.chunk_size, size - pos))
            self.sink.write_chunk(piece)
            pos += len(piece)
        self.sink.finish()


class HostChains(Host):
    """A host on threads and real sockets: :class:`Host`'s parameters
    plus, one per stripe, ``registries`` (stripe ``j``'s peers) and
    ``listeners`` (this host's bound listener for it).  The node class
    follows ``config.data_plane``; ``resume_offset`` needs ``threaded``.
    """

    def __init__(
        self,
        name: str,
        chain_plan: ChainPlan,
        registries: Sequence[Registry],
        listeners: Sequence[Listener],
        config: KascadeConfig,
        **host,
    ) -> None:
        k = chain_plan.stripe_count
        if not len(registries) == len(listeners) == k:
            raise ValueError(
                f"{k}-stripe plan needs {k} registries and listeners, got "
                f"{len(registries)} and {len(listeners)}")
        self._wiring = list(zip(registries, listeners))
        self._evloop = config.data_plane == "evloop"
        super().__init__(name, chain_plan, config, **host)
        if not self.nodes:
            # A lone survivor of a re-root: no node takes the listeners
            # over (and closes them), and nobody will dial them.
            for listener in listeners:
                listener.close()

    def _make_node(self, label: str, plan: StripePlan, end, **kwargs):
        if self._evloop:
            from .evloop import EvHeadNode as head_cls
            from .evloop import EvReceiverNode as recv_cls
        else:
            head_cls, recv_cls = HeadNode, ReceiverNode
        return (head_cls if self.is_head else recv_cls)(
            self.name, plan, *self._wiring[plan.stripe], self.config, end,
            **kwargs)

    # -- lifecycle (threaded plane; evloop nodes go to ``run_nodes``) ----

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def join(self, deadline: Optional[float] = None) -> None:
        """Wait for every chain, all sharing one monotonic ``deadline``."""
        for node in self.nodes.values():
            node.join(None if deadline is None
                      else max(0.0, deadline - time.monotonic()))

    @property
    def done(self) -> bool:
        """Every chain instance has run to its end (or death)."""
        if self._evloop:
            return all(n.finished for n in self.nodes.values())
        return not any(n.thread.is_alive() for n in self.nodes.values())

    def shutdown(self) -> None:
        for node in self.nodes.values():
            node.shutdown()

    def request_quit(self) -> None:
        """Head only: user interruption, the QUIT path on every stripe."""
        for node in self.nodes.values():
            node.request_quit()

    def expire(self, reason: str) -> None:
        """Deadline passed: blame and stop whatever is still running
        (``run_nodes`` does the same for the evloop plane itself)."""
        for node in self.nodes.values():
            if node.thread.is_alive():
                node.outcome.error = node.outcome.error or reason
                node.shutdown()
        self.join(time.monotonic() + 2.0)

    def close(self) -> None:
        """The run is over, and so is the hang a silent crash staged:
        its sockets, kept open for the peers to time out on, go too."""
        super().close()
        if not self._evloop:
            for node in self.nodes.values():
                if node.silent:
                    node.close_connections()

    # -- head re-root (:meth:`Host.let_go`) ---------------------------------

    def detach(self) -> bool:
        """Interrupt for a head re-root, sink untouched; whether every
        node stopped.  Each join is the time a woken loop takes to
        unwind, not a timeout.  Connections stay open (neighbours may
        still be writing to them) until :meth:`close_connections`, once
        every survivor has been detached.
        """
        for node in self.nodes.values():
            node.begin_failover()
        self.join(time.monotonic() + 5.0)
        return self.done

    def retained_sink(self) -> Sink:
        """After :meth:`detach`: drain writeback and hand back the sink,
        still open, for the host :meth:`resume` builds."""
        for node in self.nodes.values():
            node.detach_sink()
        return self.sink
