"""One host, k chains: everything a host runs for one broadcast.

The paper's node is one program (§III-A/B); a striped broadcast runs it
``k`` times per host, one chain instance per stripe.  What follows from
that lives here, once: per-stripe :class:`~repro.core.stripes.
StripeSource` views and :class:`~repro.core.stripes.StripeMergeSink`
ports (or ``k`` exact ``NullSink``s, so the evloop splice relay stays
eligible), host-level gates judging the *aggregate* byte count,
``@s<j>`` trace names, node class by ``config.data_plane``,
start/join/shutdown, one merged outcome, one pooled report, and the
head re-root seam (:meth:`HostChains.detach`, then a rebuild with
``resume_offset``).

``k = 1`` is the one-stripe case, not a second path: the node is handed
the *same* source, sink, tracer and gate the caller gave — no wrapper on
the per-chunk path, ``sendfile``/``splice`` eligibility and trace names
unchanged.  That is decided in this module and nowhere else.
:class:`~repro.runtime.LocalBroadcast` builds one :class:`HostChains`
per node name; the deploy agent and ``kascade send``/``recv`` build one.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from ..core.config import KascadeConfig
from ..core.plan import ChainPlan
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import ResumeView, Source
from ..core.tracing import NULL_TRACER
from .node import CrashGate, HeadNode, ReceiverNode
from .registry import Registry
from .result import NodeOutcome, check_head_failover
from .transport import Listener

__all__ = ["HostChains", "check_head_failover"]


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

    def __init__(self, inner, stripe: int) -> None:
        self._inner = inner
        self._suffix = f"@s{stripe}"
        self.enabled = inner.enabled

    def emit(self, type_: str, node: str, **kwargs) -> None:
        peer = kwargs.get("peer")
        if peer is not None:
            kwargs["peer"] = peer + self._suffix
        self._inner.emit(type_, node + self._suffix, **kwargs)


class HostChains:
    """The chain instances one host runs: one node per stripe.

    Parameters
    ----------
    name, chain_plan:
        Which host this is in which schedule; it is a head when
        ``name == chain_plan.head``.
    registries, listeners:
        One per stripe: stripe ``j``'s peers and this host's bound
        listener for it.
    source / sink:
        The head's stream / a receiver's output, unstriped.  The caller
        keeps ownership of both (:meth:`close` only closes the stripe
        views this host opened).  A *promoted* head carries both: its
        retained sink is completed by :meth:`complete_own_copy`.
    gate:
        Host-level :data:`~repro.runtime.node.CrashGate`, asked about
        the aggregate byte count across stripes.
    resume_offset:
        Rebuild after a head re-root (1 stripe, threaded plane): the
        stream position this host resumes from.  ``0`` is a legal
        watermark — the dead head's RST can discard everything it sent —
        so "resumed" is ``is not None``, never truthiness: a promoted
        head reads through :class:`ResumeView` even at 0, because the
        old head moved the shared source's cursor.
    """

    def __init__(
        self,
        name: str,
        chain_plan: ChainPlan,
        registries: Sequence[Registry],
        listeners: Sequence[Listener],
        config: KascadeConfig,
        *,
        source: Optional[Source] = None,
        sink: Optional[Sink] = None,
        gate: Optional[CrashGate] = None,
        tracer=NULL_TRACER,
        resume_offset: Optional[int] = None,
    ) -> None:
        k = chain_plan.stripe_count
        if not len(registries) == len(listeners) == k:
            raise ValueError(
                f"{k}-stripe plan needs {k} registries and listeners, got "
                f"{len(registries)} and {len(listeners)}")
        if resume_offset is not None and k != 1:
            raise ValueError("a striped host cannot resume from one offset")
        self.name = name
        self.config = config
        self.source = source
        self.sink = sink
        self.resume_offset = resume_offset
        self.is_head = name == chain_plan.head
        self._evloop = config.data_plane == "evloop"
        if self._evloop:
            from .evloop import EvHeadNode as head_cls
            from .evloop import EvReceiverNode as recv_cls
        else:
            head_cls, recv_cls = HeadNode, ReceiverNode
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

            labels = [f"{name}@s{j}" for j in range(k)]
            tracers = [_StripeTracer(tracer, j) for j in range(k)]
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
        extra = {} if resume_offset is None else {
            "resume_offset": resume_offset}
        #: ``label -> node``: the bare host name at one stripe,
        #: ``name@s<j>`` otherwise (the names trace events carry).
        self.nodes: Dict[str, object] = {}
        for j, label in enumerate(labels):
            kwargs = dict(extra, tracer=tracers[j])
            if gates[j] is not None:  # evloop heads take no gate at all
                kwargs["crash_gate"] = gates[j]
            cls = head_cls if self.is_head else recv_cls
            self.nodes[label] = cls(
                name, chain_plan.stripe(j), registries[j], listeners[j],
                config, ends[j], **kwargs)

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
        """Release the stripe views this host opened (not the source)."""
        for view in self._views:
            view.close()

    # -- results ----------------------------------------------------------

    @property
    def outcome(self) -> NodeOutcome:
        """The host's outcome: its node's own, or the stripes' folded."""
        nodes = list(self.nodes.values())
        if len(nodes) == 1:
            return nodes[0].outcome
        merged = NodeOutcome(name=self.name)
        merged.ok = all(n.outcome.ok for n in nodes)
        merged.bytes_received = sum(n.outcome.bytes_received for n in nodes)
        merged.crashed = any(n.outcome.crashed for n in nodes)
        merged.error = next(
            (n.outcome.error for n in nodes if n.outcome.error), None)
        for n in nodes:
            merged.failures_detected.extend(n.outcome.failures_detected)
        return merged

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

    # -- head re-root -------------------------------------------------------

    @property
    def offset(self) -> int:
        """Stream bytes this host has consumed (its election watermark)."""
        return sum(n.state.offset for n in self.nodes.values())

    def detach(self) -> bool:
        """Interrupt for a head re-root, sink untouched; whether the host
        let go (:attr:`offset` is then where it stopped).

        Each join is the time a woken loop takes to unwind, not a
        timeout.  Connections stay open (neighbours may still be writing
        to them) until :meth:`close_connections`, once every survivor
        has been detached.
        """
        for node in self.nodes.values():
            node.begin_failover()
        self.join(time.monotonic() + 5.0)
        return self.done

    def close_connections(self) -> None:
        for node in self.nodes.values():
            node.close_connections()

    def retained_sink(self) -> Sink:
        """After :meth:`detach`: drain writeback and hand back the sink,
        still open, for the host rebuilt with ``resume_offset``."""
        for node in self.nodes.values():
            node.detach_sink()
        return self.sink

    def complete_own_copy(self) -> None:
        """Promoted head: finish this host's *own* output.

        It streamed ``[watermark, size)`` to the chain, but its retained
        sink ends at its receiver-phase prefix — complete it straight
        from the source, so the promoted head holds (and can prove) the
        full payload too.
        """
        pos, size = self.resume_offset, self.source.size
        while pos < size:
            piece = self.source.read_range(
                pos, min(self.config.chunk_size, size - pos))
            self.sink.write_chunk(piece)
            pos += len(piece)
        self.sink.finish()
