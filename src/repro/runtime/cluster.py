"""A broadcast from plan to result, and the driver that runs it on localhost.

:class:`Broadcast` is the run every in-process backend shares: resolve
the plan, validate the faults, build one host per node name, start,
wait, re-root around a head that died as planned, stop, fold into one
:class:`~repro.runtime.result.BroadcastResult`.  A driver supplies only
what is about its world (DESIGN.md §6, "One cluster, two drivers").

:class:`LocalBroadcast` drives it on threads: each pipeline node has its
own listening TCP socket, so the full wire protocol — framing, GET
handshakes, ping probes, PGET recovery, ring-closure report — is
exercised byte-for-byte.  This is the runtime behind the ``kascade`` CLI
and the integration test suite; the paper's *performance* experiments
use :mod:`repro.simnet` instead (a laptop loopback device says nothing
about a 200-node fat tree), where :class:`repro.protosim.ProtoBroadcast`
drives the same run.

Crash injection reproduces the Distem experiments' failure modes:

* ``"close"`` — process death: every socket is closed (peers see RST);
* ``"silent"`` — hang/partition: sockets stay open but the node stops
  reading, writing, and answering pings, so peers must detect the death
  via the timeout + ping mechanism of §III-D1.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..core import tracing
from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.perfstats import get_stats
from ..core.plan import ChainPlan
from ..core.report import TransferReport
from ..core.sinks import NullSink, Sink
from ..core.sources import ResumeView, Source
from ..core.tracing import NULL_TRACER, TraceCollector
from .host import Host, HostChains
from .registry import Registry
from .result import (BroadcastResult, CrashPlan, check_run, crash_gate,
                     late_joins)
from .transport import Listener


class Broadcast:
    """One Kascade broadcast: every host of one :class:`ChainPlan`.

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
        Failure injection plans (:class:`CrashPlan`, or ``(node,
        after_bytes[, mode])`` tuples).  On a striped run a crash is
        *host*-level: the threshold counts the host's bytes across every
        stripe and firing kills all of the host's chain instances, as a
        real process death would.  Everything the run may not ask is
        refused here, by :func:`~.result.check_run`, before any host
        exists.
    plan:
        Optional pre-built :class:`~repro.core.plan.ChainPlan`: the
        schedule when given (see :meth:`ChainPlan.resolve`), else one is
        built from ``head``/``order``/``config.stripes``.
    tracer:
        A :class:`~repro.core.tracing.TraceCollector` every node emits
        structured events into, or the default no-op recorder.  On a
        striped run event node names carry an ``@s<j>`` stripe suffix.
    allow_head_chaos:
        Ask for a run that survives its head (and so refuse one that
        cannot): a crash plan may target the head, and when it dies the
        most complete survivor is promoted and the run goes on
        (:meth:`_reroot`).
    late_join:
        Nodes let in once the head has moved ``after_bytes``, or once it
        is done (:class:`~.result.LateJoin`, or ``(node, after_bytes)``).
        Those let in together get a chain of their own from the head
        (:meth:`_join`); a run without joiners gives its head no gate.

    Prefer :func:`repro.run_broadcast` for new code — it fronts the
    drivers behind one backend-selectable entry point.
    """

    #: What this driver's runs fold into, and say their backend was.
    backend, result_type = "local", BroadcastResult

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
        late_join: Sequence = (),
    ) -> None:
        self.source = source
        self.config = config
        self.tracer = tracer
        self.chain_plan = ChainPlan.resolve(
            plan, head, receivers, stripes=config.stripes, order=order)
        self.sink_factory = sink_factory or (lambda name: NullSink())
        self.crashes = {c.node: c for c in check_run(
            self.chain_plan, crashes, backend=self.backend,
            data_plane=config.data_plane, source_kind=source.kind,
            allow_head_chaos=allow_head_chaos, late_join=late_join)}
        self.late_join = late_joins(late_join)
        #: Injected head death + in-process promotion (the in-process
        #: twin of the fleet's head failover).
        self._head_crash = self.crashes.get(self.chain_plan.head)
        #: ``label -> node`` of the run in progress (see :attr:`Host.nodes`).
        self.nodes: Dict[str, object] = {}

    def _crash_gate(self, node: str) -> Optional[Callable[[int], Optional[str]]]:
        """The host-level gate realising ``node``'s byte-triggered crash
        plan, if any (:func:`~.result.crash_gate`).

        It runs inside the node's own main loop — for the head too: a
        kill from outside would race the send loop, which treats a
        failing socket as a *downstream* death and routes around it
        instead of dying.
        """
        return crash_gate(self.crashes.get(node))

    # What a driver supplies (LocalBroadcast below, ProtoBroadcast):
    #
    # ``_now()``: its clock — ``duration`` and the deadline are read off it;
    # ``_wire(chain, tag="")``: lets the chain's hosts find each other,
    #     afresh, and returns how one is built on that: ``(name, **role) ->
    #     Host``; ``tag`` sets a join chain's hosts apart from the push's
    #     where the network knows hosts by name;
    # ``_start(hosts, deadline)``: set a chain's hosts, head first, running;
    # ``_wait(waited, deadline)``: return once each is done, or at the deadline.

    def run(self, timeout: float = 120.0) -> BroadcastResult:
        """Execute the broadcast and gather every host's outcome.

        ``timeout`` is one deadline on the driver's clock for the *whole*
        run: every wait consumes the shared remaining budget, so a wedged
        head cannot double the effective bound.  A planned head death
        (``allow_head_chaos``) is an episode of the same run: when the
        head exits crashed the survivors are detached, the most complete
        one is promoted (:meth:`_reroot`), and the run keeps waiting on
        the re-rooted chain.  Late joiners are let in by a gate on the
        head, or once it is done, and waited for with the receivers.
        """
        chain = self.chain_plan
        make_host = self._wire(chain)
        hosts: Dict[str, Host] = {}
        joined: List[Host] = []
        pending = list(self.late_join)
        # The head's thread and, past a deadline it outlived, this one.
        letting_in = threading.Lock()

        def let_in(moved: float) -> None:
            with letting_in:
                ready = [lj for lj in pending if moved >= lj.after_bytes]
                if ready:
                    pending[:] = [lj for lj in pending if lj not in ready]
                    joined.extend(self._join(ready, deadline,
                                             tag=f"@join{len(joined)}"))

        for name in chain.nodes:
            role = ({"source": self.source} if name == chain.head
                    else {"sink": self.sink_factory(name)})
            gate = self._crash_gate(name)
            if name == chain.head and pending:
                gate = let_in  # a head with joiners has no crash plan
            hosts[name] = make_host(name, gate=gate, **role)
        self.nodes = {label: node for host in hosts.values()
                      for label, node in host.nodes.items()}

        stats_before = get_stats().snapshot()
        started = self._now()
        deadline = started + timeout
        self._start(list(hosts.values()), deadline)
        self._wait([hosts[chain.head]], deadline)
        if self._head_crash is not None and hosts[chain.head].outcome.crashed:
            chain = self._reroot(hosts, deadline) or chain
            self._wait([hosts[chain.head]], deadline)
        let_in(math.inf)  # the push is over: whoever waits comes in now
        self._wait([*(hosts[name] for name in chain.receivers), *joined],
                   deadline)
        duration = self._now() - started
        head = hosts[chain.head]
        head_done = head.done

        # Stop anything still alive (e.g. silent crash remains) and let
        # every host close what it opened.
        for host in (*hosts.values(), *joined):
            host.shutdown()
            host.close()
        head.settle(head.outcome.ok)

        outcomes = {name: host.outcome for name, host in hosts.items()}
        outcomes.update((host.name, host.outcome) for host in joined
                        if not host.is_head)
        # NB: TransferReport is falsy when it has no failures — test
        # identity, not truth, or a clean run's report (and its source
        # digest) would be silently replaced.
        report = head.report
        if report is None:
            report = TransferReport()
        for host in joined:
            if host.is_head and host.report is not None:
                report.extend(host.report.failures)
        # A planned death is excused — the head's too; every intended
        # receiver (including a promoted one, and a joiner) must have
        # completed, and the head must have run to its end.
        intended = [r for r in (*self.chain_plan.receivers,
                                *(lj.node for lj in self.late_join))
                    if r not in self.crashes]
        stats_after = get_stats().snapshot()
        return self.result_type(
            ok=(outcomes[chain.head].ok and head_done
                and all(outcomes[name].ok for name in intended)),
            duration=duration,
            total_bytes=outcomes[chain.head].bytes_received,
            report=report,
            outcomes=outcomes,
            trace=self.tracer if isinstance(self.tracer, TraceCollector) else None,
            perfstats={k: stats_after[k] - stats_before.get(k, 0)
                       for k in stats_after},
            backend=self.backend,
            plan=chain,
        )

    def _join(self, ready: Sequence, deadline: float, tag: str) -> List[Host]:
        """Start a chain of its own from the head for the joiners let in
        together; returns its hosts, head first.  The head streams the
        source again from byte 0, through a view of its own: the push
        moves the shared cursor."""
        chain = ChainPlan.single(self.chain_plan.head,
                                 [lj.node for lj in ready])
        make_host = self._wire(chain, tag)
        hosts = [make_host(chain.head,
                           source=ResumeView(self.source, 0))]
        hosts += [make_host(name, sink=self.sink_factory(name),
                            gate=self._crash_gate(name))
                  for name in chain.receivers]
        self._start(hosts, deadline)
        return hosts

    def _reroot(self, hosts: Dict[str, Host],
                deadline: float) -> Optional[ChainPlan]:
        """The head died as planned: promote a survivor, resume the rest.

        The run plays the coordinator: the survivors let go
        (:meth:`Host.let_go`), :meth:`ChainPlan.elect` picks the head
        and the watermark, and each survivor is rebuilt by
        :meth:`Host.resume` — the supervisor of a fleet does the same
        with messages.  Rebuilt hosts replace their predecessors in
        ``hosts`` and are started; returns the re-rooted plan, or
        ``None`` when no receiver let go (the run then fails through
        the normal path).
        """
        crash, old_head = self._head_crash, self.chain_plan.head
        self.tracer.emit(
            tracing.FAILOVER, "coordinator", peer=old_head,
            detail=f"injected head crash ({crash.mode})",
            detector=(tracing.DETECTOR_ERROR if crash.mode == "close"
                      else tracing.DETECTOR_PING),
        )
        # Chain order, one at a time: a host is detached only after its
        # upstream has stopped relaying, so no survivor is still writing
        # to a neighbour that has already let go.
        offsets = {name: hosts[name].offset
                   for name in self.chain_plan.receivers
                   if hosts[name].let_go()}
        for name in offsets:
            hosts[name].close_connections()
        if not offsets:
            return None

        chain, elect, watermark = self.chain_plan.elect(offsets)
        self.tracer.emit(
            tracing.ELECTION, "coordinator", peer=elect, offset=watermark,
            detail=(f"promoted {elect} to replace {old_head} "
                    f"at watermark {watermark}"),
        )
        make_host = self._wire(chain)
        for name in chain.nodes:
            hosts[name] = hosts[name].resume(
                chain, make_host, source=self.source,
                gate=self._crash_gate(name))
            self.nodes.update(hosts[name].nodes)
        self._start([hosts[name] for name in chain.nodes], deadline)
        return chain


class LocalBroadcast(Broadcast):
    """The broadcast on loopback TCP: every host a
    :class:`~repro.runtime.host.HostChains`, whose nodes
    ``config.data_plane`` puts on a thread pair each (``"threaded"``,
    the conformance reference) or on reactors driven from the calling
    thread (``"evloop"``, :mod:`repro.runtime.evloop`: ``_start`` *is*
    the run there, until ROADMAP item 2 retires it).
    """

    _now = staticmethod(time.monotonic)

    def _wire(self, chain: ChainPlan, tag: str = ""):
        """Fresh listeners and registries: one per host and stripe (a
        port is an address here, so ``tag`` is not needed)."""
        listeners = {name: [Listener() for _ in range(chain.stripe_count)]
                     for name in chain.nodes}
        registries = [
            Registry({name: ls[j].address for name, ls in listeners.items()})
            for j in range(chain.stripe_count)
        ]
        return lambda name, **role: HostChains(
            name, chain, registries, listeners[name], self.config,
            tracer=self.tracer, **role)

    def _start(self, hosts: Sequence[HostChains], deadline: float) -> None:
        if self.config.data_plane == "evloop":
            from .evloop import run_nodes

            # The calling thread drives the event loops; run_nodes returns
            # once every node finished (or the shared deadline expired).
            run_nodes([node for host in hosts for node in host.nodes.values()],
                      duration=deadline - time.monotonic())
            return
        for host in (*hosts[1:], hosts[0]):
            host.start()

    def _wait(self, waited: Sequence[HostChains], deadline: float) -> None:
        if self.config.data_plane == "evloop":
            return
        for host in waited:
            # Receivers get a single one-second grace for teardown.
            host.join(deadline if host.is_head else deadline + 1.0)
