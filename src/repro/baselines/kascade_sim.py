"""Kascade on the fluid simulator: topology-aware pipeline with the
paper's fault-tolerance semantics (§III, §IV-G).

Each *sending* node (head and every relay) runs one controller process:

1. wait until the node holds one chunk (pipeline fill, §III-A);
2. connect to the next alive node in the original order and read its
   ``GET(offset)`` — here: its :class:`NodeRx` position;
3. if the offset predates the sender's ring-buffer window, either have
   the replacement fetch the hole from the head (``PGET``, file-backed
   source) or abort the orphaned suffix (``FORGET``, stream source);
4. stream the remainder as a chain-coupled fluid flow;
5. on downstream death (detected after ``io_timeout`` + a ping RTT,
   §III-D1), mark it failed and loop back to 2.

Failure injection kills the host in the fabric (its streams fail), kills
its controller, and — when its upstream had already finished serving it —
re-arms the nearest alive predecessor, mirroring how the real runtime
detects a death during the report exchange.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from dataclasses import dataclass

from ..core.config import DEFAULT_CONFIG, KascadeConfig
from ..core.errors import KascadeError
from ..core.plan import StripePlan
from ..core.recovery import SourceKind, next_alive
from ..core.units import MiB
from ..core import tracing
from ..launch import TakTukWindowed
from ..simnet import (
    Engine,
    Fabric,
    HeadRx,
    HostDied,
    NodeRx,
    StreamCancelled,
    Timeout,
)
from ..simnet.engine import Process
from .base import BroadcastMethod, RunState, SimSetup

_BYTES_EPS = 0.5


class SlowNodeExcluded(KascadeError):
    """A downstream node was excluded for sustained low throughput."""

    def __init__(self, node: str, rate: float) -> None:
        super().__init__(f"{node} excluded: {rate / 1e6:.1f} MB/s sustained")
        self.node = node
        self.rate = rate


@dataclass(frozen=True)
class SlowNodePolicy:
    """The paper's future-work feature (§V): measure each neighbour's
    throughput during the transfer and exclude it when it stays below
    ``threshold`` bytes/s for longer than ``grace`` seconds.

    Without this, "the network or disk performance of one specific node
    [slows] down the whole process" — every node after the laggard
    receives at the laggard's rate.
    """

    threshold: float           # bytes/s considered malfunctioning
    grace: float = 3.0         # sustained slowness before exclusion
    check_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.grace <= 0 or self.check_interval <= 0:
            raise KascadeError("slow-node policy values must be positive")


class _KascadeRun(RunState):
    """State of one simulated Kascade broadcast."""

    def __init__(
        self,
        method: "KascadeSim",
        engine: Engine,
        fabric: Fabric,
        setup: SimSetup,
    ) -> None:
        super().__init__()
        self.method = method
        self.engine = engine
        self.fabric = fabric
        self.setup = setup
        self.net = setup.network
        self.size = setup.size
        self.plan = StripePlan(head=setup.head, receivers=setup.receivers)
        self.dead: set[str] = set()
        self.rx: Dict[str, NodeRx] = {}
        self.procs: Dict[str, Process] = {}
        #: Recovery processes acting for a node; killed with it.
        self.aux_procs: Dict[str, list] = {}
        self.rx[setup.head] = HeadRx(engine, setup.head, setup.size)
        for r in setup.receivers:
            self.rx[r] = NodeRx(engine, r)
        # Consumption trackers for bounded-buffer backpressure: a node's
        # "tx" supply follows its outbound stream; the tail's is infinite
        # (it consumes into its sink).
        from ..simnet import StreamSupply
        self.tx: Dict[str, StreamSupply] = {
            r: StreamSupply() for r in setup.receivers
        }

    # ------------------------------------------------------------------

    def start(self) -> None:
        for node in self.plan.chain:
            self.procs[node] = self.engine.spawn(
                self.sender(node), name=f"kascade:{node}"
            )
        for when, node in self.setup.failures:
            self.engine.call_at(when, lambda n=node: self.kill(n))

    def kill(self, node: str) -> None:
        """Failure injection: ``node`` dies right now."""
        upstream_active = (
            self.rx[node].stream is not None and self.rx[node].stream.active
        )
        self.failed.add(node)
        self.finish_times.pop(node, None)
        proc = self.procs.get(node)
        if proc is not None:
            proc.kill()
        self.fabric.kill_host(node)
        self.rx[node].attach(None)
        for aux in self.aux_procs.pop(node, []):
            aux.kill()
        if not upstream_active:
            # Its server already finished serving it: nobody is watching
            # this death, so re-arm the nearest alive predecessor (the
            # real runtime notices during the PASSED wait).
            pred = self._nearest_alive_predecessor(node)
            if pred is not None:
                proc = self.engine.spawn(
                    self._reconnect_after_detection(pred, node),
                    name=f"kascade:recover:{pred}",
                )
                # Recovery processes act on the predecessor's behalf and
                # must die with it (a zombie server would misattribute
                # its own death to whatever target it serves next).
                self.aux_procs.setdefault(pred, []).append(proc)

    def _nearest_alive_predecessor(self, node: str) -> Optional[str]:
        idx = self.plan.index_of(node)
        for candidate in reversed(self.plan.chain[:idx]):
            if candidate not in self.failed and candidate not in self.aborted:
                return candidate
        return None

    def _reconnect_after_detection(self, pred: str, dead_node: str):
        yield Timeout(self.method.config.io_timeout
                      + self.net.rtt(pred, dead_node))
        self.dead.add(dead_node)
        yield from self._serve_loop(pred)

    # ------------------------------------------------------------------

    def sender(self, me: str):
        """Controller process for the sending side of node ``me``."""
        yield from self._serve_loop(me)

    def _serve_loop(self, me: str):
        myrx = self.rx[me]
        cfg = self.method.config
        while True:
            if myrx.aborted or me in self.failed:
                return
            target = next_alive(self.plan, me, self.dead | self.aborted)
            if target is None:
                # Effective tail: consumption is sink-bound, so anyone
                # backpressure-coupled to this node must see no bound.
                if me in self.tx:
                    self.tx[me].mark_unbounded()
                return
            rtt = self.net.rtt(me, target)
            # TCP connect + GET handshake.  Connections are established as
            # soon as the tool starts everywhere (§III-B), so this happens
            # in parallel across hops — only the *chunk* wait below is part
            # of the serial pipeline-fill path.
            yield Timeout(self.method.connect_cost + rtt)
            if self.fabric.is_dead(target):
                self._mark_dead(target, by=me)
                continue
            # Store-and-forward granularity: a relay forwards nothing until
            # it holds one full chunk (§III-C), which is what makes the
            # pipeline fill cost one chunk-time per hop.
            yield from myrx.wait_for(min(self.method.sim_chunk, self.size))
            if myrx.aborted or me in self.failed:
                return
            if self.fabric.is_dead(target):
                self._mark_dead(target, by=me)
                continue
            start = self.rx[target].position()
            window_min = self._window_min(me)
            if start < window_min - 0.5:
                self.engine.trace(tracing.PGET, target, peer=self.plan.head,
                                  offset=int(start),
                                  detail=f"until={int(window_min)}")
                outcome = yield from self._fill_hole(me, target, start, window_min)
                if myrx.aborted or me in self.failed:
                    return  # we died or aborted while the hole filled
                if outcome == "target-died":
                    self._mark_dead(target, by=me,
                                    reason="died during hole fill")
                    continue
                if outcome == "forget":
                    self.engine.trace(tracing.FORGET, me, peer=target,
                                      offset=int(window_min), detail="sent")
                    self._abort_suffix(me)
                    return  # this node is the effective tail now
                start = window_min
            supply = None if isinstance(myrx, HeadRx) else myrx.supply
            line = self.method.line_rate(self.setup, me, target)
            bp_supply = None
            if (
                self.method.model_backpressure
                and next_alive(self.plan, target, self.dead | self.aborted)
                is not None
            ):
                bp_supply = self.tx[target]
            try:
                stream = self.fabric.open_stream(
                    me, target, self.size - start,
                    offset0=start,
                    supply=supply,
                    depth=self.plan.index_of(me),
                    limit=self.method.hop_limit(rtt, line),
                    disk_weight=1.0 if self.setup.sink == "disk" else 0.0,
                    bp_supply=bp_supply,
                    bp_capacity=self.method.bp_capacity,
                )
            except HostDied as exc:
                if exc.host == me:
                    return  # we are the dead one, not the target
                self._mark_dead(target, by=me)
                continue
            self.rx[target].attach(stream)
            if me in self.tx:
                self.tx[me].attach(stream)
            if self.method.slow_policy is not None:
                self.engine.spawn(
                    self._slow_monitor(stream, target),
                    name=f"kascade:slowmon:{target}",
                )
            try:
                yield stream.completed
                self.mark_finished(target, self.engine.now)
                self.engine.trace(tracing.DONE, target,
                                  offset=int(self.size), detail="ok")
                return
            except HostDied as exc:
                if exc.host == me:
                    return  # we died mid-send (the injector killed us)
                # Detection: stalled write, then an unanswered ping.
                self.rx[target].attach(None)
                yield Timeout(cfg.io_timeout + rtt)
                self._mark_dead(target, by=me,
                                reason="write-stalled, ping unanswered")
            except SlowNodeExcluded as exc:
                # §V future work: the laggard is dropped from the chain,
                # its successors get re-served at full speed.
                self.engine.trace(tracing.QUIT, target, peer=me,
                                  detail=f"excluded: {exc}")
                self.rx[target].attach(None)
                self.excluded.add(target)
                self.dead.add(target)
                self.finish_times.pop(target, None)
                self._teardown_excluded(target)
            except StreamCancelled:
                return

    def _teardown_excluded(self, target: str) -> None:
        """Stop the excluded node's own serving side.

        Its inbound stream was just failed; its *outbound* stream would
        otherwise idle forever (supply frozen), keeping its monitor — and
        the simulation — alive.  The successor it was serving gets
        re-served by us after the exclusion.
        """
        proc = self.procs.get(target)
        if proc is not None:
            proc.kill()
        for aux in self.aux_procs.pop(target, []):
            aux.kill()
        for rx in self.rx.values():
            st = rx.stream
            if st is not None and st.active and st.src == target:
                st.cancel()
                rx.attach(None)

    def _slow_monitor(self, stream, target: str):
        """Measure a neighbour's reception rate; exclude it if it stays
        below the policy threshold for the grace period (§V).

        Crucially, a sender only blames its receiver when it *has data
        waiting* (non-empty backlog): a starved sender is downstream of
        the real culprit and must not cascade exclusions through the
        whole suffix of the chain.
        """
        policy = self.method.slow_policy
        slow_since = None
        last_pos = stream.head
        while stream.active:
            yield Timeout(policy.check_interval)
            if not stream.active:
                return
            pos = stream.head
            rate = (pos - last_pos) / policy.check_interval
            last_pos = pos
            if stream.supply is not None:
                backlog = stream.supply.available() - pos
            else:
                backlog = math.inf  # the head always has data ready
            receiver_limited = (
                rate < policy.threshold
                and backlog > policy.threshold * policy.check_interval
                and pos + _BYTES_EPS < self.size
            )
            if receiver_limited:
                if slow_since is None:
                    slow_since = self.engine.now
                elif self.engine.now - slow_since >= policy.grace:
                    stream.fail(SlowNodeExcluded(target, rate))
                    return
            else:
                slow_since = None

    def _window_min(self, me: str) -> float:
        """Oldest stream byte node ``me`` can still re-send (FORGET floor).

        Relays keep the last ``buffer_bytes`` of what they *received*.
        The head's window depends on its source: a seekable file can be
        re-read from any offset; a stream-fed head only holds its ring
        buffer behind its read position, approximated by the farthest
        receiver (the head reads only as fast as it sends).
        """
        if me != self.plan.head:
            return max(0.0, self.rx[me].position() - self.method.buffer_bytes)
        if self.method.source_kind is SourceKind.SEEKABLE_FILE:
            return 0.0
        head_read = max(
            (self.rx[r].position() for r in self.plan.receivers
             if r not in self.failed and r not in self.aborted),
            default=0.0,
        )
        return max(0.0, head_read - self.method.buffer_bytes)

    def _fill_hole(self, me: str, target: str, start: float, until: float):
        """Replacement receiver fetches [start, until) from the head.

        Returns ``"ok"``, ``"target-died"``, or ``"forget"`` (stream
        source: bytes unrecoverable, suffix must abort)."""
        if self.method.source_kind is not SourceKind.SEEKABLE_FILE:
            return "forget"
        head = self.plan.head
        try:
            hole = self.fabric.open_stream(
                head, target, until - start,
                offset0=start,
                depth=self.plan.index_of(head),
                disk_weight=1.0 if self.setup.sink == "disk" else 0.0,
            )
        except HostDied:
            return "target-died"
        try:
            yield hole.completed
        except HostDied as exc:
            if exc.host == target:
                return "target-died"
            return "forget"  # head died: nothing more to fetch from
        except StreamCancelled:
            return "target-died"
        # Account the hole bytes in the receiver's position.
        self.rx[target].supply.attach(hole)
        self.rx[target].supply.attach(None)
        return "ok"

    def _mark_dead(self, node: str, *, by: Optional[str] = None,
                   reason: str = "connect-failed: host dead") -> None:
        if node not in self.dead:
            self.engine.trace(tracing.FAILOVER, by or self.plan.head,
                              peer=node, detail=reason,
                              detector=tracing.classify_detector(reason))
        self.dead.add(node)
        self.failed.add(node)
        self.finish_times.pop(node, None)

    def _abort_suffix(self, me: str) -> None:
        """FORGET with a stream source: every node after ``me`` quits."""
        for node in self.plan.successors_after(me):
            if node in self.dead or node in self.failed:
                continue
            self.aborted.add(node)
            self.finish_times.pop(node, None)
            proc = self.procs.get(node)
            if proc is not None:
                proc.kill()
            for aux in self.aux_procs.pop(node, []):
                aux.kill()
            rx = self.rx[node]
            if rx.stream is not None and rx.stream.active:
                rx.stream.cancel()
            rx.abort()


class KascadeSim(BroadcastMethod):
    """The paper's tool on the simulator.

    Constants: Kascade is a Ruby process copying through userspace —
    its per-host copy budget is what pins it slightly above 2 Gbit/s on
    10 GbE while still saturating 1 GbE (§IV-B).  TCP with standard
    buffers gives it a large per-hop window, so WAN hops stay efficient
    (§IV-E).  Startup rides on TakTuk windowed mode (§III-B).
    """

    name = "Kascade"
    copy_bw = 560e6           # Ruby userspace relay: rx + tx share this
    protocol_window = 4 * MiB  # TCP autotuned buffers, paper-era kernels
    disk_seq_efficiency = 0.58  # sequential streaming writes (§II-A1)
    jitter = 0.04
    launcher = TakTukWindowed()
    fault_tolerant = True

    def __init__(
        self,
        config: KascadeConfig = DEFAULT_CONFIG,
        *,
        source_kind: SourceKind = SourceKind.SEEKABLE_FILE,
        sim_chunk: float = 256 * 1024,
        connect_cost: float = 2e-3,
        slow_policy: "SlowNodePolicy | None" = None,
        model_backpressure: bool = False,
        bp_capacity: Optional[float] = None,
    ) -> None:
        self.config = config
        self.source_kind = source_kind
        #: Pipeline-fill granularity: what a relay buffers before its first
        #: forward.  Smaller than the protocol chunk because a relay
        #: forwards socket-read-sized pieces as they land, not whole DATA
        #: frames.
        self.sim_chunk = sim_chunk
        #: TCP connection establishment + tool accept cost, on top of RTT.
        self.connect_cost = connect_cost
        #: Optional slow-node detection/exclusion (§V future work).
        self.slow_policy = slow_policy
        #: Bounded-buffer backpressure: when enabled, a sender can run at
        #: most ``bp_capacity`` bytes ahead of its receiver's forwarding
        #: position (ring buffer + socket buffers), so one slow node
        #: throttles the *whole* pipeline, not just its suffix — the
        #: honest model of §V's problem statement.  Off by default: it
        #: does not change completion times in the paper's experiments
        #: (the bottleneck hop still gates every downstream node).
        self.model_backpressure = model_backpressure
        self.bp_capacity = (
            bp_capacity if bp_capacity is not None
            else self.buffer_bytes + 4 * MiB
        )

    @property
    def buffer_bytes(self) -> float:
        return float(self.config.buffer_bytes)

    def execute(self, engine: Engine, fabric: Fabric, setup: SimSetup):
        run = _KascadeRun(self, engine, fabric, setup)
        run.start()
        return run
