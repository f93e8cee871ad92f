"""Common infrastructure for simulated broadcast methods.

Every method of the paper's evaluation — Kascade, TakTuk (chain/tree),
UDPCast, MPI broadcast — implements :class:`BroadcastMethod.execute` as a
set of controller processes over the fluid fabric.  This module holds the
shared setup/result plumbing so a method only describes its *data
movement structure* and its implementation constants.

Implementation constants (the "who wins" knobs, each tied to a mechanism
named in the paper):

* ``copy_bw`` — per-host byte-shuffling budget of the implementation.
  Relays pay it twice (receive + send), which is why Kascade saturates
  1 GbE but plateaus near 2 Gb/s on 10 GbE (§IV-B, "the bottleneck is the
  memory"); a C implementation (MPI) gets a larger budget than a Ruby or
  Perl one (Kascade, TakTuk).
* ``protocol_window`` — bytes in flight per hop before the protocol
  waits for an acknowledgment round trip.  Big for plain TCP streaming
  (Kascade), one segment for MPI's rendezvous pipeline, small for
  TakTuk's command channel.  Sets the latency sensitivity of §IV-E.
* ``hop_cap`` — flat per-hop throughput ceiling from per-byte protocol
  work (TakTuk's Perl serialization keeps it near a third of GbE,
  Fig. 7).
* ``disk_seq_efficiency`` — fraction of raw disk bandwidth achieved by
  the method's write pattern (§II-A1: sequential streaming writes beat
  bursty ones).
* ``launcher`` — the startup model (§III-B / Fig. 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.errors import KascadeError
from ..core.units import mbps
from ..launch import InstantLauncher, Launcher
from ..simnet import Engine, Fabric
from ..topology.graph import DiskSpec, Network

if TYPE_CHECKING:
    import numpy as np


@dataclass
class SimSetup:
    """One broadcast experiment instance.

    ``receivers`` is already in final pipeline/rank order — ordering
    policy (sorted / random) is the harness's job, mirroring how the
    paper feeds each tool a host list.
    """

    network: Network
    head: str
    receivers: Tuple[str, ...]
    size: float
    sink: str = "null"            # "null" (RAM/dev-null) or "disk"
    failures: Tuple[Tuple[float, str], ...] = ()   # (time, node)
    include_startup: bool = True
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise KascadeError("negative transfer size")
        if self.head in self.receivers:
            raise KascadeError("head cannot be a receiver")
        missing = [
            h for h in (self.head, *self.receivers)
            if h not in self.network.hosts
        ]
        if missing:
            raise KascadeError(f"hosts not in topology: {missing}")
        if self.sink not in ("null", "disk"):
            raise KascadeError(f"unknown sink {self.sink!r}")

    @property
    def chain(self) -> Tuple[str, ...]:
        return (self.head, *self.receivers)

    @property
    def n_clients(self) -> int:
        return len(self.receivers)


@dataclass
class MethodResult:
    """Outcome of one simulated broadcast."""

    method: str
    n_clients: int
    size: float
    startup_time: float
    data_time: float
    completed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)    # crashed nodes
    aborted: List[str] = field(default_factory=list)   # gave up (FORGET)
    excluded: List[str] = field(default_factory=list)  # too slow (§V)
    finish_times: Dict[str, float] = field(default_factory=dict)
    #: Attached when run(trace=True): a FabricTracer with the full rate
    #: history and bottleneck attribution of the simulated transfer.
    trace: Optional[object] = None
    #: Attached when run(trace=True): the structured TraceCollector the
    #: method's controller processes emitted into (FAILOVER/PGET/FORGET/
    #: QUIT/DONE events on simulated time).
    events: Optional[object] = None

    @property
    def total_time(self) -> float:
        return self.startup_time + self.data_time

    @property
    def throughput(self) -> float:
        """The paper's metric: file size / time to finish transmission."""
        if self.total_time <= 0:
            return math.inf
        return self.size / self.total_time

    @property
    def throughput_mbs(self) -> float:
        return mbps(self.throughput)

    def __repr__(self) -> str:
        return (
            f"<{self.method}: n={self.n_clients} "
            f"{self.throughput_mbs:.1f} MB/s "
            f"(startup {self.startup_time:.2f}s, data {self.data_time:.2f}s)>"
        )


class BroadcastMethod:
    """Base class for simulated broadcast implementations."""

    #: Display name, matching the paper's figure legends.
    name: str = "abstract"
    #: Per-host implementation copy budget (bytes/s); ``inf`` = never CPU
    #: bound (not true of any real tool — subclasses must set it).
    copy_bw: float = math.inf
    #: Per-hop in-flight window (bytes) before an ack round trip is paid.
    protocol_window: float = math.inf
    #: Flat per-hop throughput ceiling (protocol per-byte work).
    hop_cap: float = math.inf
    #: Fraction of raw disk write bandwidth this method's pattern achieves.
    disk_seq_efficiency: float = 0.7
    #: Run-to-run variability of the implementation's copy budget
    #: (relative sigma of a lognormal factor).  Models OS jitter, page
    #: cache state, and protocol adaptivity — the source of the paper's
    #: confidence intervals; large for MPI, whose 10 GbE results "peaked
    #: at approximately 5 Gbit/s but usually stay around 3" (§IV-B).
    jitter: float = 0.03
    #: Run-to-run variability of per-hop goodput (TCP retransmits, cross
    #: traffic, interrupt coalescing...).  Applied as one lognormal factor
    #: per run on every hop limit, so even link-bound platforms show the
    #: paper's repetition variance.
    goodput_jitter: float = 0.012
    #: Startup model.
    launcher: Launcher = InstantLauncher()
    #: Whether the method works over routed (multi-site) networks.
    supports_routed: bool = True
    #: Whether the method survives node failures.
    fault_tolerant: bool = False

    # ------------------------------------------------------------------

    def hop_limit(self, rtt: float, line_rate: float) -> float:
        """Per-hop rate ceiling from protocol windowing + per-byte work.

        A hop that keeps ``protocol_window`` bytes in flight and then
        waits one RTT achieves ``window / (window/line + rtt)`` — the
        standard stop-and-wait throughput bound.  The flat ``hop_cap``
        is applied on top.
        """
        cap = self.hop_cap
        if math.isfinite(self.protocol_window) and line_rate > 0:
            w = self.protocol_window
            cap = min(cap, w / (w / line_rate + rtt))
        if math.isfinite(line_rate):
            cap = min(cap, line_rate)
        return cap * getattr(self, "run_goodput", 1.0)

    def run(self, setup: SimSetup, *, trace: bool = False) -> MethodResult:
        """Simulate one broadcast; returns the measured result.

        ``trace=True`` attaches a
        :class:`~repro.simnet.trace.FabricTracer` to the result for rate
        timelines and bottleneck attribution.
        """
        if setup.failures and not self.fault_tolerant:
            raise KascadeError(
                f"{self.name} has no fault tolerance; cannot inject failures"
            )
        self._apply_host_model(setup)
        self.run_goodput = 1.0
        if setup.rng is not None and self.goodput_jitter > 0:
            import numpy as np

            # Draw once per run: goodput moves together across hops.
            self.run_goodput = float(
                np.exp(setup.rng.normal(0.0, self.goodput_jitter))
            )
        engine = Engine()
        fabric = Fabric(engine, setup.network)
        tracer = None
        if trace:
            from ..core.tracing import TraceCollector
            from ..simnet.trace import FabricTracer
            engine.tracer = TraceCollector(clock=lambda: engine.now, zero=0.0)
            tracer = FabricTracer(fabric, events=engine.tracer)
        state = self.execute(engine, fabric, setup)
        engine.run()
        result = self._collect(setup, state)
        result.trace = tracer
        result.events = engine.tracer if trace else None
        return result

    # -- hooks ----------------------------------------------------------

    def execute(self, engine: Engine, fabric: Fabric, setup: SimSetup):
        """Spawn the method's controller processes; return opaque state
        handed back to :meth:`collect` after the simulation drains."""
        raise NotImplementedError

    def _collect(self, setup: SimSetup, state) -> MethodResult:
        """Assemble the result; ``state`` must provide ``finish_times``
        (dict node -> sim time), ``failed`` and ``aborted`` sets."""
        finish = dict(state.finish_times)
        failed = sorted(state.failed)
        aborted = sorted(state.aborted)
        excluded = sorted(getattr(state, "excluded", ()))
        out = set(state.failed) | set(state.aborted) | set(excluded)
        completed = [
            r for r in setup.receivers if r in finish and r not in out
        ]
        # When nobody completed, the transfer still *took* time — methods
        # may record it via ``data_end`` (e.g. a unidirectional sender
        # that never learns its receivers failed).
        data_time = (max(finish.values()) if finish
                     else getattr(state, "data_end", 0.0))
        rtt = (
            setup.network.rtt(setup.head, setup.receivers[0])
            if setup.receivers else 1e-4
        )
        startup = (
            self.launcher.startup_time(setup.n_clients, rtt)
            if setup.include_startup else 0.0
        )
        return MethodResult(
            method=self.name,
            n_clients=setup.n_clients,
            size=setup.size,
            startup_time=startup,
            data_time=data_time,
            completed=completed,
            failed=failed,
            aborted=aborted,
            excluded=excluded,
            finish_times=finish,
        )

    # -- helpers ----------------------------------------------------------

    def _apply_host_model(self, setup: SimSetup) -> None:
        """Stamp this implementation's performance model onto the hosts.

        The topology owns *hardware* parameters (NIC rate, raw disk
        bandwidth); the method owns *implementation* parameters (copy
        budget, write-pattern efficiency).  The harness builds a fresh
        topology per run, so mutating hosts here is safe.
        """
        rng = setup.rng
        # One draw per run: an implementation's throughput moves as a
        # whole (page-cache state, adaptivity), not independently per
        # host — per-host draws would make the chain's *minimum* the
        # typical value at scale, which is not what testbeds show.
        factor = 1.0
        disk_factor = 1.0
        if rng is not None:
            import numpy as np

            if self.jitter > 0:
                factor = float(np.exp(rng.normal(0.0, self.jitter)))
            # Disk throughput varies mildly run to run (cache state,
            # remapped sectors); keeps Fig. 11's intervals non-degenerate.
            disk_factor = float(np.exp(rng.normal(0.0, 0.02)))
        for host in setup.network.hosts.values():
            # The jitter multiplies the *effective* budget: an emulated
            # platform's folding ceiling (copy_limit) wobbles with the
            # same run-to-run effects as the implementation itself.
            host.copy_bw = min(self.copy_bw, host.copy_limit) * factor
            if host.disk is not None:
                host.disk = DiskSpec(
                    write_bw=host.disk.write_bw,
                    seq_efficiency=self.disk_seq_efficiency * disk_factor,
                )

    def line_rate(self, setup: SimSetup, a: str, b: str) -> float:
        """Narrowest link capacity on the route ``a`` → ``b``."""
        route = setup.network.route(a, b)
        return min((l.capacity for l in route), default=math.inf)


class RunState:
    """Mutable bookkeeping shared by a method's controller processes."""

    def __init__(self) -> None:
        self.finish_times: Dict[str, float] = {}
        self.failed: set[str] = set()
        self.aborted: set[str] = set()
        self.excluded: set[str] = set()

    def mark_finished(self, node: str, when: float) -> None:
        # The last stream to complete a node's reception wins.
        self.finish_times[node] = max(self.finish_times.get(node, 0.0), when)
