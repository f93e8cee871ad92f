"""Network topology model: hosts, switches, directed capacitated links.

The model captures exactly what the paper's evaluation depends on
(§II-A2): link capacities, full-duplex operation (each direction is an
independent directed link), per-link latency, and the hierarchy of hosts
behind top-of-the-rack switches behind core equipment (Fig. 1).

Hosts carry performance attributes consumed by the fluid simulator:

* ``nic_rate`` — line rate of the host's network interface;
* ``copy_bw`` — the host's byte-shuffling budget (memory bus / userspace
  copy ceiling).  Every byte a broadcast implementation receives *and*
  every byte it sends consumes this budget, which is what caps Kascade
  near 2 Gbit/s on a 10 GbE fabric in the paper (§IV-B: "the bottleneck
  is the memory");
* ``disk`` — optional disk performance descriptor for write-to-storage
  experiments (§IV-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.units import GIGABIT


@dataclass(frozen=True)
class DiskSpec:
    """Local storage performance (the paper's Hitachi 7K1000.C test: about
    83.5 MB/s raw sequential write, §IV-D)."""

    write_bw: float = 83.5e6
    #: Multiplier applied for sequential streaming writes (Kascade-style);
    #: bursty/unaligned write patterns get a lower effective factor.
    seq_efficiency: float = 1.0


@dataclass
class Host:
    """A compute node attached to the network."""

    name: str
    nic_rate: float = GIGABIT
    copy_bw: float = math.inf
    #: Platform ceiling on the copy budget, e.g. CPU folding in an
    #: emulated platform (Distem, §IV-G).  Honoured by the methods when
    #: they stamp their implementation's ``copy_bw`` onto hosts.
    copy_limit: float = math.inf
    disk: Optional[DiskSpec] = None
    switch: Optional[str] = None  # attachment point, for grouping/ordering


@dataclass(frozen=True)
class Link:
    """One *direction* of a physical link (full duplex = two links)."""

    link_id: int
    src: str
    dst: str
    capacity: float  # bytes/second
    latency: float   # seconds (one-way)


class Network:
    """A capacitated network of hosts and switches.

    Switches are pure forwarding elements (non-blocking backplane, the
    common case for the ToR hardware in the paper); congestion happens on
    links and inside hosts, which matches the paper's observations.
    """

    def __init__(self, name: str = "net") -> None:
        import networkx as nx

        self.name = name
        self.hosts: Dict[str, Host] = {}
        self.switches: set[str] = set()
        self.links: List[Link] = []
        self._graph = nx.DiGraph()
        self._route_cache: Dict[Tuple[str, str], Tuple[Link, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, name: str, **attrs) -> Host:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        host = Host(name=name, **attrs)
        self.hosts[name] = host
        self._graph.add_node(name)
        return host

    def add_switch(self, name: str) -> str:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        self.switches.add(name)
        self._graph.add_node(name)
        return name

    def add_link(self, a: str, b: str, capacity: float, latency: float = 50e-6) -> None:
        """Add a full-duplex link (two directed links) between ``a``/``b``."""
        for node in (a, b):
            if node not in self._graph:
                raise SimulationError(f"unknown element {node!r}")
        if capacity <= 0:
            raise SimulationError(f"non-positive capacity on {a}-{b}")
        for src, dst in ((a, b), (b, a)):
            link = Link(len(self.links), src, dst, capacity, latency)
            self.links.append(link)
            self._graph.add_edge(src, dst, link=link, weight=latency)
        if a in self.hosts and b in self.switches:
            self.hosts[a].switch = b
        if b in self.hosts and a in self.switches:
            self.hosts[b].switch = a
        self._route_cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def host_names(self) -> List[str]:
        return list(self.hosts)

    def route(self, src: str, dst: str) -> Tuple[Link, ...]:
        """Directed links along the latency-shortest path ``src`` → ``dst``.

        Routes are static and cached (clusters do not reroute mid-transfer).
        """
        if src == dst:
            return ()
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        import networkx as nx

        try:
            path = nx.shortest_path(self._graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise SimulationError(f"no route {src!r} -> {dst!r}") from None
        links = tuple(
            self._graph.edges[u, v]["link"] for u, v in zip(path, path[1:])
        )
        self._route_cache[key] = links
        return links

    def path_latency(self, src: str, dst: str) -> float:
        """One-way latency along the route (sum of link latencies)."""
        return sum(l.latency for l in self.route(src, dst))

    def rtt(self, src: str, dst: str) -> float:
        return self.path_latency(src, dst) + self.path_latency(dst, src)

    def hosts_by_switch(self) -> Dict[Optional[str], List[str]]:
        """Group host names by their attachment switch."""
        groups: Dict[Optional[str], List[str]] = {}
        for host in self.hosts.values():
            groups.setdefault(host.switch, []).append(host.name)
        return groups

    def crossings(self, order: Sequence[str]) -> int:
        """How many consecutive pairs in ``order`` live on different
        switches — the quantity a topology-aware pipeline minimises."""
        count = 0
        for a, b in zip(order, order[1:]):
            if self.host(a).switch != self.host(b).switch:
                count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"<Network {self.name!r}: {len(self.hosts)} hosts, "
            f"{len(self.switches)} switches, {len(self.links) // 2} links>"
        )
