"""The simulated network fabric: fluid streams over a topology.

This is the bridge between the DES engine and the max–min solver.  A
:class:`Stream` is a fluid transfer of ``length`` bytes between hosts; the
fabric recomputes all stream rates whenever the flow set changes and
schedules the next *rate-changing moment* (a completion, a threshold
crossing someone subscribed to, or a relay backlog running dry).

Pipelining is modelled with **chain coupling**: a stream may declare a
:class:`Supply` — typically the receiving side of the *previous* hop —
and can never deliver bytes its supply has not produced.  While the
relay's backlog is non-empty the stream runs at its own fair rate; once
it catches up it is rate-capped to the supply, exactly the steady state
of a store-and-forward pipeline.

Semantics of offsets: every stream moves the absolute byte range
``[offset0, offset0 + length)`` of the broadcast; ``head`` is the
absolute position reached so far.  Recovery after a node failure opens a
new stream whose ``offset0`` equals the replacement neighbour's position,
so replayed bytes are accounted for naturally.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.errors import KascadeError, SimulationError
from ..core.perfstats import get_stats
from ..topology.graph import Network
from .engine import Engine, Event
from .flows import FlowSpec, MaxMinProblem

#: Byte tolerance: transfers are gigabytes, half a byte is "done".
_BYTE_EPS = 0.5
#: Relative rate tolerance for coupling convergence.
_RATE_TOL = 1e-6


class HostDied(KascadeError):
    """A stream endpoint host was killed by failure injection."""

    def __init__(self, host: str) -> None:
        super().__init__(f"host {host} died")
        self.host = host


class StreamCancelled(KascadeError):
    """The stream was cancelled while someone was waiting on it."""


class Supply:
    """Upstream data availability for chain coupling.

    ``available()`` is the absolute stream offset produced so far;
    ``rate()`` its current growth rate.  The default implementation is a
    constant (infinite) source — the head of a pipeline reading from RAM.
    """

    def available(self) -> float:
        return math.inf

    def rate(self) -> float:
        return math.inf


class FixedSupply(Supply):
    """A source with everything up to ``limit_bytes`` already available
    (e.g. a head node that has finished reading its file)."""

    def __init__(self, limit_bytes: float) -> None:
        self._limit = limit_bytes

    def available(self) -> float:
        return self._limit

    def rate(self) -> float:
        return 0.0


class StreamSupply(Supply):
    """Availability tracked from another stream's receiving side.

    Re-pointable: when a node's inbound stream is replaced after a
    failure, calling :meth:`attach` switches the supply to the new stream
    while freezing the bytes already received."""

    def __init__(self, stream: Optional["Stream"] = None) -> None:
        self._stream = stream
        self._frozen = 0.0 if stream is None else None
        self._unbounded = False

    def attach(self, stream: Optional["Stream"]) -> None:
        fabric = self._stream.fabric if self._stream is not None else None
        if self._stream is not None:
            self._frozen = max(self._frozen or 0.0, self._stream.head)
        self._stream = stream
        if stream is not None:
            fabric = stream.fabric
        # Re-pointing a supply changes the coupling graph: anything
        # chain-coupled to this node must be re-rated *now*, not at the
        # next unrelated fabric event.  The dependency map and every
        # backlog-based wake time are stale too — rebuild wholesale (rare:
        # this only happens on failure recovery).
        if fabric is not None:
            fabric._wake_all = True
            fabric._problem_token = None  # coupling edges moved: re-index
            fabric._on_change()

    def mark_unbounded(self) -> None:
        """Turn this supply into an infinite one (e.g. the node became
        the pipeline tail: it consumes into its sink, no backpressure)."""
        if self._unbounded:
            return
        self._unbounded = True
        fabric = self._stream.fabric if self._stream is not None else None
        if fabric is not None:
            fabric._wake_all = True
            fabric._on_change()

    def available(self) -> float:
        if self._unbounded:
            return math.inf
        if self._stream is not None:
            return self._stream.head
        return self._frozen if self._frozen is not None else 0.0

    def rate(self) -> float:
        if self._unbounded:
            return math.inf
        if self._stream is None or not self._stream.active:
            return 0.0
        return self._stream.effective_rate


class Stream:
    """A fluid byte transfer between one source host and 1..n destinations."""

    def __init__(
        self,
        fabric: "Fabric",
        key: Hashable,
        src: str,
        dsts: Tuple[str, ...],
        offset0: float,
        length: float,
        *,
        supply: Optional[Supply],
        depth: int,
        limit: float,
        copy_weight: float,
        disk_weight: float,
        bp_supply: Optional[Supply] = None,
        bp_capacity: float = math.inf,
    ) -> None:
        self.fabric = fabric
        self.key = key
        self.src = src
        self.dsts = dsts
        self.offset0 = offset0
        self.length = length
        self.supply = supply
        self.depth = depth
        self.ext_limit = limit
        self.copy_weight = copy_weight
        self.disk_weight = disk_weight
        #: Bounded-buffer backpressure: the stream may not run more than
        #: ``bp_capacity`` bytes ahead of ``bp_supply.available()`` (the
        #: receiver's consumption/forwarding position).  At the bound it
        #: is rate-capped to the consumer — how finite socket and ring
        #: buffers throttle a store-and-forward pipeline.
        self.bp_supply = bp_supply
        self.bp_capacity = bp_capacity

        self.delivered = 0.0
        self.rate = 0.0              # solver rate before coupling
        self.effective_rate = 0.0    # after coupling (what actually flows)
        self.constraints_version = 0  # bumped when constraints rebuild
        #: Wake-heap bookkeeping: entries pushed for this stream carry the
        #: stamp current at push time; a stamp bump invalidates them all.
        #: ``_wake_rate`` is the effective rate those entries assumed.
        self._wake_stamp = 0
        self._wake_rate = 0.0
        #: Why this stream runs at its current rate: "limit",
        #: ("constraint", key), "chain-coupled", "backpressure",
        #: "unbounded", or None before the first solve.
        self.binding: object = None
        self._cap_source: Optional[str] = None
        self.done = False
        self.failed: Optional[BaseException] = None
        #: Plain attribute (``not done and failed is None``), maintained by
        #: ``_finish``: it is read millions of times per run and a property
        #: was a measurable slice of the solve loop.
        self.active = True
        self.completed: Event = fabric.engine.event(name=f"stream:{key}")
        self._thresholds: List[Tuple[float, Event]] = []  # (abs offset, ev)
        self._constraints: Tuple[Tuple[Hashable, float], ...] = ()
        self._rebuild_constraints()

    # ------------------------------------------------------------------

    @property
    def head(self) -> float:
        """Absolute stream offset reached (offset0 + delivered).

        Reads integrate pending progress first, so positions observed
        between fabric events (e.g. by a controller waking from a plain
        timeout) are current, not last-event values.
        """
        fab = self.fabric
        if self.active and fab.engine.now > fab._last_update:
            fab._advance()
        return self.offset0 + self.delivered

    @property
    def remaining(self) -> float:
        return max(0.0, self.length - self.delivered)

    def when_delivered(self, abs_offset: float) -> Event:
        """Event fired when ``head`` reaches ``abs_offset``."""
        ev = self.fabric.engine.event(name=f"thresh:{self.key}@{abs_offset}")
        if not self.active:
            if self.failed is not None:
                ev.fail(self.failed)
            elif self.head >= abs_offset - _BYTE_EPS:
                ev.succeed(self.head)
            else:
                ev.fail(StreamCancelled(f"stream {self.key} already finished"))
            return ev
        if self.head >= abs_offset - _BYTE_EPS:
            ev.succeed(self.head)
        else:
            self._thresholds.append((abs_offset, ev))
            self.fabric._dirty_wake.add(self)
            self.fabric._on_change()
        return ev

    def cancel(self) -> None:
        """Stop the transfer; pending waiters get :class:`StreamCancelled`."""
        if not self.active:
            return
        self._finish(failure=StreamCancelled(f"stream {self.key} cancelled"))

    def fail(self, exc: BaseException) -> None:
        """Terminate the transfer exceptionally: waiters receive ``exc``.

        Used by controllers that abandon a transfer for their own reasons
        (e.g. excluding a too-slow peer) and need the waiting process to
        distinguish that from a plain cancellation.
        """
        if not self.active:
            return
        self._finish(failure=exc)

    def remove_dst(self, host: str) -> None:
        """Drop one multicast destination (its host died)."""
        if host not in self.dsts:
            return
        self.dsts = tuple(d for d in self.dsts if d != host)
        if not self.dsts:
            self._finish(failure=HostDied(host))
            return
        self._rebuild_constraints()
        self.fabric._on_change()

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------

    def _rebuild_constraints(self) -> None:
        net = self.fabric.network
        parts: Dict[Hashable, float] = {}
        link_ids: Set[int] = set()
        for dst in self.dsts:
            for link in net.route(self.src, dst):
                if link.link_id not in link_ids:
                    link_ids.add(link.link_id)
                    parts[("link", link.link_id)] = 1.0
        src_host = net.host(self.src)
        if math.isfinite(src_host.copy_bw) and self.copy_weight > 0:
            parts[("copy", self.src)] = self.copy_weight
        for dst in self.dsts:
            dst_host = net.host(dst)
            if math.isfinite(dst_host.copy_bw) and self.copy_weight > 0:
                parts[("copy", dst)] = self.copy_weight
            if dst_host.disk is not None and self.disk_weight > 0:
                parts[("disk", dst)] = self.disk_weight
        self._constraints = tuple(parts.items())
        self.constraints_version += 1

    def _finish(self, failure: Optional[BaseException] = None) -> None:
        if not self.active:
            return
        # Integrate progress up to this instant: a cancelled/failed stream
        # must freeze at its true position, not its last-event snapshot.
        self.fabric._advance()
        self.active = False
        # A finished stream moves no more bytes; anyone coupled to it must
        # see a zero supply rate, not the last solved value.  Streams
        # chain-coupled to this one have wake-heap entries computed with
        # the old supply rate — invalidate them.
        self.rate = 0.0
        self.effective_rate = 0.0
        consumers = self.fabric._deps.get(self)
        if consumers:
            self.fabric._dirty_wake.update(consumers)
        if failure is None:
            self.done = True
            self.delivered = self.length
            self.completed.succeed(self)
            for off, ev in self._thresholds:
                if self.head >= off - _BYTE_EPS:
                    ev.succeed(self.head)
                else:  # pragma: no cover - thresholds beyond length
                    ev.fail(StreamCancelled(f"stream {self.key} ended early"))
        else:
            self.failed = failure
            self.completed.fail(failure)
            for _off, ev in self._thresholds:
                ev.fail(failure)
        self._thresholds.clear()
        self.fabric._remove(self)


class Fabric:
    """Manages active streams over one topology and one engine."""

    def __init__(self, engine: Engine, network: Network) -> None:
        self.engine = engine
        self.network = network
        self.streams: List[Stream] = []
        self.dead_hosts: Set[str] = set()
        self._last_update = engine.now
        self._wake_token: Optional[int] = None
        self._next_key = 0
        self._in_recompute = False
        self._recompute_pending = False
        self._problem: Optional[MaxMinProblem] = None
        self._problem_token: Optional[tuple] = None
        self._token_set: Set[tuple] = set()
        self._ordered: List[Stream] = []   # actives sorted by (depth, key)
        self._has_bp = False
        #: Base-solve memo: limits signature -> (rates, causes).  Between
        #: structural changes the fixpoint walks the same handful of limit
        #: vectors every recompute; hitting here skips the solver entirely.
        self._solve_memo: Dict[tuple, tuple] = {}
        #: Constraint capacities are fixed for a fabric's lifetime (hosts
        #: and links are stamped before the run); resolved once per key.
        self._cap_cache: Dict[Hashable, float] = {}
        #: Wake schedule: a heap of ``(abs_time, seq, stamp, stream)``
        #: candidates, lazily invalidated by per-stream stamp bumps.
        self._wake_heap: List[tuple] = []
        self._wake_seq = 0
        self._wake_all = True
        self._dirty_wake: Set[Stream] = set()
        #: Coupling dependencies: supply stream -> streams rate-capped by
        #: it.  Rebuilt whenever the active set is re-indexed.
        self._deps: Dict[Stream, List[Stream]] = {}
        #: Called with the fabric after every re-rating (tracing hooks).
        self.observers: List = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def open_stream(
        self,
        src: str,
        dst: str | Sequence[str],
        length: float,
        *,
        offset0: float = 0.0,
        supply: Optional[Supply] = None,
        depth: int = 0,
        limit: float = math.inf,
        copy_weight: float = 1.0,
        disk_weight: float = 0.0,
        tcp_window: Optional[float] = None,
        bp_supply: Optional[Supply] = None,
        bp_capacity: float = math.inf,
    ) -> Stream:
        """Start a fluid transfer; returns the live :class:`Stream`.

        ``tcp_window`` adds a latency-derived rate cap ``window / RTT`` —
        how long-fat networks throttle a single TCP connection (§IV-E).
        """
        dsts = (dst,) if isinstance(dst, str) else tuple(dst)
        if length < 0:
            raise SimulationError(f"negative stream length {length}")
        if src in self.dead_hosts:
            raise HostDied(src)
        for d in dsts:
            if d in self.dead_hosts:
                raise HostDied(d)
        if tcp_window is not None:
            worst_rtt = max(self.network.rtt(src, d) for d in dsts)
            if worst_rtt > 0:
                limit = min(limit, tcp_window / worst_rtt)
        self._next_key += 1
        stream = Stream(
            self, self._next_key, src, dsts, offset0, length,
            supply=supply, depth=depth, limit=limit,
            copy_weight=copy_weight, disk_weight=disk_weight,
            bp_supply=bp_supply, bp_capacity=bp_capacity,
        )
        self.streams.append(stream)
        if length <= _BYTE_EPS:
            stream._finish()
        else:
            self._on_change()
        return stream

    def kill_host(self, host: str) -> None:
        """Failure injection: the host dies now; its streams fail."""
        if host in self.dead_hosts:
            return
        self.dead_hosts.add(host)
        self._advance()
        for stream in list(self.streams):
            if not stream.active:
                continue
            if stream.src == host:
                stream._finish(failure=HostDied(host))
            elif host in stream.dsts:
                if len(stream.dsts) > 1:
                    stream.remove_dst(host)
                else:
                    stream._finish(failure=HostDied(host))
        self._on_change()

    def is_dead(self, host: str) -> bool:
        """Whether failure injection has already killed ``host``."""
        return host in self.dead_hosts

    # ------------------------------------------------------------------
    # Rate computation
    # ------------------------------------------------------------------

    def _remove(self, stream: Stream) -> None:
        try:
            self.streams.remove(stream)
        except ValueError:
            pass
        self._on_change()

    def _on_change(self) -> None:
        """Request a re-rating.

        Changes are *batched per simulation instant*: the first change
        schedules one recompute callback at the current time; further
        changes in the same instant (a burst of stream opens at startup,
        a mass failure) fold into it.  Deliveries stay correct because
        every position read integrates pending progress first.
        """
        if self._in_recompute:
            return
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.engine.call_at(self.engine.now, self._run_pending_recompute)

    def _run_pending_recompute(self) -> None:
        if not self._recompute_pending:
            return  # already settled synchronously
        self._recompute_pending = False
        self._recompute()

    def settle(self) -> None:
        """Apply any pending re-rating immediately.

        Stream rates settle at the next engine step; call this to inspect
        ``effective_rate`` synchronously after changing the flow set.
        """
        self._run_pending_recompute()

    def _advance(self) -> None:
        """Integrate deliveries since the last update at current rates."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0:
            for stream in self.streams:
                if stream.active and stream.effective_rate > 0:
                    stream.delivered = min(
                        stream.length,
                        stream.delivered + stream.effective_rate * dt,
                    )
        self._last_update = now

    def _capacity_of(self, ckey: Hashable) -> float:
        cap = self._cap_cache.get(ckey)
        if cap is None:
            kind, ident = ckey
            net = self.network
            if kind == "link":
                cap = net.links[ident].capacity
            elif kind == "copy":
                cap = net.host(ident).copy_bw
            elif kind == "disk":
                disk = net.host(ident).disk
                cap = disk.write_bw * disk.seq_efficiency
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown constraint kind {kind!r}")
            self._cap_cache[ckey] = cap
        return cap

    def _capacities(self) -> Dict[Hashable, float]:
        caps: Dict[Hashable, float] = {}
        cap_of = self._capacity_of
        for stream in self.streams:
            if not stream.active:
                continue
            for ckey, _w in stream._constraints:
                if ckey not in caps:
                    caps[ckey] = cap_of(ckey)
        return caps

    def _reindex(self, active: List[Stream], token: tuple) -> bool:
        """Bring the cached problem in line with the active-stream set.

        The common transitions — streams completing, streams opening —
        are applied incrementally to the live :class:`MaxMinProblem`;
        anything else (a surviving stream's constraints changed) falls
        back to a full re-index.  Returns whether a full rebuild ran.
        """
        old = self._token_set
        new = set(token)
        problem = self._problem
        if problem is not None:
            n_flows = len(problem.flows)
            if n_flows > 64 and problem.n_active * 2 < n_flows:
                problem = None  # tombstones dominate: compact via rebuild
        rebuild = True
        if problem is not None:
            if new <= old:
                for key, _version in old - new:
                    problem.deactivate(key)
                rebuild = False
            elif old <= new:
                added = new - old
                caps = problem.capacities
                for s in active:
                    if (s.key, s.constraints_version) not in added:
                        continue
                    for ckey, _w in s._constraints:
                        if ckey not in caps:
                            caps[ckey] = self._capacity_of(ckey)
                    problem.add_flow(
                        FlowSpec(s.key, s._constraints, s.ext_limit)
                    )
                rebuild = False
        if rebuild:
            specs = [
                FlowSpec(s.key, s._constraints, s.ext_limit) for s in active
            ]
            self._problem = MaxMinProblem(specs, self._capacities())
        self._problem_token = token
        self._token_set = new
        self._ordered = sorted(active, key=lambda s: (s.depth, s.key))
        self._has_bp = any(s.bp_supply is not None for s in active)
        self._solve_memo.clear()
        deps: Dict[Stream, List[Stream]] = {}
        for s in active:
            for sup in (s.supply, s.bp_supply):
                if isinstance(sup, StreamSupply):
                    src = sup._stream
                    if src is not None:
                        deps.setdefault(src, []).append(s)
        self._deps = deps
        return rebuild

    def _solve(self) -> None:
        """Solve max-min rates and apply chain coupling to a fixpoint."""
        active = [s for s in self.streams if s.active]
        if not active:
            return
        # The membership index is expensive to build and invariant while
        # the active-stream set (and each stream's constraints) is; keep
        # the indexed problem live across recomputes and apply membership
        # changes incrementally.  Capacities are stable for the lifetime
        # of a run (hosts are stamped before it starts).
        token = tuple((s.key, s.constraints_version) for s in active)
        rebuild = False
        if token != self._problem_token:
            rebuild = self._reindex(active, token)
        get_stats().solver_solved(full_rebuild=rebuild)
        ordered = self._ordered
        problem = self._problem
        memo = self._solve_memo
        limits = {s.key: s.ext_limit for s in active}
        has_bp = self._has_bp
        causes: Dict[Hashable, object] = {}
        for _iteration in range(12):
            sig = tuple(limits[s.key] for s in ordered)
            hit = memo.get(sig)
            if hit is None:
                rates, causes = problem.solve_explained(limits)
                if len(memo) >= 64:
                    memo.clear()
                memo[sig] = (rates, causes)
            else:
                rates, causes = hit
            changed = False
            # Forward pass: chain (supply) coupling, shallow to deep.
            for s in ordered:
                r = rates[s.key]
                cap = math.inf
                s._cap_source = None
                supply = s.supply
                if supply is not None:
                    backlog = (
                        supply.available() - s.offset0 - s.delivered
                    )
                    if backlog <= _BYTE_EPS:
                        cap = supply.rate()
                s.rate = r
                s.effective_rate = min(r, cap)
                if cap < r:
                    s._cap_source = "chain-coupled"
                new_limit = min(s.ext_limit, cap)
                old = limits[s.key]
                if new_limit != old and not _close(new_limit, old):
                    limits[s.key] = new_limit
                    changed = True
            if has_bp:
                # Backward pass: bounded-buffer backpressure, deep to
                # shallow, so one sweep propagates a downstream stall all
                # the way up the chain.
                for s in reversed(ordered):
                    if s.bp_supply is None:
                        continue
                    room = (
                        s.bp_supply.available() + s.bp_capacity - s.head
                    )
                    if room <= _BYTE_EPS:
                        cap = s.bp_supply.rate()
                        if s.effective_rate > cap:
                            s.effective_rate = cap
                            s._cap_source = "backpressure"
                        old = limits[s.key]
                        new_limit = min(old, cap)
                        if new_limit != old and not _close(new_limit, old):
                            limits[s.key] = new_limit
                            changed = True
            if not changed:
                break
        # Bottleneck attribution for observability: what holds each
        # stream at its current rate?
        for s in ordered:
            s.binding = s._cap_source or causes.get(s.key)

    def _push_wake(self, s: Stream, now: float) -> None:
        """(Re)compute the wake-time candidates for one stream.

        Candidates are *absolute* simulation times — valid for as long as
        the rates they were computed from hold, however many unrelated
        recomputes happen in between.  Bumping the stream's stamp
        invalidates everything pushed before."""
        heap = self._wake_heap
        s._wake_stamp = stamp = s._wake_stamp + 1
        s._wake_rate = r = s.effective_rate
        head = s.offset0 + s.delivered
        seq = self._wake_seq
        if r > 0:
            seq += 1
            heappush(heap, (now + (s.length - s.delivered) / r, seq, stamp, s))
            for off, _ev in s._thresholds:
                gap = off - head
                if gap > 0:
                    seq += 1
                    heappush(heap, (now + gap / r, seq, stamp, s))
        supply = s.supply
        if supply is not None:
            srate = supply.rate()
            backlog = supply.available() - head
            if backlog > _BYTE_EPS and r > srate + 1e-12:
                seq += 1
                heappush(heap, (now + backlog / (r - srate), seq, stamp, s))
        bp = s.bp_supply
        if bp is not None:
            crate = bp.rate()
            room = bp.available() + s.bp_capacity - head
            if room > _BYTE_EPS and r > crate + 1e-12:
                seq += 1
                heappush(heap, (now + room / (r - crate), seq, stamp, s))
        self._wake_seq = seq

    def _recompute(self) -> None:
        self._in_recompute = True
        try:
            self._advance()
            self._fire_due()
            self._solve()
            self._schedule_wake()
        finally:
            self._in_recompute = False
        for observer in self.observers:
            observer(self)

    def _fire_due(self) -> None:
        finished: Optional[List[Stream]] = None
        for stream in self.streams:
            if not stream.active:
                continue
            delivered = stream.delivered
            thresholds = stream._thresholds
            if thresholds:
                head = stream.offset0 + delivered
                due = [
                    pair for pair in thresholds if head >= pair[0] - _BYTE_EPS
                ]
                if due:
                    stream._thresholds = [
                        pair for pair in thresholds if pair not in due
                    ]
                    for _off, ev in due:
                        ev.succeed(head)
                    # The fired thresholds' heap entries are now stale but
                    # carry a live stamp; re-stamp so they cannot pin the
                    # wake schedule to the past.
                    self._dirty_wake.add(stream)
            if stream.length - delivered <= _BYTE_EPS:
                if finished is None:
                    finished = []
                finished.append(stream)
        if finished:
            # Deferred: _finish removes the stream from self.streams.
            for stream in finished:
                stream._finish()

    def _schedule_wake(self) -> None:
        if self._wake_token is not None:
            self.engine._cancel_timeout(self._wake_token)
            self._wake_token = None
        now = self.engine.now
        heap = self._wake_heap
        dirty = self._dirty_wake
        if self._wake_all:
            self._wake_all = False
            dirty.clear()
            heap.clear()
            for s in self.streams:
                if s.active:
                    self._push_wake(s, now)
        else:
            # A stream needs fresh candidates when its own rate moved or
            # when a supply it is coupled to re-rated (its catch-up time
            # depends on both).  Everything else keeps its absolute wake
            # times from earlier recomputes.
            deps = self._deps
            for s in self._ordered:
                if s.effective_rate != s._wake_rate:
                    dirty.add(s)
                    consumers = deps.get(s)
                    if consumers:
                        dirty.update(consumers)
            if dirty:
                for s in dirty:
                    if s.active:
                        self._push_wake(s, now)
                dirty.clear()
        if len(heap) > 64 and len(heap) > 4 * len(self.streams):
            # Lazy deletion left mostly-dead entries behind; compact.
            live = [
                entry for entry in heap
                if entry[3].active and entry[2] == entry[3]._wake_stamp
            ]
            heap[:] = live
            heapify(heap)
        while heap:
            when, _seq, stamp, s = heap[0]
            if not s.active or stamp != s._wake_stamp:
                heappop(heap)
                continue
            dt = when - now
            if dt < 0.0:
                dt = 0.0
            if math.isinf(dt):
                return
            # A hair past the exact crossing so float drift cannot strand
            # a completion a femto-byte short.
            self._wake_token = self.engine.call_after(
                dt + 1e-12, self._recompute
            )
            return


def _close(a: float, b: float) -> bool:
    if math.isinf(a) and math.isinf(b):
        return True
    return abs(a - b) <= _RATE_TOL * max(1.0, abs(a), abs(b))
