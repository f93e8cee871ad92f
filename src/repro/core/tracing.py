"""Structured broadcast event tracing, shared by the runtime and simulator.

The paper's evaluation (§IV) reasons from *timelines*: when each node
connected, stalled, pinged its neighbour, failed over, fetched a hole,
and finished.  This module is the event substrate both implementations
emit into so a crash-injection run on real TCP and its simulated twin
produce comparable, machine-readable chronologies:

* :data:`CONNECT` … :data:`DONE` — the typed event vocabulary;
* :class:`TraceEvent` — one immutable, slot-allocated record stamped
  with node, time, and stream offset;
* :class:`TraceCollector` — a lock-free bounded ring of events (list
  appends and ``itertools.count`` are atomic under the GIL, so the hot
  path takes no lock) with per-node timelines, JSONL export, and a
  human-readable failure chronology;
* :class:`NullRecorder` / :data:`NULL_TRACER` — the zero-overhead
  disabled path.  Hot call sites guard with ``if tracer.enabled:`` so a
  disabled trace costs one attribute load per chunk and allocates
  nothing (verified against ``BENCH_loopback.json`` by
  ``scripts/bench_loopback.py``).

Clocks: the runtime stamps events with ``time.monotonic()`` relative to
collector creation; the discrete-event simulator passes its own clock
(``engine.now``) so simulated timelines use simulated seconds.  Both
start at ~0, which is what makes the two renderings comparable.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from .record import Frozen

_set = object.__setattr__

__all__ = [
    "CONNECT", "CHUNK", "STALL", "PING", "FAILOVER", "ELECTION", "PGET",
    "FORGET", "QUIT", "REPORT", "DONE", "CACHE_HIT", "SESSION", "EVENT_TYPES",
    "DETECTOR_ERROR", "DETECTOR_PING", "DETECTOR_CONNECT",
    "DETECTOR_PROC_EXIT",
    "classify_detector", "TraceEvent", "NullRecorder", "NULL_TRACER",
    "TraceCollector",
]

#: Event vocabulary.  One constant per protocol-visible incident; the
#: values are the strings that appear in JSONL output.
CONNECT = "connect"    #: a connection was established / adopted
CHUNK = "chunk"        #: one DATA chunk received and accounted
STALL = "stall"        #: a read or write exceeded the I/O timeout
PING = "ping"          #: a liveness probe was answered (or not)
FAILOVER = "failover"  #: a peer was declared dead and routed around
ELECTION = "election"  #: a new head was chosen after head death
PGET = "pget"          #: a recovery range fetch from the head
FORGET = "forget"      #: data unrecoverable behind the buffer window
QUIT = "quit"          #: a deliberate abort (user interrupt / data loss)
REPORT = "report"      #: the failure report passed through this node
DONE = "done"          #: the node completed its duties (ok or failed)
CACHE_HIT = "cache-hit"  #: a chunk was served from the local content cache
SESSION = "session"    #: fleet session lifecycle (open / start / close)

EVENT_TYPES = frozenset(
    (CONNECT, CHUNK, STALL, PING, FAILOVER, ELECTION, PGET, FORGET, QUIT,
     REPORT, DONE, CACHE_HIT, SESSION)
)

#: FAILOVER detector taxonomy (§III-D1): how a death was established.
DETECTOR_ERROR = "error"      #: a syscall failed (reset / refused write)
DETECTOR_PING = "ping"        #: stalled or silent, then an unanswered ping
DETECTOR_CONNECT = "connect"  #: connection attempt refused / timed out
#: Coordinator-only: ``waitpid`` saw the agent process exit.  Unlike the
#: three in-band detectors above, this one needs no protocol traffic —
#: it exists only on backends where nodes are real OS processes.
DETECTOR_PROC_EXIT = "proc-exit"


def classify_detector(reason: str) -> str:
    """Map a failure-record reason string onto the detector taxonomy.

    Reasons are phrased in one place, the protocol engine
    (``"... ping unanswered"`` for timeout+ping detections,
    ``"connect-failed: ..."`` for refused connections), whichever
    driver runs it, so every backend's FAILOVER events compare.  The
    process backend's coordinator prefixes its waitpid-based detections
    with ``"proc-exit"`` to keep them distinguishable from both.
    """
    if reason.startswith("proc-exit"):
        return DETECTOR_PROC_EXIT
    if "ping unanswered" in reason:
        return DETECTOR_PING
    if reason.startswith(("connect-failed", "no-handshake")):
        return DETECTOR_CONNECT
    return DETECTOR_ERROR


class TraceEvent(Frozen):
    """One structured broadcast event."""

    __slots__ = ("seq", "t", "type", "node", "offset", "peer", "detail",
                 "detector")

    def __init__(self, seq: int, t: float, type: str, node: str,
                 offset: Optional[int] = None, peer: Optional[str] = None,
                 detail: str = "", detector: Optional[str] = None) -> None:
        # Written out rather than ``_init``: one event per traced chunk.
        _set(self, "seq", seq)  # global emission order (ties on ``t``)
        _set(self, "t", t)  # seconds since trace start (or sim time)
        _set(self, "type", type)  # one of EVENT_TYPES
        _set(self, "node", node)  # the node this event happened *on*
        _set(self, "offset", offset)  # stream offset, where meaningful
        _set(self, "peer", peer)  # the other node involved, if any
        _set(self, "detail", detail)  # free-form (reason, conn kind)
        _set(self, "detector", detector)  # FAILOVER: how death was seen

    def to_dict(self) -> dict:
        """JSON-ready mapping; ``None`` fields are dropped."""
        d = {"seq": self.seq, "t": round(self.t, 6),
             "type": self.type, "node": self.node}
        if self.offset is not None:
            d["offset"] = self.offset
        if self.peer is not None:
            d["peer"] = self.peer
        if self.detail:
            d["detail"] = self.detail
        if self.detector is not None:
            d["detector"] = self.detector
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(
            seq=d["seq"], t=d["t"], type=d["type"], node=d["node"],
            offset=d.get("offset"), peer=d.get("peer"),
            detail=d.get("detail", ""), detector=d.get("detector"),
        )


class NullRecorder:
    """The disabled trace: accepts every emission and keeps nothing.

    ``enabled`` is ``False`` so hot paths (one CHUNK per DATA frame) can
    skip even the no-op call; cold paths may call :meth:`emit`
    unconditionally.
    """

    enabled = False

    def emit(self, type_: str, node: str, **kwargs) -> None:
        pass


#: Shared no-op recorder — the default everywhere a tracer is accepted.
NULL_TRACER = NullRecorder()


class TraceCollector:
    """Bounded in-memory ring of :class:`TraceEvent` records.

    Thread-safe without a lock: the ring is a ``deque(maxlen=...)``
    whose ``append`` is atomic under the GIL, and sequence numbers come
    from ``itertools.count``.  Cheap enough that a traced run's only
    measurable cost is the per-event record allocation.

    Parameters
    ----------
    capacity:
        Max events retained; older events fall off the front.
    clock:
        Time source.  Defaults to ``time.monotonic``; the simulator
        passes its own (``lambda: engine.now``).
    zero:
        Trace epoch.  ``None`` (default) stamps events relative to
        collector creation; the simulator passes ``0.0`` so event times
        *are* simulated seconds.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 1 << 16,
        *,
        clock: Callable[[], float] = time.monotonic,
        zero: Optional[float] = None,
    ) -> None:
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = itertools.count()
        self._clock = clock
        self._t0 = clock() if zero is None else zero

    # -- recording (hot path) -------------------------------------------

    def emit(
        self,
        type_: str,
        node: str,
        *,
        t: Optional[float] = None,
        offset: Optional[int] = None,
        peer: Optional[str] = None,
        detail: str = "",
        detector: Optional[str] = None,
    ) -> None:
        """Append one event, stamped now unless ``t`` is given."""
        self._ring.append(TraceEvent(
            seq=next(self._seq),
            t=(self._clock() - self._t0) if t is None else t,
            type=type_, node=node, offset=offset, peer=peer,
            detail=detail, detector=detector,
        ))

    # -- querying --------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Snapshot of retained events in emission order."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self.events())

    def timeline(self, node: str) -> List[TraceEvent]:
        """Events that happened on ``node``, in order."""
        return [e for e in self._ring if e.node == node]

    def of_type(self, *types: str) -> List[TraceEvent]:
        """Events whose type is in ``types``, in order."""
        wanted = frozenset(types)
        return [e for e in self._ring if e.type in wanted]

    def milestones(self, *types: str) -> List[Tuple[str, str]]:
        """``(type, node)`` projection — the backend-comparable skeleton.

        Defaults to the failure-and-completion milestones (FAILOVER,
        FORGET, QUIT, DONE) whose causal order the protocol dictates, so
        a real TCP run and its simulated twin of the same scenario yield
        the *same* sequence despite incomparable clocks.
        """
        wanted = frozenset(types) if types else frozenset(
            (FAILOVER, FORGET, QUIT, DONE)
        )
        return [(e.type, e.node) for e in self._ring if e.type in wanted]

    # -- rendering -------------------------------------------------------

    def to_jsonl(self, path: Optional[str] = None) -> str:
        """Serialize as JSON Lines (one event object per line).

        Returns the text; also writes it to ``path`` when given.
        """
        text = "\n".join(json.dumps(e.to_dict(), sort_keys=True)
                         for e in self._ring)
        if text:
            text += "\n"
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    @classmethod
    def from_jsonl(cls, text_or_lines) -> List[TraceEvent]:
        """Parse JSONL (a string or an iterable of lines) back to events."""
        if isinstance(text_or_lines, str):
            lines: Iterable[str] = text_or_lines.splitlines()
        else:
            lines = text_or_lines
        return [TraceEvent.from_dict(json.loads(line))
                for line in lines if line.strip()]

    def failure_chronology(self) -> str:
        """Human-readable timeline of everything fault-tolerance did.

        One line per STALL / PING / FAILOVER / PGET / FORGET / QUIT /
        REPORT event — the §IV-G narrative ("did the upstream really
        disambiguate congestion from death via ping?") read straight off
        the trace instead of out of the code.
        """
        interesting = self.of_type(STALL, PING, FAILOVER, ELECTION, PGET,
                                   FORGET, QUIT, REPORT)
        if not interesting:
            return "(no failure activity traced)"
        lines = ["failure chronology:"]
        for e in interesting:
            what = e.type.upper()
            where = f" @{e.offset}" if e.offset is not None else ""
            who = f" -> {e.peer}" if e.peer else ""
            via = f" [{e.detector}]" if e.detector else ""
            why = f": {e.detail}" if e.detail else ""
            lines.append(
                f"  {e.t:10.4f}s  {e.node:>8s}  {what}{who}{where}{via}{why}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line census of the trace."""
        counts: dict = {}
        for e in self._ring:
            counts[e.type] = counts.get(e.type, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"{len(self._ring)} events ({parts or 'empty'})"
