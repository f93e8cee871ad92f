"""What a broadcast is asked and what it answers, free of socket code.

The control side — :mod:`repro.session`, the deploy coordinator, the
daemon server — builds and reads these without running a node, so they
live below :mod:`.node`/:mod:`.host`/:mod:`.cluster` (which re-export
them) and import nothing of the data plane.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import KascadeError
from ..core.plan import ChainPlan
from ..core.record import Frozen, Record
from ..core.recovery import SourceKind
from ..core.report import NodeOutcome, TransferReport
from ..core.tracing import TraceCollector

__all__ = ["BroadcastResult", "CrashPlan", "LateJoin", "NodeOutcome",
           "check_head_failover", "check_run", "crash_gate",
           "head_chaos_refusal", "late_joins"]


class CrashPlan(Frozen):
    """Kill ``node`` once it has received ``after_bytes`` of the stream,
    or at simulated second ``at_time`` (exactly one of the two; the
    clock is the simulator's, so ``at_time`` runs on ``simnet`` only).

    ``mode`` is how it dies (§III-D): ``"close"`` — process death, every
    socket closed (``SIGKILL`` on a fleet); ``"silent"`` — a hang, found
    only by timeout + ping (``SIGSTOP``).  The one fault every backend
    takes; on a striped run it is *host*-level.
    """

    __slots__ = ("node", "after_bytes", "mode", "at_time")

    def __init__(self, node: str, after_bytes: Optional[int] = None,
                 mode: str = "close",
                 at_time: Optional[float] = None) -> None:
        if mode not in ("close", "silent"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if (after_bytes is None) == (at_time is None):
            raise ValueError("set exactly one of after_bytes / at_time")
        if after_bytes is not None and after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")
        self._init(node, after_bytes, mode, at_time)


def crash_gate(plan: Optional[CrashPlan],
               fire: Optional[Callable[[int], None]] = None
               ) -> Optional[Callable[[int], Optional[str]]]:
    """The host-level gate that realises ``plan``, on every backend.

    The node asks it after each chunk it stores (a head: each it reads),
    with the host's byte count across stripes; from the first count of
    at least ``after_bytes`` on it answers ``plan.mode`` and the node
    dies where it stands.  ``fire(received)`` runs once, just before
    that first answer: a fleet agent notes the fault there and signals
    itself.  ``None`` for no plan, or one the simulator's clock fires.
    """
    if plan is None or plan.after_bytes is None:
        return None
    fired = False

    def gate(received: int) -> Optional[str]:
        nonlocal fired
        if received < plan.after_bytes:
            return None
        if fire is not None and not fired:
            fired = True
            fire(received)
        return plan.mode

    return gate


class LateJoin(Frozen):
    """Let ``node`` into a run once the push has moved ``after_bytes``
    (or once it ends, if that comes first): it gets a chain of its own
    from the run's head, which streams the source again from byte 0.
    Joiners that trigger together share one chain."""

    __slots__ = ("node", "after_bytes")

    def __init__(self, node: str, after_bytes: int = 0) -> None:
        if after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")
        self._init(node, int(after_bytes))


def late_joins(specs: Sequence) -> Tuple[LateJoin, ...]:
    """:class:`LateJoin`s, given as such or as ``(node, after_bytes)``."""
    return tuple(lj if isinstance(lj, LateJoin) else LateJoin(*lj)
                 for lj in specs)


class BroadcastResult(Record):
    """Outcome of one broadcast — the shape every backend returns.

    ``duration`` is wall-clock seconds for the local backend and
    simulated seconds for ``backend="simnet"``; ``trace`` carries the
    :class:`~repro.core.tracing.TraceCollector` when tracing was on, and
    ``perfstats`` the delta of the process-wide counters across the run
    (the simulator does no real I/O: what moves there is ``sim_*``).
    """

    __slots__ = ("ok", "duration", "total_bytes", "report", "outcomes",
                 "trace", "perfstats", "backend", "launch", "plan")

    def __init__(self, ok: bool, duration: float, total_bytes: int,
                 report: TransferReport,
                 outcomes: Optional[Dict[str, NodeOutcome]] = None,
                 trace: Optional[TraceCollector] = None,
                 perfstats: Optional[Dict[str, int]] = None,
                 backend: str = "local", launch: Optional[object] = None,
                 plan: Optional[ChainPlan] = None) -> None:
        self.ok = ok
        self.duration = duration
        self.total_bytes = total_bytes
        self.report = report
        self.outcomes = {} if outcomes is None else outcomes
        self.trace = trace
        self.perfstats = {} if perfstats is None else perfstats
        self.backend = backend
        #: ``backend="procs"`` only: the measured windowed-startup timings
        #: (a :class:`repro.deploy.LaunchReport`), ``None`` elsewhere.
        self.launch = launch
        #: The schedule the broadcast executed: which chain carried each
        #: stripe (a :class:`~repro.core.plan.ChainPlan`).
        self.plan = plan

    @property
    def completed_nodes(self) -> List[str]:
        return [n for n, o in self.outcomes.items() if o.ok]

    @property
    def failed_nodes(self) -> List[str]:
        return [n for n, o in self.outcomes.items() if not o.ok]

    @property
    def throughput(self) -> float:
        """Bytes per second, the paper's metric (size / transfer time)."""
        return self.total_bytes / self.duration if self.duration > 0 else 0.0


def head_chaos_refusal(head: str) -> KascadeError:
    """The one refusal of a fault aimed at the head of a run that did
    not opt in to head failover, whichever backend is asked."""
    return KascadeError(
        f"a fault targets the head {head!r}: killing the head "
        "interrupts the stream for every receiver; opt in with "
        "allow_head_chaos=True to promote the most-complete survivor "
        "instead")


def check_head_failover(stripes: int, data_plane: str,
                        source_kind: Optional[SourceKind] = None) -> None:
    """Refuse a run that cannot survive its head being re-rooted.

    The one statement of what head failover needs — 1 stripe, the
    threaded plane, and (where the caller holds the source) random
    access to it — raised as :class:`KascadeError` with one message per
    reason, whichever backend asks.
    """
    if stripes != 1:
        raise KascadeError(
            "head failover currently requires a 1-stripe plan: "
            "per-stripe watermark re-rooting of a striped merge "
            "is not supported"
        )
    if data_plane == "evloop":
        raise KascadeError(
            "head failover is not survivable on data_plane='evloop': "
            "the reactor cannot detach its nodes mid-run; use "
            "data_plane='threaded'"
        )
    if source_kind is not None and source_kind is not SourceKind.SEEKABLE_FILE:
        raise KascadeError(
            "head failover needs a seekable source: the promoted "
            "head must serve PGET below the election watermark "
            "by random access"
        )


def check_run(plan: ChainPlan, crashes: Sequence = (), *, backend: str,
              data_plane: str, source_kind: Optional[SourceKind] = None,
              allow_head_chaos: bool = False,
              fleet: Optional[Sequence[str]] = None,
              late_join: Sequence = (),
              output_template: Optional[str] = None) -> Tuple[CrashPlan, ...]:
    """Refuse what a run may not ask, before anything of it starts.

    The one validation of a broadcast: :class:`~.cluster.Broadcast`
    (``local``, ``simnet``) and ``DaemonServer.admit`` (``procs``, a
    one-shot fleet or a submit into a running one) call it with what
    they know — the resolved ``plan``, the
    faults, the backend and data plane, the source's kind where the run
    reads the source in place (``None`` where a fleet spools it), and on
    a fleet its members and output template — and the late joiners
    (:class:`LateJoin` or ``(node, after_bytes)``).  Raises
    :class:`KascadeError` with one message per reason, the same words on
    every backend; returns the faults as :class:`CrashPlan` (``(node,
    after_bytes[, mode])`` tuples are accepted).
    """
    if backend == "simnet" and data_plane != "threaded":
        raise KascadeError(
            "simnet is a discrete-event simulator; data_plane selects a "
            "real-I/O engine and only applies to local/procs backends")
    if plan.stripe_count > 1 and source_kind not in (
            None, SourceKind.SEEKABLE_FILE):
        raise KascadeError(
            f"stripes={plan.stripe_count} needs a seekable source on local "
            "and simnet, whose stripes read it at interleaved offsets "
            f"(source kind is {source_kind.name}): give a file, or run on "
            "procs, which spools the source first")
    faults = tuple(c if isinstance(c, CrashPlan) else CrashPlan(*c)
                   for c in crashes)
    targets = [c.node for c in faults]
    twice = sorted({n for n in targets if targets.count(n) > 1})
    if twice:
        raise KascadeError(f"more than one crash plan for: {twice}")
    timed = sorted(c.node for c in faults if c.at_time is not None)
    if timed and backend != "simnet":
        raise KascadeError(
            f"crash plans at_time for {timed}: a time-triggered fault "
            "needs the simulator's clock (backend='simnet'); give "
            "after_bytes instead")
    joiners = [lj.node for lj in late_joins(late_join)]
    twice = sorted({n for n in joiners if joiners.count(n) > 1})
    if twice:
        raise KascadeError(f"more than one late join for: {twice}")
    if fleet is not None:
        for name in (*plan.nodes, *joiners):
            if name not in fleet:
                raise KascadeError(f"{name!r} is not a fleet member "
                                   f"(fleet: {sorted(fleet)})")
    overlap = set(joiners) & set(plan.nodes)
    if overlap:
        raise KascadeError("late joiners must not be in the session "
                           f"already: {sorted(overlap)}")
    if joiners and allow_head_chaos:
        raise KascadeError(
            "late join cannot be combined with allow_head_chaos: the "
            "join chain starts from the run's head, whose death takes "
            "that chain down on a fleet but not on threads")
    if joiners and backend == "local" and data_plane == "evloop":
        raise KascadeError(
            "late join is not supported on data_plane='evloop': the "
            "reactor cannot take nodes mid-run; use data_plane='threaded'")
    if joiners and source_kind not in (None, SourceKind.SEEKABLE_FILE):
        raise KascadeError(
            "late join needs a seekable source: the join chain's head "
            "streams the source again from byte 0")
    if plan.head in targets and not allow_head_chaos:
        raise head_chaos_refusal(plan.head)
    if allow_head_chaos:
        check_head_failover(plan.stripe_count, data_plane, source_kind)
    stray = set(targets) - set(plan.nodes) - set(joiners)
    if stray:
        outside = stray & set(fleet or ())
        if outside:
            raise KascadeError(
                "crash plans target fleet members outside this session: "
                f"{sorted(outside)} (session nodes: "
                f"{sorted((*plan.nodes, *joiners))})")
        raise KascadeError(f"crash plans for unknown nodes: {sorted(stray)}")
    if (output_template is not None and "{node}" not in output_template
            and len(plan.receivers) + len(joiners) > 1):
        raise KascadeError(
            "output_template needs a {node} placeholder for >1 receiver")
    return faults
