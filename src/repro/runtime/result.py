"""What a broadcast is asked and what it answers, free of socket code.

The control side — :mod:`repro.session`, the deploy coordinator, the
daemon server — builds and reads these without running a node, so they
live below :mod:`.node`/:mod:`.host`/:mod:`.cluster` (which re-export
them) and import nothing of the data plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import KascadeError
from ..core.plan import ChainPlan
from ..core.record import Frozen, Record
from ..core.recovery import SourceKind
from ..core.report import NodeOutcome, TransferReport
from ..core.tracing import TraceCollector

__all__ = ["BroadcastResult", "CrashPlan", "NodeOutcome",
           "check_head_failover", "head_chaos_refusal"]


class CrashPlan(Frozen):
    """Kill ``node`` once it has received ``after_bytes`` of the stream."""

    __slots__ = ("node", "after_bytes", "mode")

    def __init__(self, node: str, after_bytes: int,
                 mode: str = "close") -> None:  # "close" | "silent"
        if mode not in ("close", "silent"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if after_bytes < 0:
            raise ValueError("after_bytes must be >= 0")
        self._init(node, after_bytes, mode)


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
