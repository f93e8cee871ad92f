"""Real-signal fault injection for the process-per-node backend.

The thread-based runtime can only *simulate* process death (closing
sockets from within).  Here the coordinator sends genuine signals to a
separate OS process, so peers observe exactly what §III-D describes:

* ``SIGKILL`` — abrupt death: the kernel closes every socket, peers see
  RST on the next read/write (the error-detector path);
* ``SIGSTOP`` — silent hang: the process is frozen with all its sockets
  open, so peers must disambiguate congestion from death with the
  timeout + liveness-ping mechanism of §III-D1.

Triggering is progress-driven: agents report bytes received over the
control socket (throttled, see ``progress_every``), and the engine fires
once a node's reported progress crosses its plan's threshold — the same
semantics as the thread runtime's :class:`~repro.runtime.CrashPlan`
(``after_bytes`` is a floor, not an exact offset).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..core.errors import KascadeError

#: Chaos signal name → the real signal the coordinator sends.
SIGNALS = {
    "kill": signal.SIGKILL,
    "stop": signal.SIGSTOP,
}

#: CrashPlan mode → chaos signal with the same observable effect.
MODE_TO_SIGNAL = {"close": "kill", "silent": "stop"}


@dataclass(frozen=True)
class ChaosPlan:
    """Send ``sig`` to ``node`` once it has received ``after_bytes``."""

    node: str
    after_bytes: int = 0
    sig: str = "kill"  # "kill" | "stop"

    def __post_init__(self) -> None:
        if self.sig not in SIGNALS:
            raise KascadeError(
                f"unknown chaos signal {self.sig!r}; "
                f"choose from {sorted(SIGNALS)}"
            )
        if self.after_bytes < 0:
            raise KascadeError("after_bytes must be >= 0")


class ChaosEngine:
    """Fires each plan at most once, keyed on reported progress.

    ``kill_fn`` defaults to :func:`os.kill`; tests inject a recorder.
    Thread-safe: progress callbacks arrive from per-agent reader threads.
    """

    def __init__(
        self,
        plans: Sequence[ChaosPlan],
        *,
        kill_fn: Callable[[int, int], None] = os.kill,
    ) -> None:
        dupes = {p.node for p in plans if sum(q.node == p.node for q in plans) > 1}
        if dupes:
            raise KascadeError(f"multiple chaos plans for: {sorted(dupes)}")
        self._pending: Dict[str, ChaosPlan] = {p.node: p for p in plans}
        self._fired: Dict[str, ChaosPlan] = {}
        self._kill = kill_fn
        self._lock = threading.Lock()
        #: Externally supervised targets (the head): they never
        #: self-report progress, so their plans fire once *any* node's
        #: reported progress crosses the threshold, against a pid the
        #: coordinator registered.
        self._external: Dict[str, int] = {}

    def targets(self):
        """Names of nodes any plan targets (pending or fired)."""
        with self._lock:
            return set(self._pending) | set(self._fired)

    def register_external(self, name: str, pid: int) -> None:
        """Register a target that never reports its own progress.

        The head streams (it receives nothing), so it never appears in
        the progress feed the engine keys on.  A registered external
        target is killed when any node's progress crosses its plan's
        ``after_bytes`` — "once the broadcast is this far along, take it
        down" — which is the semantics a head kill test actually wants.
        """
        with self._lock:
            self._external[name] = pid

    def validate(self, participants, *, known=None, what="plan",
                 allow=()) -> None:
        """Every chaos target must be a receiver in ``participants``.

        ``allow`` lists extra names a backend explicitly opted into
        killing — the head, on a session that can survive it.  It
        widens nothing by default: killing the head without
        head-failover support just wedges the run.

        ``known`` widens the diagnostic, not the rule: when the caller
        runs many sessions over one fleet (the daemon), a target that
        *is* a fleet member but sits outside this session's plan gets
        its own message — "you named a real node, just not one in this
        session" — instead of the generic unknown-node error.
        """
        stray = self.targets() - set(participants) - set(allow)
        if not stray:
            return
        if known is not None:
            fleet_only = stray & set(known)
            if fleet_only:
                raise KascadeError(
                    f"chaos targets fleet members outside this {what}: "
                    f"{sorted(fleet_only)} (session nodes: "
                    f"{sorted(participants)})"
                )
        raise KascadeError(f"chaos plans for unknown nodes: {sorted(stray)}")

    @property
    def fired(self) -> Dict[str, ChaosPlan]:
        """Plans that have been executed, by node name."""
        with self._lock:
            return dict(self._fired)

    def on_progress(self, node: str, bytes_received: int,
                    pid: Optional[int]) -> Optional[str]:
        """Maybe fire the plan for ``node``; returns the signal name fired.

        A dead or unknown pid makes the plan a no-op (the node died on
        its own first); the plan still counts as fired so the run's
        ``ok`` accounting stays consistent.
        """
        external_due = []
        with self._lock:
            # Externally supervised targets ride on everyone's progress.
            for ext_name, ext_pid in self._external.items():
                ext_plan = self._pending.get(ext_name)
                if ext_plan is not None and bytes_received >= ext_plan.after_bytes:
                    del self._pending[ext_name]
                    self._fired[ext_name] = ext_plan
                    external_due.append((ext_plan, ext_pid))
            plan = self._pending.get(node)
            if plan is not None and bytes_received >= plan.after_bytes:
                del self._pending[node]
                self._fired[node] = plan
            else:
                plan = None
        for ext_plan, ext_pid in external_due:
            try:
                self._kill(ext_pid, SIGNALS[ext_plan.sig])
            except (OSError, ProcessLookupError):
                pass
        if plan is None:
            return None
        if pid is not None:
            try:
                self._kill(pid, SIGNALS[plan.sig])
            except (OSError, ProcessLookupError):
                pass
        return plan.sig
