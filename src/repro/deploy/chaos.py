"""Real-signal fault injection for the process-per-node backend.

The thread-based runtime can only *simulate* process death (closing
sockets from within).  Here the coordinator sends genuine signals to a
separate OS process, so a :class:`~repro.runtime.CrashPlan`'s mode is
what peers observe, exactly as §III-D describes:

* ``"close"`` → ``SIGKILL`` — abrupt death: the kernel closes every
  socket, peers see RST on the next read/write (the error-detector
  path);
* ``"silent"`` → ``SIGSTOP`` — silent hang: the process is frozen with
  all its sockets open, so peers must disambiguate congestion from
  death with the timeout + liveness-ping mechanism of §III-D1.

Triggering is progress-driven: agents report bytes received over the
control socket (throttled, see ``progress_every``), and the engine fires
once a node's reported progress crosses its plan's ``after_bytes`` — a
floor, not the exact offset the in-process gate fires at.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Dict, Optional, Sequence

from ..runtime.result import CrashPlan

#: Crash mode → the real signal with its observable effect.
SIGNALS = {
    "close": signal.SIGKILL,
    "silent": signal.SIGSTOP,
}


class ChaosEngine:
    """Fires each plan at most once, keyed on reported progress.

    Takes the plans :func:`~repro.runtime.result.check_run` returned —
    one per node, byte-triggered.  ``kill_fn`` defaults to
    :func:`os.kill`; tests inject a recorder.  Thread-safe: progress
    callbacks arrive from per-agent reader threads.
    """

    def __init__(
        self,
        plans: Sequence[CrashPlan],
        *,
        kill_fn: Callable[[int, int], None] = os.kill,
    ) -> None:
        self._pending: Dict[str, CrashPlan] = {p.node: p for p in plans}
        self._fired: Dict[str, CrashPlan] = {}
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

    @property
    def fired(self) -> Dict[str, CrashPlan]:
        """Plans that have been executed, by node name."""
        with self._lock:
            return dict(self._fired)

    def on_progress(self, node: str, bytes_received: int,
                    pid: Optional[int]) -> Optional[str]:
        """Maybe fire the plan for ``node``; returns the mode it fired.

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
                self._kill(ext_pid, SIGNALS[ext_plan.mode])
            except (OSError, ProcessLookupError):
                pass
        if plan is None:
            return None
        if pid is not None:
            try:
                self._kill(pid, SIGNALS[plan.mode])
            except (OSError, ProcessLookupError):
                pass
        return plan.mode
