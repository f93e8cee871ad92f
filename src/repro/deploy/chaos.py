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

import signal
import threading
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Set

from ..runtime.result import CrashPlan

if TYPE_CHECKING:
    from .launcher import ProcessHandle

#: Crash mode → the real signal with its observable effect.
SIGNALS = {
    "close": signal.SIGKILL,
    "silent": signal.SIGSTOP,
}


class ChaosEngine:
    """Fires each plan at most once, keyed on reported progress.

    Takes the plans :func:`~repro.runtime.result.check_run` returned —
    one per node, byte-triggered — and ``handle_of(name)``, the fleet's
    :class:`~repro.deploy.launcher.ProcessHandle` for a node (``None``
    for one that has none).  The handle is looked up when a plan fires,
    not when the engine is made (a one-shot admits its session before
    any agent exists), and signalled through its pidfd: a plan that
    fires after its target was reaped signals nobody.  Thread-safe:
    progress callbacks arrive from per-agent reader threads.
    """

    def __init__(
        self,
        plans: Sequence[CrashPlan],
        handle_of: Callable[[str], Optional["ProcessHandle"]],
    ) -> None:
        self._pending: Dict[str, CrashPlan] = {p.node: p for p in plans}
        self._fired: Dict[str, CrashPlan] = {}
        self._handle_of = handle_of
        self._lock = threading.Lock()
        #: Externally supervised targets (the head): they never
        #: self-report progress, so their plans fire once *any* node's
        #: reported progress crosses the threshold.
        self._external: Set[str] = set()

    def targets(self):
        """Names of nodes any plan targets (pending or fired)."""
        with self._lock:
            return set(self._pending) | set(self._fired)

    def register_external(self, name: str) -> None:
        """Register a target that never reports its own progress.

        The head streams (it receives nothing), so it never appears in
        the progress feed the engine keys on.  A registered external
        target is killed when any node's progress crosses its plan's
        ``after_bytes`` — "once the broadcast is this far along, take it
        down" — which is the semantics a head kill test actually wants.
        """
        with self._lock:
            self._external.add(name)

    @property
    def fired(self) -> Dict[str, CrashPlan]:
        """Plans that have been executed, by node name."""
        with self._lock:
            return dict(self._fired)

    def on_progress(self, node: str, bytes_received: int) -> Optional[str]:
        """Maybe fire the plan for ``node``; returns the mode it fired.

        A target without a live process makes the plan a no-op (the
        node died on its own first); the plan still counts as fired so
        the run's ``ok`` accounting stays consistent.
        """
        due = []
        with self._lock:
            # Externally supervised targets ride on everyone's progress.
            for name in self._external | {node}:
                plan = self._pending.get(name)
                if plan is not None and bytes_received >= plan.after_bytes:
                    del self._pending[name]
                    self._fired[name] = plan
                    due.append(plan)
        for plan in due:
            handle = self._handle_of(plan.node)
            if handle is not None:
                handle.send_signal(SIGNALS[plan.mode])
        return next((p.mode for p in due if p.node == node), None)
