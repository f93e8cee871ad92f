"""The replicated coordinator state machine.

Commands are plain JSON-safe dicts with a ``kind`` field; the quorum
decides their order (one command per log slot) and every replica applies
them through :meth:`ControlState.apply`.  Because application is a pure
function of the command sequence, any two replicas that applied the same
prefix hold byte-identical state — that is what lets a coordinator
restart (or a surviving majority) reconstruct everything it needs to
finish a broadcast: who registered where, which plan is active, how far
every node had gotten, and which head is current.

Command vocabulary
------------------

=============  =====================================================
``register``   ``node``, ``host``, ``port``, ``pid`` — an agent
               joined the fleet at this data-plane address
``plan``       ``plan`` — the active chain schedule
               (:meth:`~repro.core.plan.ChainPlan.to_dict` form)
``watermark``  ``node``, ``bytes`` — progress high-water mark; only
               ever raises (stale duplicates are ignored)
``election``   ``head``, ``dead`` — a new head was chosen (by
               :meth:`~repro.core.plan.ChainPlan.elect`: the log
               records the decree, it does not make it); bumps the
               epoch so late messages from the old regime are
               recognisably stale
=============  =====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["ControlState"]


class ControlState:
    """State machine over the replicated command log."""

    def __init__(self) -> None:
        #: node -> {"host", "port", "pid"}
        self.registrations: Dict[str, dict] = {}
        #: Active plan in ``ChainPlan.to_dict`` form, or None.
        self.plan: Optional[dict] = None
        #: node -> bytes received (monotonically non-decreasing).
        self.watermarks: Dict[str, int] = {}
        #: Nodes declared dead by elections so far.
        self.dead: List[str] = []
        #: Current head per the latest election (None = the plan's own).
        self.elected_head: Optional[str] = None
        #: Bumped by every election; stale-regime filtering.
        self.epoch = 0

    # -- command application --------------------------------------------

    def apply(self, command: dict) -> None:
        kind = command.get("kind")
        if kind == "register":
            self.registrations[command["node"]] = {
                "host": command["host"],
                "port": command["port"],
                "pid": command.get("pid"),
            }
        elif kind == "plan":
            self.plan = command["plan"]
        elif kind == "watermark":
            node = command["node"]
            new = int(command["bytes"])
            if new > self.watermarks.get(node, -1):
                self.watermarks[node] = new
        elif kind == "election":
            self.elected_head = command["head"]
            for node in command.get("dead", ()):
                if node not in self.dead:
                    self.dead.append(node)
            self.epoch += 1
        else:
            raise ValueError(f"unknown control command kind: {kind!r}")

    # -- queries ---------------------------------------------------------

    @property
    def head(self) -> Optional[str]:
        """The current head: the latest election's pick, else the plan's."""
        if self.elected_head is not None:
            return self.elected_head
        if self.plan is not None:
            return self.plan["head"]
        return None

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "registrations": dict(self.registrations),
            "plan": self.plan,
            "watermarks": dict(self.watermarks),
            "dead": list(self.dead),
            "elected_head": self.elected_head,
            "epoch": self.epoch,
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ControlState":
        state = cls()
        state.registrations = dict(snap.get("registrations", {}))
        state.plan = snap.get("plan")
        state.watermarks = {k: int(v)
                            for k, v in snap.get("watermarks", {}).items()}
        state.dead = list(snap.get("dead", []))
        state.elected_head = snap.get("elected_head")
        state.epoch = int(snap.get("epoch", 0))
        return state
