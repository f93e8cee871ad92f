"""A Paxos-replicated log: no product caller, kept for two probes.

The fleet elects a new head from the exact offsets its survivors report
(:meth:`repro.core.plan.ChainPlan.elect`) and keeps no replicated log.
This package stays only because perfbench's ``control.commit_ms`` and
``control.read_state_ms`` probes time a commit and a read against three
in-thread replicas; it goes once those probes do.

* :mod:`repro.control.paxos` — a pure, sans-I/O single-decree consensus
  core (one Paxos instance per log slot).
* :mod:`repro.control.state` — the replicated state machine: node
  registrations, a :class:`~repro.core.plan.ChainPlan`, per-node
  progress watermarks, and head elections.
* :mod:`repro.control.replica` — an in-thread acceptor/learner replica
  served over the deployment layer's newline-JSON control framing.
* :mod:`repro.control.client` — the quorum client: a proposer with
  persistent channels to every replica that commits commands by
  majority and keeps working while a minority is down.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "paxos": ("Acceptor", "Ballot", "Learner", "Proposal"),
    "state": ("ControlState",),
    "replica": ("ReplicaServer",),
    "client": ("QuorumClient", "QuorumError"),
})
