"""Replicated control plane: quorum-committed coordinator state.

The broadcast data plane (chains, stripes, ring reports) survives the
death of any *receiver*; until now the coordinator and the head were
single points of failure.  This package removes the first and tames the
second:

* :mod:`repro.control.paxos` — a pure, sans-I/O single-decree consensus
  core (one Paxos instance per log slot) that is trivial to drive
  deterministically in tests: dueling proposers, dropped messages,
  partitioned acceptors.
* :mod:`repro.control.state` — the replicated state machine: node
  registrations, the active :class:`~repro.core.plan.ChainPlan`,
  per-node progress watermarks, and head elections.
* :mod:`repro.control.replica` — an acceptor/learner replica served
  over the deployment layer's newline-JSON control framing, runnable
  in-thread (tests) or as a ``kascade replica`` subprocess.
* :mod:`repro.control.client` — the coordinator-side quorum client: a
  proposer with persistent channels to every replica that commits
  commands by majority and keeps working while a minority is down.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "paxos": ("Acceptor", "Ballot", "Learner", "Proposal"),
    "state": ("ControlState",),
    "replica": ("ReplicaServer",),
    "client": ("QuorumClient", "QuorumError"),
})
