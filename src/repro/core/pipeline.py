"""Pipeline planning: node ordering and chain construction (§III-A).

Kascade organises the head node plus all receivers in a chain: node *i*
connects to node *i+1*, and the last node connects back to the head to
return the final report.  Performance hinges on the chain following the
physical topology: when nodes of the same switch are contiguous in the
chain, each network link is crossed exactly once per direction.

Node ordering strategies reproduce the paper's options:

* :func:`order_by_hostname` — the default: sort by the number embedded in
  the host name, assuming numbering matches rack topology ("nodes 1 to 30
  are on the first switch...").
* custom order — the caller provides the exact sequence;
* :func:`order_randomly` — the adversarial ordering of §IV-C (Fig. 10).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import PipelineError
from .record import Frozen

if TYPE_CHECKING:  # annotation only: numpy stays off the CLI import path
    import numpy as np

_NUM_RE = re.compile(r"(\d+)")


def hostname_sort_key(name: str) -> Tuple:
    """Natural-sort key: alternating text and integer components.

    ``node-2`` sorts before ``node-10``, and ``paradent-3`` groups with the
    other ``paradent-*`` hosts before any ``parapide-*`` host — exactly the
    "logical ordering matches physical topology" assumption of the paper.
    """
    parts = _NUM_RE.split(name)
    # Text parts compare as strings, numeric parts as ints.  Wrap each part
    # in a (kind, value) pair so str/int never compare directly.
    return tuple(
        (0, int(p)) if p.isdigit() else (1, p) for p in parts
    )


def order_by_hostname(nodes: Sequence[str]) -> List[str]:
    """Topology-aware default ordering: natural sort on host names."""
    return sorted(nodes, key=hostname_sort_key)


def order_randomly(nodes: Sequence[str], rng: np.random.Generator) -> List[str]:
    """Adversarial random ordering (Fig. 10's experiment)."""
    out = list(nodes)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


class PipelinePlan(Frozen):
    """An ordered broadcast chain: ``head`` followed by the receivers.

    The plan is immutable; failure handling never re-plans, it only *skips*
    dead nodes (see :mod:`repro.core.recovery`), matching the tool's
    behaviour of keeping the original node list on every node.
    """

    __slots__ = ("head", "receivers")

    #: Whether a head with nobody to feed is a plan (only a re-root's).
    lone_head_ok = False

    def __init__(self, head: str, receivers: Tuple[str, ...]) -> None:
        self._init(head, receivers)
        self._validate()

    def _validate(self) -> None:
        if not self.head:
            raise PipelineError("pipeline needs a head node")
        if not self.receivers and not self.lone_head_ok:
            raise PipelineError("pipeline needs at least one receiver")
        chain = (self.head,) + self.receivers
        if len(set(chain)) != len(chain):
            dupes = sorted({n for n in chain if chain.count(n) > 1})
            raise PipelineError(f"duplicate nodes in pipeline: {dupes}")

    @classmethod
    def build(
        cls,
        head: str,
        receivers: Sequence[str],
        *,
        order: str = "hostname",
        rng: Optional[np.random.Generator] = None,
    ) -> "PipelinePlan":
        """Build a plan with the requested ordering strategy.

        ``order`` is ``"hostname"`` (default, topology-aware), ``"given"``
        (keep the caller's sequence) or ``"random"`` (requires ``rng``).
        """
        if order == "hostname":
            ordered = order_by_hostname(receivers)
        elif order == "given":
            ordered = list(receivers)
        elif order == "random":
            if rng is None:
                raise PipelineError("random ordering requires an rng")
            ordered = order_randomly(receivers, rng)
        else:
            raise PipelineError(f"unknown ordering strategy: {order!r}")
        return cls(head=head, receivers=tuple(ordered))

    # ------------------------------------------------------------------
    # Chain navigation
    # ------------------------------------------------------------------

    @property
    def chain(self) -> Tuple[str, ...]:
        """Head followed by receivers, in transfer order."""
        return (self.head,) + self.receivers

    def __len__(self) -> int:
        return len(self.chain)

    def index_of(self, node: str) -> int:
        """Position of ``node`` in the chain (0 = head)."""
        try:
            return self.chain.index(node)
        except ValueError:
            raise PipelineError(f"node {node!r} not in pipeline") from None

    def successor(self, node: str) -> Optional[str]:
        """The immediate downstream neighbour, or ``None`` for the tail."""
        i = self.index_of(node)
        chain = self.chain
        return chain[i + 1] if i + 1 < len(chain) else None

    def predecessor(self, node: str) -> Optional[str]:
        """The immediate upstream neighbour, or ``None`` for the head."""
        i = self.index_of(node)
        return self.chain[i - 1] if i > 0 else None

    def successors_after(self, node: str) -> Tuple[str, ...]:
        """All nodes strictly after ``node`` in chain order."""
        return self.chain[self.index_of(node) + 1:]

    def is_tail(self, node: str, dead: Sequence[str] = ()) -> bool:
        """Whether ``node`` is the last *alive* node of the chain."""
        dead_set = set(dead)
        return all(n in dead_set for n in self.successors_after(node))
