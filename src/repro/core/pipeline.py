"""Node ordering: the order a chain visits its receivers in (§III-A).

Kascade organises the head node plus all receivers in a chain: node *i*
connects to node *i+1*, and the last node connects back to the head to
return the final report.  Performance hinges on the chain following the
physical topology: when nodes of the same switch are contiguous in the
chain, each network link is crossed exactly once per direction.  The
chain itself is a :class:`~repro.core.plan.StripePlan`, built by
:meth:`~repro.core.plan.ChainPlan.build` with one of the paper's
ordering strategies:

* :func:`order_by_hostname` — the default: sort by the number embedded in
  the host name, assuming numbering matches rack topology ("nodes 1 to 30
  are on the first switch...").
* custom order — the caller provides the exact sequence;
* :func:`order_randomly` — the adversarial ordering of §IV-C (Fig. 10).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Sequence, Tuple

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

