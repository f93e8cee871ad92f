"""Explicit broadcast schedules: who feeds whom, per stripe.

The paper's chain is the head, then the receivers in topology order
(§III-A).  With ``k`` stripes a node forwards stripe ``j`` to a
(possibly different) successor per stripe, so the schedule is
first-class data:

* :class:`StripePlan` — one stripe's chain: the head, the receivers in
  order, and which stripe it carries out of how many.  Every node runs
  exactly one; ``0 of 1`` is the paper's single pipeline.
* :class:`ChainPlan` — the whole schedule: one :class:`StripePlan` per
  stripe over one shared node set.  Serializable (JSON) so the process
  backend can ship it to agents and results can carry it; buildable from
  an ordering strategy (:meth:`ChainPlan.build`) or from explicit
  per-stripe orders (:meth:`ChainPlan.from_orders`, the hook
  :mod:`repro.topology.ordering` uses for switch-aware rotations).

Stripe assignment is round-robin over the global chunk index: chunk
``i`` belongs to stripe ``i % k`` as that stripe's local chunk
``i // k`` (see :mod:`repro.core.stripes` for the byte-level mapping).

The default multi-stripe schedule rotates the ordered receivers by
``(j * n) // k`` positions for stripe ``j``: every node is near the
chain head on some stripe and near the tail on another, so aggregate
ingress/egress load stays balanced while each stripe remains a single
topology-friendly chain.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import KascadeError, PipelineError
from .pipeline import order_by_hostname, order_randomly
from .record import Frozen

if TYPE_CHECKING:  # annotation only: numpy stays off the CLI import path
    import numpy as np

__all__ = ["StripePlan", "ChainPlan"]


class StripePlan(Frozen):
    """One stripe's chain: ``head`` followed by the ``receivers``.

    ``stripe`` is this chain's stripe index, ``of`` the total stripe
    count of the schedule it belongs to; the defaults (``0 of 1``)
    describe the paper's one pipeline.  The plan is immutable: failure
    handling never re-plans, it only *skips* dead nodes (see
    :mod:`repro.core.recovery`), matching the tool's behaviour of
    keeping the original node list on every node.  A head without
    receivers is what a re-root leaves a lone survivor
    (:meth:`ChainPlan.elect`); no run starts with one
    (:meth:`ChainPlan.build`, :meth:`ChainPlan.resolve`).
    """

    __slots__ = ("head", "receivers", "stripe", "of")

    def __init__(self, head: str, receivers: Tuple[str, ...],
                 stripe: int = 0, of: int = 1) -> None:
        self._init(head, receivers, stripe, of)
        if not self.head:
            raise PipelineError("pipeline needs a head node")
        chain = self.chain
        if len(set(chain)) != len(chain):
            dupes = sorted({n for n in chain if chain.count(n) > 1})
            raise PipelineError(f"duplicate nodes in pipeline: {dupes}")
        if self.of < 1:
            raise PipelineError(f"stripe count must be >= 1, got {self.of}")
        if not 0 <= self.stripe < self.of:
            raise PipelineError(
                f"stripe index {self.stripe} out of range for {self.of} stripe(s)"
            )

    @property
    def chain(self) -> Tuple[str, ...]:
        """Head followed by receivers, in transfer order."""
        return (self.head,) + self.receivers

    def index_of(self, node: str) -> int:
        """Position of ``node`` in the chain (0 = head)."""
        try:
            return self.chain.index(node)
        except ValueError:
            raise PipelineError(f"node {node!r} not in pipeline") from None

    def successors_after(self, node: str) -> Tuple[str, ...]:
        """All nodes strictly after ``node`` in chain order."""
        return self.chain[self.index_of(node) + 1:]


def _rotated(receivers: Tuple[str, ...], shift: int) -> Tuple[str, ...]:
    shift %= len(receivers)
    return receivers[shift:] + receivers[:shift]


class ChainPlan(Frozen):
    """The complete broadcast schedule: one chain per stripe.

    All stripes share the head and the receiver *set*; they may (and for
    ``k > 1`` should) differ in receiver *order*, which is what spreads
    load across the fabric.  The plan is pure data — build it, inspect
    it, serialize it, hand it to any backend via
    ``run_broadcast(..., plan=...)``.
    """

    __slots__ = ("stripes",)

    def __init__(self, stripes: Tuple[StripePlan, ...]) -> None:
        self._init(stripes)
        if not self.stripes:
            raise PipelineError("chain plan needs at least one stripe")
        k = len(self.stripes)
        first = self.stripes[0]
        nodes = frozenset(first.chain)
        for j, sp in enumerate(self.stripes):
            if sp.stripe != j or sp.of != k:
                raise PipelineError(
                    f"stripe {j} mislabelled as {sp.stripe} of {sp.of}"
                )
            if sp.head != first.head:
                raise PipelineError(
                    f"stripe {j} has head {sp.head!r}, expected {first.head!r}"
                )
            if frozenset(sp.chain) != nodes:
                raise PipelineError(
                    f"stripe {j} covers a different node set than stripe 0"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        head: str,
        receivers: Sequence[str],
        *,
        stripes: int = 1,
        order: str = "hostname",
        rng: Optional[np.random.Generator] = None,
    ) -> "ChainPlan":
        """Build a schedule from an ordering strategy.

        ``order`` is ``"hostname"`` (default, topology-aware), ``"given"``
        (keep the caller's sequence) or ``"random"`` (requires ``rng``);
        stripe ``j`` gets that order rotated by ``(j * n) // k``.
        """
        if stripes < 1:
            raise PipelineError(f"stripe count must be >= 1, got {stripes}")
        if order == "hostname":
            ordered = tuple(order_by_hostname(receivers))
        elif order == "given":
            ordered = tuple(receivers)
        elif order == "random":
            if rng is None:
                raise PipelineError("random ordering requires an rng")
            ordered = tuple(order_randomly(receivers, rng))
        else:
            raise PipelineError(f"unknown ordering strategy: {order!r}")
        if not ordered:
            raise PipelineError("pipeline needs at least one receiver")
        n = len(ordered)
        return cls.from_orders(
            head, [_rotated(ordered, (j * n) // stripes)
                   for j in range(stripes)])

    @classmethod
    def resolve(
        cls,
        plan: Optional["ChainPlan"],
        head: str,
        receivers: Sequence[str],
        *,
        stripes: int,
        order: str = "given",
    ) -> "ChainPlan":
        """The schedule a backend runs: ``plan`` when the caller brought
        one (its head and per-stripe orders win; it must cover exactly
        ``receivers`` and agree with ``stripes``, the configured count),
        else one built from ``head``/``order``/``stripes``."""
        if plan is None:
            return cls.build(head, receivers, stripes=stripes, order=order)
        if not plan.receivers:
            raise PipelineError("pipeline needs at least one receiver")
        if set(plan.receivers) != set(receivers):
            raise KascadeError(
                "chain plan covers different receivers than requested: "
                f"{sorted(plan.receivers)} vs {sorted(receivers)}"
            )
        if stripes not in (1, plan.stripe_count):
            raise KascadeError(
                f"config.stripes={stripes} conflicts with a "
                f"{plan.stripe_count}-stripe plan"
            )
        return plan

    @classmethod
    def from_orders(
        cls, head: str, orders: Sequence[Sequence[str]]
    ) -> "ChainPlan":
        """Build from explicit per-stripe receiver orders."""
        k = len(orders)
        return cls(tuple(
            StripePlan(head=head, receivers=tuple(order), stripe=j, of=k)
            for j, order in enumerate(orders)
        ))

    @classmethod
    def single(cls, head: str, receivers: Sequence[str]) -> "ChainPlan":
        """The classic one-chain schedule over the given order."""
        return cls.from_orders(head, [tuple(receivers)])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def head(self) -> str:
        return self.stripes[0].head

    @property
    def receivers(self) -> Tuple[str, ...]:
        """The canonical (stripe-0) receiver order."""
        return self.stripes[0].receivers

    @property
    def stripe_count(self) -> int:
        return len(self.stripes)

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Head plus receivers in canonical order."""
        return self.stripes[0].chain

    def stripe(self, j: int) -> StripePlan:
        """The chain carrying stripe ``j``."""
        if not 0 <= j < len(self.stripes):
            raise PipelineError(
                f"no stripe {j} in a {len(self.stripes)}-stripe plan"
            )
        return self.stripes[j]

    def __iter__(self) -> Iterator[StripePlan]:
        return iter(self.stripes)

    def __len__(self) -> int:
        """Stripe count, matching iteration (``for sp in plan``)."""
        return len(self.stripes)

    # ------------------------------------------------------------------
    # Re-planning
    # ------------------------------------------------------------------

    def replan_without(self, dead: Sequence[str]) -> "ChainPlan":
        """A new schedule with ``dead`` receivers removed from every
        stripe, each stripe keeping its surviving order.

        This is the launch-time re-plan (a node that never started is
        simply not in the chain); mid-transfer deaths are *skipped*, not
        re-planned, exactly as in the single-chain protocol.

        When the head itself is in ``dead`` the schedule is re-rooted:
        the most-senior survivor (the first receiver of stripe 0 not in
        ``dead``) is promoted via :meth:`reroot` — what :meth:`elect`
        decides when nobody has received a byte yet.
        """
        gone = set(dead)
        if self.head in gone:
            survivors = [r for r in self.receivers if r not in gone]
            if not survivors:
                raise PipelineError(
                    f"cannot re-plan: head {self.head!r} and every "
                    f"receiver are dead"
                )
            return self.reroot(survivors[0], dead=gone)
        return ChainPlan.from_orders(
            self.head,
            [[r for r in sp.receivers if r not in gone]
             for sp in self.stripes],
        )

    def reroot(self, new_head: str, *, dead: Sequence[str] = ()) -> "ChainPlan":
        """Promote receiver ``new_head`` to head and rebuild every
        stripe's order around it.

        The old head and any ``dead`` nodes are dropped from every
        stripe; the surviving receivers keep their relative order per
        stripe, minus the promoted node, which now leads all of them.
        Preserving the order is what keeps resume cheap: every surviving
        link still points the same way, so downstream offsets stay
        monotonically behind upstream ones and ring-buffer replay (or a
        PGET to the new head) covers any gap.
        """
        gone = set(dead) | {self.head}
        if new_head not in set(self.receivers):
            raise PipelineError(
                f"cannot re-root to {new_head!r}: not a receiver of this plan"
            )
        if new_head in set(dead):
            raise PipelineError(f"cannot re-root to dead node {new_head!r}")
        return ChainPlan.from_orders(
            new_head,
            [[r for r in sp.receivers if r not in gone and r != new_head]
             for sp in self.stripes],
        )

    def elect(
        self, offsets: Mapping[str, int]
    ) -> Tuple["ChainPlan", str, int]:
        """The head died: ``(re-rooted plan, promoted node, watermark)``.

        ``offsets`` holds the exact stream position of every receiver
        that let go of the old chain; a receiver without one is dead.
        The highest offset wins, and a tie goes to the receiver nearest
        the old head in stripe-0 order — offsets never grow down a
        chain, so that is the head's own successor unless it is lost.
        The watermark is the winner's offset.  A lone survivor is a
        legal answer: it heads a chain with nobody to feed.  Every
        driver elects here (``Broadcast._reroot`` on threads and on the
        DES, ``DaemonServer._orchestrate_failover`` for a fleet).
        """
        ready = [r for r in self.receivers if r in offsets]
        if not ready:
            raise PipelineError("cannot elect a new head: no receiver let go")
        new_head = max(ready, key=offsets.__getitem__)  # the first maximum
        dead = [r for r in self.receivers if r not in offsets]
        return self.reroot(new_head, dead=dead), new_head, offsets[new_head]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (the wire schema, PROTOCOL.md §12)."""
        return {
            "version": 1,
            "head": self.head,
            "stripes": [list(sp.receivers) for sp in self.stripes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChainPlan":
        if d.get("version") != 1:
            raise PipelineError(
                f"unknown chain plan version: {d.get('version')!r}"
            )
        return cls.from_orders(d["head"], d["stripes"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChainPlan":
        return cls.from_dict(json.loads(text))

