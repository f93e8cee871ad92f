"""The ChainPlan / StripePlan API (`repro.core.plan`).

The plan is the PR-7 redesign's contract: an explicit, serializable
description of who feeds whom per stripe, consumed identically by the
local, procs, and simnet backends.  Under test:

* stripe construction — rotated receiver orders, the k == 1 degenerate
  case being the paper's single chain;
* the wire form — JSON roundtrip, versioning;
* re-planning — dropping dead nodes from every stripe;
* what a node accepts — one StripePlan, nothing else.
"""

import json

import pytest

from repro.core import DEFAULT_CONFIG, NullSink
from repro.core.errors import PipelineError
from repro.core.plan import ChainPlan, StripePlan
from repro.runtime.node import ReceiverNode
from repro.runtime.registry import Registry
from repro.runtime.transport import Listener

RECEIVERS = ("n2", "n3", "n4", "n5")


class TestStripePlan:
    def test_labels_validated(self):
        with pytest.raises(PipelineError):
            StripePlan(head="n1", receivers=RECEIVERS, stripe=3, of=3)
        with pytest.raises(PipelineError):
            StripePlan(head="n1", receivers=RECEIVERS, stripe=0, of=0)


class TestChainPlanBuild:
    def test_single_stripe_matches_legacy_plan(self):
        """k == 1 is the one chain of the paper: stripe 0 of 1."""
        plan = ChainPlan.build("n1", RECEIVERS, stripes=1, order="given")
        assert plan.stripe_count == 1
        assert plan.stripe(0) == StripePlan(head="n1", receivers=RECEIVERS)
        assert plan.receivers == RECEIVERS
        assert plan == ChainPlan.single("n1", RECEIVERS)

    def test_stripes_rotate_the_order(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=4, order="given")
        assert [sp.receivers for sp in plan] == [
            ("n2", "n3", "n4", "n5"),
            ("n3", "n4", "n5", "n2"),
            ("n4", "n5", "n2", "n3"),
            ("n5", "n2", "n3", "n4"),
        ]
        # Every stripe covers the same node set with the same head.
        assert all(set(sp.receivers) == set(RECEIVERS) for sp in plan)
        assert all(sp.head == "n1" for sp in plan)

    def test_more_stripes_than_receivers_spread_evenly(self):
        plan = ChainPlan.build("n1", ("n2", "n3"), stripes=4, order="given")
        starts = [sp.receivers[0] for sp in plan]
        assert starts == ["n2", "n2", "n3", "n3"]

    def test_stripe_index_bounds(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=2, order="given")
        assert len(plan) == 2
        with pytest.raises(PipelineError):
            plan.stripe(2)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(PipelineError):
            ChainPlan.from_orders("n1", [["n2", "n3"], ["n3", "n9"]])


class TestChainPlanWireForm:
    def test_json_roundtrip(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=3, order="given")
        restored = ChainPlan.from_json(plan.to_json())
        assert restored == plan

    def test_dict_shape_is_versioned(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=2, order="given")
        doc = plan.to_dict()
        assert doc["version"] == 1
        assert doc["head"] == "n1"
        assert doc["stripes"] == [list(sp.receivers) for sp in plan]
        # and it is plain JSON all the way down
        assert json.loads(json.dumps(doc)) == doc

    def test_unknown_version_rejected(self):
        doc = ChainPlan.single("n1", RECEIVERS).to_dict()
        doc["version"] = 99
        with pytest.raises(PipelineError, match="version"):
            ChainPlan.from_dict(doc)


class TestReplan:
    def test_dead_node_dropped_from_every_stripe(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=3, order="given")
        replanned = plan.replan_without(("n4",))
        assert replanned.stripe_count == 3
        for sp in replanned:
            assert "n4" not in sp.receivers
            assert len(sp.receivers) == 3
        # Surviving relative order is preserved per stripe.
        assert replanned.stripe(0).receivers == ("n2", "n3", "n5")

    def test_head_death_reroots_to_most_senior_survivor(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        replanned = plan.replan_without(("n1",))
        assert replanned.head == "n2"
        assert replanned.stripe(0).receivers == ("n3", "n4", "n5")

    def test_head_death_with_no_survivors_rejected(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        with pytest.raises(PipelineError):
            plan.replan_without(("n1",) + RECEIVERS)

    def test_noop_replan(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=2, order="given")
        assert plan.replan_without(()) == plan


class TestReroot:
    def test_surviving_order_preserved(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        rerooted = plan.reroot("n3")
        assert rerooted.head == "n3"
        # The promoted node leads; everyone else keeps chain order.
        assert rerooted.stripe(0).receivers == ("n2", "n4", "n5")
        assert rerooted.receivers == ("n2", "n4", "n5")

    def test_dead_nodes_dropped_from_every_stripe(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=3, order="given")
        rerooted = plan.reroot("n3", dead=("n5",))
        assert rerooted.stripe_count == 3
        for sp in rerooted:
            assert sp.head == "n3"
            assert set(sp.receivers) == {"n2", "n4"}

    def test_old_head_always_dropped(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        rerooted = plan.reroot("n2")
        assert "n1" not in rerooted.receivers
        assert "n1" != rerooted.head

    def test_non_receiver_rejected(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        with pytest.raises(PipelineError, match="not a receiver"):
            plan.reroot("n9")
        with pytest.raises(PipelineError, match="not a receiver"):
            plan.reroot("n1")  # the head is not a receiver of itself

    def test_dead_candidate_rejected(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        with pytest.raises(PipelineError, match="dead node"):
            plan.reroot("n3", dead=("n3",))

    def test_roundtrips_through_wire_form(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=2, order="given")
        rerooted = plan.reroot("n2")
        assert ChainPlan.from_json(rerooted.to_json()) == rerooted

    def test_a_lone_survivor_heads_a_chain_of_its_own(self):
        """What a re-root may leave — and what no run may start with."""
        plan = ChainPlan.single("n1", RECEIVERS)
        lone = plan.reroot("n4", dead=("n2", "n3", "n5"))
        assert lone.nodes == ("n4",) and lone.receivers == ()
        assert ChainPlan.from_dict(lone.to_dict()) == lone
        with pytest.raises(PipelineError, match="at least one receiver"):
            ChainPlan.resolve(lone, "n4", (), stripes=1)


class TestElect:
    def test_a_tie_goes_to_the_old_heads_successor(self):
        """Stripe-0 order, not names: n1 -> n4 -> n3 -> n2 promotes n4."""
        plan = ChainPlan.from_orders("n1", [["n4", "n3", "n2"]])
        rerooted, head, mark = plan.elect({"n2": 7, "n3": 7, "n4": 7})
        assert (head, mark) == ("n4", 7)
        assert rerooted.nodes == ("n4", "n3", "n2")

    def test_receivers_without_an_offset_are_dead(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        rerooted, head, mark = plan.elect({"n3": 5, "n5": 9})
        assert (head, mark, rerooted.nodes) == ("n5", 9, ("n5", "n3"))
        assert plan.elect({"n3": 5})[0].nodes == ("n3",)
        with pytest.raises(PipelineError, match="no receiver let go"):
            plan.elect({})


class TestCoercionShim:
    """A node runs exactly one stripe: it takes a :class:`StripePlan`
    and coerces nothing else into one."""

    @staticmethod
    def node_with(plan):
        listener = Listener()
        try:
            return ReceiverNode("n2", plan, Registry({}), listener,
                                DEFAULT_CONFIG, NullSink())
        finally:
            listener.close()

    def test_stripe_plan_passes_through(self):
        sp = StripePlan(head="n1", receivers=RECEIVERS)
        assert self.node_with(sp).plan is sp

    def test_single_stripe_chain_plan_is_refused(self):
        plan = ChainPlan.single("n1", RECEIVERS)
        with pytest.raises(TypeError, match=r"pass plan\.stripe\(j\)"):
            self.node_with(plan)

    def test_multi_stripe_chain_plan_rejected(self):
        plan = ChainPlan.build("n1", RECEIVERS, stripes=2, order="given")
        with pytest.raises(TypeError, match=r"pass plan\.stripe\(j\)"):
            self.node_with(plan)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError, match="not a str"):
            self.node_with("n1,n2")
