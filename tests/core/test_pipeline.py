"""Tests for node ordering and the chain it builds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (ChainPlan, PipelineError, StripePlan, hostname_sort_key,
                        order_by_hostname)


class TestHostnameOrdering:
    def test_numeric_natural_sort(self):
        hosts = ["node-10", "node-2", "node-1"]
        assert order_by_hostname(hosts) == ["node-1", "node-2", "node-10"]

    def test_cluster_prefix_groups(self):
        hosts = ["parapide-2", "paradent-30", "paradent-4", "parapide-1"]
        assert order_by_hostname(hosts) == [
            "paradent-4", "paradent-30", "parapide-1", "parapide-2",
        ]

    def test_multi_number_names(self):
        hosts = ["r2n10", "r2n9", "r1n20"]
        assert order_by_hostname(hosts) == ["r1n20", "r2n9", "r2n10"]

    def test_sort_key_stable_types(self):
        # Must never raise on mixed text/digit comparisons.
        sorted(["a1", "1a", "a", "1", "a10b2"], key=hostname_sort_key)


class TestChainOrdering:
    """The ordering strategies as :meth:`ChainPlan.build` applies them,
    and the one chain type's own checks (:class:`StripePlan`)."""

    def test_build_default_order(self):
        plan = ChainPlan.build("head", ["n3", "n1", "n2"])
        assert plan.nodes == ("head", "n1", "n2", "n3")

    def test_build_given_order(self):
        plan = ChainPlan.build("head", ["n3", "n1", "n2"], order="given")
        assert plan.receivers == ("n3", "n1", "n2")

    def test_build_random_order_is_permutation(self):
        rng = np.random.default_rng(42)
        plan = ChainPlan.build("head", [f"n{i}" for i in range(20)],
                               order="random", rng=rng)
        assert sorted(plan.receivers) == sorted(f"n{i}" for i in range(20))

    def test_random_requires_rng(self):
        with pytest.raises(PipelineError, match="requires an rng"):
            ChainPlan.build("head", ["a"], order="random")

    def test_unknown_order_rejected(self):
        with pytest.raises(PipelineError, match="unknown ordering strategy"):
            ChainPlan.build("head", ["a"], order="bogus")

    def test_empty_receivers_rejected(self):
        with pytest.raises(PipelineError,
                           match="pipeline needs at least one receiver"):
            ChainPlan.build("h", [])

    def test_duplicates_rejected(self):
        with pytest.raises(PipelineError, match="duplicate nodes"):
            StripePlan(head="h", receivers=("a", "a"))
        with pytest.raises(PipelineError, match="duplicate nodes"):
            StripePlan(head="h", receivers=("h",))
        with pytest.raises(PipelineError, match="duplicate nodes"):
            ChainPlan.build("h", ["a", "a"])

    def test_navigation(self):
        plan = StripePlan(head="n1", receivers=("n2", "n3", "n4"))
        assert plan.chain == ("n1", "n2", "n3", "n4")
        assert plan.index_of("n3") == 2
        assert plan.successors_after("n2") == ("n3", "n4")
        assert plan.successors_after("n4") == ()

    def test_index_of_unknown_node(self):
        plan = StripePlan(head="n1", receivers=("n2",))
        with pytest.raises(PipelineError, match="not in pipeline"):
            plan.index_of("ghost")

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_order_always_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        receivers = [f"node-{i}" for i in range(n)]
        plan = ChainPlan.build("head", receivers, order="random", rng=rng)
        assert sorted(plan.receivers) == sorted(receivers)
