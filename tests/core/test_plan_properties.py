"""Properties of what the shared head re-root leans on (ROADMAP 5(f)).

``Broadcast._reroot`` elects a survivor and rebuilds every host from
``ChainPlan.reroot``; the supervisor re-plans with ``replan_without``
and ships plans as dicts; a striped host trusts ``stripe_extent`` to
carve the stream.  The example tests pin cases; these hold for any
head, receiver set, stripe count and dead subset.
"""

from hypothesis import given, strategies as st

from repro.core.plan import ChainPlan
from repro.core.stripes import stripe_extent


@st.composite
def plans(draw, min_receivers=1):
    """A schedule of 1–4 stripes over up to 8 receivers, each stripe in
    an order of its own (what ``from_orders`` allows, not only rotations)."""
    receivers = draw(st.lists(st.integers(2, 40), min_size=min_receivers,
                              max_size=8, unique=True).map(
        lambda ids: [f"n{i}" for i in ids]))
    orders = [draw(st.permutations(receivers))
              for _ in range(draw(st.integers(1, 4)))]
    return ChainPlan.from_orders("n1", orders)


def subsets(names):
    return (st.lists(st.sampled_from(sorted(names)), unique=True)
            if names else st.just([]))


@given(st.data())
def test_reroot_keeps_order_drops_the_dead_and_leads_every_stripe(data):
    # A chain is a head and at least one receiver, after a re-root too:
    # somebody besides the promoted node has to survive it.
    plan = data.draw(plans(min_receivers=2))
    new_head, spare = data.draw(
        st.permutations(plan.receivers).map(lambda order: order[:2]))
    dead = data.draw(subsets(set(plan.receivers) - {new_head, spare}))
    rerooted = plan.reroot(new_head, dead=dead)

    gone = set(dead) | {plan.head}
    assert rerooted.stripe_count == plan.stripe_count
    assert set(rerooted.nodes) == set(plan.nodes) - gone
    for before, after in zip(plan, rerooted):
        assert after.head == new_head
        assert list(after.receivers) == [
            r for r in before.receivers if r not in gone and r != new_head]


@given(st.data())
def test_replanning_twice_is_replanning_once(data):
    # The head may be among the dead (launch-time head loss re-roots to
    # the most senior survivor), as long as a chain is left: two spares.
    plan = data.draw(plans(min_receivers=2))
    spares = data.draw(
        st.permutations(plan.receivers).map(lambda order: order[:2]))
    mortal = set(plan.nodes) - set(spares)
    first, second = data.draw(subsets(mortal)), data.draw(subsets(mortal))
    assert (plan.replan_without(first).replan_without(second)
            == plan.replan_without(set(first) | set(second)))


@given(plans())
def test_the_wire_form_round_trips(plan):
    assert ChainPlan.from_dict(plan.to_dict()) == plan
    assert ChainPlan.from_json(plan.to_json()) == plan


@given(full=st.integers(0, 64), chunk=st.integers(1, 1 << 16),
       tail=st.integers(0, 1 << 16), k=st.integers(1, 8))
def test_stripe_extents_partition_the_stream(full, chunk, tail, k):
    size = full * chunk + tail % chunk  # ``full`` chunks and a partial one
    assert sum(stripe_extent(size, j, k, chunk) for j in range(k)) == size
    # Round-robin over the global chunk index: chunk i is stripe i % k's,
    # and nobody else's — so each stripe's extent is exactly its chunks.
    chunks = [min(chunk, size - at) for at in range(0, size, chunk)]
    for j in range(k):
        assert stripe_extent(size, j, k, chunk) == sum(chunks[j::k])
