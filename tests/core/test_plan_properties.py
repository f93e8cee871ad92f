"""Properties of what the shared head re-root leans on (ROADMAP 5(f)).

Every driver elects with ``ChainPlan.elect`` — ``Broadcast._reroot`` on
threads and on the DES, ``DaemonServer._orchestrate_failover`` for a
fleet — and rebuilds its hosts on the plan ``ChainPlan.reroot`` gives
back; the supervisor re-plans with ``replan_without`` and ships plans as
dicts; a striped host trusts ``stripe_extent`` to carve the stream.  The
example tests pin cases; these hold for any head, receiver set, stripe
count, dead subset and set of offsets.
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
    # A lone survivor is a legal re-root: it heads a chain of its own.
    plan = data.draw(plans())
    new_head = data.draw(st.sampled_from(plan.receivers))
    dead = data.draw(subsets(set(plan.receivers) - {new_head}))
    rerooted = plan.reroot(new_head, dead=dead)

    gone = set(dead) | {plan.head}
    assert rerooted.stripe_count == plan.stripe_count
    assert set(rerooted.nodes) == set(plan.nodes) - gone
    for before, after in zip(plan, rerooted):
        assert after.head == new_head
        assert list(after.receivers) == [
            r for r in before.receivers if r not in gone and r != new_head]


@given(st.data())
def test_elect_promotes_the_highest_offset_nearest_the_old_head(data):
    """The one election rule: the winner holds the highest offset, no
    receiver nearer the old head (stripe-0 order) ties it, the mapping's
    order is irrelevant, and a receiver without an offset — dead — is
    not in the re-rooted plan."""
    plan = data.draw(plans())
    alive = data.draw(st.lists(st.sampled_from(plan.receivers), min_size=1,
                               unique=True))
    # Few distinct values, so ties are common.
    marks = data.draw(st.lists(st.integers(0, 3), min_size=len(alive),
                               max_size=len(alive)))
    offsets = dict(zip(alive, marks))
    rerooted, promoted, watermark = plan.elect(offsets)

    assert watermark == offsets[promoted] == max(marks)
    nearer = plan.receivers[:plan.receivers.index(promoted)]
    assert all(offsets.get(r, -1) < watermark for r in nearer)
    shuffled = dict(data.draw(st.permutations(list(offsets.items()))))
    assert plan.elect(shuffled) == (rerooted, promoted, watermark)
    assert rerooted.head == promoted
    assert set(rerooted.nodes) == set(offsets)


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
