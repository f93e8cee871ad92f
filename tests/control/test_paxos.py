"""The pure Paxos core (`repro.control.paxos`) and the replicated state
machine (`repro.control.state`).

Safety is the whole point of the quorum layer, so the heart of this file
is a seeded adversarial harness: dueling proposers racing for the same
slot over a lossy, majority-sampled network, every interleaving
reproducible from its seed.  The invariant under attack is single-decree
Paxos's one guarantee — once *any* value is decided for a slot, every
later decision for that slot is the same value.
"""

import random

import pytest

from repro.control.paxos import (
    Acceptor,
    Learner,
    Proposal,
    ballot_key,
)
from repro.control.state import ControlState


class TestAcceptor:
    def test_first_prepare_promises(self):
        acc = Acceptor()
        p = acc.on_prepare(0, (1, 7))
        assert p.ok and p.promised == (1, 7)
        assert p.accepted_value is None

    def test_never_promises_backwards(self):
        acc = Acceptor()
        acc.on_prepare(0, (5, 1))
        p = acc.on_prepare(0, (3, 2))
        assert not p.ok
        assert p.promised == (5, 1)  # the floor the loser must exceed

    def test_equal_ballot_re_prepare_is_ok(self):
        # b >= promise, not b > promise: a proposer may retry its own
        # prepare after a lost reply without bumping the round.
        acc = Acceptor()
        acc.on_prepare(0, (2, 1))
        assert acc.on_prepare(0, (2, 1)).ok

    def test_never_accepts_below_the_promise(self):
        acc = Acceptor()
        acc.on_prepare(0, (5, 1))
        a = acc.on_accept(0, (4, 2), {"x": 1})
        assert not a.ok
        assert acc.accepted(0) is None

    def test_accept_records_and_raises_the_promise(self):
        acc = Acceptor()
        acc.on_accept(0, (3, 1), {"x": 1})
        assert acc.accepted(0) == ((3, 1), {"x": 1})
        # The accept raised the promise floor too.
        assert not acc.on_prepare(0, (2, 9)).ok

    def test_promise_carries_the_accepted_pair(self):
        acc = Acceptor()
        acc.on_accept(0, (3, 1), {"x": 1})
        p = acc.on_prepare(0, (9, 2))
        assert p.ok
        assert p.accepted_ballot == (3, 1)
        assert p.accepted_value == {"x": 1}

    def test_slots_are_independent(self):
        acc = Acceptor()
        acc.on_prepare(0, (9, 1))
        assert acc.on_prepare(1, (1, 2)).ok


class TestProposal:
    def test_majority_arithmetic(self):
        assert Proposal(0, (1, 0), {}, 3).quorum == 2
        assert Proposal(0, (1, 0), {}, 5).quorum == 3
        assert Proposal(0, (1, 0), {}, 1).quorum == 1
        with pytest.raises(ValueError):
            Proposal(0, (1, 0), {}, 0)

    def test_adopts_the_highest_ballot_accepted_value(self):
        accs = [Acceptor() for _ in range(3)]
        accs[0].on_accept(0, (1, 1), {"v": "old"})
        accs[1].on_accept(0, (2, 2), {"v": "newer"})
        prop = Proposal(0, (9, 0), {"v": "mine"}, 3)
        for i, acc in enumerate(accs):
            prop.on_promise(i, acc.on_prepare(0, (9, 0)))
        assert prop.promised
        # Not "mine": a promiser had already accepted, highest wins.
        assert prop.value_to_accept() == {"v": "newer"}

    def test_own_value_when_no_promiser_accepted(self):
        accs = [Acceptor() for _ in range(3)]
        prop = Proposal(0, (1, 0), {"v": "mine"}, 3)
        for i, acc in enumerate(accs):
            prop.on_promise(i, acc.on_prepare(0, (1, 0)))
        assert prop.value_to_accept() == {"v": "mine"}

    def test_nacks_surface_the_floor_to_beat(self):
        acc = Acceptor()
        acc.on_prepare(0, (7, 9))
        prop = Proposal(0, (1, 0), {}, 3)
        prop.on_promise(0, acc.on_prepare(0, (1, 0)))
        assert not prop.promised
        assert prop.highest_seen == (7, 9)

    def test_ballots_never_tie(self):
        # (round, proposer_id) lexicographic: distinct proposers always
        # order strictly, so a duel always has a winner.
        assert ballot_key((3, 1)) < ballot_key((3, 2))
        assert ballot_key((3, 2)) < ballot_key((4, 0))
        assert ballot_key(None) < ballot_key((0, 0))


class TestLearner:
    def test_applies_in_slot_order(self):
        applied = []
        learner = Learner(lambda s, v: applied.append((s, v["n"])))
        assert learner.learn(2, {"n": "c"}) == []
        assert learner.learn(0, {"n": "a"}) == [0]
        assert applied == [(0, "a")]
        # Slot 1 closes the gap; 2 was buffered and follows immediately.
        assert learner.learn(1, {"n": "b"}) == [1, 2]
        assert applied == [(0, "a"), (1, "b"), (2, "c")]
        assert learner.applied == 3

    def test_relearn_is_idempotent(self):
        applied = []
        learner = Learner(lambda s, v: applied.append(s))
        learner.learn(0, {"n": 1})
        assert learner.learn(0, {"n": 1}) == []
        assert applied == [0]

    def test_chosen_exposes_the_gap(self):
        learner = Learner(lambda s, v: None)
        learner.learn(3, {"n": "x"})
        assert learner.chosen == {3: {"n": "x"}}


def run_duel(seed: int, *, n_acceptors: int = 3, n_proposers: int = 3,
             attempts: int = 40, delivery: float = 0.7):
    """Dueling proposers racing for slot 0 over a seeded lossy network.

    Each attempt, a random proposer runs a full prepare/accept cycle;
    every message independently gets through with probability
    ``delivery`` — losses starve majorities and interleave the phases,
    which is exactly the regime the adoption rule exists for.  Returns
    the list of decided values, in decision order.
    """
    rng = random.Random(seed)
    accs = [Acceptor() for _ in range(n_acceptors)]
    rounds = [0] * n_proposers
    decided = []
    for _ in range(attempts):
        pid = rng.randrange(n_proposers)
        rounds[pid] += rng.randrange(1, 3)
        ballot = (rounds[pid], pid)
        own = {"kind": "election", "head": f"cand-{pid}"}
        prop = Proposal(0, ballot, own, n_acceptors)
        for i, acc in enumerate(accs):
            if rng.random() < delivery:
                prop.on_promise(i, acc.on_prepare(0, ballot))
        if not prop.promised:
            if prop.highest_seen is not None:
                rounds[pid] = max(rounds[pid], prop.highest_seen[0])
            continue
        value = prop.value_to_accept()
        for i, acc in enumerate(accs):
            if rng.random() < delivery:
                prop.on_accepted(i, acc.on_accept(0, ballot, value))
        if prop.decided:
            decided.append(value)
    return decided


class TestDuelingProposers:
    """The safety sweep: no seed, loss rate, or cluster size may ever
    produce two different decisions for one slot."""

    @pytest.mark.parametrize("seed", range(50))
    def test_decided_slot_is_immutable(self, seed):
        decided = run_duel(seed)
        assert all(v == decided[0] for v in decided), (
            f"seed {seed}: slot decided twice with different values: "
            f"{decided}"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_immutable_under_heavy_loss(self, seed):
        decided = run_duel(seed, delivery=0.45, attempts=120)
        assert all(v == decided[0] for v in decided)

    @pytest.mark.parametrize("seed", range(20))
    def test_immutable_on_five_acceptors(self, seed):
        decided = run_duel(seed, n_acceptors=5, n_proposers=4, attempts=80)
        assert all(v == decided[0] for v in decided)

    def test_progress_under_benign_network(self):
        # Liveness isn't guaranteed under dueling, but a lossless duel
        # with round adoption converges fast — a sanity check that the
        # harness isn't vacuously passing on zero decisions.
        assert run_duel(7, delivery=1.0)

    def test_harness_is_deterministic(self):
        assert run_duel(3) == run_duel(3)


class TestControlState:
    def test_register_and_plan(self):
        st = ControlState()
        st.apply({"kind": "register", "node": "n2", "host": "h", "port": 9,
                  "pid": 12})
        st.apply({"kind": "plan",
                  "plan": {"version": 1, "head": "n1", "stripes": [["n2"]]}})
        assert st.registrations["n2"] == {"host": "h", "port": 9, "pid": 12}
        assert st.head == "n1"

    def test_watermarks_only_rise(self):
        st = ControlState()
        st.apply({"kind": "watermark", "node": "n2", "bytes": 100})
        st.apply({"kind": "watermark", "node": "n2", "bytes": 40})  # stale
        assert st.watermarks["n2"] == 100

    def test_election_overrides_the_plan_head_and_bumps_epoch(self):
        st = ControlState()
        st.apply({"kind": "plan",
                  "plan": {"version": 1, "head": "n1", "stripes": [["n2"]]}})
        st.apply({"kind": "election", "head": "n2", "dead": ["n1"]})
        assert st.head == "n2"
        assert st.dead == ["n1"]
        assert st.epoch == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown control command"):
            ControlState().apply({"kind": "reboot"})

    def test_replicas_applying_the_same_log_agree(self):
        # Application is a pure function of the command sequence — the
        # property that lets any majority reconstruct the coordinator.
        rng = random.Random(11)
        log = [{"kind": "watermark", "node": f"n{rng.randrange(2, 6)}",
                "bytes": rng.randrange(1 << 20)} for _ in range(200)]
        log.append({"kind": "election", "head": "n3", "dead": ["n1"]})
        a, b = ControlState(), ControlState()
        for cmd in log:
            a.apply(cmd)
        for cmd in log:
            b.apply(cmd)
        assert a.snapshot() == b.snapshot()

    def test_snapshot_roundtrip(self):
        st = ControlState()
        st.apply({"kind": "register", "node": "n2", "host": "h", "port": 9})
        st.apply({"kind": "watermark", "node": "n2", "bytes": 7})
        st.apply({"kind": "election", "head": "n2", "dead": ["n1"]})
        restored = ControlState.from_snapshot(st.snapshot())
        assert restored.snapshot() == st.snapshot()
        assert restored.head == "n2"
