"""Unit tests for the real-signal chaos engine (injected kill_fn)."""

import signal

import pytest

from repro.core.errors import KascadeError
from repro.deploy.chaos import MODE_TO_SIGNAL, SIGNALS, ChaosEngine, ChaosPlan


class TestChaosPlan:
    def test_defaults(self):
        plan = ChaosPlan("n3")
        assert plan.after_bytes == 0
        assert plan.sig == "kill"

    def test_unknown_signal_rejected(self):
        with pytest.raises(KascadeError, match="unknown chaos signal"):
            ChaosPlan("n3", sig="term")

    def test_negative_threshold_rejected(self):
        with pytest.raises(KascadeError, match="after_bytes"):
            ChaosPlan("n3", after_bytes=-1)

    def test_signal_map_is_real(self):
        assert SIGNALS["kill"] == signal.SIGKILL
        assert SIGNALS["stop"] == signal.SIGSTOP

    def test_crash_modes_map_onto_signals(self):
        # "close" (process death) -> SIGKILL, "silent" (hang) -> SIGSTOP:
        # the thread runtime's crash vocabulary carries over 1:1.
        assert MODE_TO_SIGNAL == {"close": "kill", "silent": "stop"}
        assert set(MODE_TO_SIGNAL.values()) <= set(SIGNALS)


class TestChaosEngine:
    def test_fires_once_at_threshold(self):
        sent = []
        engine = ChaosEngine([ChaosPlan("n3", after_bytes=100, sig="kill")],
                             kill_fn=lambda pid, sig: sent.append((pid, sig)))
        assert engine.on_progress("n3", 50, pid=42) is None
        assert engine.on_progress("n3", 100, pid=42) == "kill"
        assert engine.on_progress("n3", 200, pid=42) is None  # once only
        assert sent == [(42, signal.SIGKILL)]
        assert "n3" in engine.fired

    def test_threshold_is_a_floor_not_exact(self):
        sent = []
        engine = ChaosEngine([ChaosPlan("n3", after_bytes=100, sig="stop")],
                             kill_fn=lambda pid, sig: sent.append(sig))
        assert engine.on_progress("n3", 5000, pid=1) == "stop"
        assert sent == [signal.SIGSTOP]

    def test_untargeted_nodes_untouched(self):
        sent = []
        engine = ChaosEngine([ChaosPlan("n3")],
                             kill_fn=lambda pid, sig: sent.append(sig))
        assert engine.on_progress("n2", 1 << 30, pid=1) is None
        assert sent == []

    def test_duplicate_plans_rejected(self):
        with pytest.raises(KascadeError, match="multiple chaos plans"):
            ChaosEngine([ChaosPlan("n3"), ChaosPlan("n3", after_bytes=5)])

    def test_dead_pid_still_counts_as_fired(self):
        def kill_dead(pid, sig):
            raise ProcessLookupError(pid)

        engine = ChaosEngine([ChaosPlan("n3")], kill_fn=kill_dead)
        # The node died on its own first; the plan must not crash the
        # coordinator and must still count for ok-accounting.
        assert engine.on_progress("n3", 10, pid=99999) == "kill"
        assert "n3" in engine.fired

    def test_targets_span_pending_and_fired(self):
        engine = ChaosEngine([ChaosPlan("n2"), ChaosPlan("n3")],
                             kill_fn=lambda pid, sig: None)
        assert engine.targets() == {"n2", "n3"}
        engine.on_progress("n2", 0, pid=1)
        assert engine.targets() == {"n2", "n3"}


class TestExternalTargets:
    """Head plans: a target that never self-reports."""

    def test_external_fires_on_anyones_progress(self):
        sent = []
        engine = ChaosEngine([ChaosPlan("n1", after_bytes=100, sig="kill")],
                             kill_fn=lambda pid, sig: sent.append((pid, sig)))
        engine.register_external("n1", 4242)
        # The head never appears in the feed; a receiver's progress
        # crossing the threshold is what pulls the trigger.
        assert engine.on_progress("n3", 50, pid=7) is None
        engine.on_progress("n3", 150, pid=7)
        assert sent == [(4242, signal.SIGKILL)]
        assert "n1" in engine.fired
        # Once only, no matter how much more progress flows.
        engine.on_progress("n2", 1 << 30, pid=8)
        assert len(sent) == 1

    def test_reporter_and_external_can_fire_on_one_report(self):
        sent = []
        engine = ChaosEngine(
            [ChaosPlan("n1", after_bytes=10, sig="kill"),
             ChaosPlan("n2", after_bytes=10, sig="stop")],
            kill_fn=lambda pid, sig: sent.append((pid, sig)))
        engine.register_external("n1", 9000)
        assert engine.on_progress("n2", 64, pid=70) == "stop"
        assert sorted(sent) == [(70, signal.SIGSTOP), (9000, signal.SIGKILL)]

    def test_unregistered_external_never_fires(self):
        sent = []
        engine = ChaosEngine([ChaosPlan("n1", after_bytes=0)],
                             kill_fn=lambda pid, sig: sent.append(sig))
        engine.on_progress("n2", 1 << 20, pid=1)
        assert sent == []
        assert "n1" not in engine.fired


class TestValidate:
    def test_targets_inside_the_plan_pass(self):
        engine = ChaosEngine([ChaosPlan("n2")], kill_fn=lambda p, s: None)
        engine.validate(["n2", "n3"])  # no raise

    def test_unknown_node_is_the_generic_error(self):
        engine = ChaosEngine([ChaosPlan("n9")], kill_fn=lambda p, s: None)
        with pytest.raises(KascadeError, match="unknown nodes.*n9"):
            engine.validate(["n2", "n3"])

    def test_fleet_member_outside_the_session_is_its_own_error(self):
        """The daemon's case: 'n4' exists in the fleet but not in this
        session — the error must say so, not claim the node is unknown."""
        engine = ChaosEngine([ChaosPlan("n4")], kill_fn=lambda p, s: None)
        with pytest.raises(KascadeError,
                           match="fleet members outside this session.*n4"):
            engine.validate(["n2", "n3"], known=["n1", "n2", "n3", "n4"],
                            what="session")
        # Same engine, target truly unknown even to the fleet:
        stranger = ChaosEngine([ChaosPlan("n9")], kill_fn=lambda p, s: None)
        with pytest.raises(KascadeError, match="unknown nodes"):
            stranger.validate(["n2"], known=["n1", "n2"], what="session")

    def test_allow_widens_for_opted_in_backends(self):
        """The head is killable only when the backend passes it in
        ``allow`` — head failover is an opt-in, not a default."""
        engine = ChaosEngine([ChaosPlan("n1")], kill_fn=lambda p, s: None)
        with pytest.raises(KascadeError, match="unknown nodes"):
            engine.validate(["n2", "n3"])
        engine.validate(["n2", "n3"], allow=["n1"])  # no raise
        # An allow widens by the names it lists, and no further.
        both = ChaosEngine([ChaosPlan("n1"), ChaosPlan("n9")],
                           kill_fn=lambda p, s: None)
        with pytest.raises(KascadeError, match="n9"):
            both.validate(["n2", "n3"], allow=["n1"])
