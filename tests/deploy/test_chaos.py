"""Unit tests for the real-signal chaos engine (recording handles, and
the fleet's own pidfd handles), and for the one validation of the
faults it is given."""

import os
import signal
import subprocess

import pytest

from repro.core.errors import KascadeError
from repro.core.plan import ChainPlan
from repro.deploy.chaos import SIGNALS, ChaosEngine
from repro.deploy.launcher import ProcessHandle
from repro.runtime.result import CrashPlan, check_run


def fault(node, after_bytes=0, mode="close"):
    """A fault as the engine takes it: byte-triggered, SIGKILL by default."""
    return CrashPlan(node, after_bytes, mode)


class Recorder:
    """A node's handle that notes ``(node, signal)`` instead of sending."""

    def __init__(self, name, sent):
        self.name, self.sent = name, sent

    def send_signal(self, sig):
        self.sent.append((self.name, sig))


def recording(plans, sent, nodes=("n1", "n2", "n3")):
    """An engine over a fleet of :class:`Recorder` handles."""
    handles = {name: Recorder(name, sent) for name in nodes}
    return ChaosEngine(plans, handles.get)


class TestCrashPlan:
    """What the engine fires is a :class:`CrashPlan`, the fault every
    backend takes."""

    def test_defaults(self):
        plan = CrashPlan("n3", 0)
        assert plan.after_bytes == 0 and plan.at_time is None
        assert plan.mode == "close"

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="unknown crash mode"):
            CrashPlan("n3", 0, "term")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="after_bytes"):
            CrashPlan("n3", -1)

    def test_signal_map_is_real(self):
        assert SIGNALS["close"] == signal.SIGKILL
        assert SIGNALS["silent"] == signal.SIGSTOP

    def test_crash_modes_map_onto_signals(self):
        # "close" (process death) -> SIGKILL, "silent" (hang) -> SIGSTOP:
        # every crash mode has its signal, in one map.
        assert set(SIGNALS) == {"close", "silent"}
        for mode in SIGNALS:
            CrashPlan("n3", 0, mode)


class TestChaosEngine:
    def test_fires_once_at_threshold(self):
        sent = []
        engine = recording([fault("n3", after_bytes=100, mode="close")], sent)
        assert engine.on_progress("n3", 50) is None
        assert engine.on_progress("n3", 100) == "close"
        assert engine.on_progress("n3", 200) is None  # once only
        assert sent == [("n3", signal.SIGKILL)]
        assert "n3" in engine.fired

    def test_threshold_is_a_floor_not_exact(self):
        sent = []
        engine = recording([fault("n3", after_bytes=100, mode="silent")],
                           sent)
        assert engine.on_progress("n3", 5000) == "silent"
        assert sent == [("n3", signal.SIGSTOP)]

    def test_untargeted_nodes_untouched(self):
        sent = []
        engine = recording([fault("n3")], sent)
        assert engine.on_progress("n2", 1 << 30) is None
        assert sent == []

    def test_duplicate_plans_rejected(self):
        """The engine keys on the node: two plans for one are refused
        before it is built, by the validation every backend shares."""
        plan = ChainPlan.from_orders("n1", [["n2", "n3"]])
        with pytest.raises(KascadeError,
                           match=r"more than one crash plan for: \['n3'\]"):
            check_run(plan, [fault("n3"), fault("n3", after_bytes=5)],
                      backend="procs", data_plane="threaded")

    def test_dead_pid_still_counts_as_fired(self):
        # The node has no process left to signal (the fleet holds no
        # handle for it); the plan must not crash the coordinator and
        # must still count for ok-accounting.
        engine = ChaosEngine([fault("n3")], lambda name: None)
        assert engine.on_progress("n3", 10) == "close"
        assert "n3" in engine.fired

    def test_targets_span_pending_and_fired(self):
        engine = recording([fault("n2"), fault("n3")], [])
        assert engine.targets() == {"n2", "n3"}
        engine.on_progress("n2", 0)
        assert engine.targets() == {"n2", "n3"}

    def test_a_plan_that_fires_after_its_target_was_reaped_signals_nobody(
            self, monkeypatch):
        """The engine signals through the fleet's pidfd handles, never a
        pid: once a target was reaped its pid may name someone else, and
        a plan firing then sends nothing at all."""
        live, reaped = (subprocess.Popen(["sleep", "60"]) for _ in range(2))
        handles = {name: ProcessHandle(proc.pid, os.pidfd_open(proc.pid))
                   for name, proc in (("n2", live), ("n3", reaped))}
        try:
            reaped.kill()
            handles["n3"].exited(reaped.wait())
            sent = []
            send = signal.pidfd_send_signal
            monkeypatch.setattr(signal, "pidfd_send_signal", lambda fd, sig: (
                sent.append(sig), send(fd, sig)))
            engine = ChaosEngine([fault("n2"), fault("n3")], handles.get)
            assert engine.on_progress("n3", 10) == "close"
            assert sent == [] and "n3" in engine.fired
            # The live target, by contrast, is signalled through its pidfd.
            assert engine.on_progress("n2", 10) == "close"
            assert sent == [signal.SIGKILL]
            assert live.wait(timeout=10) == -signal.SIGKILL
        finally:
            live.kill()
            handles["n2"].exited(live.wait())


class TestExternalTargets:
    """Head plans: a target that never self-reports."""

    def test_external_fires_on_anyones_progress(self):
        sent = []
        engine = recording([fault("n1", after_bytes=100, mode="close")], sent)
        engine.register_external("n1")
        # The head never appears in the feed; a receiver's progress
        # crossing the threshold is what pulls the trigger.
        assert engine.on_progress("n3", 50) is None
        engine.on_progress("n3", 150)
        assert sent == [("n1", signal.SIGKILL)]
        assert "n1" in engine.fired
        # Once only, no matter how much more progress flows.
        engine.on_progress("n2", 1 << 30)
        assert len(sent) == 1

    def test_reporter_and_external_can_fire_on_one_report(self):
        sent = []
        engine = recording(
            [fault("n1", after_bytes=10, mode="close"),
             fault("n2", after_bytes=10, mode="silent")], sent)
        engine.register_external("n1")
        assert engine.on_progress("n2", 64) == "silent"
        assert sorted(sent) == [("n1", signal.SIGKILL),
                                ("n2", signal.SIGSTOP)]

    def test_unregistered_external_never_fires(self):
        sent = []
        engine = recording([fault("n1", after_bytes=0)], sent)
        engine.on_progress("n2", 1 << 20)
        assert sent == []
        assert "n1" not in engine.fired


class TestValidate:
    """Fault targets, judged by :func:`check_run` against the session."""

    PLAN = ChainPlan.from_orders("n1", [["n2", "n3"]])

    def check(self, *faults, **fleet):
        return check_run(self.PLAN, faults, backend="daemon",
                         data_plane="threaded", **fleet)

    def test_targets_inside_the_plan_pass(self):
        assert self.check(("n2", 0)) == (fault("n2"),)  # no raise

    def test_unknown_node_is_the_generic_error(self):
        with pytest.raises(KascadeError, match="unknown nodes.*n9"):
            self.check(fault("n9"))

    def test_fleet_member_outside_the_session_is_its_own_error(self):
        """The daemon's case: 'n4' exists in the fleet but not in this
        session — the error must say so, not claim the node is unknown."""
        with pytest.raises(KascadeError,
                           match="fleet members outside this session.*n4"):
            self.check(fault("n4"), fleet=["n1", "n2", "n3", "n4"])
        # A target truly unknown even to the fleet:
        with pytest.raises(KascadeError, match="unknown nodes"):
            self.check(fault("n9"), fleet=["n1", "n2", "n3"])

    def test_allow_widens_for_opted_in_backends(self):
        """The head is a target only when the run opted in — head
        failover is an opt-in, not a default — and the opt-in widens by
        the head, no further."""
        with pytest.raises(KascadeError, match="allow_head_chaos=True"):
            self.check(fault("n1"))
        self.check(fault("n1"), allow_head_chaos=True)  # no raise
        with pytest.raises(KascadeError, match="n9"):
            self.check(fault("n1"), fault("n9"),
                       allow_head_chaos=True)
