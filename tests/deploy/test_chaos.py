"""Unit tests for a fleet node's own fault gate (with the signal it
sends itself patched), for the crash plans it is given, and for the one
validation of those faults."""

import os
import signal

import pytest

from repro.core.errors import KascadeError
from repro.core.plan import ChainPlan
from repro.deploy import agent
from repro.deploy.agent import SIGNALS
from repro.runtime.host import _stripe_gates
from repro.runtime.result import CrashPlan, check_run


def fault(node, after_bytes=0, mode="close"):
    """A byte-triggered fault, process death by default."""
    return CrashPlan(node, after_bytes, mode)


class TestCrashPlan:
    """What a node fires is a :class:`CrashPlan`, the fault every
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


class Channel:
    """A control channel that records what the agent says, in order."""

    def __init__(self, said):
        self.said = said

    def send(self, msg):
        self.said.append(("send", msg))
        return True


class TestFaultGate:
    """The gate an agent builds from its ``session_start``."""

    def gate(self, monkeypatch, said, **start):
        monkeypatch.setattr(os, "kill", lambda pid, sig: said.append(
            ("kill", pid, sig)))
        state = agent._SessionState("s1", Channel(said), [])
        return agent._fault_gate(state, "n3", start)

    @pytest.mark.parametrize("mode", sorted(SIGNALS))
    def test_it_fires_once_at_the_first_host_byte_past_the_plan(
            self, monkeypatch, mode):
        """Two stripes of one host: the gate hears their sum, fires at
        the first sum of at least ``after_bytes`` — a note, then the
        signal to this very process — and never again."""
        said = []
        gate = self.gate(monkeypatch, said, crash=[40_000, mode])
        stripe = _stripe_gates(gate, 2)
        assert stripe[0](16_384) is None
        assert stripe[1](16_384) is None and said == []
        assert stripe[0](32_768) == mode  # the host holds 49,152 bytes
        assert stripe[1](32_768) == mode
        assert gate(1 << 20) == mode
        assert said == [
            ("send", {"op": "note", "session": "s1", "bytes": 49_152,
                      "mode": mode}),
            ("kill", os.getpid(), SIGNALS[mode]),
        ]

    def test_a_head_notes_each_join_threshold_it_crosses(self, monkeypatch):
        said = []
        gate = self.gate(monkeypatch, said, joins=[0, 50_000, 50_000, 90_000])
        for received in (16_384, 32_768, 65_536, 131_072, 147_456):
            assert gate(received) is None
        assert [msg["bytes"] for _, msg in said] == [16_384, 65_536, 131_072]
        assert all("mode" not in msg for _, msg in said)

    def test_a_node_without_plan_or_joiners_has_no_gate(self, monkeypatch):
        assert self.gate(monkeypatch, []) is None


class TestValidate:
    """Fault targets, judged by :func:`check_run` against the session."""

    PLAN = ChainPlan.from_orders("n1", [["n2", "n3"]])

    def check(self, *faults, **fleet):
        return check_run(self.PLAN, faults, backend="procs",
                         data_plane="threaded", **fleet)

    def test_targets_inside_the_plan_pass(self):
        assert self.check(("n2", 0)) == (fault("n2"),)  # no raise

    def test_two_plans_for_one_node_are_refused(self):
        with pytest.raises(KascadeError,
                           match=r"more than one crash plan for: \['n3'\]"):
            self.check(fault("n3"), fault("n3", after_bytes=5))

    def test_unknown_node_is_the_generic_error(self):
        with pytest.raises(KascadeError, match="unknown nodes.*n9"):
            self.check(fault("n9"))

    def test_fleet_member_outside_the_session_is_its_own_error(self):
        """A warm fleet's case: 'n4' exists in the fleet but not in this
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
