"""Protocol-exact simulation tests: the complete Kascade protocol on the
DES, byte-exact and deterministic.

This tier exists to test the *protocol* harder than real sockets allow:
failures land at exact byte offsets, runs are perfectly reproducible,
and a hypothesis fuzzer can push hundreds of schedules through without
wall-clock timers flaking.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BufferSink,
    HashingSink,
    KascadeConfig,
    PatternSource,
    StreamSource,
)
from repro.protosim import ProtoBroadcast
from repro.runtime import CrashPlan

CFG = KascadeConfig(
    chunk_size=64 * 1024, buffer_chunks=8,
    io_timeout=0.5, ping_timeout=0.3, connect_timeout=1.0,
    report_timeout=10.0, verify_digest=True,
)
SIZE = 2 * 1024 * 1024


def digest_of(size, seed=5):
    src = PatternSource(size, seed=seed)
    return hashlib.sha256(src.expected_bytes(0, size)).hexdigest()


def run(receivers, crashes=(), size=SIZE, config=CFG, seed=5):
    sinks = {}

    def factory(name):
        sinks[name] = HashingSink()
        return sinks[name]

    bc = ProtoBroadcast(
        PatternSource(size, seed=seed), receivers,
        sink_factory=factory, config=config, crashes=crashes,
    )
    return bc.run(), sinks


class TestHappyPath:
    def test_byte_exact_delivery(self):
        result, sinks = run(["n2", "n3", "n4", "n5"])
        assert result.ok
        want = digest_of(SIZE)
        assert all(s.hexdigest() == want for s in sinks.values())
        assert result.report.source_digest is not None
        assert not result.report.failures

    def test_deterministic(self):
        a, _ = run(["n2", "n3", "n4"])
        b, _ = run(["n2", "n3", "n4"])
        assert a.sim_time == b.sim_time
        assert a.total_bytes == b.total_bytes

    def test_pipeline_timing_scales_like_a_pipeline(self):
        """Adding nodes must cost fill time, not serialization."""
        t2, _ = run(["n2", "n3"])
        t8, _ = run([f"n{i}" for i in range(2, 10)])
        assert t8.sim_time < t2.sim_time * 2

    def test_empty_stream(self):
        result, _ = run(["n2", "n3"], size=0)
        assert result.ok
        assert result.total_bytes == 0

    def test_single_chunk(self):
        result, sinks = run(["n2"], size=1000)
        assert result.ok
        assert sinks["n2"].bytes_written == 1000


class TestCrashRecovery:
    def test_hard_crash_detected_instantly(self):
        # A reset connection needs no timeout: recovery is sub-second.
        result, sinks = run(
            ["n2", "n3", "n4"],
            crashes=(CrashPlan("n3", after_bytes=SIZE // 3),),
        )
        assert result.ok
        assert result.report.failed_nodes == ["n3"]
        want = digest_of(SIZE)
        assert sinks["n2"].hexdigest() == want
        assert sinks["n4"].hexdigest() == want

    def test_silent_crash_costs_a_detection_timeout(self):
        clean, _ = run(["n2", "n3", "n4"])
        silent, sinks = run(
            ["n2", "n3", "n4"],
            crashes=(CrashPlan("n3", after_bytes=SIZE // 3,
                                mode="silent"),),
        )
        assert silent.ok
        assert sinks["n4"].hexdigest() == digest_of(SIZE)
        # Roughly io_timeout + ping_timeout more than the clean run.
        extra = silent.sim_time - clean.sim_time
        assert 0.4 < extra < 3.0

    def test_crash_at_exact_first_byte(self):
        result, sinks = run(
            ["n2", "n3", "n4"],
            crashes=(CrashPlan("n2", after_bytes=CFG.chunk_size),),
        )
        assert result.ok
        assert result.report.failed_nodes == ["n2"]
        assert sinks["n3"].hexdigest() == digest_of(SIZE)

    def test_tail_crash(self):
        result, sinks = run(
            ["n2", "n3", "n4"],
            crashes=(CrashPlan("n4", after_bytes=SIZE // 2),),
        )
        assert result.ok
        assert result.report.failed_nodes == ["n4"]
        assert sinks["n3"].hexdigest() == digest_of(SIZE)

    def test_adjacent_crashes(self):
        result, sinks = run(
            [f"n{i}" for i in range(2, 8)],
            crashes=(CrashPlan("n4", after_bytes=SIZE // 4),
                     CrashPlan("n5", after_bytes=SIZE // 4)),
        )
        assert result.ok
        assert set(result.report.failed_nodes) == {"n4", "n5"}
        want = digest_of(SIZE)
        for name in ("n2", "n3", "n6", "n7"):
            assert result.node_ok[name], result.node_errors[name]

    def test_deep_recovery_via_pget(self):
        """Tiny buffer: the replacement must fetch the hole from the
        head and still end byte-exact."""
        config = CFG.with_(buffer_chunks=1)
        result, sinks = run(
            ["n2", "n3", "n4"], config=config,
            crashes=(CrashPlan("n3", after_bytes=SIZE // 2,
                                mode="silent"),),
        )
        assert result.ok, result.node_errors
        assert sinks["n4"].hexdigest() == digest_of(SIZE)


class TestStreamSourceAbort:
    def test_forget_aborts_suffix_cleanly(self):
        import io
        data = bytes((i * 7) % 256 for i in range(SIZE))
        config = CFG.with_(buffer_chunks=1, verify_digest=False,
                           io_timeout=2.0)
        sinks = {}

        def factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        bc = ProtoBroadcast(
            StreamSource(io.BytesIO(data)), ["n2", "n3", "n4"],
            sink_factory=factory, config=config,
            crashes=(CrashPlan("n3", after_bytes=SIZE // 2,
                                mode="silent"),),
        )
        result = bc.run()
        # n2 (before the failure) must finish byte-exact.
        assert result.node_ok["n2"], result.node_errors["n2"]
        assert sinks["n2"].getvalue() == data
        # n4 either recovered fully or aborted — never wrong bytes.
        if result.node_ok["n4"]:
            assert sinks["n4"].getvalue() == data
        else:
            assert data.startswith(sinks["n4"].getvalue()[:0] or b"")


class TestFuzz:
    @given(
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_schedules_byte_exact(self, n, data):
        receivers = [f"n{i}" for i in range(2, n + 2)]
        n_crashes = data.draw(st.integers(min_value=0,
                                          max_value=min(3, n - 1)))
        victims = data.draw(st.lists(
            st.sampled_from(receivers), min_size=n_crashes,
            max_size=n_crashes, unique=True,
        ))
        crashes = tuple(
            CrashPlan(
                v,
                after_bytes=data.draw(
                    st.integers(min_value=1, max_value=SIZE)),
                mode=data.draw(st.sampled_from(["close", "silent"])),
            )
            for v in victims
        )
        result, sinks = run(receivers, crashes=crashes)
        survivors = [r for r in receivers if r not in victims]
        assert result.ok, (victims, result.node_errors)
        want = digest_of(SIZE)
        for name in survivors:
            assert sinks[name].hexdigest() == want, (name, victims)
        assert set(result.report.failed_nodes) == set(victims)

    def test_a_neighbour_that_finished_during_the_ping_is_not_dead(self):
        """A draw of the test above: n3's read of PASSED times out just
        as n4 sends it and stops listening, so n3's ping is refused
        while PASSED is still on the wire.  A refused ping defers to the
        data connection, which delivers it: n4..n6 are not failures."""
        crashes = (CrashPlan("n7", after_bytes=1, mode="silent"),
                   CrashPlan("n8", after_bytes=1, mode="close"),
                   CrashPlan("n2", after_bytes=1, mode="close"))
        result, _ = run([f"n{i}" for i in range(2, 9)], crashes=crashes)
        assert result.ok
        assert sorted(result.report.failed_nodes) == ["n2", "n7", "n8"]


class TestTierEquivalence:
    def test_same_scenario_as_real_runtime(self):
        """The protocol sim and the real TCP runtime agree on a fixed
        failure scenario — who fails, who completes, every byte and
        every milestone: one row of the driver-conformance table
        (``tests/test_driver_conformance.py``), where the other
        scenarios of this file are held to the same."""
        from tests.test_driver_conformance import SCENARIOS, check

        stories = check(SCENARIOS["mid_chain_close_crash"])
        for story in stories.values():
            assert story.failures == [("n4", "n3")]
            assert story.milestones["n3"][0] == "failover"
            assert story.milestones["n3"][-1] == "done"


class TestTimeBasedCrashes:
    def test_at_time_kill(self):
        clean, _ = run(["n2", "n3", "n4"])
        result, sinks = run(
            ["n2", "n3", "n4"],
            crashes=(CrashPlan("n3", at_time=clean.sim_time / 2),),
        )
        assert result.ok
        assert result.report.failed_nodes == ["n3"]
        assert sinks["n4"].hexdigest() == digest_of(SIZE)

    def test_at_time_after_completion_is_noop(self):
        clean, _ = run(["n2", "n3"])
        result, _ = run(
            ["n2", "n3"],
            crashes=(CrashPlan("n3", at_time=clean.sim_time + 5.0),),
        )
        # The node was already done: nothing fails, nothing hangs.
        assert result.node_ok["n2"]
        assert not result.report.failed_nodes

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashPlan("n2")
        with pytest.raises(ValueError):
            CrashPlan("n2", after_bytes=1, at_time=1.0)
        with pytest.raises(ValueError):
            CrashPlan("n2", after_bytes=1, mode="explode")
