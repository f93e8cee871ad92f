"""Integration tests: the persistent-fleet daemon backend.

Everything here runs one real ``kascade agent --fleet`` process per
node.  The fleet fixture is module-scoped on purpose: amortising the
windowed launch over many sessions *is the feature under test*, so the
tests exercise the server exactly the way a long-lived deployment would
— many sessions, one fleet.  Tests that kill fleet members (chaos,
shutdown accounting) build their own throwaway fleets.
"""

import hashlib
import os
import threading

import pytest

from repro import run_broadcast
from repro.core import KascadeConfig, KascadeError
from repro.core.sources import FileSource
from repro.core.sinks import HashingSink
from repro.core.sources import BytesSource
from repro.daemon import DaemonServer, LateJoin
from repro.runtime import CrashPlan

FAST = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=0.5,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=6.0,
    cache_bytes=64 << 20,
)

FLEET_OPTS = dict(config=FAST, startup_timeout=20.0,
                  progress_every=64 * 1024)


def make_payload(seed: int, size: int = 1 << 20) -> bytes:
    return bytes((i * seed) % 256 for i in range(size))


def spool(tmp_path, name: str, payload: bytes) -> str:
    path = str(tmp_path / name)
    with open(path, "wb") as handle:
        handle.write(payload)
    return path


@pytest.fixture(scope="module")
def fleet():
    with DaemonServer(["n1", "n2", "n3", "n4"], **FLEET_OPTS) as server:
        yield server


class TestWarmFleet:
    def test_concurrent_sessions_digest_parity_with_local(self, fleet,
                                                          tmp_path):
        """Two overlapping sessions on one fleet, each byte-identical to
        the same payload broadcast on the thread backend."""
        payloads = {"a": make_payload(13), "b": make_payload(29)}
        paths = {k: spool(tmp_path, f"{k}.bin", v)
                 for k, v in payloads.items()}
        results = {}

        def run(key):
            results[key] = fleet.submit(FileSource(paths[key]),
                                        ["n2", "n3"], timeout=60.0)

        threads = [threading.Thread(target=run, args=(k,)) for k in paths]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert set(results) == {"a", "b"}

        for key, payload in payloads.items():
            local_sinks = {}

            def factory(name):
                local_sinks[name] = HashingSink()
                return local_sinks[name]

            local = run_broadcast(BytesSource(payload), ["n2", "n3"],
                                  config=FAST, sink_factory=factory,
                                  timeout=60.0)
            daemon = results[key]
            assert local.ok and daemon.ok
            expected = hashlib.sha256(payload).hexdigest()
            assert {s.hexdigest() for s in local_sinks.values()} == {expected}
            assert {daemon.outcomes[n].digest
                    for n in ("n2", "n3")} == {expected}
            assert daemon.backend == "daemon"
            # The fleet launch happened before either session existed.
            assert daemon.launch is None
        # Both sessions were genuinely concurrent on the one fleet.
        assert max(r.perfstats["sessions_active"]
                   for r in results.values()) >= 2

    def test_repeat_broadcast_served_from_cache(self, fleet, tmp_path):
        """A second submit of the same artifact never touches upstream:
        every receiver replays its cache, digest-identical to the cold
        run, with >= 90% of delivered bytes accounted to the cache."""
        payload = make_payload(41)
        path = spool(tmp_path, "repeat.bin", payload)
        cold = fleet.submit(FileSource(path), ["n2", "n3"], timeout=60.0)
        warm = fleet.submit(FileSource(path), ["n2", "n3"], timeout=60.0)
        assert cold.ok and warm.ok
        expected = hashlib.sha256(payload).hexdigest()
        for result in (cold, warm):
            assert {result.outcomes[n].digest
                    for n in ("n2", "n3")} == {expected}
        # Zero upstream bytes on the warm run: no receiver saw the wire.
        assert all(warm.outcomes[n].bytes_received == 0
                   for n in ("n2", "n3"))
        delivered = 2 * len(payload)
        assert warm.perfstats["bytes_from_cache"] >= 0.9 * delivered
        assert cold.perfstats.get("bytes_from_cache", 0) == 0
        # Launch amortisation: recorded, and shrinking as sessions land.
        assert 0 < warm.perfstats["launch_amortized_s"] \
            <= cold.perfstats["launch_amortized_s"]

    def test_cache_hit_share_is_zero_fresh_and_one_repeated(self, fleet,
                                                           tmp_path):
        """A fresh submit takes every chunk from the wire — one miss per
        chunk per receiver, though no receiver asked its cache — and
        its repeat takes every chunk from the cache."""
        payload = make_payload(43)
        path = spool(tmp_path, "share.bin", payload)
        lookups = 2 * len(payload) // FAST.chunk_size  # two receivers
        counts = []
        for _ in range(2):
            stats = fleet.submit(FileSource(path), ["n2", "n3"],
                                 timeout=60.0).perfstats
            counts.append((stats.get("cache_hits", 0),
                           stats.get("cache_misses", 0)))
        assert counts == [(0, lookups), (lookups, 0)]

    def test_late_joiner_converges_on_a_chain_of_its_own(self, tmp_path):
        """A node let in mid-session gets a chain of its own from the
        head and ends with the full digest-verified copy, while the push
        chain completes undisturbed; the join session it runs in is not
        one more session of the fleet."""
        payload = make_payload(17, size=1 << 20)
        path = spool(tmp_path, "late.bin", payload)
        # Pace the push so the join triggers mid-stream.
        paced = FAST.with_(bandwidth_limit=4 * (1 << 20))
        with DaemonServer(["n1", "n2", "n3"], config=paced,
                          startup_timeout=20.0,
                          progress_every=64 * 1024) as server:
            result = server.submit(
                FileSource(path), ["n2"],
                late_join=[LateJoin("n3", after_bytes=256 * 1024)],
                trace=True, timeout=60.0)
        assert result.ok
        expected = hashlib.sha256(payload).hexdigest()
        assert result.outcomes["n2"].digest == expected  # push undisturbed
        assert result.outcomes["n3"].digest == expected  # join converged
        assert result.outcomes["n3"].bytes_received == len(payload)
        assert result.trace is not None
        sessions = [e for e in result.trace.events() if e.type == "session"]
        assert any("late join n3" in (e.detail or "") for e in sessions)
        assert any((e.detail or "").endswith("chain n1 → n3")
                   for e in sessions), "the joiner's chain is n1 → n3"
        assert server.sessions_completed == 1
        assert result.perfstats["launch_amortized_s"] == \
            server.launch_report.total_s

    def test_default_receivers_leave_the_joiner_out(self, fleet, tmp_path):
        """With no ``receivers`` the session is the fleet minus the head
        *and* the joiners; a joiner that holds the payload is then
        served from its cache like any warm receiver."""
        payload = make_payload(29, size=256 * 1024)
        path = spool(tmp_path, "default.bin", payload)
        expected = hashlib.sha256(payload).hexdigest()
        cold, warm = (fleet.submit(FileSource(path),
                                   late_join=[LateJoin("n4")], timeout=60.0)
                      for _ in range(2))
        for result in (cold, warm):
            assert result.ok
            assert {n: o.digest for n, o in result.outcomes.items()
                    if n != "n1"} == dict.fromkeys(("n2", "n3", "n4"),
                                                   expected)
        assert cold.plan.receivers == ("n2", "n3")
        assert cold.perfstats["bytes_from_cache"] == 0
        assert warm.perfstats["bytes_from_cache"] == 3 * len(payload)


class TestChaos:
    def test_killing_the_joiner_mid_join_fails_only_the_joiner(self,
                                                               tmp_path):
        """Chaos targets a session participant, not the fleet: the
        joiner dies on its join chain, the push chain still completes, and
        the planned death is excused in the ok accounting."""
        payload = make_payload(23, size=1 << 20)
        path = spool(tmp_path, "chaos.bin", payload)
        paced = FAST.with_(bandwidth_limit=4 * (1 << 20))
        with DaemonServer(["n1", "n2", "n3"], config=paced,
                          startup_timeout=20.0,
                          progress_every=64 * 1024) as server:
            result = server.submit(
                FileSource(path), ["n2"],
                late_join=[LateJoin("n3", after_bytes=128 * 1024)],
                crashes=[CrashPlan("n3", 256 * 1024)],
                timeout=60.0)
        expected = hashlib.sha256(payload).hexdigest()
        assert result.ok  # the death was planned, so it is excused
        assert result.outcomes["n2"].ok
        assert result.outcomes["n2"].digest == expected
        assert not result.outcomes["n3"].ok
        assert result.outcomes["n3"].crashed

    def test_chaos_target_outside_the_session_is_a_clear_error(self,
                                                               fleet,
                                                               tmp_path):
        """Naming a real fleet member that is not in this session's plan
        is its own error — distinct from naming an unknown node."""
        path = spool(tmp_path, "victim.bin", make_payload(7, size=4096))
        with pytest.raises(KascadeError,
                           match="fleet members outside this session"):
            fleet.submit(FileSource(path), ["n2"],
                         crashes=[CrashPlan("n4", 0)],
                         timeout=30.0)
        with pytest.raises(KascadeError, match="unknown nodes"):
            fleet.submit(FileSource(path), ["n2"],
                         crashes=[CrashPlan("n9", 0)],
                         timeout=30.0)


class TestLifecycle:
    def test_graceful_shutdown_exits_zero(self, tmp_path):
        """A clean serve/submit/shutdown drains agents with quit: every
        fleet process exits 0 — SIGKILL is the abort path, not the
        happy path."""
        path = spool(tmp_path, "clean.bin", make_payload(11, size=256 * 1024))
        server = DaemonServer(["n1", "n2"], **FLEET_OPTS)
        server.start()
        procs = dict(server._procs)
        result = server.submit(FileSource(path), ["n2"], timeout=60.0)
        assert result.ok
        server.shutdown()
        assert procs, "fleet launched no processes?"
        assert {name: proc.returncode for name, proc in procs.items()} == \
            {name: 0 for name in procs}

    def test_run_broadcast_daemon_backend(self, tmp_path):
        """The blessed facade reaches the daemon like any other backend
        (ephemeral fleet for one session)."""
        payload = make_payload(31, size=256 * 1024)
        path = spool(tmp_path, "facade.bin", payload)
        out = str(tmp_path / "out-{node}.bin")
        result = run_broadcast(
            FileSource(path), ["n2", "n3"],
            backend="daemon", config=FAST, timeout=60.0,
            startup_timeout=20.0, output_template=out,
        )
        assert result.ok and result.backend == "daemon"
        for node in ("n2", "n3"):
            with open(str(tmp_path / f"out-{node}.bin"), "rb") as handle:
                assert handle.read() == payload

    def test_a_session_name_is_taken_before_its_source_is_spooled(
            self, fleet):
        """The name is checked and taken under one lock, before the
        source is spooled or hashed: a second submit under the same name
        that arrives meanwhile is refused — it must not take over the
        first session's record (acks, statuses, its clean-up)."""
        release, reading = threading.Event(), threading.Event()
        payload = make_payload(41, size=64 * 1024)

        class Held(BytesSource):
            """Spools only once the test says so."""

            def read_chunk(self, size):
                reading.set()
                release.wait(30.0)
                return super().read_chunk(size)

        first = {}
        submitter = threading.Thread(target=lambda: first.update(
            result=fleet.submit(Held(payload), ["n2"], session="x",
                                timeout=60.0)))
        submitter.start()
        try:
            assert reading.wait(30.0)
            with pytest.raises(KascadeError, match="already running"):
                fleet.submit(BytesSource(payload), ["n3"], session="x",
                             timeout=60.0)
        finally:
            release.set()
            submitter.join(timeout=90.0)
        assert first["result"].ok
        assert first["result"].outcomes["n2"].digest == \
            hashlib.sha256(payload).hexdigest()

    def test_submitting_into_a_warm_server(self, fleet, tmp_path):
        """run_broadcast(server=...) rides an existing fleet — the
        session-multiplexing form of the facade."""
        payload = make_payload(37, size=256 * 1024)
        path = spool(tmp_path, "warm.bin", payload)
        result = run_broadcast(FileSource(path), ["n2", "n4"],
                               backend="daemon", config=FAST,
                               timeout=60.0, server=fleet)
        assert result.ok
        expected = hashlib.sha256(payload).hexdigest()
        assert {result.outcomes[n].digest for n in ("n2", "n4")} == {expected}
