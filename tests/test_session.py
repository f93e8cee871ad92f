"""Tests for the unified session API (repro.session) — one facade, two
backends, one result-and-trace shape."""


import pytest

import repro
from repro import BroadcastSession, run_broadcast
from repro.core import BytesSource, KascadeConfig, KascadeError
from repro.core.tracing import NULL_TRACER, TraceCollector
from repro.runtime import CrashPlan
from repro.session import BACKENDS, _resolve_trace

FAST = KascadeConfig(
    chunk_size=4096,
    buffer_chunks=4,
    io_timeout=0.25,
    ping_timeout=0.2,
    connect_timeout=0.5,
    report_timeout=6.0,
)

PAYLOAD = bytes((i * 7) % 256 for i in range(64 * 1024))


class TestResolveTrace:
    def test_none_and_false_disable(self):
        assert _resolve_trace(None) == (NULL_TRACER, None)
        assert _resolve_trace(False) == (NULL_TRACER, None)

    def test_true_makes_a_collector(self):
        tracer, path = _resolve_trace(True)
        assert isinstance(tracer, TraceCollector)
        assert path is None

    def test_collector_passes_through(self):
        tc = TraceCollector()
        assert _resolve_trace(tc) == (tc, None)

    def test_path_enables_and_remembers(self, tmp_path):
        tracer, path = _resolve_trace(tmp_path / "t.jsonl")
        assert isinstance(tracer, TraceCollector)
        assert path == str(tmp_path / "t.jsonl")

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            _resolve_trace(42)


class TestFacadeShape:
    def test_unknown_backend_rejected(self):
        with pytest.raises(KascadeError, match="unknown backend"):
            BroadcastSession(BytesSource(b"x"), ["n2"], backend="fluid")

    def test_three_backends(self):
        """A fleet is one backend, ``procs``, launched for the run or
        given as ``server=``: ``daemon`` names none."""
        assert BACKENDS == ("local", "procs", "simnet")
        with pytest.raises(KascadeError, match="unknown backend 'daemon'"):
            BroadcastSession(BytesSource(b"x"), ["n2"], backend="daemon")

    def test_local_rejects_simnet_options(self):
        with pytest.raises(KascadeError, match="no extra options"):
            run_broadcast(BytesSource(PAYLOAD), ["n2"], config=FAST,
                          bandwidth=1e9)

    def test_simnet_rejects_unknown_options(self):
        with pytest.raises(KascadeError, match="unknown simnet options"):
            run_broadcast(BytesSource(PAYLOAD), ["n2"], backend="simnet",
                          config=FAST, jitter=0.1)

    def test_blessed_names_are_exported(self):
        for name in ("run_broadcast", "BroadcastSession", "BroadcastResult",
                     "CrashPlan", "TraceCollector", "TraceEvent"):
            assert name in repro.__all__
            assert hasattr(repro, name)


class TestBothBackends:
    @pytest.mark.parametrize("backend", ["local", "simnet"])
    def test_clean_run_same_shape(self, backend):
        result = run_broadcast(BytesSource(PAYLOAD), ["n2", "n3"],
                               backend=backend, config=FAST, trace=True,
                               timeout=60.0)
        assert result.ok
        assert result.backend == backend
        assert result.total_bytes == len(PAYLOAD)
        assert set(result.outcomes) == {"n1", "n2", "n3"}
        assert all(o.ok for o in result.outcomes.values())
        assert result.report is not None and not result.report.failures
        assert isinstance(result.trace, TraceCollector)
        # DONE flows tail -> head in both backends (PASSED wave order).
        assert result.trace.milestones() == [
            ("done", "n3"), ("done", "n2"), ("done", "n1")]

    @pytest.mark.parametrize("backend", ["local", "simnet"])
    def test_trace_disabled_by_default(self, backend):
        result = run_broadcast(BytesSource(PAYLOAD), ["n2"],
                               backend=backend, config=FAST, timeout=60.0)
        assert result.ok
        assert result.trace is None

    def test_trace_path_writes_jsonl(self, tmp_path):
        out = tmp_path / "run.jsonl"
        result = run_broadcast(BytesSource(PAYLOAD), ["n2"], config=FAST,
                               trace=out, timeout=60.0)
        assert result.ok
        events = TraceCollector.from_jsonl(out.read_text())
        # Serialization rounds timestamps; compare the JSON projections.
        assert [e.to_dict() for e in events] == \
            [e.to_dict() for e in TraceCollector.from_jsonl(
                result.trace.to_jsonl())]
        assert len(events) == len(result.trace)
        assert any(e.type == "done" and e.node == "n2" for e in events)

    def test_perfstats_match_the_backend(self):
        """Local runs surface I/O counters; simnet runs surface the
        simulation kernel's own counters instead."""
        local = run_broadcast(BytesSource(PAYLOAD), ["n2"], config=FAST,
                              timeout=60.0)
        sim = run_broadcast(BytesSource(PAYLOAD), ["n2"], backend="simnet",
                            config=FAST)
        assert local.perfstats.get("bytes_sent", 0) >= len(PAYLOAD)
        assert sim.perfstats["sim_events_processed"] > 0
        assert sim.perfstats["sim_heap_peak"] > 0
        assert "sim_cancelled_skips" in sim.perfstats
        assert "solver_rounds" in sim.perfstats

    def test_crash_milestones_agree_across_backends(self):
        """The same crash scenario yields the same causal skeleton on real
        TCP and on the simulator — the tentpole's comparability claim."""
        crash = ("n3", FAST.chunk_size * 4, "close")
        kwargs = dict(config=FAST, trace=True, crashes=[crash])
        local = run_broadcast(BytesSource(PAYLOAD), ["n2", "n3", "n4"],
                              timeout=60.0, **kwargs)
        sim = run_broadcast(BytesSource(PAYLOAD), ["n2", "n3", "n4"],
                            backend="simnet", **kwargs)
        assert local.ok and sim.ok
        for result in (local, sim):
            failovers = result.trace.of_type("failover")
            assert [e.peer for e in failovers] == ["n3"]
            assert failovers[0].detector == "error"
        # n3 never reaches DONE on either backend; survivors do, in the
        # same tail-to-head order.
        assert local.trace.milestones("done") == \
            sim.trace.milestones("done") == \
            [("done", "n4"), ("done", "n2"), ("done", "n1")]

    def test_crash_plan_objects_accepted_by_both(self):
        crash = CrashPlan("n2", after_bytes=FAST.chunk_size * 2)
        for backend in ("local", "simnet"):
            result = run_broadcast(BytesSource(PAYLOAD), ["n2", "n3"],
                                   backend=backend, config=FAST,
                                   crashes=[crash], timeout=60.0)
            assert result.ok
            assert result.outcomes["n2"].crashed

    def test_order_is_the_plans_whoever_runs_it(self):
        """``order=`` is ``ChainPlan.resolve``'s argument on every
        backend: honoured alike, and refused alike."""
        said = {}
        for backend in ("local", "simnet"):
            result = run_broadcast(BytesSource(PAYLOAD), ["n3", "n2"],
                                   backend=backend, config=FAST,
                                   order="hostname", timeout=60.0)
            assert result.ok
            assert result.plan.receivers == ("n2", "n3")
            with pytest.raises(KascadeError) as refusal:
                run_broadcast(BytesSource(PAYLOAD), ["n2"], backend=backend,
                              config=FAST, order="random")
            said[backend] = str(refusal.value)
        assert said["local"] == said["simnet"]
        assert "rng" in said["local"]


class TestStripeValidation:
    def _stream_source(self):
        import io

        from repro.core.sources import StreamSource
        return StreamSource(io.BytesIO(PAYLOAD))

    @pytest.mark.parametrize("backend", ["local", "simnet"])
    def test_unstripeable_source_rejected_with_catalogue(self, backend):
        """A non-seekable source cannot be striped in place; the one
        refusal says where striping works, every backend named —
        including the one that *would* take it (procs spools the stream
        to a file first)."""
        with pytest.raises(KascadeError) as exc:
            run_broadcast(self._stream_source(), ["n2", "n3"],
                          backend=backend, config=FAST, stripes=2)
        text = str(exc.value)
        assert text.startswith("stripes=2 needs a seekable source")
        for name in ("local", "simnet", "procs"):
            assert name in text

    def test_multi_stripe_plan_triggers_same_validation(self):
        from repro.core.plan import ChainPlan

        plan = ChainPlan.build("n1", ("n2", "n3"), stripes=2, order="given")
        with pytest.raises(KascadeError, match="needs a seekable source"):
            run_broadcast(self._stream_source(), ["n2", "n3"],
                          config=FAST, plan=plan)

    @pytest.mark.parametrize("backend", ["local", "simnet"])
    def test_prebuilt_plan_rides_through_to_the_result(self, backend):
        from repro.core.plan import ChainPlan

        plan = ChainPlan.build("n1", ("n2", "n3"), stripes=2, order="given")
        result = run_broadcast(BytesSource(PAYLOAD), ["n2", "n3"],
                               backend=backend, config=FAST, plan=plan,
                               timeout=60.0)
        assert result.ok
        assert result.plan == plan
        assert result.total_bytes == len(PAYLOAD)


class TestDeprecationShim:
    def test_runtime_broadcast_is_gone(self):
        """The pre-facade ``repro.runtime.broadcast()`` shim served its
        one deprecation release; ``run_broadcast`` is the entry point."""
        import repro.runtime

        assert not hasattr(repro.runtime, "broadcast")
        assert "broadcast" not in repro.runtime.__all__
        with pytest.raises(ImportError):
            from repro.runtime import broadcast  # noqa: F401
