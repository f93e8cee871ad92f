"""End-to-end broadcasts over real localhost TCP — the happy paths."""

import hashlib

import pytest

from repro.core import BytesSource, HashingSink, PatternSource, StreamSource
from repro.runtime import LocalBroadcast


def hashing_factory(store):
    def factory(name):
        sink = HashingSink()
        store[name] = sink
        return sink
    return factory


def expected_digest(size, seed=0):
    src = PatternSource(size, seed=seed)
    return hashlib.sha256(src.expected_bytes(0, size)).hexdigest()


class TestSingleReceiver:
    def test_tiny_transfer(self, fast_config):
        sinks = {}
        bc = LocalBroadcast(
            BytesSource(b"hello kascade"),
            ["n2"],
            sink_factory=hashing_factory(sinks),
            config=fast_config,
        )
        result = bc.run(timeout=20)
        assert result.ok, result.outcomes
        assert result.total_bytes == 13
        assert sinks["n2"].hexdigest() == hashlib.sha256(b"hello kascade").hexdigest()
        assert not result.report  # no failures

    def test_empty_stream(self, fast_config):
        bc = LocalBroadcast(BytesSource(b""), ["n2"], config=fast_config)
        result = bc.run(timeout=20)
        assert result.ok, result.outcomes
        assert result.total_bytes == 0

    def test_multi_chunk_transfer(self, fast_config):
        size = fast_config.chunk_size * 10 + 123  # ragged final chunk
        sinks = {}
        bc = LocalBroadcast(
            PatternSource(size, seed=5),
            ["n2"],
            sink_factory=hashing_factory(sinks),
            config=fast_config,
        )
        result = bc.run(timeout=30)
        assert result.ok, result.outcomes
        assert result.total_bytes == size
        assert sinks["n2"].hexdigest() == expected_digest(size, seed=5)


class TestPipeline:
    @pytest.mark.parametrize("n_receivers", [2, 5, 10])
    def test_every_node_gets_identical_bytes(self, fast_config, n_receivers):
        size = fast_config.chunk_size * 6 + 17
        sinks = {}
        receivers = [f"n{i}" for i in range(2, 2 + n_receivers)]
        bc = LocalBroadcast(
            PatternSource(size, seed=1),
            receivers,
            sink_factory=hashing_factory(sinks),
            config=fast_config,
        )
        result = bc.run(timeout=60)
        assert result.ok, {n: (o.ok, o.error) for n, o in result.outcomes.items()}
        want = expected_digest(size, seed=1)
        for name in receivers:
            assert sinks[name].hexdigest() == want, f"{name} got wrong bytes"
        assert result.report.failed_nodes == []

    def test_stream_source_works(self, fast_config):
        # Head reads from a non-seekable stream: still fine without failures.
        import io
        data = b"x" * (fast_config.chunk_size * 3 + 7)
        sinks = {}
        bc = LocalBroadcast(
            StreamSource(io.BytesIO(data)),
            ["n2", "n3", "n4"],
            sink_factory=hashing_factory(sinks),
            config=fast_config,
        )
        result = bc.run(timeout=30)
        assert result.ok, result.outcomes
        want = hashlib.sha256(data).hexdigest()
        assert all(sinks[n].hexdigest() == want for n in ("n2", "n3", "n4"))

    def test_hostname_ordering_applied(self, fast_config):
        bc = LocalBroadcast(
            BytesSource(b"ordering"),
            ["n10", "n3", "n2"],
            config=fast_config,
            order="hostname",
        )
        assert bc.chain_plan.receivers == ("n2", "n3", "n10")
        result = bc.run(timeout=20)
        assert result.ok

    def test_throughput_positive(self, fast_config):
        bc = LocalBroadcast(
            PatternSource(fast_config.chunk_size * 4),
            ["n2", "n3"],
            config=fast_config,
        )
        result = bc.run(timeout=30)
        assert result.ok
        assert result.throughput > 0
        assert result.duration > 0


class TestFinishedNodesAreFreed:
    def test_no_node_waits_for_the_cyclic_collector(self, fast_config):
        """A finished node owns its ring, its streams' pool segments and
        its writeback queue.  Once the run has returned and its objects
        are dropped, reference counting alone must free every node: the
        acceptor lets go of its node when its thread exits."""
        import gc
        import time
        import weakref

        gc.collect()
        gc.disable()
        try:
            sinks = {}
            bc = LocalBroadcast(
                PatternSource(fast_config.chunk_size * 64),
                ["n2", "n3", "n4"],
                sink_factory=hashing_factory(sinks), config=fast_config,
            )
            result = bc.run(timeout=30)
            assert result.ok, result.outcomes
            nodes = {name: weakref.ref(node) for name, node in bc.nodes.items()}
            assert len(nodes) == 4
            del bc, result, sinks
            # Acceptors poll their listener every 0.1 s; give them that.
            deadline = time.monotonic() + 5.0
            while (any(ref() is not None for ref in nodes.values())
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            alive = [name for name, ref in nodes.items() if ref() is not None]
            assert not alive, f"kept alive by a reference cycle: {alive}"
        finally:
            gc.enable()


class TestLateJoin:
    def test_a_head_is_gated_only_for_late_joiners(self, fast_config):
        """A run with no joiners gives its head no gate, so it stores
        whole runs; a joiner's gate lets it in on a chain of its own
        and it ends with the payload too."""
        size = fast_config.chunk_size * 16
        for late_join, gated in (((), False), ((("n4", size // 2),), True)):
            sinks = {}
            bc = LocalBroadcast(
                PatternSource(size, seed=3), ["n2", "n3"],
                sink_factory=hashing_factory(sinks), config=fast_config,
                late_join=late_join,
            )
            result = bc.run(timeout=30)
            assert result.ok, result.outcomes
            assert (bc.nodes["n1"].crash_gate is not None) is gated
            assert {name: sink.hexdigest() for name, sink in sinks.items()} \
                == dict.fromkeys(["n2", "n3", *(n for n, _ in late_join)],
                                 expected_digest(size, seed=3))
