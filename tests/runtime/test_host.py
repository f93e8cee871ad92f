"""The host runner (`repro.runtime.host`): one host, k chains.

``k = 1`` is the one-stripe case of the same path — the node is handed
the caller's own objects — and everything stripe-shaped (views, merge
ports, aggregate gates, ``@s<j>`` names) appears only past it.  A head
re-root is a rebuild with ``resume_offset``, where 0 is a legal
watermark.
"""

import pytest

from repro import run_broadcast
from repro.core import KascadeConfig, KascadeError, PatternSource, SourceKind
from repro.core.plan import ChainPlan
from repro.core.sinks import BufferSink, NullSink
from repro.core.stripes import StripeSource
from repro.core.tracing import ELECTION, TraceCollector
from repro.runtime import (
    CrashPlan,
    HostChains,
    LocalBroadcast,
    check_head_failover,
)
from repro.runtime.evloop import HAS_SPLICE
from repro.runtime.registry import Registry
from repro.runtime.transport import Listener


@pytest.fixture
def wiring():
    """``wire(chain) -> (listeners, registries)`` on loopback; every
    listener is closed afterwards."""
    opened = []

    def wire(chain):
        listeners = {name: [Listener() for _ in range(chain.stripe_count)]
                     for name in chain.nodes}
        opened.extend(ln for lns in listeners.values() for ln in lns)
        registries = [
            Registry({n: lns[j].address for n, lns in listeners.items()})
            for j in range(chain.stripe_count)
        ]
        return listeners, registries

    yield wire
    for listener in opened:
        listener.close()


class TestOneStripeIsNotWrapped:
    def test_the_node_gets_the_callers_own_objects(self, fast_config, wiring):
        config = fast_config.with_(readahead_chunks=0)
        chain = ChainPlan.single("n1", ("n2",))
        listeners, registries = wiring(chain)
        sink, tracer = BufferSink(), TraceCollector()
        source = PatternSource(config.chunk_size * 4)

        def gate(received):
            return None

        receiver = HostChains("n2", chain, registries, listeners["n2"],
                              config, sink=sink, gate=gate, tracer=tracer)
        (node,) = receiver.nodes.values()
        assert list(receiver.nodes) == ["n2"]
        assert node.raw_sink is sink
        assert node.tracer is tracer
        assert node.crash_gate is gate

        head = HostChains("n1", chain, registries, listeners["n1"], config,
                          source=source, tracer=tracer)
        (node,) = head.nodes.values()
        assert head.is_head and list(head.nodes) == ["n1"]
        assert node.source is source
        assert not isinstance(node.source, StripeSource)
        assert node.tracer is tracer
        assert head.outcome is node.outcome

    def test_stripes_appear_only_past_one(self, fast_config, wiring):
        chain = ChainPlan.build("n1", ["n2", "n3"], stripes=2, order="given")
        listeners, registries = wiring(chain)
        head = HostChains("n1", chain, registries, listeners["n1"],
                          fast_config,
                          source=PatternSource(fast_config.chunk_size * 8))
        assert list(head.nodes) == ["n1@s0", "n1@s1"]
        assert all(isinstance(n.source, StripeSource)
                   for n in head.nodes.values())
        head.close()
        null = HostChains("n2", chain, registries, listeners["n2"],
                          fast_config, sink=NullSink())
        # k exact NullSinks, not merge ports: each stripe stays
        # eligible for the kernel relay.
        assert all(type(n.raw_sink) is NullSink for n in null.nodes.values())

    @pytest.mark.parametrize("stripes", [1, 4])
    def test_evloop_null_sink_relay_still_splices(self, fast_config, stripes):
        size = fast_config.chunk_size * 64 + 321
        config = fast_config.with_(data_plane="evloop", stripes=stripes)
        result = LocalBroadcast(PatternSource(size), ["n2", "n3", "n4"],
                                config=config).run(timeout=60)
        assert result.ok, result.outcomes
        assert result.total_bytes == size
        if HAS_SPLICE:
            assert result.perfstats["splice_bytes"] > 0


class TestHostLevelGate:
    def test_the_gate_sees_the_sum_and_its_verdict_is_final(
            self, fast_config, wiring):
        chain = ChainPlan.build("n1", ["n2"], stripes=2, order="given")
        listeners, registries = wiring(chain)
        asked = []

        def gate(total):
            asked.append(total)
            return "close" if total >= 15 else None

        host = HostChains("n2", chain, registries, listeners["n2"],
                          fast_config, sink=BufferSink(), gate=gate)
        s0, s1 = (host.nodes[f"n2@s{j}"].crash_gate for j in range(2))
        assert s0(10) is None
        assert s1(5) == "close"       # 10 + 5: the host crossed, not s1
        assert asked == [10, 15]
        assert s0(10) == "close"      # every stripe dies with its host
        assert asked == [10, 15]      # ... without a second opinion


class TestResumeFromWatermarkZero:
    def test_a_rebuilt_head_streams_from_zero_whatever_the_cursor_says(
            self, fast_config, wiring):
        """The dead head already read from the shared source, so the
        promoted head must not trust its sequential cursor — not even
        (least of all) when the election watermark is 0.  A resumed host
        verifies no digest, whatever the config says."""
        size = fast_config.chunk_size * 20 + 77
        source = PatternSource(size)
        for _ in range(5):
            source.read_chunk(fast_config.chunk_size)   # the old head's reads
        chain = ChainPlan.single("n2", ("n3",))
        listeners, registries = wiring(chain)
        own, downstream = BufferSink(), BufferSink()
        receiver = HostChains("n3", chain, registries, listeners["n3"],
                              fast_config, sink=downstream, resume_offset=0)
        head = HostChains("n2", chain, registries, listeners["n2"],
                          fast_config.with_(verify_digest=True),
                          source=source, sink=own, resume_offset=0)
        assert not head.config.verify_digest
        receiver.start()
        head.start()
        head.join()
        receiver.join()
        assert head.outcome.ok and receiver.outcome.ok
        payload = source.expected_bytes(0, size)
        assert downstream.getvalue() == payload
        head.settle(True)
        assert own.getvalue() == payload

    def test_a_head_promoted_at_the_end_of_the_stream_holds_all_of_it(
            self, fast_config, wiring):
        """Elected at the full watermark, the promoted head streams
        nothing — and still accounts for the whole stream (the run's
        ``total_bytes``), as a lone survivor's host does."""
        size = fast_config.chunk_size * 3
        source = PatternSource(size)
        for chain in (ChainPlan.single("n2", ("n3",)),
                      ChainPlan.single("n2", ())):
            listeners, registries = wiring(chain)
            hosts = [HostChains(name, chain, registries, listeners[name],
                                fast_config, source=source, sink=BufferSink(),
                                resume_offset=size)
                     for name in reversed(chain.nodes)]
            for host in hosts:
                host.start()
            for host in hosts:
                host.join()
            assert all(h.outcome.ok for h in hosts), chain
            assert [h.outcome.bytes_received for h in hosts] == \
                [size] * len(hosts), chain

    def test_a_head_killed_before_its_first_send_elects_at_zero(
            self, fast_config):
        """``after_bytes=0`` fires after the head's first read and before
        its first send: every survivor sits at offset 0 while the source
        cursor does not.  ``result.ok`` cannot tell (digest verification
        is off across a re-root) — only the bytes can."""
        size = fast_config.chunk_size * 40 + 5
        source = PatternSource(size, seed=3)
        sinks = {}

        def sink_factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        receivers = ["n2", "n3", "n4"]
        result = run_broadcast(
            source, receivers, backend="local", config=fast_config,
            timeout=60.0, trace=True, sink_factory=sink_factory,
            crashes=[("n1", 0, "close")], allow_head_chaos=True)
        assert result.ok, result.outcomes
        (election,) = result.trace.of_type(ELECTION)
        assert election.offset == 0
        payload = source.expected_bytes(0, size)
        for name in receivers:
            assert sinks[name].getvalue() == payload, name


class TestOneRefusal:
    @pytest.mark.parametrize("stripes, plane, kind, needle", [
        (2, "threaded", SourceKind.SEEKABLE_FILE, "1-stripe"),
        (1, "evloop", SourceKind.SEEKABLE_FILE, "evloop"),
        (1, "threaded", SourceKind.STREAM, "seekable"),
    ])
    def test_one_message_per_reason(self, stripes, plane, kind, needle):
        with pytest.raises(KascadeError, match=needle):
            check_head_failover(stripes, plane, kind)

    def test_a_survivable_run_passes(self):
        check_head_failover(1, "threaded", SourceKind.SEEKABLE_FILE)
        check_head_failover(1, "threaded")     # no source to judge (procs)

    def test_every_backend_says_it_the_same_way(self):
        """local, procs and the agent all refuse through the validator."""
        from repro.deploy import ProcBroadcast

        source = PatternSource(1 << 16)
        evloop = KascadeConfig(data_plane="evloop")
        head_crash = [CrashPlan("n1", 0)]
        with pytest.raises(KascadeError) as local:
            LocalBroadcast(source, ["n2"], config=evloop,
                           crashes=head_crash, allow_head_chaos=True)
        with pytest.raises(KascadeError) as procs:
            ProcBroadcast(source, ["n2"], config=evloop,
                          allow_head_chaos=True)
        assert str(local.value) == str(procs.value)
