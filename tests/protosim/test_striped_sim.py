"""Striped broadcast on the protocol-exact simulator.

The DES models per-link bandwidth, so ``k`` stripe chains genuinely
aggregate bandwidth — this tier is where the paper-facing speedup claim
is checked, free of host-CPU noise.  Under test:

* byte-exactness — every host's merged stream matches the source at
  k = 1, 2, 4;
* the speedup itself — k = 4 must beat the single chain by a clear
  margin in simulated seconds;
* failure handling — a host crash kills all of its stripe instances,
  every stripe chain fails over, and the survivors' merged digests are
  still exact.
"""

import hashlib

from repro.core import HashingSink, KascadeConfig, PatternSource
from repro.protosim import ProtoBroadcast
from repro.runtime import CrashPlan

CFG = KascadeConfig(
    chunk_size=64 * 1024, buffer_chunks=8,
    io_timeout=0.5, ping_timeout=0.3, connect_timeout=1.0,
    report_timeout=10.0,
)
SIZE = 2 * 1024 * 1024
RECEIVERS = ["n2", "n3", "n4", "n5"]


def digest_of(size, seed=5):
    src = PatternSource(size, seed=seed)
    return hashlib.sha256(src.expected_bytes(0, size)).hexdigest()


def run(stripes, receivers=RECEIVERS, crashes=(), size=SIZE, seed=5):
    sinks = {}

    def factory(name):
        sinks[name] = HashingSink()
        return sinks[name]

    bc = ProtoBroadcast(
        PatternSource(size, seed=seed), receivers,
        sink_factory=factory, config=CFG.with_(stripes=stripes),
        crashes=crashes,
    )
    return bc.run(), sinks


class TestStripedDelivery:
    def test_byte_exact_at_every_stripe_count(self):
        want = digest_of(SIZE)
        for k in (1, 2, 4):
            result, sinks = run(k)
            assert result.ok, (k, result.node_errors)
            assert result.total_bytes == SIZE, k
            assert all(s.hexdigest() == want for s in sinks.values()), k

    def test_deterministic(self):
        a, _ = run(4)
        b, _ = run(4)
        assert a.sim_time == b.sim_time
        assert a.total_bytes == b.total_bytes

    def test_four_stripes_beat_one_chain(self):
        """The tentpole claim on modelled links: k chains ~ k-fold
        aggregate bandwidth.  Pipeline fill keeps small streams below
        the ideal k×; 1.5× is a conservative floor for k = 4."""
        t1, _ = run(1)
        t4, _ = run(4)
        assert t4.sim_time < t1.sim_time / 1.5, (t1.sim_time, t4.sim_time)


class TestStripedFailures:
    def test_host_crash_takes_down_every_stripe(self):
        result, sinks = run(
            4, crashes=(CrashPlan("n3", after_bytes=SIZE // 3),))
        assert result.ok
        assert [n for n, ok in result.node_ok.items() if not ok] == ["n3"]
        assert "n3" in result.crashed
        want = digest_of(SIZE)
        for survivor in ("n2", "n4", "n5"):
            assert sinks[survivor].hexdigest() == want, survivor
        # Failure records are pooled across stripe chains but named by
        # host, never by a per-stripe instance.
        assert {f.node for f in result.report.failures} == {"n3"}
        assert all("@s" not in f.node for f in result.report.failures)

    def test_silent_crash_recovers_on_every_stripe(self):
        result, sinks = run(
            2, crashes=(CrashPlan("n4", after_bytes=SIZE // 2,
                                   mode="silent"),))
        assert result.ok
        assert [n for n, ok in result.node_ok.items() if not ok] == ["n4"]
        want = digest_of(SIZE)
        for survivor in ("n2", "n3", "n5"):
            assert sinks[survivor].hexdigest() == want, survivor
