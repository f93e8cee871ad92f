"""Head failover across processes costs the re-root, not a timer.

The procs twin of ``tests/runtime/test_detach.py``: with ``io_timeout``
at 5 s, every stage between the head's SIGKILL and the resumed stream —
the coordinator noticing, the agents detaching, the supervisor
electing, the agents reporting their node's exit — must be an event, so
the whole run fits in launch + 2 s.
"""

import time

from repro import run_broadcast
from repro.core import KascadeConfig
from repro.core.sources import PatternSource
from repro.core.tracing import ELECTION, FAILOVER

SLOW_TIMERS = KascadeConfig(
    chunk_size=64 * 1024,
    buffer_chunks=8,
    io_timeout=5.0,
    ping_timeout=0.4,
    connect_timeout=1.0,
    report_timeout=20.0,
    # Paced (4 MiB in 0.25 s), so the 1 MiB kill lands mid-stream and
    # not on a head that already handed everything to socket buffers.
    bandwidth_limit=16 << 20,
)


def test_procs_head_kill_does_not_wait_out_io_timeout(tmp_path):
    receivers = ["n2", "n3", "n4"]
    source = PatternSource(4 * 1024 * 1024)
    began = time.monotonic()
    result = run_broadcast(
        source, receivers, backend="procs", config=SLOW_TIMERS,
        timeout=90.0, progress_every=128 * 1024, startup_timeout=20.0,
        trace=True, crashes=[("n1", 1024 * 1024, "close")],
        allow_head_chaos=True,
        output_template=str(tmp_path / "{node}.out"))
    wall = time.monotonic() - began
    assert result.ok, result.outcomes

    budget = result.launch.total_s + 2.0
    assert wall < budget, f"{wall:.2f}s against launch + 2 s = {budget:.2f}s"
    (detected,) = [e for e in result.trace.of_type(FAILOVER)
                   if e.node == "coordinator" and e.peer == "n1"]
    (election,) = result.trace.of_type(ELECTION)
    assert 0 <= election.t - detected.t < 0.5
    # Nobody blamed a neighbour for letting go.
    assert [e.peer for e in result.trace.of_type(FAILOVER)] == ["n1"]

    payload = source.expected_bytes(0, source.size)
    for name in receivers:
        assert (tmp_path / f"{name}.out").read_bytes() == payload, name
