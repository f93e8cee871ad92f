#!/usr/bin/env python
"""Regenerate the paper's protocol diagrams (Figs. 5 and 6) from runs.

The paper illustrates its protocol with two hand-drawn message sequence
charts: three nodes without errors (Fig. 5), and the same transfer with
``n2`` dying mid-stream and the pipeline routing around it (Fig. 6).
Because this repository's protocol-exact simulator executes the real
state machines, the charts below are *generated from actual protocol
runs* — every arrow is a message that really crossed a (simulated)
connection, with its timestamp.

Run:  python examples/message_sequence_charts.py
"""

from repro.core import KascadeConfig, PatternSource
from repro.protosim import ProtoBroadcast, render_msc
from repro.runtime import CrashPlan

CFG = KascadeConfig(
    chunk_size=256 * 1024, buffer_chunks=8,
    io_timeout=0.5, ping_timeout=0.3, connect_timeout=1.0,
    report_timeout=10.0,
)
SIZE = 1024 * 1024  # 4 chunks: small enough for a readable chart


def fig5_clean_transfer() -> None:
    print("=" * 72)
    print("Fig. 5 equivalent: three nodes, no error")
    print("=" * 72)
    bc = ProtoBroadcast(PatternSource(SIZE, seed=1), ["n2", "n3"],
                        config=CFG)
    result = bc.run(trace=True)
    assert result.ok
    print(render_msc(result.message_log, ["n1", "n2", "n3"]))
    print()


def fig6_failure_and_recovery() -> None:
    print("=" * 72)
    print("Fig. 6 equivalent: n2 dies mid-stream; n1 reroutes to n3")
    print("=" * 72)
    bc = ProtoBroadcast(
        PatternSource(SIZE, seed=1), ["n2", "n3"], config=CFG,
        crashes=[CrashPlan("n2", SIZE // 2)],
    )
    result = bc.run(trace=True)
    assert result.ok
    assert result.report.failed_nodes == ["n2"]
    # The crash happened just after the last message n2 ever sent.
    crash_time = max(t for t, src, _dst, _m, _p in result.message_log
                     if src == "n2")
    print(render_msc(
        result.message_log, ["n1", "n2", "n3"],
        annotations=[(crash_time + 1e-6, "n2 KILLED")],
    ))
    print()
    print(f"final report: {result.report.summary()}")


def main() -> None:
    fig5_clean_transfer()
    fig6_failure_and_recovery()
    print("\nEvery arrow above is a real protocol message from a real")
    print("(simulated) run — the charts regenerate themselves when the")
    print("protocol changes, unlike the paper's hand-drawn figures.")


if __name__ == "__main__":
    main()
