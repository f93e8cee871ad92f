"""Tests for message tracing and sequence-chart rendering."""

import pytest

from repro.core import (
    Data,
    End,
    Get,
    KascadeConfig,
    Passed,
    PatternSource,
    Report,
)
from repro.protosim import (
    ProtoBroadcast,
    collapse_data_runs,
    render_msc,
)
from repro.runtime import CrashPlan

CFG = KascadeConfig(
    chunk_size=64 * 1024, buffer_chunks=8,
    io_timeout=0.5, ping_timeout=0.3, connect_timeout=1.0,
    report_timeout=10.0,
)


class TestCollapse:
    def test_data_run_collapses(self):
        events = [
            (0.0, "a", "b", Get(0), 0),
            (0.1, "a", "b", Data(0, 10), 10),
            (0.2, "a", "b", Data(10, 10), 10),
            (0.3, "a", "b", Data(20, 10), 10),
            (0.4, "a", "b", End(30), 0),
        ]
        arrows = collapse_data_runs(events)
        labels = [label for _t, _s, _d, label in arrows]
        assert labels == ["GET(0)", "DATA x3", "END(30)"]

    def test_runs_split_on_direction_change(self):
        events = [
            (0.0, "a", "b", Data(0, 10), 10),
            (0.1, "b", "c", Data(0, 10), 10),
            (0.2, "a", "b", Data(10, 10), 10),
        ]
        arrows = collapse_data_runs(events)
        assert len(arrows) == 3

    def test_single_data_plain_label(self):
        arrows = collapse_data_runs([(0.0, "a", "b", Data(0, 1), 1)])
        assert arrows[0][3] == "DATA"


class TestRender:
    def _trace(self):
        bc = ProtoBroadcast(PatternSource(256 * 1024, seed=1),
                            ["n2", "n3"], config=CFG)
        result = bc.run(trace=True)
        assert result.ok
        return result.message_log

    def test_chart_structure(self):
        chart = render_msc(self._trace(), ["n1", "n2", "n3"])
        lines = chart.splitlines()
        assert lines[0].startswith("n1")
        assert "GET(0)" in chart
        assert "END(" in chart
        assert "PASSED" in chart
        assert "REPORT(" in chart

    def test_arrows_directional(self):
        chart = render_msc(self._trace(), ["n1", "n2", "n3"])
        assert ">" in chart and "<" in chart

    def test_annotations_merged(self):
        chart = render_msc(self._trace(), ["n1", "n2", "n3"],
                           annotations=[(0.001, "SOMETHING HAPPENED")])
        assert "*** SOMETHING HAPPENED ***" in chart

    def test_failure_chart_shows_reconnection(self):
        bc = ProtoBroadcast(
            PatternSource(512 * 1024, seed=1), ["n2", "n3"], config=CFG,
            crashes=[CrashPlan("n2", after_bytes=128 * 1024)],
        )
        result = bc.run(trace=True)
        assert result.ok
        # The recovery: after n2's death a *direct* n3 -> n1 GET and
        # n1 -> n3 DATA path appears in the trace.
        assert any(src == "n3" and dst == "n1" and isinstance(m, Get)
                   for _t, src, dst, m, _p in result.message_log)
        assert any(src == "n1" and dst == "n3" and isinstance(m, Data)
                   for _t, src, dst, m, _p in result.message_log)
        chart = render_msc(result.message_log, ["n1", "n2", "n3"])
        assert "DATA" in chart

    def test_trace_off_by_default(self):
        bc = ProtoBroadcast(PatternSource(64 * 1024, seed=1),
                            ["n2"], config=CFG)
        result = bc.run()
        assert result.message_log is None
