"""Tests for repro.core.config."""

import pytest

from repro.core import ConfigError, DEFAULT_CONFIG, KascadeConfig


class TestKascadeConfig:
    def test_defaults_are_sane(self):
        cfg = DEFAULT_CONFIG
        assert cfg.chunk_size == 1 << 20
        assert cfg.buffer_chunks >= 1
        assert cfg.io_timeout > 0

    def test_buffer_bytes(self):
        cfg = KascadeConfig(chunk_size=1000, buffer_chunks=5)
        assert cfg.buffer_bytes == 5000

    def test_with_replaces_fields(self):
        cfg = DEFAULT_CONFIG.with_(chunk_size=4096)
        assert cfg.chunk_size == 4096
        assert cfg.io_timeout == DEFAULT_CONFIG.io_timeout
        # original untouched (frozen dataclass copy semantics)
        assert DEFAULT_CONFIG.chunk_size == 1 << 20

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_CONFIG.chunk_size = 1  # type: ignore[misc]

    @pytest.mark.parametrize("field,value", [
        ("chunk_size", 0),
        ("chunk_size", -1),
        ("buffer_chunks", 0),
        ("io_timeout", 0.0),
        ("ping_timeout", -1.0),
        ("connect_timeout", 0.0),
        ("report_timeout", -5.0),
        ("sink_writeback_depth", -1),
        ("sink_writeback_budget", -1),
        ("readahead_chunks", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            KascadeConfig(**{field: value})

    def test_stage_off_switches_are_valid(self):
        cfg = KascadeConfig(sink_writeback_depth=0, readahead_chunks=0)
        assert cfg.sink_writeback_depth == 0
        assert cfg.readahead_chunks == 0
