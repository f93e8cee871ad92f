"""Suite-wide fixtures."""

import pytest

from repro.core.buffers import drain_reserve


@pytest.fixture(autouse=True)
def cold_segment_reserve():
    """The segment reserve is process-wide by design (one broadcast warms
    the next): every test starts with it empty, so a count of mapped or
    reused segments never depends on which test ran before."""
    drain_reserve()
