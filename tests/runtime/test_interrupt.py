"""User-interruption (QUIT) path over real TCP: the head stops the
transfer early, the QUIT + report still propagate, and every node
terminates cleanly (§III-C: "After END or QUIT, a report is sent")."""

import threading
import time

import pytest

from repro.core import BufferSink, KascadeConfig, PatternSource
from repro.core.node_state import Phase
from repro.runtime import LocalBroadcast


class TestUserInterrupt:
    def test_quit_mid_transfer(self, fast_config):
        # A transfer slow enough to interrupt reliably: pace the head so
        # the watcher thread always wins the race against stream end.
        config = fast_config.with_(bandwidth_limit=2 * 2**20)
        size = config.chunk_size * 400
        sinks = {}

        def sink_factory(name):
            sinks[name] = BufferSink()
            return sinks[name]

        bc = LocalBroadcast(
            PatternSource(size), ["n2", "n3", "n4"],
            sink_factory=sink_factory, config=config,
        )

        # Interrupt from a side thread once some data has flowed.
        def interrupter():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                head = bc.nodes.get("n1")
                if head is not None and head.state.offset > 4 * fast_config.chunk_size:
                    head.request_quit()
                    return
                time.sleep(0.005)

        t = threading.Thread(target=interrupter)
        # bc.nodes is populated inside run(); start watcher first.
        t.start()
        result = bc.run(timeout=60)
        t.join()

        head = bc.nodes["n1"]
        # The transfer was aborted, not completed.
        assert head.state.phase in (Phase.ABORTED, Phase.DONE)
        assert result.total_bytes < size
        # Every node terminated (no thread left running).
        for node in bc.nodes.values():
            assert not node.thread.is_alive()
        # Receivers aborted their sinks but saw identical prefixes.
        prefixes = {sinks[n].getvalue() for n in ("n2", "n3", "n4")}
        # Each receiver got some prefix of the stream; all are prefixes
        # of the longest one.
        longest = max(prefixes, key=len)
        for p in prefixes:
            assert longest.startswith(p)

    def test_quit_before_any_data(self, fast_config):
        bc = LocalBroadcast(
            PatternSource(fast_config.chunk_size * 1000),
            ["n2", "n3"], config=fast_config,
        )

        def interrupter():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                head = bc.nodes.get("n1")
                if head is not None:
                    head.request_quit()
                    return
                time.sleep(0.001)

        t = threading.Thread(target=interrupter)
        t.start()
        result = bc.run(timeout=60)
        t.join()
        for node in bc.nodes.values():
            assert not node.thread.is_alive()
