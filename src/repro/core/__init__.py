"""Kascade protocol core: wire format, chunk buffering, pipeline planning,
the failure-recovery decision logic, and the node itself
(:mod:`.engine`) — one text shared by the real TCP runtime and the
protocol simulator."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("DEFAULT_CONFIG", "KascadeConfig"),
    "buffers": ("DEFAULT_SEGMENT", "BufferPool"),
    "cache": ("ArtifactMeta", "CacheTapSink", "ChunkCache"),
    "chunkstore": ("ChunkRingBuffer",),
    "perfstats": ("PerfStats", "get_stats", "reset_stats"),
    "errors": (
        "KascadeError", "ProtocolError", "FramingError", "ChunkStoreError",
        "DataLossError", "PipelineError", "TransferAborted",
        "NodeFailedError", "SimulationError", "SinkError", "ConfigError",
    ),
    "framing": ("MAX_RECEIVE_ALLOC", "FrameDecoder", "encode_header",
                "frame_run"),
    "messages": ("Op", "Message", "Get", "PGet", "Forget", "Data", "End",
                 "Quit", "Report", "Passed", "Ping", "Pong"),
    "pipeline": ("hostname_sort_key", "order_by_hostname", "order_randomly"),
    "plan": ("ChainPlan", "StripePlan"),
    "stripes": ("StripeMergeSink", "StripeSource", "stripe_extent"),
    "recovery": ("SourceKind", "OfferKind", "Offer", "negotiate_offset",
                 "next_alive"),
    "report": ("FailureRecord", "NodeOutcome", "TransferReport"),
    "engine": ("Link", "Head", "Receiver", "InjectedCrash"),
    "tracing": ("EVENT_TYPES", "NULL_TRACER", "NullRecorder",
                "TraceCollector", "TraceEvent", "classify_detector"),
    "sinks": ("Sink", "NullSink", "FileSink", "CommandSink", "HashingSink",
              "BufferSink", "ThrottledSink", "open_sink"),
    "stages": ("SinkWriter", "ReadAheadSource"),
    "sources": ("Source", "FileSource", "StreamSource", "BytesSource",
                "PatternSource", "open_source"),
})
