"""Fluid-flow discrete-event network simulator.

Substitute for the paper's Grid'5000 testbed: topologies from
:mod:`repro.topology`, a generator-coroutine DES kernel, and a weighted
max–min fair bandwidth allocator with chain-coupled streams that model
store-and-forward pipelines.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ("Engine", "Event", "Process", "Timeout", "Interrupted"),
    "fabric": ("Fabric", "Stream", "Supply", "FixedSupply", "StreamSupply",
               "HostDied", "StreamCancelled"),
    "flows": ("FlowSpec", "MaxMinProblem", "solve_max_min"),
    "nodes": ("NodeRx", "HeadRx"),
    "trace": ("FabricTracer", "StreamTrace"),
    "validation": ("chunk_pipeline_completion", "chunk_pipeline_times"),
})
