"""Reproduction of "Scalable and Reliable Data Broadcast with Kascade"
(Martin et al., HPDIC workshop @ IEEE IPDPS 2014).

The package provides:

* :mod:`repro.core` — the Kascade protocol: chunked pipelined broadcast
  with the GET/PGET/FORGET/DATA/END/QUIT/REPORT/PASSED message set and the
  failure-recovery decision logic;
* :mod:`repro.runtime` — a real TCP implementation runnable on localhost;
* :mod:`repro.simnet` — a fluid-flow discrete-event network simulator that
  stands in for the Grid'5000 testbed of the paper's evaluation;
* :mod:`repro.topology` — fat-tree / multi-switch / multi-site topologies;
* :mod:`repro.baselines` — the compared methods (TakTuk chain/tree,
  UDPCast, MPI broadcast) modelled on the simulator;
* :mod:`repro.launch` — startup-time models (TakTuk, ClusterShell, SSH);
* :mod:`repro.deploy` — windowed multi-process deployment: one OS
  process per node, a supervising coordinator, and real-signal chaos;
* :mod:`repro.distem` — the failure-injection emulator of §IV-G;
* :mod:`repro.bench` — the experiment harness regenerating every figure
  of the evaluation section.
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core.config": ("DEFAULT_CONFIG", "KascadeConfig"),
    "core.chunkstore": ("ChunkRingBuffer",),
    "core.pipeline": ("PipelinePlan",),
    "core.report": ("TransferReport", "FailureRecord"),
    "core.errors": ("KascadeError",),
    "core.tracing": ("TraceCollector", "TraceEvent"),
    "runtime.result": ("BroadcastResult", "CrashPlan", "LateJoin"),
    "session": ("BACKENDS", "BroadcastSession", "run_broadcast"),
})
__all__.append("__version__")
