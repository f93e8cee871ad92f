"""Protocol-exact simulation: the Kascade node of
:mod:`repro.core.engine` — the generators the threaded runtime drives,
not a port of them — run as deterministic DES processes on a simulated
network (:mod:`.node`: the DES port; :mod:`.broadcast`: the shared run,
:class:`repro.runtime.cluster.Broadcast`, driven on the DES).

One node on two ports, one run on two drivers, and a fluid model beside:

========================  ==========================  ====================
tier                      substrate                   what it is for
========================  ==========================  ====================
``repro.runtime``         engine + threads, real TCP  the actual tool
``repro.protosim``        engine + DES channels       deterministic
                                                      protocol testing at
                                                      exact failure timing
``repro.baselines``       DES + fluid flows           200-node performance
                                                      sweeps (the figures)
========================  ==========================  ====================
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "broadcast": ("ProtoBroadcast", "ProtoResult"),
    "msc": ("render_msc", "collapse_data_runs"),
    "fuzz": ("FuzzCase", "FuzzReport", "generate_case", "run_case",
             "run_campaign"),
})
