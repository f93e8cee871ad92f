"""Simulated broadcast methods: Kascade and the baselines the paper
compares against (TakTuk chain/tree, UDPCast, MPI broadcast)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("BroadcastMethod", "MethodResult", "SimSetup", "RunState"),
    "kascade_sim": ("KascadeSim", "SlowNodePolicy", "SlowNodeExcluded"),
    "related": ("BitTorrentSwarm", "DollyChain"),
    "trees": ("TreeBroadcast", "TakTukChain", "TakTukTree", "MpiEthernet",
              "MpiInfiniband"),
    "udpcast": ("UdpcastSim", "UdpcastUnidirectional"),
})
