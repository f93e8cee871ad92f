"""Startup substrate: models of the launchers that start a broadcast tool
on every node (§III-B, and the dominant cost for small files in §IV-F)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "models": ("Launcher", "TakTukWindowed", "TakTukAdaptiveTree",
               "ClusterShellWindowed", "SSHSequential", "MpirunLauncher",
               "InstantLauncher", "LaunchComparison", "compare_measured"),
})
