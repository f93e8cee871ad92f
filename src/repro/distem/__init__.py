"""Distem-like virtual platform: node folding and failure injection
(the evaluation environment of §IV-G / Fig. 15)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "emulator": ("DistemPlatform", "FailureScenario", "build_distem_platform",
                 "paper_scenarios", "SIMULTANEOUS_SCENARIOS",
                 "SEQUENTIAL_SCENARIOS"),
})
