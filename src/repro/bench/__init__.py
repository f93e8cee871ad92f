"""Experiment harness regenerating the paper's evaluation figures."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "figures": ("FIGURES", "FigureResult", "fig07_scalability",
                "fig07_scalability_10x", "fig08_10gbe", "fig09_infiniband",
                "fig10_random_order", "fig11_disk", "fig12_site_map",
                "fig13_multisite", "fig14_small_file",
                "fig15_fault_tolerance"),
    "runner": ("ExperimentRunner", "Measurement"),
    "export": ("ascii_plot", "to_csv", "to_json", "flatten"),
    "store": ("FigureStore", "figure_result_from_json"),
    "compare": ("DiffReport", "PointDiff", "diff_results", "diff_stores"),
    "stats": ("ConfidenceInterval", "t_confidence"),
})
