"""Network topologies of the paper's evaluation platforms: fat trees,
single/two-switch clusters, and the Grid'5000 multi-site WAN."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "graph": ("Network", "Host", "Link", "DiskSpec"),
    "builders": ("build_fat_tree", "build_single_switch", "build_two_switch",
                 "LAN_LATENCY"),
    "multisite": ("build_multisite", "experiment_chain", "link_usage",
                  "ALL_SITES", "HOME_SITE", "SITE_ORDER"),
    "ordering": ("order_by_attachment", "chain_plan_by_attachment",
                 "crossing_count", "audit_order", "OrderAudit"),
    "serialize": ("network_from_json", "network_to_json", "load_network",
                  "parse_rate"),
})
