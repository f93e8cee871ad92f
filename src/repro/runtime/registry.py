"""Node name → TCP address registry.

On a real deployment this is derived from the host list given to
``kascade -N``; in the local runtime each "node" is a thread listening on
an ephemeral localhost port.  The registry is the only piece of global
knowledge every node receives at startup (the paper copies the node list
to all targets before the transfer, §III-B).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from ..core.errors import PipelineError
from ..core.record import Frozen


class Address(Frozen):
    """A listen endpoint.  Defined here rather than beside the sockets
    (:mod:`.transport` re-exports it) so the control side can name one
    without importing the data plane."""

    __slots__ = ("host", "port")

    def __init__(self, host: str, port: int) -> None:
        self._init(host, port)

    def as_tuple(self) -> Tuple[str, int]:
        return (self.host, self.port)


class Registry:
    """Immutable mapping of node names to their listen addresses."""

    def __init__(self, entries: Mapping[str, Address]) -> None:
        self._entries: Dict[str, Address] = dict(entries)

    def address_of(self, node: str) -> Address:
        try:
            return self._entries[node]
        except KeyError:
            raise PipelineError(f"unknown node {node!r} in registry") from None

    def __contains__(self, node: str) -> bool:
        return node in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> Iterable[str]:
        return self._entries.keys()
