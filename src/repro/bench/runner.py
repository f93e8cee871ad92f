"""Experiment runner: repeated simulated broadcasts with seeded variance.

One *experiment point* is (method, x-value); it is measured by running
the simulation ``repetitions`` times with distinct seeded RNGs (the RNG
feeds the per-host jitter that models run-to-run variance on the real
testbed) and aggregating the throughputs into a Student-t confidence
interval, exactly as the paper plots its error bars.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Sequence

from ..baselines.base import BroadcastMethod, MethodResult, SimSetup
from ..core.units import mbps
from .stats import ConfidenceInterval, t_confidence

if TYPE_CHECKING:
    import numpy as np

#: Builds a fresh setup for one repetition.  A *fresh* topology matters:
#: methods stamp their host model onto it.
SetupFactory = Callable[["np.random.Generator"], SimSetup]


@dataclass
class Measurement:
    """Aggregated result of one experiment point."""

    method: str
    x: object                      # client count, site count, scenario name…
    ci: ConfidenceInterval         # throughput in MB/s
    results: List[MethodResult] = field(default_factory=list)

    @property
    def mean_mbs(self) -> float:
        return self.ci.mean


class ExperimentRunner:
    """Runs repeated simulations with deterministic seeding."""

    def __init__(self, repetitions: int = 5, base_seed: int = 20140519) -> None:
        # Base seed: the workshop date, for no reason other than tradition.
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        self.repetitions = repetitions
        self.base_seed = base_seed

    def measure(
        self,
        method_factory: Callable[[], BroadcastMethod],
        setup_factory: SetupFactory,
        *,
        x: object,
    ) -> Measurement:
        """Measure one experiment point."""
        import numpy as np

        results: List[MethodResult] = []
        # crc32, not hash(): str hashing is salted per process and would
        # make "deterministic given base_seed" a lie across invocations.
        x_tag = zlib.crc32(str(x).encode()) & 0xFFFF
        for rep in range(self.repetitions):
            rng = np.random.default_rng((self.base_seed, x_tag, rep))
            setup = setup_factory(rng)
            if setup.rng is None:
                setup.rng = rng
            method = method_factory()
            results.append(method.run(setup))
        ci = t_confidence([mbps(r.throughput) for r in results])
        return Measurement(
            method=results[0].method, x=x, ci=ci, results=results
        )

    def sweep(
        self,
        method_factory: Callable[[], BroadcastMethod],
        setup_factories: Sequence[tuple],
    ) -> List[Measurement]:
        """Measure a series: ``setup_factories`` is ``[(x, factory), ...]``."""
        return [
            self.measure(method_factory, factory, x=x)
            for x, factory in setup_factories
        ]
