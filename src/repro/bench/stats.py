"""Statistics for experiment results.

The paper reports averages with 95 % confidence intervals from the
Student t-distribution (§IV): so do we.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """Mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int
    level: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.half_width:.1f}"


def t_confidence(values: Sequence[float], level: float = 0.95) -> ConfidenceInterval:
    """Mean ± t-based confidence half-width of ``values``.

    A single sample yields a zero-width interval (no variance estimate),
    matching how a single repetition would be plotted.
    """
    import numpy as np
    from scipy import stats as sps

    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, 0.0, 1, level)
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    t_crit = float(sps.t.ppf(0.5 + level / 2.0, df=arr.size - 1))
    return ConfidenceInterval(mean, t_crit * sem, int(arr.size), level)
