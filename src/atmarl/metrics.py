"""Closed-loop control metrics: IAE, convergence time, oscillation amplitude.

IAE is the mean absolute relative deviation of a KPI from its target,
counted only from the first sample inside the 10% band around the target
(above 0.9T for maximize-direction KPIs, below 1.1T for minimize-direction
ones). A series that never enters the band yields ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

ONSET_TOLERANCE = 0.10


class Direction(Enum):
    MAXIMIZE = "Maximize"
    MINIMIZE = "Minimize"


@dataclass(frozen=True)
class KpiSeries:
    values: np.ndarray
    target: float
    direction: Direction

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("KPI series must be nonempty")
        if self.target <= 0:
            raise ValueError(f"target must be positive, got {self.target}")


def _in_band(series: KpiSeries) -> np.ndarray:
    if series.direction is Direction.MAXIMIZE:
        return series.values >= (1.0 - ONSET_TOLERANCE) * series.target
    return series.values <= (1.0 + ONSET_TOLERANCE) * series.target


def onset_index(series: KpiSeries) -> int | None:
    """First index inside the tolerance band, or None if never reached."""
    hits = np.flatnonzero(_in_band(series))
    return int(hits[0]) if hits.size else None


def iae(series: KpiSeries) -> float | None:
    """Mean |KPI - T| / T over samples from the band onset onwards."""
    onset = onset_index(series)
    if onset is None:
        return None
    tail = series.values[onset:]
    return float(np.mean(np.abs(tail - series.target) / series.target))


def convergence_time(series: KpiSeries) -> int | None:
    """First step from which the KPI stays in the band for good."""
    in_band = _in_band(series)
    # Longest all-true suffix; scan from the back.
    idx = len(in_band)
    for i in range(len(in_band) - 1, -1, -1):
        if not in_band[i]:
            break
        idx = i
    return idx if idx < len(in_band) else None


def oscillation_amplitude(series: KpiSeries, start: int) -> float:
    """Peak-to-peak spread of the series suffix, normalized by the target."""
    if start >= len(series.values):
        raise ValueError(f"start {start} beyond series length {len(series.values)}")
    tail = series.values[start:]
    return float((tail.max() - tail.min()) / series.target)
