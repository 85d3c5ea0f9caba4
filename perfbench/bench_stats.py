"""The benchmark's own arithmetic: percentiles, span self time, failure tally."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values, p: float) -> int:
    """How many samples lie strictly above the nearest-rank p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def min_samples(p: float, beyond: int) -> int:
    """Smallest sample count whose p-th percentile leaves `beyond` samples above it."""
    n = beyond
    while n - max(1, math.ceil(p / 100.0 * n)) < beyond:
        n += 1
    return n


def centered_mean(values, half_width: int) -> list[float]:
    """Mean over a window of up to 2*half_width+1 neighbours, cut at the ends."""
    return [
        statistics.fmean(values[max(0, i - half_width): i + half_width + 1])
        for i in range(len(values))
    ]


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so a span's direct children never overlap
    one another and their durations add up to the time they cover.  A
    grandchild is already inside its parent's duration and is not
    subtracted twice.  parent[i] is the index of span i's parent, or -1.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


@dataclass
class Tally:
    """Operations attempted and failed; a raise or a failed check is one failure.

    Nothing is retried or dropped: every call of `record` is one attempt.
    """

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what=None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed
