"""Shape and timing of balanced aggregation trees, and the worst-case delay type.

A monitoring tree has ``depth`` aggregation levels above the service level.
Level 0 is the per-machine sensor, levels 1..depth are aggregation channels,
and the level-``depth`` channel is the single root that assembles the global
report.  Every duration is held as an integer number of microseconds, so
bounds add up exactly; `hiermon.loadmodel.TreeLevel` carries each level's
delays and its propagation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod
from typing import Sequence

MICROS_PER_SECOND = 1_000_000

#: Default ceiling on `sim.SimConfig.row_bound`: ten million rows are about 0.4 GB
#: of trace.csv and 5 s of export on a 2-CPU host (`BENCH_11.json`).  Here, not in
#: `sim`, so the CLI parser can show it without loading the simulator.
MAX_ROWS = 10_000_000


def seconds_to_micros(value: float) -> int:
    """Quantize a duration in seconds to whole microseconds; ValueError for NaN or infinity."""
    try:
        return round(value * MICROS_PER_SECOND)
    except (OverflowError, ValueError):
        raise ValueError(f"duration must be finite, got {value!r}") from None


@dataclass(frozen=True)
class LatencyBound:
    """A worst-case delay: integer microseconds, or saturated (unbounded).

    ``micros is None`` encodes saturation.  Addition treats saturation as
    absorbing, so bounds can be accumulated without special-casing.
    """

    micros: int | None

    @classmethod
    def of_seconds(cls, value: float) -> "LatencyBound":
        if math.isinf(value):
            return SATURATED
        return cls(seconds_to_micros(value))

    @property
    def is_saturated(self) -> bool:
        return self.micros is None

    @property
    def seconds(self) -> float:
        return math.inf if self.micros is None else self.micros / MICROS_PER_SECOND

    def __add__(self, other: "LatencyBound | int") -> "LatencyBound":
        extra = other.micros if isinstance(other, LatencyBound) else other
        if self.micros is None or extra is None:
            return SATURATED
        return LatencyBound(self.micros + extra)

    __radd__ = __add__

    def __str__(self) -> str:
        return "Saturated" if self.micros is None else f"{self.seconds}s"


SATURATED = LatencyBound(None)


@dataclass(frozen=True)
class HierarchyConfig:
    """Shape and timing of one balanced monitoring tree.

    ``fanout[i]`` is the number of level-(i-1) feeders per level-i node;
    ``fanout[0]`` counts application services per sensor.  ``hold_us[i]`` is
    the accumulation window of level i, with index 0 being the sensor pickup
    period.  Both sequences are indexed 0..depth inclusive.  A tree that breaks
    a rule cannot be built, by the constructor, `from_seconds` or
    `dataclasses.replace`.
    """

    depth: int
    fanout: tuple[int, ...]
    hold_us: tuple[int, ...]
    service_period_us: int

    @classmethod
    def from_seconds(
        cls,
        depth: int,
        fanout: Sequence[int],
        hold_s: Sequence[float],
        service_period_s: float,
    ) -> "HierarchyConfig":
        return cls(
            depth=depth,
            fanout=tuple(int(f) for f in fanout),
            hold_us=tuple(seconds_to_micros(h) for h in hold_s),
            service_period_us=seconds_to_micros(service_period_s),
        )

    def __post_init__(self) -> None:
        """Refuse an unusable tree, listing every rule it breaks."""
        problems: list[str] = []
        if self.depth < 1:
            problems.append("depth must be >= 1")
        expected = self.depth + 1
        if len(self.fanout) != expected:
            problems.append(f"fanout length must be depth+1 ({expected}), got {len(self.fanout)}")
        if len(self.hold_us) != expected:
            problems.append(f"hold_s length must be depth+1 ({expected}), got {len(self.hold_us)}")
        for i, f in enumerate(self.fanout):
            if f < 1:
                problems.append(f"fanout[{i}] must be >= 1")
        for i, h in enumerate(self.hold_us):
            if h <= 0:
                problems.append(f"hold_s[{i}] must be > 0")
        if self.service_period_us <= 0:
            problems.append("service_period_s must be > 0")
        if problems:
            raise ValueError("invalid hierarchy config: " + "; ".join(problems))


def machines_total(config: HierarchyConfig) -> int:
    """Monitored machines in the tree: one sensor per machine."""
    return prod(config.fanout[1:])
