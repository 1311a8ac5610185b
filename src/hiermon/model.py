"""Worst-case propagation and staleness bounds for balanced aggregation trees.

A monitoring tree has ``depth`` aggregation levels above the service level.
Level 0 is the per-machine sensor, levels 1..depth are aggregation channels,
and the level-``depth`` channel is the single root that assembles the global
report.  Every duration is held as an integer number of microseconds so that
the closed-form and recursive evaluations of the bounds agree bit for bit.

The per-report bound unrolls to::

    reach(0) = hold[0]
    reach(1) = reach(0) + t_in[1]
    reach(i) = reach(i-1) + hold[i-1] + t_out[i-1] + t_in[i]    (i >= 2)

and staleness at a level is that bound plus one service reporting period.
A saturated inflow (unbounded t_in) absorbs every bound downstream of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

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


def micros_to_seconds(value: int) -> float:
    return value / MICROS_PER_SECOND


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
        return math.inf if self.micros is None else micros_to_seconds(self.micros)

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
    period.  Both sequences are indexed 0..depth inclusive.
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

    @property
    def hold_seconds(self) -> tuple[float, ...]:
        return tuple(micros_to_seconds(h) for h in self.hold_us)

    @property
    def service_period_seconds(self) -> float:
        return micros_to_seconds(self.service_period_us)


def validate(config: HierarchyConfig) -> list[str]:
    """Return every constraint violation; an empty list means the config is usable."""
    problems: list[str] = []
    if config.depth < 1:
        problems.append("depth must be >= 1")
    expected = config.depth + 1
    if len(config.fanout) != expected:
        problems.append(f"fanout length must be depth+1 ({expected}), got {len(config.fanout)}")
    if len(config.hold_us) != expected:
        problems.append(f"hold_s length must be depth+1 ({expected}), got {len(config.hold_us)}")
    for i, f in enumerate(config.fanout):
        if f < 1:
            problems.append(f"fanout[{i}] must be >= 1")
    for i, h in enumerate(config.hold_us):
        if h <= 0:
            problems.append(f"hold_s[{i}] must be > 0")
    if config.service_period_us <= 0:
        problems.append("service_period_s must be > 0")
    return problems


def require_valid(config: HierarchyConfig) -> None:
    """Raise ValueError listing every problem :func:`validate` finds."""
    problems = validate(config)
    if problems:
        raise ValueError("invalid hierarchy config: " + "; ".join(problems))


def channels_at_level(config: HierarchyConfig, level: int) -> int:
    """Number of aggregation nodes at a level; the root level has exactly one."""
    _check_level(config, level)
    return prod(config.fanout[level + 1 :])


def machines_total(config: HierarchyConfig) -> int:
    """Monitored machines in the tree: one sensor per machine."""
    require_valid(config)
    return prod(config.fanout[1:])


@dataclass(frozen=True)
class ChannelTimings:
    """Measured or modeled per-level delivery delays.

    Tuples are indexed by level; slot 0 is padding so ``t_in[i]`` is the
    inflow delay of level i, :data:`SATURATED` for a saturated level.
    """

    t_in: tuple[LatencyBound, ...]
    t_out_us: tuple[int, ...]

    @classmethod
    def from_seconds(
        cls, t_in_s: Iterable[float], t_out_s: Iterable[float]
    ) -> "ChannelTimings":
        """Build from per-level sequences covering levels 1..depth; inf saturates."""
        t_in = (LatencyBound(0), *map(LatencyBound.of_seconds, t_in_s))
        t_out = (0, *map(seconds_to_micros, t_out_s))
        return cls(t_in, t_out)

    @classmethod
    def zero(cls, depth: int) -> "ChannelTimings":
        return cls((LatencyBound(0),) * (depth + 1), (0,) * (depth + 1))


def _check_level(config: HierarchyConfig, level: int) -> None:
    if not 0 <= level <= config.depth:
        raise ValueError(f"level must be in 0..{config.depth}, got {level}")


def propagation_time_recursive(
    config: HierarchyConfig, timings: ChannelTimings, level: int
) -> LatencyBound:
    """Unrolled worst-case time for a service report to reach a level's aggregator."""
    _check_level(config, level)
    if level == 0:
        return LatencyBound(config.hold_us[0])
    previous = propagation_time_recursive(config, timings, level - 1)
    t_in = timings.t_in[level]
    if level == 1:
        return previous + t_in
    return previous + config.hold_us[level - 1] + timings.t_out_us[level - 1] + t_in


def propagation_time(
    config: HierarchyConfig, timings: ChannelTimings, level: int
) -> LatencyBound:
    """Closed-form equivalent of :func:`propagation_time_recursive`.

    holds 0..level-1 + outflows 1..level-1 + inflows 1..level, with the
    degenerate level 0 being just the sensor pickup window.
    """
    _check_level(config, level)
    if level == 0:
        return LatencyBound(config.hold_us[0])
    fixed = sum(config.hold_us[0:level]) + sum(timings.t_out_us[1:level])
    return sum(timings.t_in[1 : level + 1], LatencyBound(fixed))


def staleness_time(
    config: HierarchyConfig, timings: ChannelTimings, level: int
) -> LatencyBound:
    """Worst-case age of a service report held at a level's aggregator.

    One full reporting period older than the propagation bound: the observed
    condition may be a whole period stale by the time its report is emitted.
    """
    return propagation_time(config, timings, level) + config.service_period_us
