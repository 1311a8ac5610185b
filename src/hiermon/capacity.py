"""Capacity of named tree shapes: sweeps over the top fanout and the largest tree.

A preset fixes every fanout but the root's, ``m``.  The levels below the root
read no fanout above their own, so they, and their part of the propagation
bound, are the same for every ``m``: `PresetModel` evaluates them once, and
each ``m`` costs one `level_load` of the root with the expressions of
`hierarchy_loads`, so rows equal the full model's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from hiermon.loadmodel import (
    LoadCoefficients, MachineLoad, emission_periods_us, hierarchy_loads, hierarchy_timings,
    level_load, level_report_sizes_kb,
)
from hiermon.model import HierarchyConfig, LatencyBound, propagation_time


@dataclass(frozen=True)
class HierarchyPreset:
    """One named tree shape whose top-level width is the free axis."""

    name: str
    lower_fanout: tuple[int, ...]  # fanout below the varied top level
    hold_s: tuple[float, ...]
    service_period_s: float

    @property
    def depth(self) -> int:
        return len(self.lower_fanout)

    @property
    def machines_per_unit(self) -> int:
        """Monitored machines added by each extra top-level feeder."""
        return math.prod(self.lower_fanout[1:])

    def config(self, n_total: int) -> HierarchyConfig:
        unit = self.machines_per_unit
        if n_total <= 0 or n_total % unit:
            raise ValueError(f"preset {self.name} grows in steps of {unit} machines; "
                             f"{n_total} is not a positive multiple")
        return HierarchyConfig.from_seconds(
            self.depth, (*self.lower_fanout, n_total // unit), self.hold_s, self.service_period_s
        )


PRESETS: dict[str, HierarchyPreset] = {
    p.name: p
    for p in (
        HierarchyPreset("single-level", (1,), (60.0, 60.0), 60.0),
        HierarchyPreset("two-level-50", (1, 50), (30.0, 30.0, 30.0), 30.0),
        HierarchyPreset("two-level-100", (1, 100), (30.0, 30.0, 30.0), 30.0),
        HierarchyPreset("three-level", (1, 10, 10), (10.0, 30.0, 30.0, 30.0), 10.0),
    )
}


class SweepRow(NamedTuple):
    """One machine count of a sweep: its propagation bound, root utilization and first
    saturated level (None while no level saturates)."""

    n_total: int
    t_prop: LatencyBound
    root_utilization: float
    first_saturated_level: int | None


class PresetModel:
    """A preset's levels below the root, evaluated once, and its root per top fanout ``m``."""

    def __init__(self, preset: HierarchyPreset, coeffs: LoadCoefficients):
        config = preset.config(preset.machines_per_unit)
        depth = self.depth = config.depth
        timings = hierarchy_timings(hierarchy_loads(config, coeffs))
        periods = emission_periods_us(config)
        self.unit, self.coeffs, self.period_us = preset.machines_per_unit, coeffs, periods[depth]
        self.ratio = periods[depth] / periods[depth - 1]
        # (period_us, size_kb) of the report each of the root's m feeders sends
        self.feeder = (periods[depth - 1], level_report_sizes_kb(config)[depth - 1])
        self.lower_saturated = next((lv for lv in range(1, depth) if timings.t_in[lv].is_saturated), None)
        # the bound without the root's inflow, its only term that depends on m
        root_free = replace(timings, t_in=(*timings.t_in[:depth], LatencyBound(0)))
        self.lower_bound = propagation_time(config, root_free, depth)

    def root(self, m: int) -> MachineLoad:
        """The root's load under top fanout ``m``, as `hierarchy_loads` computes it."""
        size_kb = m * self.ratio * self.feeder[1]
        return level_load(self.coeffs, self.period_us, size_kb, (m, *self.feeder))

    def row(self, m: int) -> SweepRow:
        root = self.root(m)
        t_in = LatencyBound.of_seconds(root.t_in_s)
        saturated = self.lower_saturated or (self.depth if t_in.is_saturated else None)
        return SweepRow(m * self.unit, self.lower_bound + t_in, root.utilization, saturated)


def sweep_preset(preset: HierarchyPreset, coeffs: LoadCoefficients, n_max: int, step: int) -> list[SweepRow]:
    """Analytic capacity curve: one row per machine count, past saturation."""
    unit = preset.machines_per_unit
    stride = max(1, round(step / unit))
    model = PresetModel(preset, coeffs)
    return [model.row(m) for m in range(stride, n_max // unit + 1, stride)]


def max_machines(preset: HierarchyPreset, coeffs: LoadCoefficients) -> int:
    """Largest machine count whose root utilization still stays below 1.

    Root utilization is affine in the top-level fanout ``m``, so ``u(1)`` and
    ``u(2)`` place the boundary; the exact predicate then settles rounding.
    """
    model = PresetModel(preset, coeffs)

    def root_u(m: int) -> float:
        return model.root(m).utilization

    u1 = root_u(1)
    if u1 >= 1.0:
        return 0
    m = max(1, math.ceil((1.0 - u1) / (root_u(2) - u1)))
    while m > 1 and root_u(m) >= 1.0:
        m -= 1
    while root_u(m + 1) < 1.0:
        m += 1
    return m * model.unit
