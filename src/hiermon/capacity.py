"""Capacity of named tree shapes: sweeps over the top fanout and the largest tree.

A preset fixes every fanout but the root's, ``m``.  The levels below the root
read no fanout above their own, so their records, and the `departure` of a
report from them, are the same for every ``m``: `PresetModel` evaluates them
once.  Each ``m`` then costs the root one `level_above`, and a row one
`inflow` conversion and one addition, the steps `hierarchy_loads` takes for
every level, so rows equal the full model's bit for bit by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from hiermon.loadmodel import (
    LoadCoefficients, TreeLevel, departure, hierarchy_loads, inflow, level_above, level_record,
)
from hiermon.model import HierarchyConfig, LatencyBound


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
        levels = hierarchy_loads(config, coeffs)
        self.unit, self.coeffs = preset.machines_per_unit, coeffs
        self.below, self.hold_us = levels[depth - 1], config.hold_us[depth]  # the root's m feeders and window
        self.sent = departure(config, depth - 1, self.below)
        self.lower_saturated = next((lv for lv in range(1, depth) if levels[lv].t_in.is_saturated), None)

    def root(self, m: int) -> TreeLevel:
        """The root's record under top fanout ``m``, as `hierarchy_loads` computes it."""
        return level_record(self.sent, level_above(self.coeffs, self.below, m, self.hold_us))

    def row(self, m: int) -> SweepRow:
        """`root`'s bound, utilization and saturation, without building its record."""
        load = level_above(self.coeffs, self.below, m, self.hold_us)
        t_in = inflow(load)
        saturated = self.lower_saturated or (self.depth if t_in.is_saturated else None)
        return SweepRow(m * self.unit, self.sent + t_in, load.utilization, saturated)


#: Most rows one sweep builds over all its presets.  Rows stream to the CSV, so this
#: bounds time, not memory: a million `single-level` rows took about 4 s and peaked
#: at 16.5 MB RSS on a 2-CPU host.
MAX_SWEEP_ROWS = 1_000_000


def _top_fanouts(preset: HierarchyPreset, n_max: int, step: int) -> range:
    """The top fanouts a sweep evaluates: machine counts up to ``n_max``, ``step`` snapped to the unit."""
    unit = preset.machines_per_unit
    stride = max(1, round(step / unit))
    return range(stride, n_max // unit + 1, stride)


def check_sweep(presets: list[HierarchyPreset], n_max: int, step: int) -> None:
    """Raise ValueError unless sweeping ``presets`` stays within `MAX_SWEEP_ROWS`."""
    if n_max < 1 or step < 1:
        raise ValueError("--n-max and --step must be at least 1")
    rows = sum(len(_top_fanouts(preset, n_max, step)) for preset in presets)
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"the sweep would build {rows} rows, above the budget of {MAX_SWEEP_ROWS}")


def sweep_preset(preset: HierarchyPreset, coeffs: LoadCoefficients, n_max: int, step: int) -> Iterator[SweepRow]:
    """Analytic capacity curve: one row per machine count, past saturation, each built as it
    is read, so a sweep holds one row at a time."""
    return map(PresetModel(preset, coeffs).row, _top_fanouts(preset, n_max, step))


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
