"""Worst-case propagation and staleness bounds for a three-level tree.

A report published by a monitored machine can wait out a full holding
window at every aggregation level, plus the delivery delays between
levels. Each level's record carries its delays and `reach`, the bound at
that level, so a level's share of the root's bound is the step in `reach`
from the level below.
"""

from hiermon.loadmodel import DEFAULT_COEFFICIENTS, MachineLoad, hierarchy_loads, tree_levels
from hiermon.model import HierarchyConfig

# 400 machines: 10 per first-level channel, 10 first-level channels per
# second-level channel, 4 second-level channels under the root.
config = HierarchyConfig.from_seconds(
    depth=3,
    fanout=[1, 10, 10, 4],
    hold_s=[10.0, 30.0, 30.0, 30.0],
    service_period_s=10.0,
)
period_s = config.service_period_us / 1e6


def delays(t_in_s, t_out_s):
    """Records from delays measured per level (into and out of each aggregator,
    in seconds), as `analyze --timings` reads them: no load fields."""
    loads = [MachineLoad(None, 0.0, 0.0, None, None)]
    loads += [MachineLoad(None, t_in, t_out, None, None) for t_in, t_out in zip(t_in_s, t_out_s)]
    return tree_levels(config, loads)


print("level  t_prop      t_stale     share")
below = 0.0
for level, record in enumerate(delays([0.06, 0.23, 1.93], [0.01, 0.05, 0.0])):
    reach = record.reach.seconds
    print(f"{level:>5}  {reach:>9.3f}s  {reach + period_s:>9.3f}s  {reach - below:>7.3f}s")
    below = reach

# With all delivery delays at zero the bound is just the stacked windows.
floor = delays([0.0] * 3, [0.0] * 3)[-1].reach
print()
print(f"zero-delay floor: {floor.seconds:.0f}s = sum of holding windows "
      f"{[h / 1e6 for h in config.hold_us]}")

# A saturated level poisons every bound above it.
for level, record in enumerate(delays([0.06, float("inf"), 1.93], [0.01, 0.05, 0.0])):
    print(f"level {level} with level 2 saturated: {record.reach}")

# The load model gives the same records, with each level's utilization.
print()
for level, record in enumerate(hierarchy_loads(config, DEFAULT_COEFFICIENTS)):
    print(f"level {level}: utilization {record.utilization:.4f}, bound {record.reach}")
