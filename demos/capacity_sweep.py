"""Sweep machine counts per hierarchy preset and find the saturation knee.

Under fixed per-report costs, root utilization climbs linearly with the
number of monitored machines until the root aggregator runs out of CPU.
Adding one delegation level multiplies capacity several-fold; adding a
second level helps much less, because the root's inputs shrink only a
little more while every report now pays an extra hop.
"""

from hiermon.capacity import PRESETS, max_machines, sweep_preset
from hiermon.loadmodel import DEFAULT_COEFFICIENTS

print(f"{'machines':>9} | " + " | ".join(f"{name:^24}" for name in sorted(PRESETS)))
print(f"{'':>9} | " + " | ".join(f"{'t_prop':>12} {'root U':>9}" for _ in PRESETS) )

sweeps = {
    name: {row.n_total: row
           for row in sweep_preset(PRESETS[name], DEFAULT_COEFFICIENTS, 6000, 600)}
    for name in sorted(PRESETS)
}
for n in range(600, 6001, 600):
    cells = []
    for name in sorted(PRESETS):
        row = sweeps[name].get(n)
        if row is None:
            cells.append(f"{'-':>12} {'-':>9}")
        elif row.t_prop.is_saturated:
            cells.append(f"{'Saturated':>12} {row.root_utilization:>9.3f}")
        else:
            cells.append(f"{row.t_prop.seconds:>11.2f}s {row.root_utilization:>9.3f}")
    print(f"{n:>9} | " + " | ".join(cells))

print()
limits = {name: max_machines(p, DEFAULT_COEFFICIENTS) for name, p in PRESETS.items()}
for name in ("single-level", "two-level-50", "two-level-100", "three-level"):
    print(f"{name:<15} saturates above {limits[name]:>5} machines")

ratio = limits["two-level-50"] / limits["single-level"]
print()
print(f"one delegation level buys {ratio:.1f}x the capacity of a flat tree.")
print(f"a second level does not pay again: with 10-machine groups its own")
print(f"first-level channels emit heavy merged reports, so it tops out at "
      f"{limits['three-level']} machines, below two-level-50's {limits['two-level-50']}.")
