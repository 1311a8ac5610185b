"""Drive the event simulator and check it against the analytic bounds.

The simulator runs the real sensor/channel state machines over a seeded
event queue, using the same modelled delays that feed the closed-form
bound. Observed worst-case propagation must stay below the bound; an
adversarially phased run shows the bound is tight, not just safe.
"""

import csv
import tempfile
from pathlib import Path

from hiermon.loadmodel import LoadCoefficients
from hiermon.model import HierarchyConfig
from hiermon.sim import (
    SimConfig,
    run,
    verify_against_model,
    write_trace_csv,
)

coeffs = LoadCoefficients(
    parse_s_per_kb=1e-4,
    parse_fixed_s=5e-4,
    serialize_s_per_kb=5e-5,
    serialize_fixed_s=1e-4,
    aggregate_s_per_kb=1e-5,
    net_latency_s=0.005,
)

# 24 machines in a 2-level tree, service ticks jittered by up to half a period.
hierarchy = HierarchyConfig.from_seconds(2, [2, 6, 4], [2.0, 5.0, 5.0], 2.0)
trace = run(SimConfig(hierarchy, coeffs=coeffs, seed=2024, jitter_fraction=0.5))

print(f"simulated {trace.config.duration_us / 1e6:.0f}s, "
      f"{trace.delivered} report deliveries")

check = verify_against_model(trace)
print(f"worst observed propagation: {trace.max_observed_prop_us / 1e6:.3f}s")
print(f"analytic bound:             {trace.analytic_bound.seconds:.3f}s")
print(f"bound respected: {check.bound_respected}   tightness: {check.tightness:.3f}")
print(f"staleness bound holds: {check.staleness_respected}")

loss = trace.losslessness
print(f"losslessness: published={loss.published} covered={loss.covered} "
      f"missing={loss.missing} duplicated={loss.duplicated}")

# One delivery, end to end, read back from the exported trace.csv.
with tempfile.TemporaryDirectory() as out:
    write_trace_csv(Path(out) / "trace.csv", trace)
    with open(Path(out) / "trace.csv", newline="") as handle:
        record = max(csv.DictReader(handle), key=lambda row: int(row["propagation_us"]))
print()
print(f"slowest delivery: {record['service_id']}")
print(f"  emitted at {int(record['emitted_at_us']) / 1e6:.3f}s, "
      f"reached root at {int(record['arrived_root_at_us']) / 1e6:.3f}s")

# Adversarial phasing: every window barely misses the flush below it, so the
# observed worst case walks right up to the bound.
adversarial = HierarchyConfig.from_seconds(2, [1, 5, 4], [10.0, 10.0, 10.0], 10.0)
trace = run(SimConfig(adversarial, coeffs=coeffs, seed=5))
check = verify_against_model(trace)
print()
print(f"adversarial phasing: observed {trace.max_observed_prop_us / 1e6:.3f}s "
      f"vs bound {trace.analytic_bound.seconds:.3f}s "
      f"(tightness {check.tightness:.3f})")
