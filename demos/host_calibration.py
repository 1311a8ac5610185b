"""Calibrate the cost model against this machine and compare coefficients.

The analytic load model prices report handling with five affine
coefficients (per-kB and fixed costs for parse and serialize, a per-kB
cost for aggregation). Shipping defaults are synthetic; this times the
real operations on generated reports, fits fresh coefficients, and shows
what the change does to a capacity estimate.
"""

from hiermon.capacity import PRESETS, max_machines
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    fit,
    measure_costs,
    write_coefficients,
    write_samples_csv,
)
from hiermon.report import REFERENCE_NODE_REPORT_BYTES

sizes_kb = [0.5, 5.0, 25.0, 50.0]
print(f"timing parse/serialize/aggregate at {sizes_kb} kB ...")
samples = measure_costs(sizes_kb, repetitions=30)
for s in samples:
    print(f"  {s.size_kb:7.3f} kB  parse {s.parse_s * 1e6:8.1f} us   "
          f"serialize {s.serialize_s * 1e6:8.1f} us   "
          f"aggregate {s.aggregate_s * 1e6:8.1f} us")

coeffs, residuals = fit(samples)
print()
print(f"{'coefficient':<22}{'synthetic':>14}{'this host':>14}")
for field in ("parse_s_per_kb", "parse_fixed_s", "serialize_s_per_kb",
              "serialize_fixed_s", "aggregate_s_per_kb"):
    print(f"{field:<22}{getattr(DEFAULT_COEFFICIENTS, field):>14.3g}"
          f"{getattr(coeffs, field):>14.3g}")
print(f"worst fit residual: {max(residuals.parse_residual_s, residuals.serialize_residual_s, residuals.aggregate_residual_s):.3g} s")

write_samples_csv("calibration_samples.csv", samples)
write_coefficients("calibration_coefficients.txt", coeffs)
print("wrote calibration_samples.csv and calibration_coefficients.txt")

# The synthetic defaults describe hardware orders of magnitude slower than
# a modern host, so the same topology saturates far earlier under them.
preset = PRESETS["single-level"]
print()
print(f"single-level capacity at {REFERENCE_NODE_REPORT_BYTES} B node reports:")
print(f"  synthetic defaults: {max_machines(preset, DEFAULT_COEFFICIENTS)} machines")
print(f"  this host:          {max_machines(preset, coeffs)} machines")
