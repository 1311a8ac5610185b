"""Acceptance gate: the nine headline guarantees, one verdict line each.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single human-readable PASS/FAIL line (bypassing capture), so a full
run leaves an at-a-glance scorecard alongside the pytest verdicts.
"""

from __future__ import annotations

import statistics
import time
from random import Random

import pytest

from hiermon.capacity import PRESETS, max_machines, sweep_preset
from hiermon.cli import main
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    CostSample,
    LoadCoefficients,
    fit,
    measure_costs,
)
from hiermon.model import SATURATED, HierarchyConfig, LatencyBound, machines_total
from hiermon.report import (
    LevelKind,
    aggregate,
    default_node_report,
    make_node_report,
    measure,
    parse,
    report_of_size_kb,
    serialize,
    synthetic_service_report,
)
from hiermon.sim import SimConfig, run, verify_against_model
from support import delay_tree, reach_recursive

CHEAP = LoadCoefficients(
    parse_s_per_kb=1e-9,
    parse_fixed_s=0.0,
    serialize_s_per_kb=0.0,
    serialize_fixed_s=0.0,
    aggregate_s_per_kb=0.0,
    net_latency_s=0.001,
)


def _verdict(capsys, number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " :: " + "; ".join(failures)
    with capsys.disabled():
        print(f"[acceptance {number}/9] {status} {name}{detail}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _random_config(rng: Random, max_depth: int = 5) -> HierarchyConfig:
    depth = rng.randint(1, max_depth)
    fanout = [rng.randint(1, 6) for _ in range(depth + 1)]
    hold_us = [rng.randint(1_000, 10_000_000) for _ in range(depth + 1)]
    return HierarchyConfig(
        depth=depth,
        fanout=tuple(fanout),
        hold_us=tuple(hold_us),
        service_period_us=rng.randint(1_000, 10_000_000),
    )


def _random_delays(rng: Random, depth: int) -> tuple[list[int | None], list[int]]:
    """Levels 1..depth's inflow and outflow delays in µs; a tenth of the inflows saturate (None)."""
    t_in = [None if rng.random() < 0.1 else rng.randint(0, 5_000_000) for _ in range(depth)]
    return t_in, [rng.randint(0, 5_000_000) for _ in range(depth)]


def _random_sim_config(rng: Random) -> SimConfig:
    """Small, non-saturated topology: <= 200 machines, second-scale windows."""
    while True:
        depth = rng.randint(1, 3)
        fanout = [rng.randint(1, 3)] + [rng.randint(1, 4) for _ in range(depth)]
        if machines_total(HierarchyConfig.from_seconds(depth, fanout, [1] * (depth + 1), 1)) > 200:
            continue
        holds = [float(rng.randint(1, 3))]
        for _ in range(depth):
            holds.append(float(rng.randint(int(holds[-1]), 4)))
        hierarchy = HierarchyConfig.from_seconds(depth, fanout, holds, holds[0])
        return SimConfig(
            hierarchy,
            coeffs=CHEAP,
            seed=rng.randint(0, 2**31),
            jitter_fraction=rng.choice([0.0, 0.25, 0.5]),
        )


def test_c1_records_equal_recursion(capsys):
    rng = Random(20260814)
    failures: list[str] = []
    started = time.perf_counter()
    for case in range(1000):
        config = _random_config(rng)
        t_in_us, t_out_us = _random_delays(rng, config.depth)
        tree = delay_tree(config, t_in_us, t_out_us)
        t_in = (LatencyBound(0), *(SATURATED if t is None else LatencyBound(t) for t in t_in_us))
        for level in range(config.depth + 1):
            recursive = reach_recursive(config, t_in, (0, *t_out_us), level)
            if tree[level].reach != recursive:
                failures.append(
                    f"case {case} level {level}: record {tree[level].reach} != recursive {recursive}"
                )
                break
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(capsys, 1, "records and recursion agree on 1000 random configs", failures)


def test_c2_zero_delay_sums(capsys):
    rng = Random(31415)
    failures: list[str] = []
    for case in range(200):
        config = _random_config(rng)
        tree = delay_tree(config, [0] * config.depth, [0] * config.depth)
        for level in range(config.depth + 1):
            expected = sum(config.hold_us[:level]) if level else config.hold_us[0]
            if tree[level].reach.micros != expected:
                failures.append(f"case {case} level {level}: {tree[level].reach.micros} != {expected}")
        if failures:
            break
    _verdict(capsys, 2, "zero-delay propagation reduces to summed hold windows", failures)


def test_c3_lossless_aggregation_over_100_simulations(capsys):
    rng = Random(97)
    failures: list[str] = []
    started = time.perf_counter()
    for case in range(100):
        trace = run(_random_sim_config(rng))
        loss = trace.losslessness
        if not loss.ok:
            failures.append(
                f"case {case}: missing={loss.missing} duplicated={loss.duplicated}"
            )
            break
        if loss.covered == 0:
            failures.append(f"case {case}: no covered reports, vacuous run")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _verdict(
        capsys, 3, "100 simulations deliver every covered report exactly once", failures
    )


def test_c4_analytic_bound_sound_and_tight(capsys):
    rng = Random(271828)
    failures: list[str] = []
    for case in range(30):
        trace = run(_random_sim_config(rng))
        check = verify_against_model(trace)
        if not check.bound_respected:
            failures.append(
                f"case {case}: observed {trace.max_observed_prop_us} us "
                f"exceeds bound {trace.analytic_bound.micros} us"
            )
            break
    # adversarial phase: every level's window barely misses the previous flush
    hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 4], [10, 10, 10], 10)
    trace = run(SimConfig(hierarchy, coeffs=CHEAP, seed=5))
    check = verify_against_model(trace)
    if not check.bound_respected:
        failures.append("adversarial run exceeded the bound")
    if check.tightness <= 0.8:
        failures.append(f"adversarial tightness {check.tightness:.3f} <= 0.8")
    _verdict(
        capsys, 4, "observed propagation never exceeds the bound; tightness > 0.8", failures
    )


def test_c5_xml_roundtrip_and_node_sizing(capsys):
    rng = Random(1009)
    failures: list[str] = []
    for case in range(1000):
        shape = rng.randrange(3)
        if shape == 0:
            children = [
                report_of_size_kb(0.5, source=f"agg-{i}", rng=rng) for i in range(2)
            ]
            report = aggregate(
                children, LevelKind.SYSTEM, "root", now=rng.randrange(10**9)
            )
        elif shape == 1:
            report = make_node_report(
                f"m-{case:04d}",
                [
                    synthetic_service_report(f"s{i}", f"m-{case:04d}", rng=rng)
                    for i in range(rng.randint(1, 4))
                ],
                now=rng.randrange(10**9),
            )
        else:
            report = report_of_size_kb(rng.choice([0.5, 1.0, 2.5, 5.0]), rng=rng)
        if parse(serialize(report)) != report:
            failures.append(f"case {case}: roundtrip changed the report")
            break
    for seed in range(200):
        size = measure(default_node_report(rng=Random(seed))).bytes
        if not 448 <= size <= 576:
            failures.append(f"seed {seed}: default node report {size} B outside 512 +/- 64")
            break
    _verdict(capsys, 5, "XML roundtrip identity; node reports 512 +/- 64 bytes", failures)


def test_c6_saturation_shape_per_preset(capsys):
    failures: list[str] = []
    for name, preset in PRESETS.items():
        rows = list(sweep_preset(preset, DEFAULT_COEFFICIENTS, n_max=12_000, step=100))
        for earlier, later in zip(rows, rows[1:]):
            if later.root_utilization < earlier.root_utilization:
                failures.append(f"{name}: utilization decreased at n={later.n_total}")
                break
        for row in rows:
            saturated_by_model = row.root_utilization >= 1.0 or row.first_saturated_level
            if bool(saturated_by_model) != row.t_prop.is_saturated:
                failures.append(f"{name}: saturation marker wrong at n={row.n_total}")
                break
        linear = [r for r in rows if r.root_utilization < 0.9]
        if len(linear) < 5:
            failures.append(f"{name}: too few points below the knee")
            continue
        xs = [float(r.n_total) for r in linear]
        ys = [r.root_utilization for r in linear]
        slope, intercept = statistics.linear_regression(xs, ys)
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        ss_tot = sum((y - statistics.mean(ys)) ** 2 for y in ys)
        r_squared = 1 - ss_res / ss_tot if ss_tot else 1.0
        if r_squared <= 0.999:
            failures.append(f"{name}: R^2 {r_squared:.5f} <= 0.999")
    _verdict(
        capsys, 6, "utilization climbs linearly to the knee, then Saturated", failures
    )


def test_c7_delegation_capacity_ratio(capsys):
    failures: list[str] = []
    limits = {name: max_machines(p, DEFAULT_COEFFICIENTS) for name, p in PRESETS.items()}
    expected = {
        "single-level": 1080,
        "two-level-50": 4600,
        "two-level-100": 4900,
        "three-level": 1700,
    }
    if limits != expected:
        failures.append(f"capacity limits {limits} != hand-derived {expected}")
    ratio = limits["two-level-50"] / limits["single-level"]
    if not 3.5 <= ratio <= 6.5:
        failures.append(f"two-level/single capacity ratio {ratio:.3f} outside [3.5, 6.5]")
    first_gain = limits["two-level-50"] - limits["single-level"]
    second_gain = limits["three-level"] - limits["two-level-50"]
    if second_gain >= first_gain:
        failures.append("adding a third level should help less than adding the second")
    _verdict(
        capsys, 7, "one delegation level multiplies capacity ~4.3x; second adds less", failures
    )


def test_c8_calibration_recovers_and_is_stable(capsys):
    failures: list[str] = []
    truth = LoadCoefficients(
        parse_s_per_kb=3.2e-5,
        parse_fixed_s=1.1e-5,
        serialize_s_per_kb=7.5e-6,
        serialize_fixed_s=2.5e-6,
        aggregate_s_per_kb=4.0e-7,
        net_latency_s=0.005,
    )
    samples = [
        CostSample(
            size_kb=kb,
            parse_s=truth.parse_fixed_s + truth.parse_s_per_kb * kb,
            serialize_s=truth.serialize_fixed_s + truth.serialize_s_per_kb * kb,
            aggregate_s=truth.aggregate_s_per_kb * kb,
        )
        for kb in (0.5, 5.0, 25.0, 50.0)
    ]
    fitted, _ = fit(samples)
    for field in (
        "parse_s_per_kb",
        "parse_fixed_s",
        "serialize_s_per_kb",
        "serialize_fixed_s",
        "aggregate_s_per_kb",
    ):
        want = getattr(truth, field)
        got = getattr(fitted, field)
        if abs(got - want) / want > 1e-9:
            failures.append(f"{field}: {got!r} vs {want!r}")
    try:
        measured = measure_costs([0.5, 5.0, 25.0, 50.0], repetitions=30)
        if len(measured) != 4:
            failures.append(f"expected 4 samples, got {len(measured)}")
    except Exception as exc:  # noqa: BLE001 - any failure fails the criterion
        failures.append(f"on-host calibration failed: {exc}")
    _verdict(
        capsys, 8, "fit recovers affine costs to 1e-9; host timings are stable", failures
    )


def test_c9_simulate_is_byte_deterministic(capsys, tmp_path):
    failures: list[str] = []
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = main(
            [
                "--out", str(out),
                "simulate", "--preset", "three-level", "--n-total", "200",
                "--seed", "42", "--jitter", "0.4",
            ]
        )
        if code != 0:
            failures.append(f"{label} run exited {code}")
        outputs.append(out)
    capsys.readouterr()  # drop the two summaries; only the artifacts matter here
    if not failures:
        for name in ("trace.csv", "machines.csv"):
            first = (outputs[0] / name).read_bytes()
            second = (outputs[1] / name).read_bytes()
            if first != second:
                failures.append(f"{name} differs between identical runs")
        if not (outputs[0] / "trace.csv").read_bytes():
            failures.append("trace.csv is empty")
    _verdict(capsys, 9, "fixed-seed simulate reproduces byte-identical CSVs", failures)
