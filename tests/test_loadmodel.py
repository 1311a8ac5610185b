"""Tests for the utilization/latency cost model and its calibration path."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    CostSample,
    LoadCoefficients,
    MachineLoad,
    fit,
    hierarchy_loads,
    hierarchy_timings,
    level_load,
    measure_costs,
    read_coefficients,
    write_coefficients,
    write_samples_csv,
)
from hiermon.model import SATURATED, HierarchyConfig, propagation_time
from hiermon.report import REFERENCE_NODE_REPORT_BYTES

TINY_OUTPUT = (1e-12, 1e-9)


def machine(rate_hz, size_kb, count=1, output=TINY_OUTPUT, coeffs=DEFAULT_COEFFICIENTS) -> MachineLoad:
    """`level_load` of a machine with ``count`` feeders each sending ``size_kb`` at
    ``rate_hz``, and emitting the (rate_hz, size_kb) ``output``."""
    out_rate, out_kb = output
    return level_load(coeffs, 1e6 / out_rate, out_kb, (count, 1e6 / rate_hz, size_kb))


def sensor(output=TINY_OUTPUT, coeffs=DEFAULT_COEFFICIENTS) -> MachineLoad:
    """`level_load` of a machine with no feeders, emitting the (rate_hz, size_kb) ``output``."""
    out_rate, out_kb = output
    return level_load(coeffs, 1e6 / out_rate, out_kb)


class TestCoefficients:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LoadCoefficients(0.008, -0.05, 0.002, 0.01, 0.001, 0.005)

    def test_zero_parse_slope_rejected(self):
        with pytest.raises(ValueError):
            LoadCoefficients(0.0, 0.05, 0.002, 0.01, 0.001, 0.005)

    def test_defaults_are_marked_uncalibrated(self):
        assert DEFAULT_COEFFICIENTS.calibrated is False


class TestUtilization:
    def test_negligible_workload_is_negligible(self):
        assert sensor().utilization < 1e-9

    def test_doubling_rates_doubles_input_term(self):
        base = machine(0.5, 1.0).utilization
        doubled = machine(1.0, 1.0).utilization
        assert doubled == pytest.approx(2 * base, rel=1e-9)

    def test_1333_slow_half_kb_inputs_saturate_one_cpu(self):
        # 1333 * (0.050 + 0.008*0.5) / 60 = 1.1997 of a CPU.
        load = machine(1 / 60, 0.5, count=1333)
        assert load.utilization == pytest.approx(1.20, rel=0.01)
        assert load.utilization >= 1.0
        assert load.t_in_s == math.inf


class TestInputTime:
    def test_idle_machine_pays_net_plus_parse(self):
        expected = 0.005 + (0.050 + 0.008 * 2.0)
        assert machine(1e-12, 2.0).t_in_s == pytest.approx(expected, rel=1e-6)

    def test_half_utilization_doubles_the_service_term(self):
        cost_1kb = 0.050 + 0.008 * 1.0
        idle = machine(1e-12, 1.0).t_in_s - 0.005
        busy = machine(0.5 / cost_1kb, 1.0).t_in_s - 0.005
        assert busy == pytest.approx(2 * idle, rel=1e-6)

    def test_saturation_boundary(self):
        cost_1kb = 0.050 + 0.008 * 1.0
        exactly_one = machine(1.0 / cost_1kb, 1.0)
        assert exactly_one.utilization >= 1.0
        assert exactly_one.t_in_s == math.inf


class TestOutputTime:
    def test_difference_is_slope_times_size_delta(self):
        small = sensor((1.0, 0.5)).t_out_s
        large = sensor((1.0, 50.0)).t_out_s
        assert large - small == pytest.approx(0.002 * 49.5, rel=1e-9)
        assert machine(1.0, 3.0, output=(1.0, 50.0)).t_out_s == large

    def test_zero_cost_coefficients_leave_net_latency(self):
        coeffs = LoadCoefficients(1e-12, 0.0, 0.0, 0.0, 0.0, 0.005)
        assert sensor((1.0, 7.0), coeffs).t_out_s == pytest.approx(0.005)
        assert machine(1.0, 7.0, output=(1.0, 7.0), coeffs=coeffs).t_out_s == pytest.approx(0.005)


_rates = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
_sizes = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_flows = st.tuples(_rates, _sizes)


class TestModelProperties:
    @given(_rates, _sizes, st.integers(1, 500), _flows)
    def test_utilization_linear_in_feeder_count(self, rate, size, count, output):
        emit = sensor(output).utilization
        one = machine(rate, size, 1, output).utilization
        assert machine(rate, size, count, output).utilization == pytest.approx(
            emit + count * (one - emit), rel=1e-9, abs=1e-12
        )

    @given(_flows, st.integers(1, 50), _flows, st.floats(0.1, 10))
    def test_utilization_homogeneous_in_rates(self, flow, count, output, k):
        (rate, size), (out_rate, out_kb) = flow, output
        base = machine(rate, size, count, output).utilization
        scaled = machine(rate * k, size, count, (out_rate * k, out_kb)).utilization
        assert scaled == pytest.approx(k * base, rel=1e-9)

    @given(st.floats(0.01, 0.95), st.floats(1.02, 5))
    def test_t_in_strictly_increases_with_utilization(self, u, factor):
        assume(u * factor < 0.999)
        cost_1kb = 0.050 + 0.008
        slow = machine(u / cost_1kb, 1.0).t_in_s
        fast = machine(u * factor / cost_1kb, 1.0).t_in_s
        assert fast > slow

    @given(st.floats(0.1, 50), st.floats(1.1, 5), st.floats(0.01, 0.9))
    def test_t_in_strictly_increases_with_input_size(self, size, factor, u):
        def at(size_kb):
            cost = 0.050 + 0.008 * size_kb
            return machine(u / cost, size_kb).t_in_s

        assert at(size * factor) > at(size)


THREE_LEVEL = HierarchyConfig.from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)


def level_sizes_kb(config: HierarchyConfig) -> tuple[float, ...]:
    return tuple(load.size_kb for load in hierarchy_loads(config, DEFAULT_COEFFICIENTS))


def reference_periods_and_sizes(config: HierarchyConfig) -> tuple[list[int], list[float]]:
    """The two-pass rule `level_above` replaced: periods are the running maximum of the
    holds, and level i's size is ``fanout[i] * p[i]/p[i-1] * size[i-1]``."""
    periods = [config.hold_us[0]]
    for hold in config.hold_us[1:]:
        periods.append(max(hold, periods[-1]))
    sizes = [config.fanout[0] * REFERENCE_NODE_REPORT_BYTES / 1024]
    for level in range(1, config.depth + 1):
        ratio = periods[level] / periods[level - 1]
        sizes.append(config.fanout[level] * ratio * sizes[level - 1])
    return periods, sizes


@st.composite
def trees(draw) -> HierarchyConfig:
    """Depth 1-4 trees whose holds rise, repeat and fall, with ``hold[0]`` also below the service period."""
    depth = draw(st.integers(1, 4))
    fanout = [draw(st.integers(1, 4)), *(draw(st.integers(1, 200)) for _ in range(depth))]
    holds = [draw(st.sampled_from([0.5, 1, 7, 10, 30, 45, 60, 600])) for _ in range(depth + 1)]
    return HierarchyConfig.from_seconds(depth, fanout, holds, draw(st.sampled_from([1, 10, 30, 60])))


class TestHierarchyLoads:
    def test_level_sizes_include_window_multiplicity(self):
        # Each level-1 window collects 3 flushes from each of 10 sensors.
        assert level_sizes_kb(THREE_LEVEL) == (0.5, 15.0, 150.0, 600.0)

    def test_two_level_sizes(self):
        cfg = HierarchyConfig.from_seconds(2, [1, 50, 8], [30, 30, 30], 30)
        assert level_sizes_kb(cfg) == (0.5, 25.0, 200.0)

    def test_node_size_counts_services_and_empty_windows_emit_nothing(self):
        # 4 services x 512 B per node report; holds below 30 s still emit every 30 s.
        cfg = HierarchyConfig.from_seconds(2, [4, 5, 4], [30, 10, 10], 30)
        assert level_sizes_kb(cfg) == (2.0, 10.0, 40.0)
        root = hierarchy_loads(cfg, DEFAULT_COEFFICIENTS)[2]
        expected = 4 / 30 * (0.050 + 0.008 * 10.0) + (0.010 + 0.003 * 40.0) / 30
        assert root.utilization == pytest.approx(expected, rel=1e-12)

    def test_three_level_defaults_stay_unsaturated(self):
        loads = hierarchy_loads(THREE_LEVEL, DEFAULT_COEFFICIENTS)
        assert len(loads) == 4
        assert not any(t.is_saturated for t in hierarchy_timings(loads).t_in)
        assert loads[1].utilization == pytest.approx(0.054 + 0.055 / 30, rel=1e-6)
        assert loads[0].t_in_s == 0.0

    def test_first_level_inflow_matches_hand_arithmetic(self):
        loads = hierarchy_loads(THREE_LEVEL, DEFAULT_COEFFICIENTS)
        u1 = loads[1].utilization
        expected = 0.005 + (0.050 + 0.008 * 0.5) / (1 - u1)
        assert loads[1].t_in_s == pytest.approx(expected, rel=1e-12)

    def test_oversubscribed_single_level_saturates_the_bound(self):
        cfg = HierarchyConfig.from_seconds(1, [1, 1333], [60, 60], 60)
        timings = hierarchy_timings(hierarchy_loads(cfg, DEFAULT_COEFFICIENTS))
        assert timings.t_in[1] == SATURATED
        assert propagation_time(cfg, timings, 1).is_saturated

    @pytest.mark.parametrize("config, message", [
        (HierarchyConfig(2, (1, 0, 4), (30_000_000,) * 3, 30_000_000), "fanout[1] must be >= 1"),
        (HierarchyConfig(1, (1, 4), (0, 30_000_000), 30_000_000), "hold_s[0] must be > 0"),
        (HierarchyConfig(2, (1, 4), (30_000_000,) * 3, 30_000_000), "fanout length must be depth+1 (3), got 2"),
    ], ids=["zero-fanout", "zero-hold", "short-fanout"])
    def test_invalid_config_refused_with_the_validate_message(self, config, message):
        with pytest.raises(ValueError, match=re.escape(f"invalid hierarchy config: {message}")):
            hierarchy_loads(config, DEFAULT_COEFFICIENTS)

    @settings(max_examples=200)
    @given(trees())
    @example(HierarchyConfig.from_seconds(3, [3, 7, 5, 2], [60, 10, 600, 45], 30))
    @example(HierarchyConfig.from_seconds(2, [1, 3, 3], [0.5, 0.5, 0.5], 30))
    def test_periods_and_sizes_follow_the_two_pass_rule_bit_for_bit(self, config):
        periods, sizes = reference_periods_and_sizes(config)
        loads = hierarchy_loads(config, DEFAULT_COEFFICIENTS)
        assert [load.period_us for load in loads] == periods
        assert [load.size_kb for load in loads] == sizes

    def test_timings_cover_every_level(self):
        timings = hierarchy_timings(hierarchy_loads(THREE_LEVEL, DEFAULT_COEFFICIENTS))
        assert len(timings.t_in) == len(timings.t_out_us) == THREE_LEVEL.depth + 1
        assert all(not v.is_saturated and v.micros > 0 for v in timings.t_in[1:])
        bound = propagation_time(THREE_LEVEL, timings, 3)
        assert 70.0 < bound.seconds < 75.0


class TestMeasureCosts:
    def test_too_few_repetitions(self):
        with pytest.raises(ValueError):
            measure_costs([0.5, 5, 25], repetitions=1)

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            measure_costs([0.5, 0.5, 0.5], repetitions=30)

    def test_costs_grow_with_report_size(self):
        samples = measure_costs([0.5, 5.0, 25.0], repetitions=30)
        assert len(samples) == 3
        parse_times = [s.parse_s for s in samples]
        assert parse_times == sorted(parse_times)
        assert all(s.parse_s > 0 and s.serialize_s > 0 and s.aggregate_s > 0 for s in samples)

    def test_repeat_runs_agree_within_half(self):
        first = measure_costs([0.5, 5.0, 25.0], repetitions=30)
        second = measure_costs([0.5, 5.0, 25.0], repetitions=30)
        for a, b in zip(first, second):
            assert abs(a.parse_s - b.parse_s) <= 0.5 * max(a.parse_s, b.parse_s)


def synthetic_samples(sizes=(0.5, 5.0, 25.0, 50.0)):
    return [
        CostSample(
            size_kb=s,
            parse_s=0.050 + 0.008 * s,
            serialize_s=0.010 + 0.002 * s,
            aggregate_s=0.001 * s,
        )
        for s in sizes
    ]


class TestFit:
    def test_recovers_exact_affine_coefficients(self):
        coeffs, report = fit(synthetic_samples())
        assert coeffs.parse_s_per_kb == pytest.approx(0.008, rel=1e-9)
        assert coeffs.parse_fixed_s == pytest.approx(0.050, rel=1e-9)
        assert coeffs.serialize_s_per_kb == pytest.approx(0.002, rel=1e-9)
        assert coeffs.serialize_fixed_s == pytest.approx(0.010, rel=1e-9)
        assert coeffs.aggregate_s_per_kb == pytest.approx(0.001, rel=1e-9)
        assert coeffs.calibrated is True
        assert report.parse_residual_s < 1e-12
        assert report.aggregate_residual_s < 1e-12
        assert report.clamped == ()

    def test_two_samples_rejected(self):
        with pytest.raises(ValueError):
            fit(synthetic_samples(sizes=(0.5, 5.0)))

    def test_identical_sizes_rejected(self):
        with pytest.raises(ValueError):
            fit(synthetic_samples(sizes=(5.0, 5.0, 5.0)))

    def test_negative_slope_clamped_with_warning(self):
        samples = [
            CostSample(size_kb=s, parse_s=0.1 - 0.001 * s, serialize_s=0.01, aggregate_s=0.001)
            for s in (0.5, 5.0, 25.0)
        ]
        with pytest.warns(UserWarning, match="clamp"):
            coeffs, report = fit(samples)
        assert coeffs.parse_s_per_kb <= 1e-12
        assert report.clamped == ("parse",)

    def test_negative_intercept_clamped_and_reported(self):
        samples = [
            CostSample(size_kb=s, parse_s=0.01, serialize_s=-0.002 + 0.001 * s, aggregate_s=0.001)
            for s in (0.5, 5.0, 25.0)
        ]
        with pytest.warns(UserWarning, match="serialize fit produced a negative term"):
            coeffs, report = fit(samples)
        assert coeffs.serialize_fixed_s == 0.0
        assert coeffs.serialize_s_per_kb == pytest.approx(0.001)
        assert report.clamped == ("serialize",)

    def test_calibrated_model_predicts_measured_costs(self):
        samples = measure_costs([0.5, 5.0, 25.0, 50.0], repetitions=30)
        coeffs, report = fit(samples)
        biggest = samples[-1]
        predicted = coeffs.parse_fixed_s + coeffs.parse_s_per_kb * biggest.size_kb
        assert predicted == pytest.approx(biggest.parse_s, rel=0.5)


class TestPersistence:
    def test_coefficients_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        coeffs, _ = fit(synthetic_samples())
        write_coefficients(path, coeffs)
        assert read_coefficients(path) == coeffs

    def test_file_layout(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        write_coefficients(path, DEFAULT_COEFFICIENTS)
        lines = path.read_text().splitlines()
        keys = [line.split("=")[0] for line in lines]
        assert keys == [
            "parse_s_per_kb",
            "parse_fixed_s",
            "serialize_s_per_kb",
            "serialize_fixed_s",
            "aggregate_s_per_kb",
            "net_latency_s",
            "calibrated",
        ]
        assert lines[-1] == "calibrated=false"

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        write_coefficients(path, DEFAULT_COEFFICIENTS)
        trimmed = "\n".join(path.read_text().splitlines()[1:])
        path.write_text(trimmed)
        with pytest.raises(ValueError, match="parse_s_per_kb"):
            read_coefficients(path)

    def test_bad_calibrated_flag_rejected(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        write_coefficients(path, DEFAULT_COEFFICIENTS)
        path.write_text(path.read_text().replace("calibrated=false", "calibrated=maybe"))
        with pytest.raises(ValueError, match="calibrated"):
            read_coefficients(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        path.write_text("parse_s_per_kb\n")
        with pytest.raises(ValueError, match="key=value"):
            read_coefficients(path)

    @pytest.mark.parametrize("value, problem", [
        ("nan", "parse_fixed_s must be finite and >= 0"),
        ("inf", "parse_fixed_s must be finite and >= 0"),
        ("abc", "could not convert string to float: 'abc'"),
    ], ids=["nan", "inf", "abc"])
    def test_non_finite_value_rejected(self, tmp_path, value, problem):
        path = tmp_path / "coeffs.txt"
        write_coefficients(path, DEFAULT_COEFFICIENTS)
        path.write_text(path.read_text().replace("parse_fixed_s=0.05", f"parse_fixed_s={value}"))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}$"):
            read_coefficients(path)

    def test_unreadable_file_is_a_value_error_naming_the_path(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_coefficients(path)
        path.write_bytes(b"parse_s_per_kb=\xff\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_coefficients(path)

    def test_samples_csv_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, synthetic_samples())
        lines = path.read_text().splitlines()
        assert lines[0] == "size_kb,parse_s,serialize_s,aggregate_s"
        assert len(lines) == 5
