"""Tests for the utilization/latency cost model and its calibration path."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hiermon import loadmodel
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    CalibrationUnstableError,
    CostSample,
    LoadCoefficients,
    MachineLoad,
    WorkloadSpec,
    fit,
    hierarchy_loads,
    hierarchy_timings,
    input_time,
    level_report_sizes_kb,
    measure_costs,
    output_time,
    read_coefficients,
    utilization,
    write_coefficients,
    write_samples_csv,
)
from hiermon.model import SATURATED, HierarchyConfig, propagation_time

TINY_OUTPUT = (1e-12, 1e-9)


def spec_of(inputs, output=TINY_OUTPUT):
    """A workload with one feeder per (rate_hz, size_kb) input."""
    return WorkloadSpec(tuple((rate, size, 1) for rate, size in inputs), output)


class TestCoefficients:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LoadCoefficients(0.008, -0.05, 0.002, 0.01, 0.001, 0.005)

    def test_zero_parse_slope_rejected(self):
        with pytest.raises(ValueError):
            LoadCoefficients(0.0, 0.05, 0.002, 0.01, 0.001, 0.005)

    def test_defaults_are_marked_uncalibrated(self):
        assert DEFAULT_COEFFICIENTS.calibrated is False


class TestWorkloadSpec:
    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            spec_of([(0.0, 1.0)])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec((), (1.0, 0.0))

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            WorkloadSpec(((1.0, 1.0, 0),), TINY_OUTPUT)


class TestUtilization:
    def test_negligible_workload_is_negligible(self):
        assert utilization(spec_of([]), DEFAULT_COEFFICIENTS) < 1e-9

    def test_doubling_rates_doubles_input_term(self):
        inputs = [(0.5, 1.0), (0.25, 2.0)]
        base = utilization(spec_of(inputs), DEFAULT_COEFFICIENTS)
        doubled = utilization(
            spec_of([(2 * r, s) for r, s in inputs]), DEFAULT_COEFFICIENTS
        )
        assert doubled == pytest.approx(2 * base, rel=1e-9)

    def test_1333_slow_half_kb_inputs_saturate_one_cpu(self):
        # 1333 * (0.050 + 0.008*0.5) / 60 = 1.1997 of a CPU.
        spec = spec_of([(1 / 60, 0.5)] * 1333)
        u = utilization(spec, DEFAULT_COEFFICIENTS)
        assert u == pytest.approx(1.20, rel=0.01)
        assert u >= 1.0
        assert input_time(spec, DEFAULT_COEFFICIENTS) == math.inf


class TestInputTime:
    def test_idle_machine_pays_net_plus_parse(self):
        spec = spec_of([(1e-12, 2.0)])
        expected = 0.005 + (0.050 + 0.008 * 2.0)
        assert input_time(spec, DEFAULT_COEFFICIENTS) == pytest.approx(expected, rel=1e-6)

    def test_half_utilization_doubles_the_service_term(self):
        cost_1kb = 0.050 + 0.008 * 1.0
        idle = input_time(spec_of([(1e-12, 1.0)]), DEFAULT_COEFFICIENTS) - 0.005
        busy = input_time(spec_of([(0.5 / cost_1kb, 1.0)]), DEFAULT_COEFFICIENTS) - 0.005
        assert busy == pytest.approx(2 * idle, rel=1e-6)

    def test_saturation_boundary(self):
        cost_1kb = 0.050 + 0.008 * 1.0
        exactly_one = spec_of([(1.0 / cost_1kb, 1.0)])
        assert input_time(exactly_one, DEFAULT_COEFFICIENTS) == math.inf

    def test_requires_an_input_flow(self):
        with pytest.raises(ValueError):
            input_time(WorkloadSpec((), (1.0, 1.0)), DEFAULT_COEFFICIENTS)


class TestOutputTime:
    def test_difference_is_slope_times_size_delta(self):
        small = output_time(0.5, DEFAULT_COEFFICIENTS)
        large = output_time(50.0, DEFAULT_COEFFICIENTS)
        assert large - small == pytest.approx(0.002 * 49.5, rel=1e-9)

    def test_zero_cost_coefficients_leave_net_latency(self):
        coeffs = LoadCoefficients(1e-12, 0.0, 0.0, 0.0, 0.0, 0.005)
        assert output_time(7.0, coeffs) == pytest.approx(0.005)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            output_time(0.0, DEFAULT_COEFFICIENTS)


_rates = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
_sizes = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_flows = st.tuples(_rates, _sizes)


class TestModelProperties:
    @given(
        st.lists(_flows, max_size=4),
        st.lists(_flows, max_size=4),
        _flows,
    )
    def test_utilization_additive_over_inputs(self, a, b, output):
        combined = utilization(spec_of(a + b, output), DEFAULT_COEFFICIENTS)
        output_only = utilization(spec_of([], output), DEFAULT_COEFFICIENTS)
        parts = (
            utilization(spec_of(a, output), DEFAULT_COEFFICIENTS)
            + utilization(spec_of(b, output), DEFAULT_COEFFICIENTS)
            - output_only
        )
        assert combined == pytest.approx(parts, rel=1e-9, abs=1e-12)

    @given(st.lists(_flows, min_size=1, max_size=4), _flows, st.floats(0.1, 10))
    def test_utilization_homogeneous_in_rates(self, inputs, output, k):
        base = utilization(spec_of(inputs, output), DEFAULT_COEFFICIENTS)
        scaled_spec = spec_of(
            [(r * k, s) for r, s in inputs], (output[0] * k, output[1])
        )
        assert utilization(scaled_spec, DEFAULT_COEFFICIENTS) == pytest.approx(
            k * base, rel=1e-9
        )

    @given(_rates, _sizes, st.integers(1, 500), _flows)
    def test_counted_flow_equals_repeated_single_flows(self, rate, size, count, output):
        counted = WorkloadSpec(((rate, size, count),), output)
        repeated = WorkloadSpec(((rate, size, 1),) * count, output)
        assert utilization(counted, DEFAULT_COEFFICIENTS) == pytest.approx(
            utilization(repeated, DEFAULT_COEFFICIENTS), rel=1e-12
        )

    @given(st.floats(0.01, 0.95), st.floats(1.02, 5))
    def test_input_time_strictly_increases_with_utilization(self, u, factor):
        assume(u * factor < 0.999)
        cost_1kb = 0.050 + 0.008
        slow = input_time(spec_of([(u / cost_1kb, 1.0)]), DEFAULT_COEFFICIENTS)
        fast = input_time(spec_of([(u * factor / cost_1kb, 1.0)]), DEFAULT_COEFFICIENTS)
        assert fast > slow

    @given(st.floats(0.1, 50), st.floats(1.1, 5), st.floats(0.01, 0.9))
    def test_input_time_strictly_increases_with_probe_size(self, size, factor, u):
        def at(size_kb):
            cost = 0.050 + 0.008 * size_kb
            return input_time(spec_of([(u / cost, size_kb)]), DEFAULT_COEFFICIENTS)

        assert at(size * factor) > at(size)


THREE_LEVEL = HierarchyConfig.from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)


class TestHierarchyLoads:
    def test_level_sizes_include_window_multiplicity(self):
        # Each level-1 window collects 3 flushes from each of 10 sensors.
        assert level_report_sizes_kb(THREE_LEVEL) == (0.5, 15.0, 150.0, 600.0)

    def test_two_level_sizes(self):
        cfg = HierarchyConfig.from_seconds(2, [1, 50, 8], [30, 30, 30], 30)
        assert level_report_sizes_kb(cfg) == (0.5, 25.0, 200.0)

    def test_node_size_counts_services_and_empty_windows_emit_nothing(self):
        # 4 services x 512 B per node report; holds below 30 s still emit every 30 s.
        cfg = HierarchyConfig.from_seconds(2, [4, 5, 4], [30, 10, 10], 30)
        assert level_report_sizes_kb(cfg) == (2.0, 10.0, 40.0)
        root = hierarchy_loads(cfg, DEFAULT_COEFFICIENTS)[2]
        expected = 4 / 30 * (0.050 + 0.008 * 10.0) + (0.010 + 0.003 * 40.0) / 30
        assert root.utilization == pytest.approx(expected, rel=1e-12)

    def test_three_level_defaults_stay_unsaturated(self):
        loads = hierarchy_loads(THREE_LEVEL, DEFAULT_COEFFICIENTS)
        assert set(loads) == {0, 1, 2, 3}
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

    @pytest.mark.parametrize("feeders", [None, (50, 30_000_000, 0.5), (1333, 60_000_000, 0.5)])
    def test_level_load_evaluates_utilization_once(self, monkeypatch, feeders):
        specs = []
        monkeypatch.setattr(
            loadmodel, "utilization", lambda spec, coeffs: specs.append(spec) or utilization(spec, coeffs)
        )
        load = loadmodel.level_load(DEFAULT_COEFFICIENTS, 30_000_000, 25.0, feeders)
        assert len(specs) == 1
        assert load.utilization == utilization(specs[0], DEFAULT_COEFFICIENTS)
        if feeders is not None:  # saturated or not, the same value input_time computes for itself
            assert load.t_in_s == input_time(specs[0], DEFAULT_COEFFICIENTS)

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

    def test_samples_csv_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, synthetic_samples())
        lines = path.read_text().splitlines()
        assert lines[0] == "size_kb,parse_s,serialize_s,aggregate_s"
        assert len(lines) == 5
