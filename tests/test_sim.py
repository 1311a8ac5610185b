"""Tests for the discrete-event simulator and its model cross-checks."""

from __future__ import annotations

import statistics

import pytest

from hiermon.loadmodel import DEFAULT_COEFFICIENTS, LoadCoefficients, level_report_sizes_kb
from hiermon.model import HierarchyConfig
from hiermon.report import iter_leaves, measure
from hiermon.sim import (
    LosslessnessReport,
    NotComparableError,
    SaturatedTopologyWarning,
    SimConfig,
    check_losslessness,
    check_staleness,
    run,
    verify_against_model,
    write_machines_csv,
    write_trace_csv,
)

SECOND = 1_000_000

CHEAP = LoadCoefficients(
    parse_s_per_kb=1e-9,
    parse_fixed_s=0.0,
    serialize_s_per_kb=0.0,
    serialize_fixed_s=0.0,
    aggregate_s_per_kb=0.0,
    net_latency_s=0.001,
)


def tiny_single_level(**kwargs):
    hierarchy = HierarchyConfig.from_seconds(1, [1, 1], [2, 2], 2)
    return SimConfig.build(hierarchy, **kwargs)


def small_three_level(**kwargs):
    hierarchy = HierarchyConfig.from_seconds(3, [2, 3, 2, 2], [2, 6, 6, 6], 2)
    return SimConfig.build(hierarchy, **kwargs)


class TestSimConfig:
    def test_default_duration_is_three_stacked_holds(self):
        config = small_three_level()
        assert config.duration_us == 3 * (2 + 6 + 6 + 6) * SECOND

    def test_short_duration_rejected(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 2], [2, 2], 2)
        with pytest.raises(ValueError, match="duration"):
            SimConfig.build(hierarchy, duration_s=5)

    def test_jitter_range_enforced(self):
        with pytest.raises(ValueError, match="jitter"):
            tiny_single_level(jitter_fraction=1.0)

    def test_submillisecond_periods_rejected(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 2], [2, 2], 0.0005)
        with pytest.raises(ValueError, match="1 ms"):
            SimConfig.build(hierarchy)

    def test_invalid_hierarchy_rejected(self):
        bad = HierarchyConfig(1, (1, 0), (2 * SECOND, 2 * SECOND), 2 * SECOND)
        with pytest.raises(ValueError, match="fanout"):
            SimConfig(bad, DEFAULT_COEFFICIENTS, 100 * SECOND)


class TestSingleMachine:
    def test_propagation_never_exceeds_hold_plus_floor(self):
        trace = run(tiny_single_level(coeffs=CHEAP))
        assert trace.deliveries
        assert trace.max_observed_prop_us <= 2 * SECOND + 2000
        assert verify_against_model(trace).bound_respected

    def test_every_record_is_causal(self):
        trace = run(tiny_single_level(coeffs=CHEAP))
        for record in trace.deliveries:
            assert record.propagation_us >= 0
            assert record.arrived_root_at_us == record.emitted_at_us + record.propagation_us


class TestDeterminism:
    def test_same_seed_same_trace(self, tmp_path):
        a = run(small_three_level(seed=7, jitter_fraction=0.5))
        b = run(small_three_level(seed=7, jitter_fraction=0.5))
        assert a.deliveries == b.deliveries
        assert a.machines == b.machines
        assert a.event_counts == b.event_counts
        for name, writer in (("trace", write_trace_csv), ("machines", write_machines_csv)):
            writer(tmp_path / f"{name}_a.csv", a)
            writer(tmp_path / f"{name}_b.csv", b)
            assert (tmp_path / f"{name}_a.csv").read_bytes() == (
                tmp_path / f"{name}_b.csv"
            ).read_bytes()

    def test_different_seed_changes_jittered_phases(self):
        a = run(small_three_level(seed=1, jitter_fraction=0.5))
        b = run(small_three_level(seed=2, jitter_fraction=0.5))
        assert a.deliveries != b.deliveries


class TestAgainstModel:
    def test_small_three_level_respects_bound_and_loses_nothing(self):
        trace = run(small_three_level())
        check = verify_against_model(trace)
        assert check.bound_respected
        assert 0 < check.tightness <= 1
        report = check_losslessness(trace)
        assert report.ok and report.covered > 0
        assert trace.unmatched_leaves == 0
        assert check_staleness(trace)

    def test_root_leaves_match_published_multiset_exactly(self):
        trace = run(small_three_level())
        seen = sorted(
            (leaf.service_id, leaf.generated_at_ms)
            for _, report in trace.system_reports
            for leaf in iter_leaves(report)
        )
        assert len(seen) == len(set(seen))
        assert set(seen) <= set(trace.published)

    def test_adversarial_phasing_is_tight(self):
        hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 4], [10, 10, 10], 10)
        trace = run(SimConfig.build(hierarchy))
        check = verify_against_model(trace)
        assert check.bound_respected
        assert check.tightness > 0.8

    def test_root_flush_count_is_floor_of_duration_over_hold(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 2], [2, 2], 2)
        trace = run(SimConfig.build(hierarchy, duration_s=13))
        assert len(trace.root_flush_times_us) == 6
        assert trace.root_flush_times_us == [k * 2 * SECOND for k in range(1, 7)]

    def test_level_path_names_the_machine_chain(self):
        trace = run(small_three_level())
        by_service = {d.service_id: d for d in trace.deliveries}
        record = by_service["m-0008.s0"]
        assert record.level_path == ("ch-1-002", "ch-2-001", "ch-3-000")


    @pytest.mark.parametrize("holds", [(30, 10, 10), (30, 20, 20), (10, 30, 30)])
    def test_model_root_size_matches_observed_system_reports(self, holds):
        hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 4], holds, 10)
        trace = run(SimConfig.build(hierarchy))
        observed_kb = statistics.median(
            measure(report).bytes / 1024 for _, report in trace.system_reports
        )
        model_kb = level_report_sizes_kb(hierarchy)[-1]
        assert model_kb == pytest.approx(observed_kb, rel=0.10)


class TestSaturation:
    def test_oversubscribed_root_is_flagged_not_simulated_away(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 1333], [60, 60], 60)
        with pytest.warns(SaturatedTopologyWarning):
            trace = run(SimConfig.build(hierarchy))
        assert trace.saturated_levels == (1,)
        assert trace.analytic_bound.is_saturated
        assert trace.published
        # pinned delays push every delivery past the end of the run
        assert trace.deliveries == []
        with pytest.raises(NotComparableError):
            verify_against_model(trace)
        report = check_losslessness(trace)
        assert isinstance(report, LosslessnessReport)
        assert check_staleness(trace)


class TestCsvExport:
    def test_trace_csv_header_and_shape(self, tmp_path):
        trace = run(tiny_single_level(coeffs=CHEAP))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "service_id,emitted_at_us,arrived_root_at_us,propagation_us"
        assert len(lines) == 1 + len(trace.deliveries)
        first = lines[1].split(",")
        assert first[0] == "m-0001.s0"
        assert all(cell.isdigit() for cell in first[1:])

    def test_machines_csv_lists_sensors_and_channels(self, tmp_path):
        trace = run(small_three_level())
        path = tmp_path / "machines.csv"
        write_machines_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "channel_id,level,utilization"
        levels = [int(line.split(",")[1]) for line in lines[1:]]
        assert levels.count(0) == 12
        assert levels.count(1) == 4
        assert levels.count(2) == 2
        assert levels.count(3) == 1
