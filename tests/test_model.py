"""Tests for the analytic propagation/staleness model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiermon.model import (
    SATURATED,
    ChannelTimings,
    HierarchyConfig,
    LatencyBound,
    channels_at_level,
    machines_total,
    propagation_time,
    propagation_time_recursive,
    seconds_to_micros,
    staleness_time,
    validate,
)


def config_from_seconds(depth, fanout, hold_s, period_s):
    return HierarchyConfig.from_seconds(depth, fanout, hold_s, period_s)


class TestLatencyBound:
    def test_addition_accumulates_micros(self):
        assert (LatencyBound(3) + LatencyBound(4)).micros == 7
        assert (LatencyBound(3) + 4).micros == 7

    def test_saturation_is_absorbing(self):
        assert (SATURATED + LatencyBound(10)).is_saturated
        assert (LatencyBound(10) + SATURATED).is_saturated

    def test_of_seconds_handles_infinity(self):
        assert LatencyBound.of_seconds(float("inf")).is_saturated
        assert LatencyBound.of_seconds(1.5).micros == 1_500_000

    def test_seconds_view(self):
        assert LatencyBound(2_500_000).seconds == pytest.approx(2.5)
        assert SATURATED.seconds == float("inf")

    def test_str(self):
        assert str(SATURATED) == "Saturated"
        assert "60" in str(LatencyBound(60_000_000))


class TestValidation:
    def test_well_formed_config_passes(self):
        cfg = config_from_seconds(2, [1, 50, 4], [30, 30, 30], 30)
        assert validate(cfg) == []

    def test_depth_zero_rejected(self):
        cfg = HierarchyConfig(0, (1,), (10,), 10)
        assert any("depth" in p for p in validate(cfg))

    def test_length_mismatch_reported(self):
        cfg = HierarchyConfig(2, (1, 50), (10, 10, 10), 10)
        assert any("fanout length" in p for p in validate(cfg))

    def test_nonpositive_hold_reported(self):
        cfg = HierarchyConfig(1, (1, 10), (0, 10), 10)
        assert any("hold_s[0]" in p for p in validate(cfg))

    def test_zero_fanout_reported(self):
        cfg = HierarchyConfig(1, (1, 0), (10, 10), 10)
        assert any("fanout[1]" in p for p in validate(cfg))

    def test_nonpositive_period_reported(self):
        cfg = HierarchyConfig(1, (1, 10), (10, 10), 0)
        assert any("service_period" in p for p in validate(cfg))


class TestTreeCounting:
    def test_single_level_machine_count(self):
        cfg = config_from_seconds(1, [1, 50], [60, 60], 60)
        assert machines_total(cfg) == 50

    def test_two_level_machine_count(self):
        cfg = config_from_seconds(2, [1, 50, 8], [30, 30, 30], 30)
        assert machines_total(cfg) == 400

    def test_three_level_machine_count(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        assert machines_total(cfg) == 400

    def test_channels_at_level(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        # Sensors sit on every machine; the root is unique.
        assert channels_at_level(cfg, 0) == 400
        assert channels_at_level(cfg, 1) == 40
        assert channels_at_level(cfg, 2) == 4
        assert channels_at_level(cfg, 3) == 1

    def test_level_out_of_range(self):
        cfg = config_from_seconds(1, [1, 10], [60, 60], 60)
        with pytest.raises(ValueError):
            channels_at_level(cfg, 2)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6))
    def test_machine_count_is_product_of_group_sizes(self, groups):
        depth = len(groups)
        cfg = HierarchyConfig(depth, (1, *groups), (10,) * (depth + 1), 10)
        expected = 1
        for g in groups:
            expected *= g
        assert machines_total(cfg) == expected


class TestPropagationBound:
    """Worked bounds for the reference hierarchies."""

    def test_sensor_level_is_pickup_window(self):
        cfg = config_from_seconds(1, [1, 50], [60, 60], 60)
        bound = propagation_time(cfg, ChannelTimings.zero(1), 0)
        assert bound.micros == seconds_to_micros(60)

    def test_single_level_free_network_is_sixty_seconds(self):
        cfg = config_from_seconds(1, [1, 50], [60, 60], 60)
        bound = propagation_time(cfg, ChannelTimings.zero(1), 1)
        assert bound.seconds == pytest.approx(60.0)

    def test_three_level_free_network_is_seventy_seconds(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        bound = propagation_time(cfg, ChannelTimings.zero(3), 3)
        assert bound.seconds == pytest.approx(70.0)

    def test_three_level_with_network_delays(self):
        # 10+30+30 of holds, 1+2+3 of inflow, 4+5 of outflow = 85 s at the root.
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        timings = ChannelTimings.from_seconds([1, 2, 3], [4, 5, 0])
        bound = propagation_time(cfg, timings, 3)
        assert bound.seconds == pytest.approx(85.0)
        assert bound.micros == seconds_to_micros(85)

    def test_staleness_adds_one_reporting_period(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        stale = staleness_time(cfg, ChannelTimings.zero(3), 3)
        assert stale.seconds == pytest.approx(80.0)

    def test_saturated_inflow_absorbs_everything_above(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        timings = ChannelTimings.from_seconds([1, float("inf"), 3], [4, 5, 0])
        assert not propagation_time(cfg, timings, 1).is_saturated
        assert propagation_time(cfg, timings, 2).is_saturated
        assert propagation_time(cfg, timings, 3).is_saturated
        assert staleness_time(cfg, timings, 2).is_saturated


@st.composite
def configs_with_timings(draw):
    depth = draw(st.integers(min_value=1, max_value=6))
    micros = st.integers(min_value=1, max_value=120_000_000)
    fanout = tuple(
        draw(st.lists(st.integers(1, 25), min_size=depth + 1, max_size=depth + 1))
    )
    hold = tuple(draw(st.lists(micros, min_size=depth + 1, max_size=depth + 1)))
    cfg = HierarchyConfig(depth, fanout, hold, draw(micros))
    delay = st.integers(min_value=0, max_value=30_000_000)
    t_in = (0, *draw(st.lists(delay, min_size=depth, max_size=depth)))
    t_out = (0, *draw(st.lists(delay, min_size=depth, max_size=depth)))
    return cfg, ChannelTimings(tuple(map(LatencyBound, t_in)), t_out)


class TestModelInvariants:
    @given(configs_with_timings())
    def test_closed_form_matches_recursion_exactly(self, case):
        cfg, timings = case
        for level in range(cfg.depth + 1):
            closed = propagation_time(cfg, timings, level)
            unrolled = propagation_time_recursive(cfg, timings, level)
            assert closed == unrolled

    @given(configs_with_timings())
    def test_bound_never_decreases_with_level(self, case):
        cfg, timings = case
        bounds = [propagation_time(cfg, timings, lv).micros for lv in range(cfg.depth + 1)]
        assert bounds == sorted(bounds)

    @given(configs_with_timings())
    def test_free_network_bound_is_sum_of_windows(self, case):
        cfg, _ = case
        zero = ChannelTimings.zero(cfg.depth)
        for level in range(1, cfg.depth + 1):
            bound = propagation_time(cfg, zero, level)
            assert bound.micros == sum(cfg.hold_us[:level])

    @given(configs_with_timings())
    def test_staleness_exceeds_propagation_by_one_period(self, case):
        cfg, timings = case
        for level in range(cfg.depth + 1):
            prop = propagation_time(cfg, timings, level)
            stale = staleness_time(cfg, timings, level)
            assert stale.micros - prop.micros == cfg.service_period_us

    @given(configs_with_timings(), st.data())
    def test_saturation_propagates_to_root(self, case, data):
        cfg, timings = case
        cut = data.draw(st.integers(1, cfg.depth))
        t_in = list(timings.t_in)
        t_in[cut] = SATURATED
        broken = ChannelTimings(tuple(t_in), timings.t_out_us)
        for level in range(cut, cfg.depth + 1):
            assert propagation_time(cfg, broken, level).is_saturated
            assert propagation_time_recursive(cfg, broken, level).is_saturated
        for level in range(cut):
            assert not propagation_time(cfg, broken, level).is_saturated
