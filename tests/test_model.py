"""Tests for the analytic propagation/staleness model."""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiermon.model import SATURATED, HierarchyConfig, LatencyBound, machines_total, seconds_to_micros
from support import delay_tree, reach_closed, reach_recursive


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


def refused(*problems: str):
    """Expect a `HierarchyConfig` to refuse to be built, listing exactly ``problems``."""
    return pytest.raises(ValueError, match=re.escape("invalid hierarchy config: " + "; ".join(problems)) + "$")


class TestValidation:
    def test_well_formed_config_passes(self):
        cfg = config_from_seconds(2, [1, 50, 4], [30, 30, 30], 30)
        assert cfg == HierarchyConfig(2, (1, 50, 4), (30_000_000,) * 3, 30_000_000)

    def test_depth_zero_rejected(self):
        with refused("depth must be >= 1"):
            HierarchyConfig(0, (1,), (10,), 10)

    def test_length_mismatch_reported(self):
        with refused("fanout length must be depth+1 (3), got 2"):
            HierarchyConfig(2, (1, 50), (10, 10, 10), 10)

    def test_nonpositive_hold_reported(self):
        with refused("hold_s[0] must be > 0"):
            HierarchyConfig(1, (1, 10), (0, 10), 10)

    def test_zero_fanout_reported(self):
        with refused("fanout[1] must be >= 1"):
            HierarchyConfig(1, (1, 0), (10, 10), 10)

    def test_nonpositive_period_reported(self):
        with refused("service_period_s must be > 0"):
            HierarchyConfig(1, (1, 10), (10, 10), 0)

    def test_every_broken_rule_is_listed_in_order(self):
        with refused(
            "hold_s length must be depth+1 (2), got 1",
            "fanout[0] must be >= 1",
            "fanout[1] must be >= 1",
            "hold_s[0] must be > 0",
            "service_period_s must be > 0",
        ):
            HierarchyConfig(1, (0, 0), (0,), -1)

    def test_from_seconds_refuses_a_hold_that_rounds_to_zero(self):
        with refused("hold_s[1] must be > 0"):
            config_from_seconds(1, [1, 4], [10, 4e-7], 10)
        with refused("fanout length must be depth+1 (2), got 3", "service_period_s must be > 0"):
            config_from_seconds(1, [1, 4, 4], [10, 10], -1)

    def test_replace_refuses_what_the_constructor_refuses(self):
        cfg = config_from_seconds(2, [1, 50, 4], [30, 30, 30], 30)
        with refused("fanout[2] must be >= 1"):
            dataclasses.replace(cfg, fanout=(1, 50, 0))
        with refused("fanout length must be depth+1 (4), got 3", "hold_s length must be depth+1 (4), got 3"):
            dataclasses.replace(cfg, depth=3)
        assert dataclasses.replace(cfg, service_period_us=1).service_period_us == 1


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

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6))
    def test_machine_count_is_product_of_group_sizes(self, groups):
        depth = len(groups)
        cfg = HierarchyConfig(depth, (1, *groups), (10,) * (depth + 1), 10)
        expected = 1
        for g in groups:
            expected *= g
        assert machines_total(cfg) == expected


class TestPropagationBound:
    """Worked bounds for the reference hierarchies, from records built on given delays."""

    def test_sensor_level_is_pickup_window(self):
        cfg = config_from_seconds(1, [1, 50], [60, 60], 60)
        assert delay_tree(cfg, [0], [0])[0].reach.micros == seconds_to_micros(60)

    def test_single_level_free_network_is_sixty_seconds(self):
        cfg = config_from_seconds(1, [1, 50], [60, 60], 60)
        assert delay_tree(cfg, [0], [0])[1].reach.seconds == pytest.approx(60.0)

    def test_three_level_free_network_is_seventy_seconds(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        assert delay_tree(cfg, [0] * 3, [0] * 3)[3].reach.seconds == pytest.approx(70.0)

    def test_three_level_with_network_delays(self):
        # 10+30+30 of holds, 1+2+3 of inflow, 4+5 of outflow = 85 s at the root.
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        bound = delay_tree(cfg, [1_000_000, 2_000_000, 3_000_000], [4_000_000, 5_000_000, 0])[3].reach
        assert bound.seconds == pytest.approx(85.0)
        assert bound.micros == seconds_to_micros(85)

    def test_saturated_inflow_absorbs_everything_above(self):
        cfg = config_from_seconds(3, [1, 10, 10, 4], [10, 30, 30, 30], 10)
        tree = delay_tree(cfg, [1_000_000, None, 3_000_000], [4_000_000, 5_000_000, 0])
        assert [level.reach.is_saturated for level in tree] == [False, False, True, True]


@st.composite
def configs_with_delays(draw):
    """A tree and its levels 1..depth's delays in µs."""
    depth = draw(st.integers(min_value=1, max_value=6))
    micros = st.integers(min_value=1, max_value=120_000_000)
    fanout = tuple(
        draw(st.lists(st.integers(1, 25), min_size=depth + 1, max_size=depth + 1))
    )
    hold = tuple(draw(st.lists(micros, min_size=depth + 1, max_size=depth + 1)))
    cfg = HierarchyConfig(depth, fanout, hold, draw(micros))
    delay = st.integers(min_value=0, max_value=30_000_000)
    t_in = draw(st.lists(delay, min_size=depth, max_size=depth))
    t_out = draw(st.lists(delay, min_size=depth, max_size=depth))
    return cfg, t_in, t_out


class TestModelInvariants:
    @given(configs_with_delays())
    def test_records_match_both_oracles_exactly(self, case):
        cfg, t_in_us, t_out_us = case
        tree = delay_tree(cfg, t_in_us, t_out_us)
        t_in = (LatencyBound(0), *map(LatencyBound, t_in_us))
        t_out = (0, *t_out_us)
        for level in range(cfg.depth + 1):
            assert tree[level].reach == reach_closed(cfg, t_in, t_out, level)
            assert tree[level].reach == reach_recursive(cfg, t_in, t_out, level)

    @given(configs_with_delays())
    def test_bound_never_decreases_with_level(self, case):
        bounds = [level.reach.micros for level in delay_tree(*case)]
        assert bounds == sorted(bounds)

    @given(configs_with_delays())
    def test_free_network_bound_is_sum_of_windows(self, case):
        cfg, _, _ = case
        tree = delay_tree(cfg, [0] * cfg.depth, [0] * cfg.depth)
        for level in range(1, cfg.depth + 1):
            assert tree[level].reach.micros == sum(cfg.hold_us[:level])

    @given(configs_with_delays(), st.data())
    def test_saturation_propagates_to_root(self, case, data):
        cfg, t_in, t_out = case
        cut = data.draw(st.integers(1, cfg.depth))
        t_in[cut - 1] = None
        tree = delay_tree(cfg, t_in, t_out)
        assert [level.reach.is_saturated for level in tree] == [lv >= cut for lv in range(cfg.depth + 1)]
