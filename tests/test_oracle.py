"""The simulator against the per-leaf closed form in `support`, row for row."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hiermon import sim
from hiermon.loadmodel import LoadCoefficients, hierarchy_loads
from hiermon.model import HierarchyConfig, machines_total
from hiermon.sim import SimConfig, run, write_trace_csv
from support import draw_phases, trace_rows

MS = 1_000

#: Every delay rounds to 0 µs: each arrival lands exactly on the flush below it.
INSTANT = LoadCoefficients(1e-12, 0.0, 0.0, 0.0, 0.0, 0.0)
#: Every delay is a whole millisecond: arrivals meet millisecond flushes often.
ONE_MS = LoadCoefficients(1e-12, 0.0, 0.0, 0.0, 0.0, 0.001)


def _model_delays(config: SimConfig) -> tuple[list[int], list[int]]:
    tree = hierarchy_loads(config.hierarchy, config.coeffs)
    return [level.t_in.micros for level in tree], [level.t_out_us for level in tree]


def _oracle(config: SimConfig, phases) -> str:
    t_in, t_out = _model_delays(config)
    return trace_rows(config.hierarchy, t_in, t_out, config.duration_us, phases)


def _simulated(config: SimConfig, tmp_path) -> str:
    write_trace_csv(tmp_path / "trace.csv", run(config))
    return (tmp_path / "trace.csv").read_bytes().decode()


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_coefficients = st.sampled_from([INSTANT, ONE_MS]) | st.builds(
    LoadCoefficients,
    parse_s_per_kb=_log_uniform(1e-9, 1e-5),
    parse_fixed_s=st.just(0.0) | _log_uniform(1e-7, 1e-4),
    serialize_s_per_kb=st.just(0.0) | _log_uniform(1e-9, 1e-5),
    serialize_fixed_s=st.just(0.0) | _log_uniform(1e-7, 1e-4),
    aggregate_s_per_kb=st.just(0.0) | _log_uniform(1e-9, 1e-6),
    net_latency_s=st.just(0.0) | _log_uniform(1e-5, 3e-3),
)


@st.composite
def oracle_cases(draw):
    """A tree of depth 1-4 with millisecond holds in any order, and a duration no hold divides."""
    depth = draw(st.integers(1, 4))
    fanout = [draw(st.integers(1, 4))] + [draw(st.integers(1, 3)) for _ in range(depth)]
    assume(math.prod(fanout) <= 24)
    holds = [draw(st.integers(1, 9)) * MS for _ in range(depth + 1)]
    hierarchy = HierarchyConfig(depth, tuple(fanout), tuple(holds), draw(st.integers(1, 9)) * MS)
    duration = 3 * sum(holds) + draw(st.integers(1, 2 * max(holds)))
    assume(all(duration % hold for hold in holds))
    config = SimConfig(
        hierarchy, draw(_coefficients), duration, draw(st.integers(0, 2**31)), draw(st.floats(0.0, 0.99))
    )
    loads = hierarchy_loads(hierarchy, config.coeffs)
    assume(all(load.utilization < 1.0 for load in loads[1:]))
    return config


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
@example(SimConfig(HierarchyConfig(2, (3, 2, 2), (4 * MS, 6 * MS, 3 * MS), 2 * MS), ONE_MS, 41 * MS, 7, 0.99))
def test_trace_equals_the_closed_form(tmp_path_factory, config):
    hierarchy = config.hierarchy
    phases = draw_phases(
        config.seed, machines_total(hierarchy), hierarchy.fanout[0], config.jitter_fraction,
        hierarchy.service_period_us,
    )
    assert _simulated(config, tmp_path_factory.mktemp("oracle")) == _oracle(config, phases)


@pytest.mark.parametrize("hold_ms", [6, 5])
def test_late_phases_equal_the_closed_form(monkeypatch, tmp_path, hold_ms):
    """Phases at or above the period make the sensors settle only after the latest one."""
    hierarchy = HierarchyConfig(2, (3, 2, 2), (hold_ms * MS, 4 * MS, 7 * MS), 2 * MS)
    config = SimConfig(hierarchy, ONE_MS, 3 * sum(hierarchy.hold_us) + 1, 11, 0.0)
    phases = [(0, 2_500, 9_000), (1_999, 4_000, 0), (13_000, 1, 3_000), (2_000, 0, 0)]
    sensors = []
    build = sim.SensorLevel

    def recording(*args, **kwargs):
        sensors.append(build(*args, **kwargs))
        return sensors[-1]

    monkeypatch.setattr(sim, "_draw_phases", lambda *args: phases)
    monkeypatch.setattr(sim, "SensorLevel", recording)
    assert _simulated(config, tmp_path) == _oracle(config, phases)
    assert sensors[0].settled_us == 13_000
    assert (sensors[0].steady_shapes is not None) == (hold_ms % 2 == 0)
