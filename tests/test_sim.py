"""Tests for the discrete-event simulator and its model cross-checks."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import statistics
import tracemalloc
from collections import Counter
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermon import channel, cli, report, sim
from hiermon.channel import SensorLevel, Window, sensor_flush, window_leaves
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    LoadCoefficients,
    hierarchy_loads,
    hierarchy_timings,
)
from hiermon.model import HierarchyConfig, LatencyBound, machines_total
from hiermon.report import iter_leaves, measure, parse, serialize
from hiermon.sim import (
    LosslessnessReport,
    SimConfig,
    check_staleness,
    run,
    verify_against_model,
    window_report,
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

    def test_row_budget_refuses_before_any_per_machine_state(self, monkeypatch, capsys, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("a refused run built per-machine state")

        monkeypatch.setattr(sim, "SensorLevel", forbidden)
        # 4 000 000 machines x 1 service x 9 sensor flushes in the default 270 s
        argv = ["--out", str(tmp_path), "simulate", "--preset", "two-level-50", "--n-total", "4000000"]
        assert cli.main(argv) == 2
        assert "36000000 rows, above the budget of 10000000" in capsys.readouterr().err

    def test_max_rows_raises_the_budget(self, capsys, tmp_path):
        # 10 machines x 1 service x 6 sensor flushes in the default 360 s
        argv = ["--out", str(tmp_path), "simulate", "--preset", "single-level", "--n-total", "10"]
        assert cli.main([*argv, "--max-rows", "59"]) == 2
        assert "60 rows, above the budget of 59" in capsys.readouterr().err
        assert cli.main([*argv, "--max-rows", "60"]) == 0
        hierarchy = HierarchyConfig.from_seconds(1, [1, 10], [60, 60], 60)
        with pytest.raises(ValueError, match="budget of 59"):
            SimConfig.build(hierarchy, max_rows=59)

    def test_invalid_hierarchy_rejected(self):
        bad = HierarchyConfig(1, (1, 0), (2 * SECOND, 2 * SECOND), 2 * SECOND)
        with pytest.raises(ValueError, match="fanout"):
            SimConfig(bad, DEFAULT_COEFFICIENTS, 100 * SECOND)


class TestSingleMachine:
    def test_propagation_never_exceeds_hold_plus_floor(self):
        trace = run(tiny_single_level(coeffs=CHEAP))
        assert trace.delivered
        assert trace.max_observed_prop_us <= 2 * SECOND + 2000
        assert verify_against_model(trace).bound_respected

    def test_every_record_is_causal(self, tmp_path):
        write_trace_csv(tmp_path / "trace.csv", run(tiny_single_level(coeffs=CHEAP)))
        with open(tmp_path / "trace.csv", newline="") as handle:
            for record in csv.DictReader(handle):
                emitted, arrived, propagation = (
                    int(record[key])
                    for key in ("emitted_at_us", "arrived_root_at_us", "propagation_us")
                )
                assert propagation >= 0
                assert arrived == emitted + propagation


class TestDeterminism:
    def test_same_seed_same_trace(self, tmp_path):
        a = run(small_three_level(seed=7, jitter_fraction=0.5))
        b = run(small_three_level(seed=7, jitter_fraction=0.5))
        assert a.delivered == b.delivered
        assert (a.channel_ids, a.utilization) == (b.channel_ids, b.utilization)
        assert a.event_counts == b.event_counts
        for name, writer in (("trace", write_trace_csv), ("machines", write_machines_csv)):
            writer(tmp_path / f"{name}_a.csv", a)
            writer(tmp_path / f"{name}_b.csv", b)
            assert (tmp_path / f"{name}_a.csv").read_bytes() == (
                tmp_path / f"{name}_b.csv"
            ).read_bytes()

    def test_different_seed_changes_jittered_phases(self, tmp_path):
        write_trace_csv(tmp_path / "a.csv", run(small_three_level(seed=1, jitter_fraction=0.5)))
        write_trace_csv(tmp_path / "b.csv", run(small_three_level(seed=2, jitter_fraction=0.5)))
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


#: sha256 of trace.csv and machines.csv for fixed seeds, recorded when the
#: event loop still passed report objects; any change to delivery order,
#: timing or labels shows up here.
PINNED_OUTPUTS = {
    "jittered": (
        HierarchyConfig.from_seconds(2, [3, 4, 3], [3, 5, 5], 1),
        11,
        0.9,
        "5dcc1f8d5a0f01cad6ac24fa011031dc7f193274388ea083d126ce3fc3f4980b",
        "3f064f757e507c8ff3573ceace1c85409476c782431742bfe0d0854befef59e4",
    ),
    "depth-3": (
        HierarchyConfig.from_seconds(3, [2, 3, 2, 2], [2, 6, 6, 6], 2),
        7,
        0.5,
        "e3d774dbeb849e12d2857424a04b2aafc93fab79c2e10ca9d63e37d23760a5fe",
        "90ddfb4d82cf04a64f37519116dcca1bf755cbc1db94aadb5f43f2bc1e7f3af8",
    ),
    # equal phases, a decreasing hold, period < hold
    "ties": (
        HierarchyConfig.from_seconds(2, [3, 2, 2], [6, 2, 4], 2),
        1,
        0.0,
        "66ab56c77e0851b1392be3795f6f76d6dffe6126f572009aab634b925b9924cb",
        "839081795ff8492df2738b304fabb6ffd799d82eec95ed734561ac4132637bb0",
    ),
    # levels flush together at instants they reached from different push times
    "uneven-holds": (
        HierarchyConfig.from_seconds(3, [2, 2, 3, 2], [1, 2, 3, 5], 1),
        4,
        0.9,
        "7233b8675f596aa92a258a9281657dad226d8d8fd6b17f8f9dc373df05a1d266",
        "ca7f404cb06e9707d1abe30c566385ab46eee851376013f7c78b30fe65ba6d8f",
    ),
    # hold[0] 3 s over a 2 s period: window shapes alternate with start % period
    "residues": (
        HierarchyConfig.from_seconds(2, [2, 3, 2], [3, 4, 6], 2),
        2,
        0.9,
        "bdf1fd308a316ac9e83443c94a1bfe08dbe7cb7ff8566cf63fd25c91c69da75d",
        "b9dc4b6b65aadd6b087002eb29c55c7e2c1619ebd2d2b45fc1b7dc23cef05e91",
    ),
    # hold[0] 1 s under a 3 s period: empty windows, windows before a first tick
    "sparse": (
        HierarchyConfig.from_seconds(2, [2, 2, 3], [1, 3, 4], 3),
        5,
        0.9,
        "267197fa7b0f1469104d8370decef4d578de7764eebfaffb5a01ebeece8a03ad",
        "20718053d58b05776483e4360af3f61e09321e82e6e0cc2e485435406c632385",
    ),
}


@pytest.mark.parametrize("tree", sorted(PINNED_OUTPUTS))
def test_fixed_seed_outputs_are_pinned(tmp_path, tree):
    hierarchy, seed, jitter, trace_sha, machines_sha = PINNED_OUTPUTS[tree]
    trace = run(SimConfig.build(hierarchy, seed=seed, jitter_fraction=jitter))
    write_trace_csv(tmp_path / "trace.csv", trace)
    write_machines_csv(tmp_path / "machines.csv", trace)
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha
    assert hashlib.sha256((tmp_path / "machines.csv").read_bytes()).hexdigest() == machines_sha


def enumerated_published(config: SimConfig) -> set:
    """Every leaf a sensor flushes, from tick phases redrawn the way `run` draws them."""
    hierarchy = config.hierarchy
    period, hold = hierarchy.service_period_us, hierarchy.hold_us[0]
    rng = Random(config.seed)
    published = set()
    for machine in range(machines_total(hierarchy)):
        for service in range(hierarchy.fanout[0]):
            phase = round(rng.random() * config.jitter_fraction * period)
            freshest = {}  # window index -> the window's latest tick
            for at in range(phase, config.duration_us, period):
                if (at // hold + 1) * hold <= config.duration_us:
                    freshest[at // hold] = at
            published.update((machine, service, at) for at in freshest.values())
    return published


@given(
    st.integers(1, 60),
    st.integers(1, 5),
    st.integers(0, 2**32),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1_000, 60_000_000),
)
def test_phases_are_drawn_in_one_pass_as_machine_by_machine(
    machines, services, seed, jitter, period
):
    """The one-pass draw gives the tuples of a nested machine-then-service draw, float for float."""
    random = Random(seed).random
    nested = [
        tuple([round(random() * jitter * period) for _ in range(services)]) for _ in range(machines)
    ]
    assert sim._draw_phases(Random(seed), machines, services, jitter, period) == nested


def run_recording_root_windows(config: SimConfig):
    """Run `config`; also return each root flush as ``(instant, windows)``, in flush order.

    The run keeps no root windows, so this wraps `sim.channel_flush` (whatever
    it is at call time, a faulty patch included) to record them.
    """
    flush = sim.channel_flush
    root_flushes = []

    def recording(channels, now_us):
        out = flush(channels, now_us)
        if channels.top_level:
            root_flushes.append((now_us, [window for _, window in out]))
        return out

    with mock.patch.object(sim, "channel_flush", recording):
        trace = run(config)
    return trace, root_flushes


def root_windows(root_flushes) -> list:
    return [window for _, windows in root_flushes for window in windows]


def multiset_audit(trace, windows) -> tuple[LosslessnessReport, int]:
    """The losslessness audit and the repeated root leaves, by counting every root window.

    A leaf copy counts as duplicated unless it is the first copy of a
    published leaf, so a leaf no sensor published is duplicated too.
    """
    hierarchy = trace.config.hierarchy
    horizon = (
        trace.config.duration_us - trace.analytic_bound.micros - hierarchy.hold_us[hierarchy.depth]
    )
    published = enumerated_published(trace.config)
    counted = Counter(leaf for window in windows for leaf in window_leaves(window))
    covered = [leaf for leaf in published if leaf[2] <= horizon]
    report = LosslessnessReport(
        published=len(published),
        covered=len(covered),
        missing=sum(1 for leaf in covered if counted[leaf] == 0),
        duplicated=sum(count - (leaf in published) for leaf, count in counted.items()),
    )
    return report, sum(count - 1 for count in counted.values())


@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=4, max_size=4),
    st.integers(1, 6),
    st.integers(1, 8),
    st.sampled_from([1, 2, 4]),
)
def test_covered_counts_the_leaves_emitted_by_the_horizon(machines, period, hold, group):
    """A block's covered count, read from its shapes, equals a count over its leaves."""
    sensors = SensorLevel([f"m-{m + 1:04d}" for m in range(4)], machines, period, hold, group=group)
    for now in range(hold, 4 * hold + 1, hold):
        for _, block in sensor_flush(sensors, now):
            for horizon in range(now - hold - 1, now + 1):
                expected = sum(1 for _, _, emitted in block.children if emitted <= horizon)
                assert sim._covered(block, horizon) == expected


class TestAgainstModel:
    def test_small_three_level_respects_bound_and_loses_nothing(self):
        trace = run(small_three_level())
        check = verify_against_model(trace)
        assert check.bound_respected
        assert 0 < check.tightness <= 1
        report = trace.losslessness
        assert report.ok and report.covered > 0
        assert check_staleness(trace)

    def test_root_leaves_match_published_multiset_exactly(self):
        for config in (small_three_level(), small_three_level(seed=3, jitter_fraction=0.5)):
            trace, root_flushes = run_recording_root_windows(config)
            windows = root_windows(root_flushes)
            seen = [leaf for window in windows for leaf in window_leaves(window)]
            assert len(seen) == len(set(seen))
            assert set(seen) <= enumerated_published(config)
            report, repeated = multiset_audit(trace, windows)
            assert report.ok and report.covered > 0 and repeated == 0
            assert trace.losslessness == report

    def test_adversarial_phasing_is_tight(self):
        hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 4], [10, 10, 10], 10)
        trace = run(SimConfig.build(hierarchy))
        check = verify_against_model(trace)
        assert check.bound_respected
        assert check.tightness > 0.8

    def test_root_flush_count_is_floor_of_duration_over_hold(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 2], [2, 2], 2)
        _, root_flushes = run_recording_root_windows(SimConfig.build(hierarchy, duration_s=13))
        assert [now for now, _ in root_flushes] == [k * 2 * SECOND for k in range(1, 7)]

    def test_level_path_names_the_machine_chain(self):
        _, root_flushes = run_recording_root_windows(small_three_level())

        def level_paths(window, above=()):
            """``(machine id, channel ids from level 1 up)`` for each machine under `window`."""
            path = (window.source, *above)
            for child in window.children:
                if child.level == 0:
                    for m in range(child.lo, child.hi):
                        yield child.table.machine_ids[m], path
                else:
                    yield from level_paths(child, path)

        paths = {
            (machine, path)
            for window in root_windows(root_flushes)
            for machine, path in level_paths(window)
            if machine == "m-0008"
        }
        assert paths == {("m-0008", ("ch-1-002", "ch-2-001", "ch-3-000"))}


    @pytest.mark.parametrize("holds", [(30, 10, 10), (30, 20, 20), (10, 30, 30)])
    def test_model_root_size_matches_observed_system_reports(self, holds):
        hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 4], holds, 10)
        _, root_flushes = run_recording_root_windows(SimConfig.build(hierarchy))
        period_s = hierarchy.service_period_seconds
        observed_kb = statistics.median(
            measure(window_report(window, period_s)).bytes / 1024
            for window in root_windows(root_flushes)
        )
        model_kb = hierarchy_loads(hierarchy, DEFAULT_COEFFICIENTS)[-1].size_kb
        assert model_kb == pytest.approx(observed_kb, rel=0.10)


def _unsaturated(config: SimConfig) -> bool:
    timings = hierarchy_timings(hierarchy_loads(config.hierarchy, config.coeffs))
    return not any(t.is_saturated for t in timings.t_in)


@st.composite
def random_small_trees(draw):
    """Depth 1-3, several services per machine, holds in any order, jitter < 0.9."""
    depth = draw(st.integers(1, 3))
    fanout = [draw(st.integers(2, 3))] + [draw(st.integers(1, 3)) for _ in range(depth)]
    holds = [draw(st.integers(1, 6)) for _ in range(depth + 1)]
    period = draw(st.integers(1, 4))
    hierarchy = HierarchyConfig.from_seconds(depth, fanout, holds, period)
    return SimConfig.build(
        hierarchy,
        seed=draw(st.integers(0, 2**31)),
        jitter_fraction=draw(st.floats(0.0, 0.9)),
    )


@settings(max_examples=200, deadline=None)
@given(random_small_trees().filter(_unsaturated))
def test_bound_losslessness_and_staleness_hold_on_random_trees(config):
    trace, root_flushes = run_recording_root_windows(config)
    assert verify_against_model(trace).bound_respected
    assert trace.losslessness.ok
    assert trace.losslessness == multiset_audit(trace, root_windows(root_flushes))[0]
    assert trace.losslessness.published <= config.row_bound
    assert check_staleness(trace)
    propagations = [
        now - emitted
        for now, blocks in trace.arrivals
        for block in blocks
        for _, _, emitted in block.children
    ]
    assert trace.delivered == len(propagations)
    period = config.hierarchy.service_period_us
    worst = trace.max_observed_prop_us
    # the run's own bound, then limits just at and just below the oldest delivery
    for limit in (trace.staleness_bound.micros, worst + period, worst + period - 1):
        if not propagations and limit < period:
            continue  # no model bound is below the period (see check_staleness)
        bounded = dataclasses.replace(trace, staleness_bound=LatencyBound(limit))
        assert check_staleness(bounded) == all(p + period <= limit for p in propagations)


#: A leaf no sensor publishes: no service of machine 0 ticks 1 µs into the run.
INVENTED = (0, 0, 1)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("fault", ["repeat", "drop", "invent", "replace", "copy"])
def test_audit_matches_multiset_count_under_faults(monkeypatch, level, fault):
    """A channel level that repeats, drops, invents or copies one child is caught and counted.

    ``replace`` sends an invented child in place of the first one, and
    ``copy`` an equal copy of it: the audit settles a block that is not the
    published object leaf by leaf, and a copy loses nothing.
    """
    original = sim.channel_flush
    faults = []
    invented = sensor_flush(SensorLevel(["m-0001"], [(1,)], SECOND, SECOND), SECOND)[0][1]
    assert invented.children == (INVENTED,)

    def faulty_flush(channels, now_us):
        out = original(channels, now_us)
        if channels.level == level and out and not faults:
            j, window = out[0]
            children = {
                "repeat": window.children + window.children[:1],
                "drop": window.children[1:],
                "invent": window.children + (invented,),
                "replace": window.children[1:] + (invented,),
                "copy": (window.children[0]._replace(),) + window.children[1:],
            }[fault]
            out[0] = (j, window._replace(children=children))
            faults.append(now_us)
        return out

    monkeypatch.setattr(sim, "channel_flush", faulty_flush)
    config = small_three_level(seed=5, jitter_fraction=0.5)
    assert INVENTED not in enumerated_published(config)
    trace, root_flushes = run_recording_root_windows(config)
    assert faults
    report, repeated = multiset_audit(trace, root_windows(root_flushes))
    assert trace.losslessness == report
    assert report.ok == (fault == "copy")
    # each repeated leaf repeats once; an invented leaf was never in flight
    assert report.duplicated == repeated + (fault in ("invent", "replace"))


@pytest.mark.parametrize(
    "config",
    [
        small_three_level(seed=5, jitter_fraction=0.5),  # covered leaves still in flight
        # root flushes at 4 s steps to 24 s, and level 1 at 24 s sends leaves of
        # [21, 22) s to the root before the run ends at 26 s
        SimConfig.build(
            HierarchyConfig.from_seconds(2, [1, 2, 2], [1, 3, 4], 1), duration_s=26, seed=3,
            jitter_fraction=0.9,
        ),
    ],
    ids=["in-flight", "late"],
)
def test_audit_counts_missing_leaves_for_an_understated_bound(monkeypatch, config):
    """With the bound understated, covered leaves miss the root's last flush."""
    monkeypatch.setattr(sim, "propagation_time", lambda *args: LatencyBound(SECOND // 2))
    trace, root_flushes = run_recording_root_windows(config)
    assert not verify_against_model(trace).bound_respected
    report, repeated = multiset_audit(trace, root_windows(root_flushes))
    assert report.missing > 0 and repeated == 0
    assert trace.losslessness == report


def test_ranges_that_caught_nothing_publish_nothing(monkeypatch):
    """A sensor flush sends no block for a level-1 range whose machines all caught nothing."""
    hierarchy, seed, jitter, _, _ = PINNED_OUTPUTS["sparse"]
    flush = sim.sensor_flush
    published = []

    def recording(sensors, now_us):
        out = flush(sensors, now_us)
        published.append([block for _, block in out])
        return out

    monkeypatch.setattr(sim, "sensor_flush", recording)
    trace = run(SimConfig.build(hierarchy, seed=seed, jitter_fraction=jitter))
    channels = machines_total(hierarchy) // hierarchy.fanout[1]
    assert all(block.count > 0 for blocks in published for block in blocks)
    assert any(len(blocks) < channels for blocks in published)
    # the counts of one window per machine, where an empty window was not published
    assert trace.event_counts == Counter(
        {sim.EventKind.SENSOR_FLUSH: 24, sim.EventKind.CHANNEL_ARRIVAL: 30, sim.EventKind.CHANNEL_FLUSH: 14}
    )


class TestEdgeReports:
    def test_root_windows_render_to_round_tripping_reports(self):
        config = small_three_level(seed=3, jitter_fraction=0.5)
        trace, root_flushes = run_recording_root_windows(config)
        period_s = trace.config.hierarchy.service_period_seconds
        for window in root_windows(root_flushes):
            rendered = window_report(window, period_s)
            assert rendered.level_kind is report.LevelKind.SYSTEM
            assert serialize(window_report(window, period_s)) == serialize(rendered)
            assert parse(serialize(rendered)) == rendered
            assert [(leaf.service_id, leaf.generated_at_ms) for leaf in iter_leaves(rendered)] == [
                (f"m-{m + 1:04d}.s{service}", emitted // 1000)
                for m, service, emitted in window_leaves(window)
            ]

    @pytest.mark.parametrize(
        "config", [tiny_single_level(), small_three_level(seed=3, jitter_fraction=0.5)],
        ids=["depth-1", "depth-3"],
    )
    def test_trace_keeps_no_windows(self, config):
        trace = run(config)
        assert trace.delivered > 0
        pending = [getattr(trace, field.name) for field in dataclasses.fields(trace)]
        seen = set()
        windows = leaves = 0
        while pending:
            value = pending.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            windows += isinstance(value, Window)
            leaves += type(value) is tuple and len(value) == 3 and all(type(x) is int for x in value)
            if isinstance(value, dict):
                pending.extend(value.items())
            elif isinstance(value, (tuple, list, set, frozenset)):
                pending.extend(value)
        assert windows == 0
        assert leaves == 0

    def test_run_builds_no_reports(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the event loop must not build reports")

        for module in (report, channel, sim):
            for name in ("synthetic_service_report", "make_node_report", "aggregate"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        trace = run(small_three_level(seed=4, jitter_fraction=0.5))
        assert trace.delivered
        assert trace.losslessness.ok

    @pytest.mark.parametrize("tree", sorted(PINNED_OUTPUTS))
    def test_simulate_command_writes_pinned_outputs(self, capsys, tmp_path, tree):
        hierarchy, seed, jitter, trace_sha, machines_sha = PINNED_OUTPUTS[tree]
        config_path = tmp_path / "tree.txt"
        cli.write_config_file(config_path, hierarchy)
        argv = ["simulate", "--config", str(config_path), "--seed", str(seed),
                "--jitter", str(jitter), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha
        assert hashlib.sha256((tmp_path / "machines.csv").read_bytes()).hexdigest() == machines_sha
        rows = (tmp_path / "trace.csv").read_text().count("\n") - 1
        assert f"deliveries: {rows}\n" in capsys.readouterr().out


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic collector set enabled or disabled for one test, restored afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    def test_run_pauses_the_collector_and_restores_it(self, monkeypatch, collector):
        original = sim.channel_flush
        during = []

        def watched(channels, now_us):
            during.append(gc.isenabled())
            return original(channels, now_us)

        monkeypatch.setattr(sim, "channel_flush", watched)
        run(small_three_level())
        assert during and not any(during)
        assert gc.isenabled() is collector

    def test_run_restores_the_collector_when_the_loop_raises(self, monkeypatch, collector):
        def broken(channels, now_us):
            raise RuntimeError("channel flush failed")

        monkeypatch.setattr(sim, "channel_flush", broken)
        with pytest.raises(RuntimeError, match="channel flush failed"):
            run(small_three_level())
        assert gc.isenabled() is collector

    def test_trace_export_pauses_the_collector_and_restores_it(
        self, monkeypatch, collector, tmp_path
    ):
        trace = run(small_three_level())
        row_pieces = sim._row_pieces
        during = []
        monkeypatch.setattr(
            sim, "_row_pieces", lambda *args: during.append(gc.isenabled()) or row_pieces(*args)
        )
        write_trace_csv(tmp_path / "trace.csv", trace)
        assert during and not any(during)
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("failure", ["directory", "rows"])
    def test_trace_export_restores_the_collector_when_the_write_raises(
        self, monkeypatch, collector, tmp_path, failure
    ):
        trace = run(small_three_level())
        if failure == "directory":
            path, error = tmp_path, IsADirectoryError
        else:
            path, error = tmp_path / "trace.csv", ZeroDivisionError
            monkeypatch.setattr(sim, "_row_pieces", lambda *args: 1 / 0)
        with pytest.raises(error):
            write_trace_csv(path, trace)
        assert gc.isenabled() is collector


class TestSaturation:
    def test_oversubscribed_root_is_flagged_not_simulated_away(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 1333], [60, 60], 60)
        timings = hierarchy_timings(hierarchy_loads(hierarchy, DEFAULT_COEFFICIENTS))
        assert timings.t_in[1].is_saturated
        with pytest.raises(ValueError, match="saturated channel levels: 1 "):
            run(SimConfig.build(hierarchy))

    def test_saturated_deeper_level_is_named(self):
        # Level 1 carries 5 light feeders; the root's 400 big inputs saturate it.
        hierarchy = HierarchyConfig.from_seconds(2, [1, 5, 400], [30, 30, 30], 30)
        timings = hierarchy_timings(hierarchy_loads(hierarchy, DEFAULT_COEFFICIENTS))
        assert [t.is_saturated for t in timings.t_in] == [False, False, True]
        with pytest.raises(ValueError, match="saturated channel levels: 2 "):
            run(SimConfig.build(hierarchy))

    def test_refusal_comes_before_any_per_machine_state(self):
        hierarchy = HierarchyConfig.from_seconds(1, [1, 200_000], [60, 60], 60)
        config = SimConfig.build(hierarchy)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="saturated channel levels: 1 "):
                run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def reference_trace_csv(trace) -> bytes:
    """trace.csv written leaf by leaf through `csv.writer`, the way the export is specified."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["service_id", "emitted_at_us", "arrived_root_at_us", "propagation_us"])
    machine_ids = trace.channel_ids[0]
    for now, blocks in trace.arrivals:
        for block in blocks:
            for machine, service, emitted in block.children:
                writer.writerow([f"{machine_ids[machine]}.s{service}", emitted, now, now - emitted])
    return out.getvalue().encode()


@st.composite
def export_cases(draw):
    """A random tree, and the channel level (or None) repeating its first child once per flush."""
    config = draw(random_small_trees().filter(_unsaturated))
    return config, draw(st.sampled_from([None, *range(1, config.hierarchy.depth + 1)]))


class TestCsvExport:
    @settings(max_examples=150, deadline=None)
    @given(export_cases())
    def test_trace_csv_equals_a_leaf_by_leaf_writer(self, tmp_path_factory, case):
        """Cached steady rows and directly formatted rows both give the reference bytes.

        A channel level that repeats a child sends the same block (or a window
        of blocks) to the root twice, so cached rows are written twice.
        """
        config, repeating = case
        original = sim.channel_flush

        def repeat_first_child(channels, now_us):
            out = original(channels, now_us)
            if channels.level == repeating and out:
                j, window = out[0]
                out[0] = (j, window._replace(children=window.children + window.children[:1]))
            return out

        with mock.patch.object(sim, "channel_flush", repeat_first_child):
            trace = run(config)
        path = tmp_path_factory.mktemp("export") / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == reference_trace_csv(trace)

    @pytest.mark.parametrize(
        "tree, steady", [("residues", False), ("sparse", False), ("ties", True)]
    )
    def test_only_the_steady_table_is_cached(self, monkeypatch, tmp_path, tree, steady):
        """A schedule that never settles builds no cached rows; a steady one builds them."""
        hierarchy, seed, jitter, trace_sha, _ = PINNED_OUTPUTS[tree]
        trace = run(SimConfig.build(hierarchy, seed=seed, jitter_fraction=jitter))
        built = []
        row_pieces = sim._row_pieces
        monkeypatch.setattr(
            sim, "_row_pieces", lambda *args: built.append(args) or row_pieces(*args)
        )
        write_trace_csv(tmp_path / "trace.csv", trace)
        assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha
        assert bool(built) == steady
        blocks = [block for _, blocks in trace.arrivals for block in blocks]
        assert all(block.table.steady == steady for block in blocks)
        # one build per (range, age), however many times the rows are written
        ages = {(block.lo, now - block.at_us + block.table.hold_us)
                for now, blocks in trace.arrivals for block in blocks}
        assert len(built) == (len(ages) if steady else 0)

    @pytest.mark.parametrize("batch", [1, 7, 10**9])
    def test_batch_size_leaves_the_bytes_alone(self, monkeypatch, tmp_path, batch):
        """Both exports write the pinned bytes whether rows go out one by one, in 7s or at once."""
        monkeypatch.setattr(sim, "_BATCH_ROWS", batch)
        for hierarchy, seed, jitter, trace_sha, machines_sha in PINNED_OUTPUTS.values():
            trace = run(SimConfig.build(hierarchy, seed=seed, jitter_fraction=jitter))
            for name, write, sha in [
                ("trace.csv", write_trace_csv, trace_sha),
                ("machines.csv", write_machines_csv, machines_sha),
            ]:
                write(tmp_path / name, trace)
                assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    def test_trace_csv_header_and_shape(self, tmp_path):
        trace = run(tiny_single_level(coeffs=CHEAP))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "service_id,emitted_at_us,arrived_root_at_us,propagation_us"
        assert len(lines) == 1 + trace.delivered
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
