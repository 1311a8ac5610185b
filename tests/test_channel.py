"""Tests for the sensor and channel levels."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiermon import channel as channel_module
from hiermon.channel import (
    ChannelLevel,
    SensorLevel,
    Window,
    channel_flush,
    channel_publish,
    sensor_flush,
    window_leaves,
    window_shape,
)
from hiermon.report import LevelKind, LevelMismatchError

SECOND = 1_000_000


def fresh_sensor(phases_s=(0, 0), hold_s=10, period_s=10, machine=0):
    """A sensor level of ``machine + 1`` machines ticking alike; `flushed_node` reads the last."""
    phases = tuple(round(phase * SECOND) for phase in phases_s)
    return SensorLevel(
        machine_ids=[f"m-{m + 1:04d}" for m in range(machine + 1)],
        phases=[phases] * (machine + 1),
        period_us=round(period_s * SECOND),
        hold_us=hold_s * SECOND,
    )


def flushed_node(sensors, now_us):
    """Flush a sensor level; the last machine's leaves read out of its block, as a node window.

    None when that machine's window is empty.
    """
    machine = len(sensors.machine_ids) - 1
    block = dict(sensor_flush(sensors, now_us)).get(machine // sensors.group)
    leaves = () if block is None else tuple(leaf for leaf in block.children if leaf[0] == machine)
    if not leaves:
        return None
    return Window(LevelKind.NODE, 0, sensors.machine_ids[machine], now_us // 1000, leaves)


def fresh_channel(level=1, hold_s=30, top=False):
    """A channel level holding one channel."""
    return ChannelLevel(
        channel_ids=[f"ch-{level}-01"], level=level, hold_us=hold_s * SECOND, top_level=top
    )


def publish(channel, window, now_us):
    channel_publish(channel, [(0, window)], now_us)


def flushed_window(channel, now_us):
    """Flush a one-channel level; its window, or None when the buffer was empty."""
    return dict(channel_flush(channel, now_us)).get(0)


def node_window(machine=0, emitted_us=0):
    """One machine's node window holding a single service tick."""
    sensors = SensorLevel(
        machine_ids=[f"m-{m + 1:04d}" for m in range(machine + 1)],
        phases=[(emitted_us,)] * (machine + 1),
        period_us=SECOND,
        hold_us=SECOND,
        next_flush_us=emitted_us + 1,
    )
    return flushed_node(sensors, emitted_us + 1)


def flushed(channel, *windows):
    """Publish windows into a channel and flush it at its first scheduled time."""
    for window in windows:
        publish(channel, window, now_us=0)
    return flushed_window(channel, channel.next_flush_us)


def brute_force_window(phases, period, hold, now):
    """Enumerate every tick before `now`; keep the window's freshest per service."""
    ticks = []
    for service, phase in enumerate(phases):
        in_window = [at for at in range(phase, now, period) if at >= now - hold]
        if in_window:
            ticks.append((min(in_window), service, max(in_window)))
    return [(service, last) for _, service, last in sorted(ticks)]


class TestSensor:
    def test_first_tick_registers_one_pending_report(self):
        sensor = fresh_sensor(phases_s=(1,), period_s=20)
        window = flushed_node(sensor, now_us=10 * SECOND)
        assert window.children == ((0, 0, 1 * SECOND),)

    def test_second_tick_replaces_the_first(self):
        sensor = fresh_sensor(phases_s=(1,), period_s=3)
        window = flushed_node(sensor, now_us=10 * SECOND)
        assert window.children == ((0, 0, 7 * SECOND),)

    def test_freshest_tick_wins_and_keeps_first_tick_order(self):
        # service 1 ticks at 1, 4, 7 s; service 0 at 2, 5, 8 s
        sensor = fresh_sensor(phases_s=(2, 1), period_s=3, machine=6)
        window = flushed_node(sensor, now_us=10 * SECOND)
        assert window.children == ((6, 1, 7 * SECOND), (6, 0, 8 * SECOND))

    def test_first_tick_ties_keep_service_order(self):
        sensor = fresh_sensor(phases_s=(3, 1, 1, 0.5), period_s=4, machine=2)
        window = flushed_node(sensor, now_us=10 * SECOND)
        assert [service for _, service, _ in window.children] == [3, 1, 2, 0]

    def test_later_windows_order_by_first_tick_in_the_window(self):
        # window [10, 20): service 0 first ticks at 11 s, service 1 at 10.5 s
        sensor = fresh_sensor(phases_s=(3, 2.5), period_s=4)
        sensor_flush(sensor, now_us=10 * SECOND)
        window = flushed_node(sensor, now_us=20 * SECOND)
        assert window.children == ((0, 1, 18_500_000), (0, 0, 19 * SECOND))

    def test_tick_at_flush_instant_goes_to_next_window(self):
        sensor = fresh_sensor(phases_s=(10,), period_s=10)
        assert flushed_node(sensor, now_us=10 * SECOND) is None
        window = flushed_node(sensor, now_us=20 * SECOND)
        assert window.children == ((0, 0, 10 * SECOND),)

    def test_flush_emits_node_report_and_clears(self):
        sensor = fresh_sensor(phases_s=range(10), period_s=100, machine=3)
        window = flushed_node(sensor, now_us=10 * SECOND)
        assert window is not None
        assert window.kind is LevelKind.NODE and window.level == 0
        assert window_leaves(window) == tuple((3, i, i * SECOND) for i in range(10))
        assert window.source == "m-0004"
        assert window.generated_at_ms == 10_000
        assert flushed_node(sensor, now_us=20 * SECOND) is None

    def test_empty_window_emits_nothing(self):
        sensor = fresh_sensor(phases_s=(10, 15))
        assert flushed_node(sensor, now_us=10 * SECOND) is None

    def test_flush_right_after_flush_emits_nothing(self):
        sensor = fresh_sensor(phases_s=(1,), period_s=100)
        assert flushed_node(sensor, now_us=10 * SECOND) is not None
        assert flushed_node(sensor, now_us=20 * SECOND) is None

    def test_flush_schedule_is_arithmetic(self):
        sensor = fresh_sensor(hold_s=10)
        assert sensor.next_flush_us == 10 * SECOND
        sensor_flush(sensor, now_us=10 * SECOND)
        assert sensor.next_flush_us == 20 * SECOND
        with pytest.raises(ValueError, match="scheduled"):
            sensor_flush(sensor, now_us=25 * SECOND)

    def test_flush_covers_every_machine_in_index_order(self):
        phases = [(1,), (SECOND + 5,), (2,)]
        sensors = SensorLevel(["m-0001", "m-0002", "m-0003"], phases, 2 * SECOND, SECOND)
        blocks = sensor_flush(sensors, SECOND)
        assert [(j, block.lo, block.hi, block.children) for j, block in blocks] == [
            (0, 0, 1, ((0, 0, 1),)),
            (2, 2, 3, ((2, 0, 2),)),
        ]

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=6),
        st.integers(1, 20),
        st.integers(1, 30),
        st.integers(1, 16),
    )
    def test_window_matches_brute_force_enumeration(self, phases, period, hold, flushes):
        """Every window, computed or reused from a steady schedule, equals direct enumeration."""
        until = flushes * hold
        machines = [tuple(phases), tuple(reversed(phases))]
        sensors = SensorLevel(["m-0001", "m-0002"], machines, period, hold)
        for now in range(hold, until + 1, hold):
            windows = dict(sensor_flush(sensors, now))
            for m, machine_phases in enumerate(machines):
                window = windows.get(m)
                got = [] if window is None else [(s, at) for _, s, at in window.children]
                assert got == brute_force_window(machine_phases, period, hold, now)
        settled_flush = until - hold >= sensors.settled_us
        kept = sensors.steady_shapes is not None
        assert kept == (settled_flush and hold % period == 0)

    @pytest.mark.parametrize(
        "hold_us, period_us, until_us, kept",
        [
            (2, 2, 18, True),  # hold = period: one steady shape per machine
            (4, 2, 20, True),  # every window starts on the same residue
            (2, 2, 2, True),  # every phase below the period: the first window is steady
            (1, 1, 1, False),  # a phase at the period: the first window is not kept
            (3, 2, 30, False),  # shapes alternate with start % period
            (1, 3, 12, False),  # three residues
        ],
    )
    def test_shapes_are_kept_only_for_a_steady_schedule(self, hold_us, period_us, until_us, kept):
        sensors = SensorLevel(["m-0001"], [(0, 1)], period_us, hold_us)
        for now in range(hold_us, until_us + 1, hold_us):
            sensor_flush(sensors, now)
        assert (sensors.steady_shapes is not None) == kept


    @given(
        st.lists(st.integers(0, 19), min_size=1, max_size=6),
        st.integers(1, 20),
        st.integers(1, 4),
    )
    def test_first_window_is_steady_when_every_phase_is_below_the_period(self, phases, period, k):
        """With phases below the period and ``hold = k * period``, ``[0, hold)`` is every window."""
        phases = [phase % period for phase in phases]
        hold = k * period
        first = window_shape(phases, period, 0, hold)
        for j in range(1, 9):
            assert window_shape(phases, period, j * hold, (j + 1) * hold) == first
        sensors = SensorLevel(["m-0001"], [tuple(phases)], period, hold)
        sensor_flush(sensors, hold)
        assert sensors.steady_shapes is not None and sensors.steady_shapes.steady

    @given(st.data(), st.integers(1, 6), st.integers(1, 20), st.integers(1, 4), st.booleans())
    def test_steady_table_equals_window_shape_machine_by_machine(
        self, data, services, period, k, ragged
    ):
        """The closed-form steady table is every machine's `window_shape`, at and after settling.

        Phases reach three periods, so the schedule often settles after 0; a
        ragged level mixes machines of one and of several services.
        """
        phase = st.integers(0, 3 * period)
        width = st.integers(1, services) if ragged else st.just(services)
        machine = width.flatmap(lambda n: st.tuples(*[phase] * n))
        phases = data.draw(st.lists(machine, min_size=1, max_size=6))
        hold = k * period
        ids = [f"m-{m + 1:04d}" for m in range(len(phases))]
        settled = SensorLevel(ids, phases, period, hold).settled_us
        start = settled + data.draw(st.integers(0, 2 * period))
        sensors = SensorLevel(ids, phases, period, hold, next_flush_us=start + hold)
        sensor_flush(sensors, start + hold)
        table = sensors.steady_shapes
        assert table is not None and table.steady
        for now in range(start + hold, start + 6 * hold, hold):  # every later flush reuses it
            for m, machine_phases in enumerate(phases):
                assert table.shapes[m] == window_shape(machine_phases, period, now - hold, now)


class TestSensorBlocks:
    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=6, max_size=6),
        st.integers(1, 20),
        st.integers(1, 30),
        st.sampled_from([1, 2, 3, 6]),
        st.integers(1, 8),
    )
    def test_blocks_hold_their_machines_windows_in_machine_order(
        self, machines, period, hold, group, flushes
    ):
        """One block per level-1 range with a leaf: its machines' windows, counted, oldest known."""
        ids = [f"m-{m + 1:04d}" for m in range(len(machines))]
        sensors = SensorLevel(ids, machines, period, hold, group=group)
        for now in range(hold, flushes * hold + 1, hold):
            expected = {}
            for j in range(len(machines) // group):
                leaves = tuple(
                    (m, s, at)
                    for m in range(j * group, (j + 1) * group)
                    for s, at in brute_force_window(machines[m], period, hold, now)
                )
                if leaves:
                    expected[j] = leaves
            blocks = sensor_flush(sensors, now)
            assert [j for j, _ in blocks] == sorted(expected)
            for j, block in blocks:
                assert (block.at_us, block.lo, block.hi) == (now, j * group, (j + 1) * group)
                assert block.children == expected[j]
                assert block.count == len(expected[j])
                assert block.earliest_us == min(at for _, _, at in expected[j])

    def test_steady_flush_reuses_its_table_without_computing_windows(self, monkeypatch):
        phases = [(0, 3), (1, 2), (5, 5), (9, 0), (4, 8), (2, 6)]
        sensors = SensorLevel([f"m-{m + 1:04d}" for m in range(6)], phases, 10, 10, group=2)
        for now in (10, 20):  # every phase is below the period: the first flush keeps its table
            sensor_flush(sensors, now)
        kept = sensors.steady_shapes
        assert kept is not None

        def forbidden(*args):
            raise AssertionError("a steady flush computed a window shape")

        monkeypatch.setattr(channel_module, "window_shape", forbidden)
        for now in (30, 40, 50):
            blocks = sensor_flush(sensors, now)
            assert [(j, block.at_us, block.lo, block.hi) for j, block in blocks] == [
                (0, now, 0, 2), (1, now, 2, 4), (2, now, 4, 6),
            ]
            assert all(block.table is kept for _, block in blocks)
            assert [leaf for _, block in blocks for leaf in block.children] == [
                (m, s, at)
                for m, machine_phases in enumerate(phases)
                for s, at in brute_force_window(machine_phases, 10, 10, now)
            ]

    def test_machines_must_split_into_whole_ranges(self):
        with pytest.raises(ValueError, match="ranges of 2"):
            SensorLevel(["m-0001", "m-0002", "m-0003"], [(0,)] * 3, 10, 10, group=2)


class TestChannelPublish:
    def test_node_report_buffered(self):
        channel = fresh_channel(level=1)
        publish(channel, node_window(), now_us=SECOND)
        assert len(channel.buffers[0]) == 1

    def test_fifty_publishes_buffered(self):
        channel = fresh_channel(level=1)
        for i in range(50):
            publish(channel, node_window(i), now_us=i)
        assert len(channel.buffers[0]) == 50

    def test_system_report_rejected(self):
        system = flushed(fresh_channel(level=1, top=True), node_window())
        with pytest.raises(LevelMismatchError):
            publish(fresh_channel(level=2), system, now_us=0)

    def test_report_at_or_above_channel_level_rejected(self):
        intermediate = flushed(fresh_channel(level=1), node_window())
        with pytest.raises(LevelMismatchError):
            publish(fresh_channel(level=1), intermediate, now_us=0)
        # but it fits one level up
        publish(fresh_channel(level=2), intermediate, now_us=0)

    def test_publish_after_missed_flush_is_a_bug(self):
        channel = fresh_channel(level=1, hold_s=30)
        with pytest.raises(RuntimeError, match="has not run"):
            publish(channel, node_window(), now_us=30 * SECOND)

    def test_batch_windows_land_in_their_channels(self):
        channels = ChannelLevel(["ch-1-000", "ch-1-001", "ch-1-002"], 1, 30 * SECOND)
        a, b, c = node_window(0), node_window(1), node_window(2)
        channel_publish(channels, [(2, a), (0, b), (2, c)], now_us=SECOND)
        assert channels.buffers == [[b], [], [a, c]]

    def test_rejected_batch_buffers_nothing(self):
        channels = ChannelLevel(["ch-2-000", "ch-2-001"], 2, 30 * SECOND)
        system = flushed(fresh_channel(level=1, top=True), node_window())
        with pytest.raises(LevelMismatchError):
            channel_publish(channels, [(0, system), (1, system)], now_us=0)
        with pytest.raises(RuntimeError, match="has not run"):
            channel_publish(channels, [(1, node_window()), (0, node_window())], now_us=30 * SECOND)
        assert channels.buffers == [[], []]


class TestChannelFlush:
    def test_window_merges_to_single_intermediate(self):
        channel = fresh_channel(level=1)
        for i in range(3):
            publish(channel, node_window(i), now_us=i)
        out = flushed_window(channel, now_us=30 * SECOND)
        assert out is not None
        assert out.kind is LevelKind.INTERMEDIATE and out.level == 1
        assert len(window_leaves(out)) == 3
        assert channel.buffers[0] == []

    def test_children_keep_arrival_order(self):
        out = flushed(fresh_channel(level=1), node_window(2), node_window(0), node_window(1))
        assert [child.source for child in out.children] == ["m-0003", "m-0001", "m-0002"]

    def test_leaves_come_out_depth_first(self):
        inner_a = flushed(fresh_channel(level=1), node_window(4), node_window(2))
        inner_b = flushed(fresh_channel(level=1), node_window(7))
        root = flushed(fresh_channel(level=2, top=True), inner_a, inner_b)
        assert [machine for machine, _, _ in window_leaves(root)] == [4, 2, 7]

    def test_empty_window_still_advances_schedule(self):
        channel = fresh_channel(level=1, hold_s=30)
        assert flushed_window(channel, now_us=30 * SECOND) is None
        assert channel.next_flush_us == 60 * SECOND

    def test_top_level_emits_system_kind(self):
        inner = flushed(fresh_channel(level=1), node_window())
        out = flushed(fresh_channel(level=2, top=True), inner)
        assert out is not None and out.kind is LevelKind.SYSTEM and out.level == 2

    def test_flush_covers_every_channel_in_index_order(self):
        channels = ChannelLevel(["ch-1-000", "ch-1-001", "ch-1-002"], 1, 30 * SECOND)
        channel_publish(channels, [(2, node_window(4)), (0, node_window(1))], now_us=0)
        out = channel_flush(channels, 30 * SECOND)
        assert [(j, window.source, window.children[0].source) for j, window in out] == [
            (0, "ch-1-000", "m-0002"),
            (2, "ch-1-002", "m-0005"),
        ]
        assert channels.buffers == [[], [], []]

    def test_flush_at_wrong_time_rejected(self):
        channel = fresh_channel(level=1, hold_s=30)
        with pytest.raises(ValueError, match="scheduled"):
            channel_flush(channel, now_us=29 * SECOND)

    def test_source_and_timestamp_stamped(self):
        channel = fresh_channel(level=1)
        publish(channel, node_window(), now_us=5)
        out = flushed_window(channel, now_us=30 * SECOND)
        assert out.source == "ch-1-01"
        assert out.generated_at_ms == 30_000


class TestWindowPartition:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=119_999_999), min_size=1, max_size=40
        )
    )
    def test_every_arrival_lands_in_exactly_one_window(self, arrival_times):
        """Drive one channel through 4 windows by hand and partition-check."""
        hold = 30 * SECOND
        channel = fresh_channel(level=1, hold_s=30)
        windows = {
            t: node_window(i, emitted_us=i * 1000)
            for i, t in enumerate(sorted(set(arrival_times)))
        }
        flushed_children: list[Window] = []
        clock_events = sorted(
            [(t, 1, t) for t in windows]
            + [(k * hold, 0, None) for k in range(1, 5)]
        )
        for at, _, key in clock_events:
            if key is None:
                out = flushed_window(channel, at)
                if out is not None:
                    flushed_children.extend(out.children)
            else:
                publish(channel, windows[key], at)
        # Arrivals at exactly 120s stay buffered for the 5th window.
        leftover = list(channel.buffers[0])
        assert sorted(
            w.generated_at_ms for w in flushed_children + leftover
        ) == sorted(w.generated_at_ms for w in windows.values())

    def test_boundary_arrival_goes_to_next_window(self):
        hold = 30 * SECOND
        channel = fresh_channel(level=1, hold_s=30)
        assert flushed_window(channel, hold) is None
        publish(channel, node_window(), now_us=hold)
        out = flushed_window(channel, 2 * hold)
        assert out is not None and len(window_leaves(out)) == 1
