"""Sensor and channel levels: the publishers and aggregators of one tree level.

One object carries a whole level and one call flushes it; README "How the
simulator stays lean" describes sensor blocks and steady shape tables.  A
channel level buffers what the level below publishes into it and, once per
hold window, merges each channel's buffer into one window for the level
above; the top level emits system windows.

A flush returns ``[(channel index, output), …]`` for its non-empty outputs,
in index order; a sensor block's index is its level-1 channel.  Windows list
their children in the order they were collected.  Only the simulator's event
loop mutates this state, and no instance may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

from hiermon.report import LevelKind, LevelMismatchError

#: Builds a NamedTuple from its field values without its Python-level ``__new__``; the
#: flushes build every block and window this way.
_new = tuple.__new__

#: (machine index, service index, emitted µs): one service tick, end to end.
Leaf = tuple[int, int, int]
#: One machine's window as ``(service, last tick - window start)`` pairs.
Shape = tuple[tuple[int, int], ...]


class ShapeTable(NamedTuple):
    """One sensor flush's window shapes, summed per level-1 channel range when built."""

    machine_ids: Sequence[str]
    hold_us: int
    group: int  # machines per level-1 channel
    shapes: list[Shape]  # per machine
    counts: list[int]  # per channel: leaves in its range
    earliest: list[int]  # per channel: smallest offset in its range (0 when it has none)
    steady: bool  # kept as the sensors' `steady_shapes`: every later flush reuses it


def _shape_table(sensors: SensorLevel, shapes: list[Shape], steady: bool) -> ShapeTable:
    """Wrap one flush's per-machine shapes with each channel range's leaf count and earliest offset."""
    group = sensors.group
    counts, earliest = [], []
    for lo in range(0, len(shapes), group):
        offsets = [offset for shape in shapes[lo : lo + group] for _, offset in shape]
        counts.append(len(offsets))
        earliest.append(min(offsets, default=0))
    return ShapeTable(sensors.machine_ids, sensors.hold_us, group, shapes, counts, earliest, steady)


class SensorBlock(NamedTuple):
    """The node windows of machines ``[lo, hi)`` at one sensor flush, as a reference to its shapes.

    A block is the level-0 output: what a level-1 channel buffers as a child.
    Its leaves are its machines' shapes stamped with the window start, in
    machine order, then shape order.
    """

    at_us: int  # flush instant; the window is [at_us - hold, at_us)
    lo: int
    hi: int
    table: ShapeTable

    kind = LevelKind.NODE
    level = 0

    @property
    def count(self) -> int:
        table = self.table
        return table.counts[self.lo // table.group]

    @property
    def earliest_us(self) -> int:
        """The oldest leaf's emission instant; meaningless for an empty block."""
        table = self.table
        return self.at_us - table.hold_us + table.earliest[self.lo // table.group]

    @property
    def children(self) -> tuple[Leaf, ...]:
        """The block's leaves, built on each call."""
        table = self.table
        start = self.at_us - table.hold_us
        shapes = table.shapes
        return tuple(
            [(m, s, start + offset) for m in range(self.lo, self.hi) for s, offset in shapes[m]]
        )


class Window(NamedTuple):
    """One channel's hold window: sensor blocks at level 1, lower-level windows above."""

    kind: LevelKind
    level: int
    source: str
    generated_at_ms: int
    children: tuple


def window_blocks(window: Window | SensorBlock) -> Sequence[SensorBlock]:
    """Every sensor block a window transitively contains, in depth-first order.

    A level-1 window's children are the blocks themselves, so the walk takes
    one call per window and none per block.
    """
    level = window.level
    if level == 1:
        return window.children
    if level == 0:
        return (window,)
    return [block for child in window.children for block in window_blocks(child)]


def window_leaves(window: Window | SensorBlock) -> tuple[Leaf, ...]:
    """Every leaf a window transitively contains, in depth-first order."""
    return tuple([leaf for block in window_blocks(window) for leaf in block.children])


def window_shape(phases: Sequence[int], period_us: int, start_us: int, end_us: int) -> Shape:
    """One machine's window ``[start, end)`` as ordered ``(service, last tick - start)`` pairs.

    Each service that ticked in the window contributes its freshest tick;
    services are ordered by their first tick in the window, then by index.
    A tick at exactly ``end`` belongs to the next window.
    """
    ticks = []  # (first tick in window, service, freshest tick in window)
    for service, phase in enumerate(phases):
        last = end_us - 1 - (end_us - 1 - phase) % period_us  # below `phase` if none yet
        if last >= start_us and last >= phase:
            first = phase if phase >= start_us else start_us + (phase - start_us) % period_us
            ticks.append((first, service, last))
    ticks.sort()
    return tuple([(service, last - start_us) for _, service, last in ticks])


def _steady_shapes(phases: Sequence[tuple], period: int, hold: int, start: int) -> list[Shape]:
    """Every machine's `window_shape` at a steady window ``[start, start + hold)``, in closed form.

    Each service ticks ``hold / period`` times, first ``r = (phase - start) mod period`` into
    the window and last at ``r + hold - period``; services order by ``(r, index)``.
    """
    base = hold - period
    try:  # one service per machine, as in every preset: nothing to sort
        return [((0, (phase - start) % period + base),) for (phase,) in phases]
    except ValueError:
        ticks = [sorted([((p - start) % period, s) for s, p in enumerate(ps)]) for ps in phases]
        return [tuple([(s, r + base) for r, s in machine]) for machine in ticks]


@dataclass(slots=True)
class SensorLevel:
    """Every machine's sensor: services tick at ``phase + k * period_us``, flushes every ``hold_us``.

    Machines are grouped into level-1 channel ranges of ``group`` machines,
    one block each.  A window opening at or after ``settled_us`` sees only
    ticks of the endless schedule, so a machine's window shape depends only
    on its start modulo the period; ``settled_us`` is 0 when every phase is
    below the period, else the latest phase.  When the hold is a multiple of
    the period every settled window starts on the same residue: the first
    builds its table in closed form (`_steady_shapes`) and keeps it in
    ``steady_shapes`` for every later flush, which so costs O(channels).
    Any other hold computes each window with `window_shape` and keeps
    nothing between flushes, so memory never grows with the residues.
    """

    machine_ids: Sequence[str]
    phases: Sequence[tuple[int, ...]]  # per machine, first tick µs per service index
    period_us: int
    hold_us: int
    next_flush_us: int = -1
    group: int = 1
    settled_us: int = field(init=False)
    steady_shapes: ShapeTable | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us
        if self.group < 1 or len(self.phases) % self.group:
            raise ValueError(f"{len(self.phases)} machines do not split into ranges of {self.group}")
        latest = max(chain.from_iterable(self.phases), default=0)
        self.settled_us = 0 if latest < self.period_us else latest


def sensor_flush(sensors: SensorLevel, now_us: int) -> list[tuple[int, SensorBlock]]:
    """Publish every machine's window ``[now - hold, now)`` as one block per level-1 channel.

    A channel whose machines all have empty windows gets nothing; either way
    the next flush is scheduled one hold period later.
    """
    if now_us != sensors.next_flush_us:
        raise ValueError(
            f"flush at {now_us}us but the sensors are scheduled for {sensors.next_flush_us}us"
        )
    start = now_us - sensors.hold_us
    sensors.next_flush_us += sensors.hold_us
    table = sensors.steady_shapes
    if table is None:
        period, hold = sensors.period_us, sensors.hold_us
        if start >= sensors.settled_us and hold % period == 0:
            shapes = _steady_shapes(sensors.phases, period, hold, start)
            table = sensors.steady_shapes = _shape_table(sensors, shapes, True)
        else:
            shapes = [window_shape(phases, period, start, now_us) for phases in sensors.phases]
            table = _shape_table(sensors, shapes, False)
    group = sensors.group
    return [
        (j, _new(SensorBlock, (now_us, j * group, j * group + group, table)))
        for j, count in enumerate(table.counts)
        if count
    ]


@dataclass(slots=True)
class ChannelLevel:
    """Every aggregation channel of one level, with their bound interpreters and forwarders."""

    channel_ids: Sequence[str]
    level: int
    hold_us: int
    top_level: bool = False
    next_flush_us: int = -1
    buffers: list[list[Window | SensorBlock]] = field(init=False)  # per channel index

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("channel level must be >= 1")
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us
        self.buffers = [[] for _ in self.channel_ids]


def channel_publish(
    channels: ChannelLevel, batch: Sequence[tuple[int, Window | SensorBlock]], now_us: int
) -> None:
    """Buffer one flush of a lower level: output ``w`` of ``(j, w)`` goes to channel ``j``.

    A batch comes from one flush of one level, so its windows share kind and
    level, and the receiving level has one flush schedule: one check of each
    rule covers every window.
    """
    j, window = batch[0]
    if window.kind is LevelKind.SYSTEM or window.level >= channels.level:
        raise LevelMismatchError(
            f"level-{window.level} {window.kind.value} window "
            f"cannot enter level-{channels.level} channel {channels.channel_ids[j]}"
        )
    if now_us >= channels.next_flush_us:
        raise RuntimeError(
            f"{channels.channel_ids[j]}: publish at {now_us}us but flush at "
            f"{channels.next_flush_us}us has not run"
        )
    buffers = channels.buffers
    for j, window in batch:
        buffers[j].append(window)


def channel_flush(channels: ChannelLevel, now_us: int) -> list[tuple[int, Window]]:
    """Merge each channel's buffered windows, in arrival order, into one window for its forwarder.

    Arrivals stamped exactly at flush time are not in the buffers (the event
    loop runs flushes first), so they land in the next window.  No source emits
    two windows with one timestamp (holds are at least 1 ms): nothing to dedup.
    """
    if now_us != channels.next_flush_us:
        raise ValueError(
            f"flush at {now_us}us but level-{channels.level} channels are scheduled for "
            f"{channels.next_flush_us}us"
        )
    channels.next_flush_us += channels.hold_us
    kind = LevelKind.SYSTEM if channels.top_level else LevelKind.INTERMEDIATE
    ids = channels.channel_ids
    level = channels.level
    at_ms = now_us // 1000
    out = []
    for j, buffer in enumerate(channels.buffers):
        if buffer:
            out.append((j, _new(Window, (kind, level, ids[j], at_ms, tuple(buffer)))))
            buffer.clear()
    return out
