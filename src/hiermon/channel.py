"""Sensor and channel levels: the publishers and aggregators of one tree level.

Every member of a level shares its hold and flush schedule, so one object
carries a whole level and one call flushes it.  A sensor level holds each
machine's service phases: services tick at ``phase + k * period``, so a
flush computes each machine's window from the phases instead of recording
ticks, and reuses the window shapes of a steady schedule (see
`SensorLevel`).  A channel level buffers whatever the level below publishes
into it and, once per hold window, merges each channel's buffer into a
single window that the forwarder republishes one level up.  The top-level
channel emits system windows instead.

A flush returns ``[(member index, window), …]`` for its non-empty windows,
in index order.  Windows carry leaf keys, not report payloads, and list
their children in the order they were collected;
``hiermon.sim.window_report`` renders one as a report tree.

All state here is mutated solely by the simulator's event loop; instances
must never be shared mutably across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from hiermon.report import LevelKind, LevelMismatchError

#: (machine index, service index, emitted µs): one service tick, end to end.
Leaf = tuple[int, int, int]


class Window(NamedTuple):
    """One hold window's output: leaves at level 0, lower-level windows above."""

    kind: LevelKind
    level: int
    source: str
    generated_at_ms: int
    children: tuple


def window_leaves(window: Window) -> tuple[Leaf, ...] | list[Leaf]:
    """Every leaf a window transitively contains, in depth-first order.

    Node children are read in place rather than through a call each: the
    simulator walks each window that reaches the root twice, on arrival and
    at the root flush.
    """
    if window.level == 0:
        return window.children
    return [
        leaf
        for child in window.children
        for leaf in (child.children if child.level == 0 else window_leaves(child))
    ]


def window_shape(
    phases: Sequence[int], period_us: int, start_us: int, end_us: int
) -> tuple[tuple[int, int], ...]:
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


@dataclass(slots=True)
class SensorLevel:
    """Every machine's sensor: services tick at ``phase + k * period_us``, flushes every ``hold_us``.

    Once a window opens at or after ``settled_us`` (one period, or the latest
    phase if later) every service has ticked, so a machine's window shape
    depends only on the window start modulo the period.  When the hold is a
    multiple of the period every such window starts on the same residue: the
    first of them keeps its shapes in ``steady_shapes`` and later flushes
    reuse them.  Any other hold computes every window afresh and keeps
    nothing between flushes, so memory never grows with the residues.
    """

    machine_ids: Sequence[str]
    phases: Sequence[tuple[int, ...]]  # per machine, first tick µs per service index
    period_us: int
    hold_us: int
    next_flush_us: int = -1
    settled_us: int = field(init=False)
    steady_shapes: list[tuple[tuple[int, int], ...]] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us
        self.settled_us = max(self.period_us, max(map(max, self.phases), default=0))


def sensor_flush(sensors: SensorLevel, now_us: int) -> list[tuple[int, Window]]:
    """Publish every machine's window ``[now - hold, now)`` as one node window each.

    Machines with an empty window publish nothing; either way the next flush
    is scheduled one hold period later.
    """
    if now_us != sensors.next_flush_us:
        raise ValueError(
            f"flush at {now_us}us but the sensors are scheduled for {sensors.next_flush_us}us"
        )
    start = now_us - sensors.hold_us
    sensors.next_flush_us += sensors.hold_us
    shapes = sensors.steady_shapes
    if shapes is None:
        period = sensors.period_us
        shapes = [window_shape(phases, period, start, now_us) for phases in sensors.phases]
        if start >= sensors.settled_us and sensors.hold_us % period == 0:
            sensors.steady_shapes = shapes
    ids = sensors.machine_ids
    at_ms = now_us // 1000
    node = LevelKind.NODE
    return [
        (m, Window(node, 0, ids[m], at_ms, tuple([(m, s, start + offset) for s, offset in shape])))
        for m, shape in enumerate(shapes)
        if shape
    ]


@dataclass(slots=True)
class ChannelLevel:
    """Every aggregation channel of one level, with their bound interpreters and forwarders."""

    channel_ids: Sequence[str]
    level: int
    hold_us: int
    top_level: bool = False
    next_flush_us: int = -1
    buffers: list[list[Window]] = field(init=False)  # per channel index

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("channel level must be >= 1")
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us
        self.buffers = [[] for _ in self.channel_ids]


def channel_publish(
    channels: ChannelLevel, batch: Sequence[tuple[int, Window]], now_us: int
) -> None:
    """Buffer one flush of a lower level: window ``w`` of ``(j, w)`` goes to channel ``j``.

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
            out.append((j, Window(kind, level, ids[j], at_ms, tuple(buffer))))
            buffer.clear()
    return out
