"""Publisher, aggregator, and forwarder state machines around event channels.

A Sensor publishes one node window per hold window for one machine.  Its
services tick at ``phase + k * period``, so each flush computes its window
from the phases (see `sensor_flush`) instead of recording ticks.  An
aggregation channel buffers whatever its children publish and, once per hold
window, merges the buffer into a single window that the forwarder
republishes one level up.  The top-level channel emits system windows
instead.

Windows carry leaf keys, not report payloads, and list their children in
the order they were collected; ``hiermon.sim.window_report`` renders one as a
report tree.

All state here is mutated solely by the simulator's event loop; instances
must never be shared mutably across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    """Every leaf a window transitively contains, in depth-first order."""
    if window.level == 0:
        return window.children
    return [leaf for child in window.children for leaf in window_leaves(child)]


@dataclass(slots=True)
class SensorState:
    """Per-machine collector of services ticking at ``phase + k * period_us``."""

    machine_id: str
    machine: int  # index of the machine, carried in each leaf
    phases: tuple[int, ...]  # first tick µs, per service index
    period_us: int
    hold_us: int
    next_flush_us: int = -1

    def __post_init__(self) -> None:
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us


def sensor_flush(sensor: SensorState, now_us: int) -> Window | None:
    """Publish the window ``[now - hold, now)`` as one node window.

    Each service that ticked in the window contributes its freshest tick;
    services are ordered by their first tick in the window, then by index.
    A tick at exactly ``now`` belongs to the next window.  An empty window
    publishes nothing; either way the next flush is scheduled one hold
    period later.
    """
    if now_us != sensor.next_flush_us:
        raise ValueError(
            f"flush at {now_us}us but {sensor.machine_id} is scheduled for {sensor.next_flush_us}us"
        )
    start = now_us - sensor.hold_us
    sensor.next_flush_us += sensor.hold_us
    period = sensor.period_us
    ticks = []  # (first tick in window, service, freshest tick in window)
    for service, phase in enumerate(sensor.phases):
        last = now_us - 1 - (now_us - 1 - phase) % period  # below `phase` if none yet
        if last >= start and last >= phase:
            first = phase if phase >= start else start + (phase - start) % period
            ticks.append((first, service, last))
    if not ticks:
        return None
    ticks.sort()
    leaves = tuple([(sensor.machine, service, last) for _, service, last in ticks])
    return Window(LevelKind.NODE, 0, sensor.machine_id, now_us // 1000, leaves)


@dataclass(slots=True)
class ChannelState:
    """One aggregation channel plus its bound interpreter and forwarder."""

    channel_id: str
    level: int
    hold_us: int
    top_level: bool = False
    buffer: list[Window] = field(default_factory=list)
    next_flush_us: int = -1

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("channel level must be >= 1")
        if self.next_flush_us < 0:
            self.next_flush_us = self.hold_us


def channel_on_publish(channel: ChannelState, window: Window, now_us: int) -> ChannelState:
    """Buffer a window published by a lower level."""
    if window.kind is LevelKind.SYSTEM or window.level >= channel.level:
        raise LevelMismatchError(
            f"level-{window.level} {window.kind.value} window "
            f"cannot enter level-{channel.level} channel {channel.channel_id}"
        )
    if now_us >= channel.next_flush_us:
        raise RuntimeError(
            f"{channel.channel_id}: publish at {now_us}us but flush at "
            f"{channel.next_flush_us}us has not run"
        )
    channel.buffer.append(window)
    return channel


def channel_flush(channel: ChannelState, now_us: int) -> Window | None:
    """Merge the buffered window, in arrival order, into one window for the forwarder.

    Arrivals stamped exactly at flush time are not in the buffer (the event
    loop runs flushes first), so they land in the next window.  No source emits
    two windows with one timestamp (holds are at least 1 ms): nothing to dedup.
    """
    if now_us != channel.next_flush_us:
        raise ValueError(
            f"flush at {now_us}us but {channel.channel_id} is scheduled for "
            f"{channel.next_flush_us}us"
        )
    channel.next_flush_us += channel.hold_us
    if not channel.buffer:
        return None
    kind = LevelKind.SYSTEM if channel.top_level else LevelKind.INTERMEDIATE
    window = Window(kind, channel.level, channel.channel_id, now_us // 1000, tuple(channel.buffer))
    channel.buffer.clear()
    return window
