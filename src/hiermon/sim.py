"""Deterministic discrete-event simulation of a whole monitoring tree.

The event loop drives sensor flushes, channel flushes and message arrivals
on an integer-microsecond clock.  Delivery delays are the load model's
per-level input/output times, so every observed propagation can be compared
exactly against the analytic worst-case bound computed from the same
numbers.  `SimConfig` refuses a run whose trace could exceed the row budget,
and `run` refuses a saturated tree, both before any per-machine state.

Event rules.  Every level is one object with one flush schedule, and the
heap holds one entry per (instant, kind, level): ``SENSOR_FLUSH`` and
``CHANNEL_FLUSH`` flush a whole level in index order, and
``CHANNEL_ARRIVAL`` hands one level the ``(channel, output)`` pairs of one
flush below, in source order, ``t_out[L] + t_in[L+1]`` after it
(``t_in[1]`` after the sensors' flush).  At equal instants channel flushes
run first, then the sensor flush, then arrivals, so an output arriving
exactly at a flush instant lands in the next window.  No two entries share
a key, since each receiving level is fed by one source level over one fixed
delay, so members act in the order per-member events with a push-sequence
tie-break would run them, and each channel buffers its children in source
order.

Invariants.
- Leaves exist only at the edge.  A sensor flush publishes one
  `channel.SensorBlock` per non-empty level-1 channel; a steady schedule
  builds one shape table in closed form, at the first flush when every
  phase is below the period, and reuses it, so such a flush costs
  O(channels).  Expanding blocks in machine order, then shape order, gives
  the order of one window per machine, so `window_leaves`,
  `write_trace_csv` and `window_report` see the per-leaf depth-first order.
- `write_trace_csv` caches steady-table rows per (range, age) less their
  emission instant (machines x services x distinct ages at most; other
  tables cache nothing).  Both exports write `_BATCH_ROWS`-row batches.
- The trace keeps no window and no leaf: `SimTrace.arrivals` logs
  ``(now, blocks)`` per root arrival, and counts and the worst propagation
  come from each block's leaf count and earliest offset.
- Losslessness is audited at the root flush.  In-flight blocks are keyed by
  (flush instant, machine range), and only the block object the sensors
  published consumes its entry.  Any other block (repeated or invented by a
  faulty channel) is settled leaf by leaf against its ranges' entries, so
  the counts equal a multiset count of root leaves.  Leaf-level work is left
  for that, for a flush straddling the coverage horizon, and for the
  end-of-run ``missing`` count.
- `run` and `write_trace_csv` pause the cyclic collector: neither builds
  reference cycles, so reference counting frees all they discard.
- One `Random(seed)` draws the tick phases before the loop and nothing else:
  identical configs give byte-identical exports.
"""

from __future__ import annotations

import enum
import gc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from math import prod
from pathlib import Path
from random import Random
from typing import Iterator, NamedTuple, Sequence

from hiermon.channel import (
    ChannelLevel,
    Leaf,
    SensorBlock,
    SensorLevel,
    Window,
    channel_flush,
    channel_publish,
    sensor_flush,
    window_blocks,
)
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    LoadCoefficients,
    hierarchy_loads,
    hierarchy_timings,
)
from hiermon.model import (
    MAX_ROWS,
    HierarchyConfig,
    LatencyBound,
    machines_total,
    propagation_time,
    require_valid,
    seconds_to_micros,
    staleness_time,
)
from hiermon.report import LevelKind, Report, synthetic_service_report


class EventKind(enum.Enum):
    """What the event loop does next, in the order events at equal times run."""

    CHANNEL_FLUSH = "channel-flush"
    SENSOR_FLUSH = "sensor-flush"
    CHANNEL_ARRIVAL = "channel-arrival"


_KINDS = tuple(EventKind)
_CHANNEL_FLUSH, _SENSOR_FLUSH, _ARRIVAL = range(len(_KINDS))  # heap keys

_MIN_WINDOW_US = 1_000  # report timestamps are milliseconds; finer windows alias

_BATCH_ROWS = 1_000  # rows per write of either CSV export: few writes, small strings


@dataclass(frozen=True)
class SimConfig:
    """One run's inputs: the tree, its cost coefficients, length, seed, tick jitter and row budget."""

    hierarchy: HierarchyConfig
    coeffs: LoadCoefficients = DEFAULT_COEFFICIENTS
    duration_us: int = 0
    seed: int = 1
    jitter_fraction: float = 0.0
    max_rows: int = MAX_ROWS

    @classmethod
    def build(
        cls,
        hierarchy: HierarchyConfig,
        coeffs: LoadCoefficients = DEFAULT_COEFFICIENTS,
        duration_s: float | None = None,
        seed: int = 1,
        jitter_fraction: float = 0.0,
        max_rows: int = MAX_ROWS,
    ) -> "SimConfig":
        if duration_s is None:
            duration_us = 3 * sum(hierarchy.hold_us)
        else:
            duration_us = seconds_to_micros(duration_s)
        return cls(hierarchy, coeffs, duration_us, seed, jitter_fraction, max_rows)

    def __post_init__(self) -> None:
        require_valid(self.hierarchy)
        if self.duration_us < 3 * sum(self.hierarchy.hold_us):
            raise ValueError("duration must cover at least 3 runs of stacked hold windows")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.hierarchy.service_period_us < _MIN_WINDOW_US:
            raise ValueError("service period below 1 ms aliases report timestamps")
        if min(self.hierarchy.hold_us) < _MIN_WINDOW_US:
            raise ValueError("hold windows below 1 ms alias report timestamps")
        if self.row_bound > self.max_rows:
            raise ValueError(
                f"the trace could reach {self.row_bound} rows, above the budget of "
                f"{self.max_rows} (--max-rows raises it)"
            )

    @property
    def row_bound(self) -> int:
        """The most trace rows a run can write: one per service per sensor flush."""
        hierarchy = self.hierarchy
        flushes = self.duration_us // hierarchy.hold_us[0]
        return machines_total(hierarchy) * hierarchy.fanout[0] * flushes


@dataclass
class SimTrace:
    """What one `run` saw: the root arrivals, the model's utilization and bounds, and the audits."""

    config: SimConfig
    arrivals: list[tuple[int, Sequence[SensorBlock]]]  # (root arrival µs, delivered blocks)
    delivered: int  # leaves in `arrivals`
    channel_ids: list[Sequence[str]]  # [level][index] -> id; level 0 is the machines
    utilization: list[float]  # [level] -> the load model's utilization
    max_observed_prop_us: int
    analytic_bound: LatencyBound
    staleness_bound: LatencyBound
    losslessness: LosslessnessReport
    event_counts: Counter


class ModelCheck(NamedTuple):
    """Whether the worst observed propagation stayed within the analytic bound, and their ratio."""

    bound_respected: bool
    tightness: float


class LosslessnessReport(NamedTuple):
    """What the root's system windows carried, against what the sensors published.

    A published leaf is covered when the propagation bound plus one root hold
    still fits before the end of the run.  ``missing`` counts covered leaves that reached no root window.
    ``duplicated`` counts root-window leaf copies that were not in flight at
    their root flush: every copy of a leaf after its first, and every copy of
    a leaf no sensor published.
    """

    published: int
    covered: int
    missing: int
    duplicated: int

    @property
    def ok(self) -> bool:
        return self.missing == 0 and self.duplicated == 0


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector in a block or call; restore the caller's setting after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _machine_labels(total: int) -> list[str]:
    width = max(4, len(str(total)))
    return ["m-" + str(number).zfill(width) for number in range(1, total + 1)]


def _draw_phases(rng: Random, machines: int, services: int, jitter: float, period: int) -> list:
    """Each machine's first tick per service, drawn machine by machine, then service by service."""
    random = rng.random
    draws = [round(random() * jitter * period) for _ in range(machines * services)]
    return list(zip(*[iter(draws)] * services))


def _covered(block: SensorBlock, horizon_us: int) -> int:
    """How many of a block's leaves were emitted by ``horizon_us``."""
    if block.at_us - 1 <= horizon_us:
        return block.count
    if block.earliest_us > horizon_us:
        return 0
    table = block.table
    last = horizon_us - block.at_us + table.hold_us  # the latest covered offset
    shapes = table.shapes[block.lo : block.hi]
    return sum(1 for shape in shapes for _, offset in shape if offset <= last)


def _settle_leaves(
    in_flight: dict[tuple[int, int, int], SensorBlock | set[Leaf]],
    leaves: Sequence[Leaf],
    hold_us: int,
    group: int,
) -> int:
    """Take leaves out of the in-flight entries of their ranges; return how many were not in flight.

    A leaf emitted at ``e`` by machine ``m`` was published by the sensor flush
    at ``(e // hold + 1) * hold`` in the block of ``m``'s level-1 range.  An
    entry still holding that block object is spelled out as a leaf set first.
    """
    duplicated = 0
    for leaf in leaves:
        machine, _, emitted = leaf
        lo = machine - machine % group
        key = ((emitted // hold_us + 1) * hold_us, lo, lo + group)
        entry = in_flight.get(key)
        if isinstance(entry, SensorBlock):
            entry = in_flight[key] = set(entry.children)
        if entry is not None and leaf in entry:
            entry.remove(leaf)
        else:
            duplicated += 1
    return duplicated


@_collector_paused()
def run(config: SimConfig) -> SimTrace:
    """Execute one simulation; see the module docstring for the event rules.

    Raises :class:`ValueError` naming the saturated levels when the load
    model puts any channel level at utilization 1 or above.
    """
    hierarchy = config.hierarchy
    depth = hierarchy.depth
    loads = hierarchy_loads(hierarchy, config.coeffs)
    model_timings = hierarchy_timings(loads)
    saturated = [lv for lv in range(1, depth + 1) if model_timings.t_in[lv].is_saturated]
    if saturated:
        raise ValueError(
            f"saturated channel levels: {', '.join(map(str, saturated))} "
            "(utilization >= 1); the simulator needs finite delays at every level"
        )
    bound = propagation_time(hierarchy, model_timings, depth)
    stale_bound = staleness_time(hierarchy, model_timings, depth)
    t_in_us = [t.micros for t in model_timings.t_in]
    t_out_us = model_timings.t_out_us

    n_machines = machines_total(hierarchy)
    period_us = hierarchy.service_period_us
    hold0_us = hierarchy.hold_us[0]

    machine_ids = _machine_labels(n_machines)
    # group[level] = machines under one level-`level` channel
    group = [prod(hierarchy.fanout[1 : level + 1]) for level in range(depth + 1)]
    channel_ids = [machine_ids] + [  # level 0 is the sensors
        [f"ch-{level}-{j:03d}" for j in range(n_machines // group[level])]
        for level in range(1, depth + 1)
    ]

    phases = _draw_phases(
        Random(config.seed), n_machines, hierarchy.fanout[0], config.jitter_fraction, period_us
    )
    sensors = SensorLevel(machine_ids, phases, period_us, hold0_us, group=group[1])
    levels: list = [sensors] + [
        ChannelLevel(channel_ids[level], level, hierarchy.hold_us[level], top_level=level == depth)
        for level in range(1, depth + 1)
    ]
    # hop_us[level] = delay from a flush at `level` to its arrival one level up
    hop_us = [t_in_us[1]] + [t_out_us[level] + t_in_us[level + 1] for level in range(1, depth)]
    # a leaf emitted by then has the bound plus one root hold to reach a root window
    horizon = config.duration_us - bound.micros - hierarchy.hold_us[depth]

    heap: list[tuple[int, int, int, list | None]] = []  # (at, kind, level, arrival batch)

    def push(at: int, kind: int, level: int, batch: list | None = None) -> None:
        if at <= config.duration_us:
            heappush(heap, (at, kind, level, batch))

    push(hold0_us, _SENSOR_FLUSH, 0)
    for level in range(1, depth + 1):
        push(hierarchy.hold_us[level], _CHANNEL_FLUSH, level)

    arrivals: list[tuple[int, Sequence[SensorBlock]]] = []
    # (flush instant, lo, hi) -> the published block, or its leaves not yet delivered
    in_flight: dict[tuple[int, int, int], SensorBlock | set[Leaf]] = {}
    published = covered = duplicated = 0
    counts: Counter = Counter()  # heap key -> events run

    while heap:
        now, kind, level, batch = heappop(heap)
        counts[kind] += 1

        if kind == _ARRIVAL:
            if level == depth:
                arrivals.append((now, [block for _, out in batch for block in window_blocks(out)]))
            channel_publish(levels[level], batch, now)
            continue

        push(now + hierarchy.hold_us[level], kind, level)
        if level == 0:
            outs = sensor_flush(sensors, now)
            for _, block in outs:
                in_flight[now, block.lo, block.hi] = block
                published += block.count
                covered += _covered(block, horizon)
        else:
            outs = channel_flush(levels[level], now)
            if level == depth:  # the root: its one window is the system report
                for _, out in outs:
                    for block in window_blocks(out):
                        key = (block.at_us, block.lo, block.hi)
                        if in_flight.get(key) is block:
                            del in_flight[key]
                        else:
                            duplicated += _settle_leaves(in_flight, block.children, hold0_us, group[1])
                continue
            fanout = hierarchy.fanout[level + 1]
            outs = [(j // fanout, out) for j, out in outs]
        if outs:
            push(now + hop_us[level], _ARRIVAL, level + 1, outs)

    missing = sum(
        _covered(entry, horizon)
        if isinstance(entry, SensorBlock)
        else sum(1 for leaf in entry if leaf[2] <= horizon)
        for entry in in_flight.values()
    )

    return SimTrace(
        config=config,
        arrivals=arrivals,
        delivered=sum(block.count for _, blocks in arrivals for block in blocks),
        channel_ids=channel_ids,
        utilization=[load.utilization for load in loads],
        max_observed_prop_us=max(
            (now - block.earliest_us for now, blocks in arrivals for block in blocks), default=0
        ),
        analytic_bound=bound,
        staleness_bound=stale_bound,
        losslessness=LosslessnessReport(published, covered, missing, duplicated),
        event_counts=Counter({_KINDS[kind]: n for kind, n in counts.items()}),
    )


def verify_against_model(trace: SimTrace) -> ModelCheck:
    """Compare the worst observed propagation against the analytic bound."""
    bound_us = trace.analytic_bound.micros
    return ModelCheck(
        bound_respected=trace.max_observed_prop_us <= bound_us,
        tightness=trace.max_observed_prop_us / bound_us,
    )


def check_staleness(trace: SimTrace) -> bool:
    """Every delivered leaf's age on root arrival stays within the staleness bound.

    A leaf's age is its propagation plus one service period, so the oldest
    delivery decides: this is "every ``trace.csv`` row has ``propagation_us +
    period <= limit``" without reading the rows.  With no deliveries both
    read true, since `model.staleness_time` is the propagation bound plus
    the service period and so never below the period.
    """
    limit = trace.staleness_bound.micros
    period = trace.config.hierarchy.service_period_us
    return trace.max_observed_prop_us + period <= limit


def window_report(window: Window, service_period_s: float) -> Report:
    """Render a simulated window as a report tree with synthetic metric payloads.

    Each sensor block becomes one node report per machine with a non-empty
    window, in machine order.  Payloads come from a generator private to this
    call and seeded alike every time, so a window always renders to the same
    report and the run's own random stream is never read.
    """
    rng = Random(0)

    def nodes(block: SensorBlock) -> list[Report]:
        table = block.table
        start = block.at_us - table.hold_us
        at_ms = block.at_us // 1000
        reports = []
        for m in range(block.lo, block.hi):
            if shape := table.shapes[m]:
                source = table.machine_ids[m]
                services = tuple(
                    synthetic_service_report(
                        f"{source}.s{s}", source, service_period_s,
                        (start + offset) // 1000, rng,
                    )
                    for s, offset in shape
                )
                reports.append(Report(LevelKind.NODE, source, at_ms, services))
        return reports

    def render(w: Window) -> Report:
        children = []
        for child in w.children:
            if child.level == 0:
                children.extend(nodes(child))
            else:
                children.append(render(child))
        return Report(w.kind, w.source, w.generated_at_ms, tuple(children))

    return render(window)


def _row_pieces(block: SensorBlock, age: int) -> list[tuple[str, int, str]]:
    """A block's rows delivered ``age`` after its window start: ``(label + ",", offset, tail)``."""
    table = block.table
    ids, shapes = table.machine_ids, table.shapes
    return [
        (f"{ids[m]}.s{s},", offset, f"{age - offset}\r\n")
        for m in range(block.lo, block.hi)
        for s, offset in shapes[m]
    ]


@_collector_paused()
def write_trace_csv(path: Path | str, trace: SimTrace) -> None:
    """CSV rows as `csv.writer` would write them; service ids never need quoting.

    A row is ``label, start + offset, now, age - offset`` with ``age = now - start``.
    """
    # (id(steady table), lo, age) -> row pieces; `trace.arrivals` keeps the tables alive
    pieces: dict[tuple[int, int, int], list[tuple[str, int, str]]] = {}
    out = ["service_id,emitted_at_us,arrived_root_at_us,propagation_us\r\n"]
    with open(path, "w", newline="") as handle:
        for now, blocks in trace.arrivals:
            arrived = f",{now},"
            for block in blocks:
                table = block.table
                start = block.at_us - table.hold_us
                age = now - start
                if table.steady:
                    key = (id(table), block.lo, age)
                    rows = pieces.get(key)
                    if rows is None:
                        rows = pieces[key] = _row_pieces(block, age)
                    out += [f"{head}{start + offset}{arrived}{tail}" for head, offset, tail in rows]
                else:
                    ids, shapes = table.machine_ids, table.shapes
                    out += [
                        f"{ids[m]}.s{s},{start + offset}{arrived}{age - offset}\r\n"
                        for m in range(block.lo, block.hi)
                        for s, offset in shapes[m]
                    ]
                if len(out) >= _BATCH_ROWS:
                    handle.write("".join(out))
                    out.clear()
        handle.write("".join(out))


def write_machines_csv(path: Path | str, trace: SimTrace) -> None:
    """CSV rows as `csv.writer` would write them; ids and float reprs never need quoting."""
    with open(path, "w", newline="") as handle:
        handle.write("channel_id,level,utilization\r\n")
        for level, (ids, utilization) in enumerate(zip(trace.channel_ids, trace.utilization)):
            tail = f",{level},{utilization!r}\r\n"
            for lo in range(0, len(ids), _BATCH_ROWS):
                handle.write(tail.join(ids[lo : lo + _BATCH_ROWS]) + tail)
