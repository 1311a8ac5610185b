"""Deterministic discrete-event simulation of a whole monitoring tree.

The event loop drives sensor flushes, channel flushes and message arrivals
on an integer-microsecond clock.  Delivery delays are the load model's
per-level input/output times, so every observed propagation can be compared
exactly against the analytic worst-case bound computed from the same
numbers.  A tree with a saturated level has no finite delays to replay, so
`run` refuses it before building any per-machine state.

Event rules.  All sensors share one flush schedule, and so do all channels
of one level, so each level is one object (`SensorLevel`, `ChannelLevel`)
and the heap holds one entry per (instant, kind, level):

- ``SENSOR_FLUSH`` flushes the sensor level, every machine in index order.
  Service ticks are not events: each window comes from the services' phases.
- ``CHANNEL_FLUSH`` flushes one channel level, every channel in index order.
- ``CHANNEL_ARRIVAL`` hands one level a batch of ``(channel, window)``
  pairs in source order.  The non-empty windows of a level-L flush at ``t``
  arrive as one batch at ``t + t_out[L] + t_in[L+1]`` (``t + t_in[1]`` for
  the sensors' flush).

At equal instants channel flushes run first, then the sensor flush, then
arrivals, so a window arriving exactly at a flush instant lands in the next
window.  No two entries share a key: each level has one flush schedule, and
each receiving level is fed by one source level over one fixed delay, so it
gets at most one batch per instant.  Members of one level therefore act in
index order, the order per-member events with a push-sequence tie-break
would run in, and each channel buffers its children in source order.

Arrival log.  The run's output is a log of root arrivals, not one object per
delivered leaf: each window reaching the root appends ``(now, leaves)`` to
`SimTrace.arrivals`.  `SimTrace.deliveries` builds `DeliveryRecord`s from
that log on demand; the run, the audit, the CSV export, `check_staleness` and
the ``simulate`` command never do.  The run keeps no window once the root has
flushed it.

Losslessness audit.  The root's window is the system report, so the audit is
taken at the root flush, the one place that sees it.  Leaves in flight
(published by a sensor, not yet in a root window) are the only leaves the
loop keeps in a set.  A sensor flush adds its leaves to the set and counts
published and covered leaves.  Each root window takes its leaves out of the
set; a leaf copy that was not in flight (a second copy of a delivered leaf,
or a leaf no sensor published) counts as duplicated.  When the run ends, the
covered leaves still in flight are missing.  The simulator's own channels
forward every child exactly once, so nothing is duplicated unless a channel
repeats or invents a window's children, as the fault tests make it do by
patching `channel_flush`.

Collector pause.  `run` pauses the cyclic garbage collector and restores the
caller's setting when it returns or raises.  Every window, leaf list and
arrival entry the run holds is GC-tracked, so each full collection would walk
all of them again, and at host scale those walks took half the run.  Nothing
is lost by the pause: the loop builds only tuples, lists and sets whose
contents never refer back to them, so it makes no reference cycles and
reference counting frees everything it discards.

Determinism contract: one `Random(seed)` instance draws the tick phases
before the loop starts and nothing else; the loop carries leaf keys, and
metric payloads exist only at the edge (`window_report`).  Identical configs
produce identical traces, byte for byte, when exported.
"""

from __future__ import annotations

import enum
import gc
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from math import prod
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import NamedTuple, Sequence

from hiermon.channel import (
    ChannelLevel,
    Leaf,
    SensorLevel,
    Window,
    channel_flush,
    channel_publish,
    sensor_flush,
    window_leaves,
)
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    LoadCoefficients,
    hierarchy_loads,
    hierarchy_timings,
)
from hiermon.model import (
    HierarchyConfig,
    LatencyBound,
    machines_total,
    propagation_time,
    staleness_time,
    validate,
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


@dataclass(frozen=True)
class SimConfig:
    hierarchy: HierarchyConfig
    coeffs: LoadCoefficients = DEFAULT_COEFFICIENTS
    duration_us: int = 0
    seed: int = 1
    jitter_fraction: float = 0.0

    @classmethod
    def build(
        cls,
        hierarchy: HierarchyConfig,
        coeffs: LoadCoefficients = DEFAULT_COEFFICIENTS,
        duration_s: float | None = None,
        seed: int = 1,
        jitter_fraction: float = 0.0,
    ) -> "SimConfig":
        if duration_s is None:
            duration_us = 3 * sum(hierarchy.hold_us)
        else:
            duration_us = round(duration_s * 1e6)
        return cls(hierarchy, coeffs, duration_us, seed, jitter_fraction)

    def __post_init__(self) -> None:
        problems = validate(self.hierarchy)
        if problems:
            raise ValueError("invalid hierarchy: " + "; ".join(problems))
        if self.duration_us < 3 * sum(self.hierarchy.hold_us):
            raise ValueError("duration must cover at least 3 runs of stacked hold windows")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        if self.hierarchy.service_period_us < _MIN_WINDOW_US:
            raise ValueError("service period below 1 ms aliases report timestamps")
        if min(self.hierarchy.hold_us) < _MIN_WINDOW_US:
            raise ValueError("hold windows below 1 ms alias report timestamps")


class DeliveryRecord(NamedTuple):
    service_id: str
    emitted_at_us: int
    arrived_root_at_us: int
    propagation_us: int
    level_path: tuple[str, ...]


@dataclass
class SimTrace:
    config: SimConfig
    arrivals: list[tuple[int, Sequence[Leaf]]]  # (root arrival µs, delivered leaves)
    delivered: int  # leaves in `arrivals`
    service_ids: list[list[str]]  # [machine][service] -> label
    level_paths: list[tuple[str, ...]]  # [machine] -> channel ids, level 1 to the root
    machines: list[tuple[str, int, float]]  # (id, level, utilization)
    max_observed_prop_us: int
    analytic_bound: LatencyBound
    staleness_bound: LatencyBound
    losslessness: LosslessnessReport
    event_counts: Counter

    @property
    def deliveries(self) -> list[DeliveryRecord]:
        """One record per delivered leaf, in arrival order, built from `arrivals` on each call."""
        service_ids, level_paths = self.service_ids, self.level_paths
        return [
            DeliveryRecord(service_ids[m][s], emitted, now, now - emitted, level_paths[m])
            for now, leaves in self.arrivals
            for m, s, emitted in leaves
        ]


@dataclass(frozen=True)
class ModelCheck:
    bound_respected: bool
    tightness: float


@dataclass(frozen=True)
class LosslessnessReport:
    """What the root's system windows carried, against what the sensors published.

    ``missing`` counts covered leaves that reached no root window.
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


def _machine_label(index: int, total: int) -> str:
    width = max(4, len(str(total)))
    return f"m-{index + 1:0{width}d}"


def _service_label(machine_id: str, service: int) -> str:
    return f"{machine_id}.s{service}"


_EMITTED = itemgetter(2)


def run(config: SimConfig) -> SimTrace:
    """Execute one simulation; see the module docstring for the event rules.

    The cyclic collector is paused while the run lasts (see the module
    docstring).  Raises :class:`ValueError` naming the saturated levels when
    the load model puts any channel level at utilization 1 or above.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(config)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(config: SimConfig) -> SimTrace:
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
    rng = Random(config.seed)

    machine_ids = [_machine_label(i, n_machines) for i in range(n_machines)]
    # group[level] = machines under one level-`level` channel
    group = [prod(hierarchy.fanout[1 : level + 1]) for level in range(depth + 1)]
    channel_ids = [machine_ids] + [  # level 0 is the sensors
        [f"ch-{level}-{j:03d}" for j in range(n_machines // group[level])]
        for level in range(1, depth + 1)
    ]

    services = hierarchy.fanout[0]
    jitter = config.jitter_fraction
    phases = [  # drawn machine by machine, then service by service
        tuple(round(rng.random() * jitter * period_us) for _ in range(services)) for _ in machine_ids
    ]
    sensors = SensorLevel(machine_ids, phases, period_us, hierarchy.hold_us[0])
    service_ids = [[_service_label(mid, j) for j in range(services)] for mid in machine_ids]
    levels: list = [sensors] + [
        ChannelLevel(channel_ids[level], level, hierarchy.hold_us[level], top_level=level == depth)
        for level in range(1, depth + 1)
    ]
    level_paths = [
        tuple(channel_ids[level][m // group[level]] for level in range(1, depth + 1))
        for m in range(n_machines)
    ]
    # hop_us[level] = delay from a flush at `level` to its arrival one level up
    hop_us = [t_in_us[1]] + [t_out_us[level] + t_in_us[level + 1] for level in range(1, depth)]
    # a leaf emitted by then has the bound plus one root hold to reach a root window
    horizon = config.duration_us - bound.micros - hierarchy.hold_us[depth]

    heap: list[tuple[int, int, int, list | None]] = []  # (at, kind, level, arrival batch)

    def push(at: int, kind: int, level: int, batch: list | None = None) -> None:
        if at <= config.duration_us:
            heappush(heap, (at, kind, level, batch))

    push(hierarchy.hold_us[0], _SENSOR_FLUSH, 0)
    for level in range(1, depth + 1):
        push(hierarchy.hold_us[level], _CHANNEL_FLUSH, level)

    arrivals: list[tuple[int, Sequence[Leaf]]] = []
    in_flight: set[Leaf] = set()
    published = covered = duplicated = 0
    counts: Counter = Counter()  # heap key -> events run

    while heap:
        now, kind, level, batch = heappop(heap)
        counts[kind] += 1

        if kind == _ARRIVAL:
            if level == depth:
                arrivals.extend([(now, window_leaves(window)) for _, window in batch])
            channel_publish(levels[level], batch, now)
            continue

        push(now + hierarchy.hold_us[level], kind, level)
        if level == 0:
            outs = sensor_flush(sensors, now)
            leaves = [leaf for _, out in outs for leaf in out.children]
            in_flight.update(leaves)
            published += len(leaves)
            if now - 1 <= horizon:  # every leaf was emitted in [now - hold, now)
                covered += len(leaves)
            elif now - hierarchy.hold_us[0] <= horizon:
                covered += sum(1 for leaf in leaves if leaf[2] <= horizon)
        else:
            outs = channel_flush(levels[level], now)
            if level == depth:  # the root: its one window is the system report
                for _, out in outs:
                    leaves = window_leaves(out)
                    before = len(in_flight)
                    in_flight.difference_update(leaves)
                    duplicated += len(leaves) - (before - len(in_flight))
                continue
        if outs:
            fanout = hierarchy.fanout[level + 1]
            push(now + hop_us[level], _ARRIVAL, level + 1, [(j // fanout, out) for j, out in outs])

    missing = sum(1 for leaf in in_flight if leaf[2] <= horizon)
    losslessness = LosslessnessReport(published, covered, missing, duplicated)

    machines = [
        (cid, level, loads[level].utilization)
        for level in range(depth + 1)
        for cid in channel_ids[level]
    ]

    return SimTrace(
        config=config,
        arrivals=arrivals,
        delivered=sum(len(leaves) for _, leaves in arrivals),
        service_ids=service_ids,
        level_paths=level_paths,
        machines=machines,
        max_observed_prop_us=max(  # a faulty channel can forward an empty window
            (now - min(map(_EMITTED, leaves)) for now, leaves in arrivals if leaves),
            default=0,
        ),
        analytic_bound=bound,
        staleness_bound=stale_bound,
        losslessness=losslessness,
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
    delivery decides: this is ``all(d.propagation_us + period <= limit for d
    in trace.deliveries)`` without building the records.  With no deliveries
    both read true, since `model.staleness_time` is the propagation bound
    plus the service period and so never below the period.
    """
    limit = trace.staleness_bound.micros
    period = trace.config.hierarchy.service_period_us
    return trace.max_observed_prop_us + period <= limit


def check_losslessness(trace: SimTrace) -> LosslessnessReport:
    """Published-vs-root-leaf comparison over the covered window, audited during the run.

    A published leaf is covered when the propagation bound plus one root hold
    still fits before the end of the run; covered leaves must appear exactly
    once across all system windows, and no leaf may reach them twice or
    without being published.  The run takes this audit at each root flush
    (see the module docstring).
    """
    return trace.losslessness


def window_report(window: Window, service_period_s: float) -> Report:
    """Render a simulated window as a report tree with synthetic metric payloads.

    Payloads come from a generator private to this call and seeded alike every
    time, so a window always renders to the same report and the run's own
    random stream is never read.
    """
    rng = Random(0)

    def render(w: Window) -> Report:
        if w.kind is not LevelKind.NODE:
            return Report(w.kind, w.source, w.generated_at_ms, tuple(map(render, w.children)))
        services = tuple(
            synthetic_service_report(
                _service_label(w.source, s), w.source, service_period_s, at // 1000, rng
            )
            for _, s, at in w.children
        )
        return Report(w.kind, w.source, w.generated_at_ms, services)

    return render(window)


def write_trace_csv(path: Path | str, trace: SimTrace) -> None:
    """CSV rows as `csv.writer` would write them; service ids never need quoting."""
    service_ids = trace.service_ids
    with open(path, "w", newline="") as handle:
        handle.write("service_id,emitted_at_us,arrived_root_at_us,propagation_us\r\n")
        handle.writelines(
            f"{service_ids[m][s]},{emitted},{now},{now - emitted}\r\n"
            for now, leaves in trace.arrivals
            for m, s, emitted in leaves
        )


def write_machines_csv(path: Path | str, trace: SimTrace) -> None:
    """CSV rows as `csv.writer` would write them; ids and float reprs never need quoting."""
    with open(path, "w", newline="") as handle:
        handle.write("channel_id,level,utilization\r\n")
        handle.writelines(
            f"{machine_id},{level},{utilization!r}\r\n"
            for machine_id, level, utilization in trace.machines
        )
