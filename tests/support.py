"""Test-side code: closed-form oracles, and helpers that build records and config files.

The oracles share no logic with `src/`; they use only its `LatencyBound` type.

`reach_recursive` and `reach_closed` are the propagation bound of a level,
unrolled and summed:

    reach(0) = hold[0]
    reach(1) = reach(0) + t_in[1]
    reach(i) = reach(i-1) + hold[i-1] + t_out[i-1] + t_in[i]    (i >= 2)

A saturated inflow absorbs every bound above it.

`trace_rows` is the simulator's ``trace.csv`` in default mode, leaf by leaf.
A leaf is the freshest tick of one service in a sensor window
``[F - hold[0], F)``.  It reaches level 1 at ``F + t_in[1]``.  At each level
``L`` below the root it waits for the next flush strictly after its arrival,
``(a // hold[L] + 1) * hold[L]``, and reaches level ``L + 1`` at
``t_out[L] + t_in[L + 1]`` after that flush.  Every flush and arrival must
fall at or before the run's end; the row's arrival is the arrival at the root.
"""

from __future__ import annotations

import math
from math import prod
from pathlib import Path
from random import Random

from hiermon.loadmodel import MachineLoad, tree_levels
from hiermon.model import LatencyBound

#: A host about seven times slower than a 2-CPU machine that ``calibrate``
#: measured, as a coefficients file: the host-scale capacity and simulation cases.
HOST_COEFFICIENTS = """\
parse_s_per_kb=0.000375
parse_fixed_s=0.00015
serialize_s_per_kb=0.000255
serialize_fixed_s=7.5e-05
aggregate_s_per_kb=1.125e-05
net_latency_s=0.0005
calibrated=true
"""

#: The benchmark's deep ``simulate`` tree as a config file: 400 machines x 4
#: services, fanout 4/10/10/4, holds 10/30/30/30 s.
DEEP_TREE_CONFIG = """\
h=3
fanout.0=4
fanout.1=10
fanout.2=10
fanout.3=4
hold_s.0=10
hold_s.1=30
hold_s.2=30
hold_s.3=30
service_period_s=10
"""


def write_config_file(path: Path | str, config) -> None:
    """Write ``config`` in the `hiermon.cli.read_config_file` format."""
    lines = [f"h={config.depth}"]
    lines += [f"fanout.{i}={f}" for i, f in enumerate(config.fanout)]
    lines += [f"hold_s.{i}={h / 1e6}" for i, h in enumerate(config.hold_us)]
    lines.append(f"service_period_s={config.service_period_us / 1e6}")
    Path(path).write_text("\n".join(lines) + "\n")


def delay_tree(config, t_in_us, t_out_us):
    """`tree_levels` of levels 1..depth's delays in µs, as a timings file gives them (None saturates)."""
    loads = [MachineLoad(None, 0.0, 0.0, None, None)]
    for t_in, t_out in zip(t_in_us, t_out_us):
        loads.append(MachineLoad(None, math.inf if t_in is None else t_in / 1e6, t_out / 1e6, None, None))
    return tree_levels(config, loads)


def reach_recursive(config, t_in, t_out_us, level: int) -> LatencyBound:
    """The bound at ``level``, unrolled; ``t_in[L]`` and ``t_out_us[L]`` are level L's delays."""
    if level == 0:
        return LatencyBound(config.hold_us[0])
    previous = reach_recursive(config, t_in, t_out_us, level - 1)
    if level == 1:
        return previous + t_in[1]
    return previous + config.hold_us[level - 1] + t_out_us[level - 1] + t_in[level]


def reach_closed(config, t_in, t_out_us, level: int) -> LatencyBound:
    """The bound at ``level`` in closed form: holds 0..level-1, outflows 1..level-1, inflows 1..level."""
    if level == 0:
        return LatencyBound(config.hold_us[0])
    fixed = sum(config.hold_us[0:level]) + sum(t_out_us[1:level])
    return sum(t_in[1 : level + 1], LatencyBound(fixed))


def draw_phases(seed: int, machines: int, services: int, jitter: float, period_us: int) -> list[tuple]:
    """Each machine's first tick per service: one ``Random(seed)`` draw per (machine, service)."""
    random = Random(seed).random
    draws = [round(random() * jitter * period_us) for _ in range(machines * services)]
    return [tuple(draws[m * services : (m + 1) * services]) for m in range(machines)]


def trace_rows(hierarchy, t_in_us, t_out_us, duration_us: int, phases) -> str:
    """``trace.csv`` of a default-mode run whose delays are ``t_in_us[L]``/``t_out_us[L]``.

    Rows are ordered by root arrival, then, level by level from the top, by
    the channel a window came from and its arrival there, then by machine,
    first tick in the window and service: the order in which windows nest.
    """
    depth, hold, period = hierarchy.depth, hierarchy.hold_us, hierarchy.service_period_us
    group = [prod(hierarchy.fanout[1 : level + 1]) for level in range(depth + 1)]
    width = max(4, len(str(len(phases))))
    rows = []
    for flush in range(hold[0], duration_us + 1, hold[0]):
        start = flush - hold[0]
        arrivals = [flush + t_in_us[1]]  # arrivals[L - 1] is the arrival at level L
        for level in range(1, depth):
            channel_flush = (arrivals[-1] // hold[level] + 1) * hold[level]
            if channel_flush > duration_us:
                break
            arrivals.append(channel_flush + t_out_us[level] + t_in_us[level + 1])
        if len(arrivals) < depth or arrivals[-1] > duration_us:
            continue
        for m, machine_phases in enumerate(phases):
            path = [x for level in range(depth - 1, 0, -1) for x in (m // group[level], arrivals[level - 1])]
            for s, phase in enumerate(machine_phases):
                last = flush - 1 - (flush - 1 - phase) % period
                if last < start or last < phase:
                    continue
                first = phase if phase >= start else start + (phase - start) % period
                row = f"m-{m + 1:0{width}d}.s{s},{last},{arrivals[-1]},{arrivals[-1] - last}\r\n"
                rows.append(((arrivals[-1], *path, m, first, s), row))
    rows.sort()
    return "service_id,emitted_at_us,arrived_root_at_us,propagation_us\r\n" + "".join(row for _, row in rows)
