"""Parametric CPU/latency cost model for aggregation machines.

Each machine is a single server, and `level_load` is the one function that
costs it: utilization is the rate-weighted sum of per-message parse and
serialize costs, inbound delivery time inflates by 1/(1-U) as the CPU
approaches saturation, and outbound time stays affine in report size.
`level_above` costs a level from the one below it; `hierarchy_loads` takes
that step up from the sensors and `capacity` takes it for the root, so sweep
rows equal the full model's bit for bit by construction.  Coefficients either
come from labeled synthetic defaults or are calibrated by timing the real
parse/serialize/aggregate implementations on the current host.

The timed loops in :func:`measure_costs` must run on a single thread with no
concurrent benchmark in the same process.
"""

from __future__ import annotations

import csv
import gc
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple, Sequence

from hiermon.model import ChannelTimings, HierarchyConfig, require_valid
from hiermon.report import (
    REFERENCE_NODE_REPORT_BYTES, LevelKind, aggregate, parse, report_of_size_kb, serialize,
)


class CalibrationUnstableError(Exception):
    """Timer spread too large for the measured medians to be trusted.

    ``samples`` carries whatever complete measurements were taken before the
    unstable one, so callers can keep them.
    """

    def __init__(self, message: str, samples: "list[CostSample] | None" = None):
        super().__init__(message)
        self.samples = samples or []


@dataclass(frozen=True)
class LoadCoefficients:
    """Affine per-message costs, in seconds and seconds per kilobyte."""

    parse_s_per_kb: float
    parse_fixed_s: float
    serialize_s_per_kb: float
    serialize_fixed_s: float
    aggregate_s_per_kb: float
    net_latency_s: float
    calibrated: bool = False

    def __post_init__(self) -> None:
        for name in (
            "parse_s_per_kb",
            "parse_fixed_s",
            "serialize_s_per_kb",
            "serialize_fixed_s",
            "aggregate_s_per_kb",
            "net_latency_s",
        ):
            if not 0.0 <= getattr(self, name) < math.inf:  # float bounds: NaN fails
                raise ValueError(f"{name} must be finite and >= 0")
        if self.parse_s_per_kb <= 0:
            raise ValueError("parse_s_per_kb must be > 0")


#: Synthetic defaults for uncalibrated runs; NOT measurements of any host.
DEFAULT_COEFFICIENTS = LoadCoefficients(
    parse_s_per_kb=0.008,
    parse_fixed_s=0.050,
    serialize_s_per_kb=0.002,
    serialize_fixed_s=0.010,
    aggregate_s_per_kb=0.001,
    net_latency_s=0.005,
    calibrated=False,
)


class MachineLoad(NamedTuple):
    """One level's machine: its CPU utilization, inbound and outbound delivery times in
    seconds, and the period and size of the reports it emits."""

    utilization: float
    t_in_s: float
    t_out_s: float
    period_us: int
    size_kb: float


# --- applying the model to a whole hierarchy --------------------------------


def level_load(
    coeffs: LoadCoefficients, period_us: int, size_kb: float, feeders: tuple[int, int, float] | None = None
) -> MachineLoad:
    """Load of one machine emitting ``size_kb`` every ``period_us``; ``feeders`` is the
    (count, period_us, size_kb) of its inputs, None for a sensor.

    Utilization adds the parse cost of every inbound report to the serialize and
    aggregate cost of the outbound one, per second.  Delivering one inbound report
    takes the net latency plus its parse time stretched by 1/(1-U), infinity once
    U reaches 1; handing off the outbound report takes the net latency plus its
    serialize time.
    """
    out_rate = 1.0 / (period_us / 1e6)
    emit_s = coeffs.serialize_fixed_s + (coeffs.serialize_s_per_kb + coeffs.aggregate_s_per_kb) * size_kb
    t_out = coeffs.net_latency_s + coeffs.serialize_fixed_s + coeffs.serialize_s_per_kb * size_kb
    if feeders is None:
        return MachineLoad(out_rate * emit_s, 0.0, t_out, period_us, size_kb)
    count, child_period_us, child_kb = feeders
    in_rate = 1.0 / (child_period_us / 1e6)
    parse_s = coeffs.parse_fixed_s + coeffs.parse_s_per_kb * child_kb
    u = count * in_rate * parse_s + out_rate * emit_s
    t_in = math.inf if u >= 1.0 else coeffs.net_latency_s + parse_s / (1.0 - u)
    return MachineLoad(u, t_in, t_out, period_us, size_kb)


def level_above(coeffs: LoadCoefficients, feeder: MachineLoad, fanout: int, hold_us: int) -> MachineLoad:
    """Load of a level whose nodes each hold ``fanout`` feeders' reports for ``hold_us``.

    A window that caught nothing emits nothing, so the level emits once per
    ``max(hold, feeder period)``, and its report carries ``fanout`` children
    times ``period / feeder period`` child reports.
    """
    period_us = max(hold_us, feeder.period_us)
    size_kb = fanout * (period_us / feeder.period_us) * feeder.size_kb
    return level_load(coeffs, period_us, size_kb, (fanout, feeder.period_us, feeder.size_kb))


def hierarchy_loads(config: HierarchyConfig, coeffs: LoadCoefficients) -> tuple[MachineLoad, ...]:
    """Per-level machine load, indexed from the sensors (0) up to the root channel.

    A sensor's report carries one reference-sized report per service.  Raises
    ValueError, listing `model.validate`'s problems, for an unusable config.
    """
    require_valid(config)
    loads = [level_load(coeffs, config.hold_us[0], config.fanout[0] * REFERENCE_NODE_REPORT_BYTES / 1024)]
    for fanout, hold_us in zip(config.fanout[1:], config.hold_us[1:]):
        loads.append(level_above(coeffs, loads[-1], fanout, hold_us))
    return tuple(loads)


def hierarchy_timings(loads: Sequence[MachineLoad]) -> ChannelTimings:
    """Channel timings for the analytic bound from a :func:`hierarchy_loads` result."""
    channels = loads[1:]
    return ChannelTimings.from_seconds([load.t_in_s for load in channels], [load.t_out_s for load in channels])


# --- on-host calibration -----------------------------------------------------


class CostSample(NamedTuple):
    """Median per-operation wall-clock costs at one report size."""

    size_kb: float
    parse_s: float
    serialize_s: float
    aggregate_s: float


class FitReport(NamedTuple):
    """Largest absolute fit residual per operation, in seconds, and the fits clamped to 0."""

    parse_residual_s: float
    serialize_residual_s: float
    aggregate_residual_s: float
    clamped: tuple[str, ...] = ()  # operations whose fit had a negative slope or intercept


_TARGET_BATCH_S = 2e-3
_ATTEMPTS = 3


def _time_operation(op: Callable[[], object], repetitions: int) -> float:
    """Median CPU seconds per call, batching calls so each sample dwarfs timer noise.

    The clock is this thread's CPU time, which is what the load model charges a
    machine for a message: time the thread spends descheduled while other
    processes run is not a cost of ``op``.  The cyclic collector is paused for
    the timed loops, since when it fires depends on the whole process's heap,
    not on ``op``.  A run whose interquartile range exceeds half its median is
    measured again, up to ``_ATTEMPTS`` runs in all; the error is raised only
    when every run is that spread, and no unstable run feeds the result.
    """
    import statistics  # before any timing: its first import must not land in a sample

    op()  # warm caches before estimating
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        probe_start = time.thread_time_ns()
        op()
        probe = max(time.thread_time_ns() - probe_start, 1)
        batch = max(1, math.ceil(_TARGET_BATCH_S * 1e9 / probe))
        for _ in range(_ATTEMPTS):
            samples = []
            for _ in range(repetitions):
                start = time.thread_time_ns()
                for _ in range(batch):
                    op()
                samples.append((time.thread_time_ns() - start) / batch / 1e9)
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            if median > 0 and (q3 - q1) <= 0.5 * median:
                return median
    finally:
        if gc_was_enabled:
            gc.enable()
    raise CalibrationUnstableError(
        f"spread {q3 - q1:.3g}s exceeds half the median {median:.3g}s"
        f" in each of {_ATTEMPTS} runs"
    )


#: Largest report size and repetition count `measure_costs` accepts.  A size
#: costs one generated node report per 0.5 kB before any timing starts, and
#: each repetition about 2 ms of CPU per operation and size.
MAX_CALIBRATION_KB = 1024.0
MAX_CALIBRATION_REPS = 1000


def check_protocol(sizes_kb: Sequence[float], repetitions: int) -> None:
    """Raise ValueError unless `measure_costs` can run this protocol and fit its result."""
    if len(set(sizes_kb)) < 3:
        raise ValueError("calibration needs at least 3 distinct sizes")
    if not all(0.0 < size <= MAX_CALIBRATION_KB for size in sizes_kb):
        raise ValueError(f"calibration sizes must be > 0 and at most {MAX_CALIBRATION_KB:g} kB")
    if repetitions < 30:
        raise ValueError("calibration needs at least 30 repetitions")
    if repetitions > MAX_CALIBRATION_REPS:
        raise ValueError(f"calibration takes at most {MAX_CALIBRATION_REPS} repetitions")


def measure_costs(
    sizes_kb: Sequence[float], repetitions: int, rng: Random | None = None
) -> list[CostSample]:
    """Time parse/serialize/aggregate on real reports of the given sizes.

    Records the measured size of each generated report, so samples feed
    straight into :func:`fit`.
    """
    check_protocol(sizes_kb, repetitions)
    samples: list[CostSample] = []
    for size_kb in sorted(sizes_kb):
        report = report_of_size_kb(size_kb, rng=rng or Random(0))
        blob = serialize(report)
        children = report.children
        try:
            samples.append(
                CostSample(
                    size_kb=len(blob) / 1024,
                    parse_s=_time_operation(lambda: parse(blob), repetitions),
                    serialize_s=_time_operation(lambda: serialize(report), repetitions),
                    aggregate_s=_time_operation(
                        lambda: aggregate(children, LevelKind.INTERMEDIATE, "bench", 0),
                        repetitions,
                    ),
                )
            )
        except CalibrationUnstableError as exc:
            exc.samples = samples
            raise
    return samples


def _affine_fit(
    samples: Sequence[CostSample],
    cost: Callable[[CostSample], float],
    name: str,
    clamped: list[str],
):
    """Least-squares ``(slope, intercept, max residual)``; a fit with a negative term is
    clamped to 0 and its ``name`` appended to ``clamped``."""
    import statistics  # only calibration needs it, and it loads `fractions` and `decimal`

    xs = [s.size_kb for s in samples]
    ys = [cost(s) for s in samples]
    slope, intercept = statistics.linear_regression(xs, ys)
    if slope < 0 or intercept < 0:
        warnings.warn(f"{name} fit produced a negative term; clamping to 0", stacklevel=3)
        clamped.append(name)
        slope = max(slope, 0.0)
        intercept = max(intercept, 0.0)
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return slope, intercept, residual


def fit(samples: Sequence[CostSample]) -> tuple[LoadCoefficients, FitReport]:
    """Least-squares affine fit of the cost model to measured samples.

    The aggregate fit keeps only its per-kB slope; one-way network latency is
    not observable in-process, so the synthetic default is carried over.
    """
    if len({s.size_kb for s in samples}) < 3:
        raise ValueError("fit needs at least 3 samples with distinct sizes")
    clamped: list[str] = []
    parse_slope, parse_fixed, parse_res = _affine_fit(
        samples, lambda s: s.parse_s, "parse", clamped
    )
    ser_slope, ser_fixed, ser_res = _affine_fit(
        samples, lambda s: s.serialize_s, "serialize", clamped
    )
    agg_slope, _, agg_res = _affine_fit(samples, lambda s: s.aggregate_s, "aggregate", clamped)
    coeffs = LoadCoefficients(
        parse_s_per_kb=max(parse_slope, 1e-12),
        parse_fixed_s=parse_fixed,
        serialize_s_per_kb=ser_slope,
        serialize_fixed_s=ser_fixed,
        aggregate_s_per_kb=agg_slope,
        net_latency_s=DEFAULT_COEFFICIENTS.net_latency_s,
        calibrated=True,
    )
    return coeffs, FitReport(parse_res, ser_res, agg_res, tuple(clamped))


# --- persistence --------------------------------------------------------------

_COEFF_KEYS = (
    "parse_s_per_kb",
    "parse_fixed_s",
    "serialize_s_per_kb",
    "serialize_fixed_s",
    "aggregate_s_per_kb",
    "net_latency_s",
)


def write_coefficients(path: Path | str, coeffs: LoadCoefficients) -> None:
    lines = [f"{key}={getattr(coeffs, key)!r}" for key in _COEFF_KEYS]
    lines.append(f"calibrated={'true' if coeffs.calibrated else 'false'}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_key_values(path: Path | str) -> dict[str, str]:
    """Read a flat ``key=value`` file; blank lines and ``#`` comments are skipped.

    Raises :class:`ValueError` naming the path when the file cannot be read or
    decoded, and naming ``path:lineno`` for a line without ``=``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:  # its message names the path
        raise ValueError(str(exc)) from None
    except UnicodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def read_coefficients(path: Path | str) -> LoadCoefficients:
    """Read a `write_coefficients` file; every ValueError names the path."""
    values = read_key_values(path)
    missing = [k for k in (*_COEFF_KEYS, "calibrated") if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        costs = {key: float(values[key]) for key in _COEFF_KEYS}
        flag = values["calibrated"].lower()
        if flag not in ("true", "false"):
            raise ValueError(f"calibrated must be true or false, got {flag!r}")
        return LoadCoefficients(**costs, calibrated=flag == "true")
    except ValueError as exc:  # a value that is no float, or one `LoadCoefficients` refuses
        raise ValueError(f"{path}: {exc}") from None


def write_samples_csv(path: Path | str, samples: Sequence[CostSample]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["size_kb", "parse_s", "serialize_s", "aggregate_s"])
        for s in samples:
            writer.writerow([f"{s.size_kb:.6f}", repr(s.parse_s), repr(s.serialize_s), repr(s.aggregate_s)])
