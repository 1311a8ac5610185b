"""Command-line front end: analytic tables, calibration, simulation, sweeps.

Four subcommands, all emitting CSV: `analyze` prints per-level propagation
and staleness bounds, `calibrate` benchmarks this host and writes a
coefficients file, `simulate` runs one deterministic simulation and exports
its traces, and `sweep` writes the capacity curve and limit that
`hiermon.capacity` computes per hierarchy preset.  This module only parses
flags and files and formats results; the models live in their own modules.

A command loads only what it runs.  The simulator's names (`run`,
`SimConfig`, `check_staleness`, `verify_against_model`, `write_trace_csv`,
`write_machines_csv`) stay attributes of this module, but the module-level
`__getattr__` imports `hiermon.sim` on the first lookup of one and copies
them into the module, never over a name already set.  `cmd_simulate` looks
each one up on this module when it runs, so a hook or patch set on
`hiermon.cli`, before or after that first lookup, replaces what `simulate`
calls; a function-local import from `hiermon.sim` would bypass it.

Exit codes: 0 success, 1 output pipe closed early, 2 usage/config error
(including `simulate` on a saturated tree or over its row budget), 3
calibration failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from hiermon.capacity import PRESETS, max_machines, sweep_preset
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    MAX_CALIBRATION_KB,
    MAX_CALIBRATION_REPS,
    CalibrationUnstableError,
    LoadCoefficients,
    check_protocol,
    fit,
    hierarchy_loads,
    hierarchy_timings,
    measure_costs,
    read_coefficients,
    read_key_values,
    write_coefficients,
    write_samples_csv,
)
from hiermon.model import (
    MAX_ROWS,
    ChannelTimings,
    HierarchyConfig,
    LatencyBound,
    machines_total,
    propagation_time,
    staleness_time,
    validate,
)

#: Names of `hiermon.sim` that `cmd_simulate` calls as attributes of this module.
_SIM_NAMES = (
    "SimConfig", "check_staleness", "run", "verify_against_model", "write_machines_csv", "write_trace_csv",
)


def __getattr__(name: str):
    """Load the simulator on first use of one of its names (PEP 562)."""
    if name not in _SIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from hiermon import sim

    for key in _SIM_NAMES:
        globals().setdefault(key, getattr(sim, key))  # a hook installed first wins
    return globals()[name]


# --- config and timings files -------------------------------------------------


def read_config_file(path: Path | str) -> HierarchyConfig:
    """Read a flat `h, fanout.i, hold_s.i, service_period_s` description."""
    path = Path(path)
    values = read_key_values(path)
    try:
        depth = int(values["h"])
        fanout = [int(values[f"fanout.{i}"]) for i in range(depth + 1)]
        hold_s = [float(values[f"hold_s.{i}"]) for i in range(depth + 1)]
        period = float(values["service_period_s"])
        config = HierarchyConfig.from_seconds(depth, fanout, hold_s, period)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    problems = validate(config)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return config


def write_config_file(path: Path | str, config: HierarchyConfig) -> None:
    lines = [f"h={config.depth}"]
    lines += [f"fanout.{i}={f}" for i, f in enumerate(config.fanout)]
    lines += [f"hold_s.{i}={h}" for i, h in enumerate(config.hold_seconds)]
    lines.append(f"service_period_s={config.service_period_seconds}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_timings_file(path: Path | str, depth: int) -> ChannelTimings:
    """Read per-level delays: `t_in_s.i` (or `saturated`) and `t_out_s.i`."""
    path = Path(path)
    values = read_key_values(path)
    t_in: list[float] = []
    t_out: list[float] = []
    try:
        for level in range(1, depth + 1):
            raw = values[f"t_in_s.{level}"]
            t_in.append(math.inf if raw.lower() == "saturated" else float(raw))
            t_out.append(float(values[f"t_out_s.{level}"]))
        if any(v < 0 for v in t_in + t_out):
            raise ValueError("delays must be >= 0")
        return ChannelTimings.from_seconds(t_in, t_out)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- shared option handling -----------------------------------------------


def _load_coeffs(args: argparse.Namespace) -> LoadCoefficients:
    if args.coeffs is None:
        return DEFAULT_COEFFICIENTS
    try:
        return read_coefficients(args.coeffs)
    except ValueError as exc:
        raise ValueError(f"cannot read coefficients: {exc}") from None


def _coeffs_label(coeffs: LoadCoefficients, args: argparse.Namespace) -> str:
    if args.coeffs is None:
        return "synthetic defaults (uncalibrated)"
    state = "calibrated" if coeffs.calibrated else "uncalibrated"
    return f"{args.coeffs} ({state})"


def _resolve_config(args: argparse.Namespace, default_n: int = 400) -> HierarchyConfig:
    if args.config is not None:
        if args.n_total is not None:
            raise ValueError("--n-total only applies to --preset")
        return read_config_file(args.config)
    preset = PRESETS[args.preset]
    return preset.config(args.n_total if args.n_total is not None else default_n)


def _resolve_seed(args: argparse.Namespace) -> int:
    raw = os.environ.get("HIERMON_SEED")
    if raw is None:
        return args.seed
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HIERMON_SEED must be an integer, got {raw!r}") from None


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt_seconds(bound: LatencyBound) -> str:
    if bound.is_saturated:
        return "Saturated"
    return f"{bound.micros / 1e6:.6f}"


# --- subcommands ---------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    coeffs = _load_coeffs(args)
    if args.timings is not None:
        timings = read_timings_file(args.timings, config.depth)
    else:
        timings = hierarchy_timings(hierarchy_loads(config, coeffs))
        print(f"# coefficients: {_coeffs_label(coeffs, args)}", file=sys.stderr)
    print("level,t_prop_s,t_stale_s")
    for level in range(config.depth + 1):
        prop = propagation_time(config, timings, level)
        stale = staleness_time(config, timings, level)
        print(f"{level},{_fmt_seconds(prop)},{_fmt_seconds(stale)}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    check_protocol(args.sizes, args.reps)  # before any directory or report is made
    out = _out_dir(args)
    samples_path = out / "samples.csv"
    coeffs_path = Path(args.coeffs) if args.coeffs is not None else out / "coefficients.txt"
    try:
        samples = measure_costs(args.sizes, args.reps)
    except CalibrationUnstableError as exc:
        write_samples_csv(samples_path, exc.samples)
        print(f"calibration unstable: {exc}", file=sys.stderr)
        print(f"kept {len(exc.samples)} samples in {samples_path}", file=sys.stderr)
        return 3
    write_samples_csv(samples_path, samples)
    coeffs, residuals = fit(samples)
    write_coefficients(coeffs_path, coeffs)
    print(f"samples: {samples_path}")
    print(f"coefficients: {coeffs_path}")
    print(f"fit residuals (max abs, s): parse={residuals.parse_residual_s:.3g} "
          f"serialize={residuals.serialize_residual_s:.3g} "
          f"aggregate={residuals.aggregate_residual_s:.3g}")
    print(f"clamped: {', '.join(residuals.clamped) or 'none'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cli = sys.modules[__name__]  # the simulator's names, looked up as this module's attributes
    config = _resolve_config(args)
    coeffs = _load_coeffs(args)
    seed = _resolve_seed(args)
    sim_config = cli.SimConfig.build(
        config,
        coeffs=coeffs,
        duration_s=args.duration,
        seed=seed,
        jitter_fraction=args.jitter,
        max_rows=args.max_rows,
    )
    trace = cli.run(sim_config)
    out = _out_dir(args)
    cli.write_trace_csv(out / "trace.csv", trace)
    cli.write_machines_csv(out / "machines.csv", trace)

    topology = args.preset if args.config is None else args.config
    print(f"topology: {topology}")
    print(f"machines: {machines_total(config)}")
    print(f"duration_s: {sim_config.duration_us / 1e6:.6f}")
    print(f"seed: {seed}")
    print(f"coefficients: {_coeffs_label(coeffs, args)}")
    print(f"deliveries: {trace.delivered}")
    print(f"events: {sum(trace.event_counts.values())}")
    print(f"max_observed_propagation_s: {trace.max_observed_prop_us / 1e6:.6f}")
    print(f"analytic_bound_s: {_fmt_seconds(trace.analytic_bound)}")
    check = cli.verify_against_model(trace)
    print(f"tightness: {check.tightness:.6f}")
    print(f"bound_respected: {'true' if check.bound_respected else 'false'}")
    print(f"staleness_respected: {'true' if cli.check_staleness(trace) else 'false'}")
    loss = trace.losslessness
    status = "ok" if loss.ok else "VIOLATED"
    print(
        f"losslessness: {status} (published={loss.published}, covered={loss.covered}, "
        f"missing={loss.missing}, duplicated={loss.duplicated})"
    )
    print(f"trace: {out / 'trace.csv'}")
    print(f"machines_csv: {out / 'machines.csv'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.step < 1:
        raise ValueError("--n-max and --step must be at least 1")
    coeffs = _load_coeffs(args)
    out = _out_dir(args)
    print(f"coefficients: {_coeffs_label(coeffs, args)}")
    limits = []
    for name in args.presets:
        preset = PRESETS[name]
        rows = sweep_preset(preset, coeffs, args.n_max, args.step)
        path = out / f"sweep_{name}.csv"
        with open(path, "w", newline="") as handle:
            handle.write("n_total,t_prop_s,root_utilization,first_saturated_level\n")
            for row in rows:
                level = "none" if row.first_saturated_level is None else str(row.first_saturated_level)
                handle.write(
                    f"{row.n_total},{_fmt_seconds(row.t_prop)},"
                    f"{row.root_utilization:.6f},{level}\n"
                )
        limit = max_machines(preset, coeffs)
        limits.append((name, limit))
        print(f"{name}: {len(rows)} rows -> {path}; max_machines={limit}")
    limits_path = out / "max_machines.csv"
    with open(limits_path, "w", newline="") as handle:
        handle.write("preset,max_machines\n")
        for name, limit in limits:
            handle.write(f"{name},{limit}\n")
    print(f"limits: {limits_path}")
    return 0


# --- argument parsing ----------------------------------------------------------


def _sizes_list(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coeffs", default=argparse.SUPPRESS, metavar="FILE",
                        help="coefficients file (default: synthetic defaults)")
    parser.add_argument("--out", default=argparse.SUPPRESS, metavar="DIR",
                        help="output directory (default: current directory)")


def _add_topology(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS))
    group.add_argument("--config", metavar="FILE", help="hierarchy description file")
    parser.add_argument("--n-total", type=int, default=None, metavar="N",
                        help="monitored machines for --preset (default 400)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiermon",
        description="Latency and capacity analysis of hierarchical monitoring trees.",
    )
    parser.add_argument("--coeffs", default=None, metavar="FILE",
                        help="coefficients file (default: synthetic defaults)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="per-level propagation/staleness table")
    _add_topology(analyze)
    analyze.add_argument("--timings", metavar="FILE",
                         help="per-level delay file; otherwise the load model supplies delays")
    _add_common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    calibrate = sub.add_parser("calibrate", help="benchmark this host and fit coefficients")
    calibrate.add_argument("--sizes", type=_sizes_list, default=[0.5, 5.0, 25.0, 50.0],
                           metavar="KB,KB,...", help=f"report sizes in kB, each at most "
                                                     f"{MAX_CALIBRATION_KB:g} (default 0.5,5,25,50)")
    calibrate.add_argument("--reps", type=int, default=50, metavar="N",
                           help=f"timing repetitions per operation, 30 to {MAX_CALIBRATION_REPS} (default 50)")
    _add_common(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    simulate = sub.add_parser("simulate", help="run one deterministic simulation")
    _add_topology(simulate)
    simulate.add_argument("--duration", type=float, default=None, metavar="S",
                          help="simulated seconds (default: 3 stacked hold cycles)")
    simulate.add_argument("--seed", type=int, default=1,
                          help="simulation seed (HIERMON_SEED overrides)")
    simulate.add_argument("--jitter", type=float, default=0.0, metavar="F",
                          help="tick phase jitter as a fraction of the period (default 0)")
    simulate.add_argument("--max-rows", type=int, default=MAX_ROWS, metavar="N",
                          help="refuse a run whose trace.csv could exceed N rows, "
                               f"counted as machines x services x sensor flushes (default {MAX_ROWS})")
    _add_common(simulate)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="capacity sweep over hierarchy presets")
    sweep.add_argument("--presets", nargs="+", choices=sorted(PRESETS),
                       default=sorted(PRESETS), metavar="NAME",
                       help="presets to sweep (default: all)")
    sweep.add_argument("--n-max", type=int, default=6000, metavar="N",
                       help="largest machine count (default 6000)")
    sweep.add_argument("--step", type=int, default=50, metavar="N",
                       help="machine-count step (default 50)")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`... | head`).  Python flushes stdout once more
        # at exit, so point it at devnull to keep that flush quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
