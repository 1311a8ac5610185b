"""hiermon benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload sim --seed 1 --seconds 50 --trace 0

Prints every metric by name with its unit, a few context lines (host,
sample counts, output hashes), and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run.  The full record of the run,
including the determinism record, is written to ``bench/out/``.

Set-up is measured in separate worker processes, and the workload runs in
one more, so that peak RSS belongs to that workload alone.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sim", "plan")
SETUP_REPEATS = 11
#: Every child must end before this many seconds, so the run ends within 180 s.
TIME_LIMIT_S = 170.0

EVENT_KINDS = ("app-service-tick", "sensor-flush", "channel-arrival", "channel-flush", "forward-departure")
CODEC_LABELS = ("0-5kb", "5kb", "50kb")

END_TO_END_UNITS = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in tracing.HOOKS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.share"] = "%"
    units["sim.run.self_share"] = "%"
    units["sim.events"] = "count"
    for kind in EVENT_KINDS:
        units[f"sim.events.{kind.replace('-', '_')}"] = "count"
    units["sim.deliveries"] = "count"
    units["sim.tightness"] = "ratio"
    units["cli.max_machines.loads_calls"] = "count"
    for op in ("serialize", "parse", "aggregate"):
        for label in CODEC_LABELS:
            units[f"report.{op}.mb_s.{label}"] = "MB/s"
    units["report.codec.mb_s"] = "MB/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HIERMON_SEED", None)  # it would silently override --seed
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: argparse.Namespace, mode: str, started: float) -> dict:
    """Run one worker process to completion and return the record it wrote."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = Path(tmp) / "result.json"
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(OUT), "--result", str(result),
        ]
        timeout = max(1.0, TIME_LIMIT_S - (monotonic() - started))
        subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr, timeout=timeout, check=True)
        return json.loads(result.read_text())


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def describe(values: list[float]) -> str:
    """Sample count, median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"n={n}, median {statistics.median(values):.6g}"
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        tail = statistics.quantiles(values, n=100)[pct - 1]
        text += f", p{pct} {tail:.6g}"
    return text


def trees(call: dict) -> list[dict]:
    """Per-tree facts of one ``sim`` call; none for ``plan``."""
    return list(call["facts"].get("trees", {}).values())


def median_of(calls: list[dict], value) -> float:
    values = [value(c) for c in calls]
    return statistics.median(values) if values else 0.0


def wall_rel(calls: list[dict]) -> float:
    """Mean call time over the mean time of the reference task in the same calls.

    The call time in reference-task units (see gauge.py).  Means over the
    whole run, not per-call ratios: one short reading of the task tracks the
    host's speed only roughly, while a run's mean of a hundred tracks it
    closely.
    """
    done = [c for c in calls if c["wall_s"] is not None]
    return statistics.fmean(c["wall_s"] for c in done) / statistics.fmean(g for c in done for g in c["gauge_s"])


def end_to_end(record: dict, setups: list[float]) -> dict[str, float]:
    return {
        "wall_rel": wall_rel(record["untraced"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(record: dict) -> dict[str, float]:
    untraced = [c for c in record["untraced"] if c["wall_s"]]
    traced = [c for c in record["traced"] if c["wall_s"]]
    metrics: dict[str, float] = {}
    for name in tracing.HOOKS:
        metrics[f"{name}.calls"] = median_of(traced, lambda c: c["layers"][name]["calls"])
        metrics[f"{name}.share"] = median_of(traced, lambda c: 100 * c["layers"][name]["seconds"] / c["wall_s"])
    metrics["sim.run.self_share"] = median_of(
        traced, lambda c: 100 * c["layers"]["sim.run"]["self_seconds"] / c["wall_s"]
    )
    metrics["sim.events"] = median_of(
        traced, lambda c: sum(sum(t["event_counts"].values()) for t in trees(c))
    )
    for kind in EVENT_KINDS:
        metrics[f"sim.events.{kind.replace('-', '_')}"] = median_of(
            traced, lambda c: sum(t["event_counts"].get(kind, 0) for t in trees(c))
        )
    metrics["sim.deliveries"] = median_of(traced, lambda c: sum(t["deliveries"] for t in trees(c)))
    metrics["sim.tightness"] = median_of(traced, lambda c: min((t["tightness"] for t in trees(c)), default=0.0))
    metrics["cli.max_machines.loads_calls"] = median_of(traced, lambda c: c["max_machines_loads_calls"])
    for key in per_layer_units():
        if ".mb_s." in key:
            metrics[key] = median_of(untraced, lambda c: c["facts"].get(key, 0.0))
    metrics["report.codec.mb_s"] = median_of(untraced, lambda c: c["facts"].get("codec_mb_s", 0.0))
    metrics["trace.overhead_ratio"] = wall_rel(traced) / wall_rel(untraced) - 1
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (ROOT / "src" / "hiermon" / "__init__.py").is_file():
        print(f"error: no hiermon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [spawn(args, "setup", started)["setup_s"] for _ in range(SETUP_REPEATS)]
        record = spawn(args, "run", started)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    calls = record["untraced"] + record.get("traced", [])
    failed = [c for c in calls if c["failures"]]
    if args.trace:
        metrics, units = per_layer(record), per_layer_units()
    else:
        metrics, units = end_to_end(record, setups), END_TO_END_UNITS
    host = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "hiermon": record["hiermon_version"],
        "commit": git_commit(),
    }
    first = calls[0]["facts"]
    walls = [c["wall_s"] for c in record["untraced"] if c["wall_s"] is not None]
    gauges = [g for c in record["untraced"] for g in c.get("gauge_s", [])]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"wall_s: {describe(walls)}, mean {statistics.fmean(walls):.6g} (untraced calls)")
    print(f"reference task s: {describe(gauges)}, mean {statistics.fmean(gauges):.6g}")
    if setups:
        print(f"setup_s: median of {len(setups)} set-ups")
    for key in ("codec_mb_s", "sweep_wall_s", "capacity_wall_s"):
        if key in first:
            values = [c["facts"][key] for c in record["untraced"] if key in c["facts"]]
            print(f"{key}: {describe(values)}")
    print(f"failed_ratio: {len(failed) / len(calls):.6g} ({len(failed)} of {len(calls)} calls)")
    for call in failed[:5]:
        print(f"  failed: {'; '.join(call['failures'])}")
    for tree, facts in first.get("trees", {}).items():
        print(f"{tree}: trace.csv sha256 {facts['trace_sha256']}")
        print(f"{tree}: machines.csv sha256 {facts['machines_sha256']}")
        print(f"{tree}: {facts['deliveries']} deliveries, event counts {json.dumps(facts['event_counts'], sort_keys=True)}")
    for target in record.get("missing_hooks", []):
        print(f"hook target gone, reported as 0 calls: {target}")

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "host": host, "metrics": metrics, "setup_s": setups,
         "determinism": first.get("trees", {}),
         "worker": record},
        indent=1,
    ))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
