"""The benchmark's two workloads and the checks on their outputs.

Each workload is built once from the seed (its set-up) and then called in a
closed loop: one call starts after the previous one has finished.  A call
is made of timed parts, and it calls ``gauge`` (see ``gauge.py``) before its
first part and right after each part.

- ``sim`` runs two ``hiermon simulate`` invocations per call through
  ``hiermon.cli.main``, a flat and a deep tree, with the seed from the
  command line.
- ``plan`` runs the planner's path: the XML codec on seeded reports, a
  ``sweep`` with the default coefficients and a capacity search under a
  fixed host-scale coefficients file.  It never enters the event loop.

The check functions are pure, so ``selfcheck.py`` can feed them bad inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

from hiermon import cli, report

#: depth 3, fanout 4/10/10/4, holds 10/30/30/30 s: 400 machines x 4 services.
DEEP_CONFIG = """\
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

#: The two trees of the ``sim`` mix: preset flags or a config file, and the service period.
#: ``flat``: 4 000 machines, one service each, under an 80-way root; sensor
#: flushes and channel arrivals carry the load and memory grows with machines.
#: ``deep``: 400 machines x 4 services; tick-dominated, deeper nesting, and
#: the fanout[0] > 1 probe-sizing path.
SIM_TREES = {
    "flat": (["--preset", "two-level-50", "--n-total", "4000"], None, 30_000_000),
    "deep": ([], DEEP_CONFIG, 10_000_000),
}
JITTER = "0.5"

#: Capacity table of the presets under the synthetic default coefficients.
DEFAULT_CAPACITY = {
    "single-level": 1080,
    "two-level-50": 4600,
    "two-level-100": 4900,
    "three-level": 1700,
}

#: A host about seven times slower than the 2-CPU machine that calibrate
#: measured (parse 5e-5 s/kB there), so the capacity search takes under a second.
HOST_COEFFICIENTS = """\
parse_s_per_kb=0.000375
parse_fixed_s=0.00015
serialize_s_per_kb=0.000255
serialize_fixed_s=7.5e-05
aggregate_s_per_kb=1.125e-05
net_latency_s=0.0005
calibrated=true
"""
HOST_CAPACITY = {
    "single-level": 127489,
    "two-level-50": 92650,
    "two-level-100": 93100,
    "three-level": 31100,
}

#: Codec repetitions per report size, so each size handles about the same bytes.
CODEC_REPS = {0.5: 1000, 5.0: 100, 50.0: 10}
SWEEP_N_MAX = 12000
SWEEP_STEP = 50


@dataclass
class CallResult:
    """One closed-loop call: the wall seconds of its timed parts, failed checks, and facts."""

    parts_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.parts_s)


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call the user entry point in-process; return exit code, stdout and wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    return code, out.getvalue(), wall


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def check_simulation(code: int, stdout: str, trace_csv: Path, period_us: int) -> list[str]:
    """Checks on one ``simulate`` run: exit status, bound, losslessness, staleness, rows."""
    if code != 0:
        return [f"simulate exited {code}"]
    fields = summary_fields(stdout)
    failures = []
    if fields.get("bound_respected") != "true":
        failures.append(f"bound_respected is {fields.get('bound_respected')!r}")
    if not fields.get("losslessness", "").startswith("ok"):
        failures.append(f"losslessness is {fields.get('losslessness')!r}")
    bound_us = round(float(fields["analytic_bound_s"]) * 1e6)
    with open(trace_csv, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    if len(rows) != int(fields["deliveries"]):
        failures.append(f"trace.csv has {len(rows)} rows, simulate reported {fields['deliveries']} deliveries")
    stalest_us = max((int(row[3]) for row in rows), default=0) + period_us
    if stalest_us > bound_us + period_us:
        failures.append(f"staleness {stalest_us}us exceeds its bound {bound_us + period_us}us")
    return failures


def read_capacity(path: Path) -> dict[str, int]:
    with open(path, newline="") as handle:
        return {row["preset"]: int(row["max_machines"]) for row in csv.DictReader(handle)}


def check_capacity(capacity: dict[str, int], expected: dict[str, int]) -> list[str]:
    return [
        f"{name}: max_machines {capacity.get(name)} != {want}"
        for name, want in expected.items()
        if capacity.get(name) != want
    ]


def check_sweep(out_dir: Path, capacity: dict[str, int]) -> list[str]:
    """Each sweep row is below saturation exactly when it is within capacity."""
    failures = []
    for name, limit in capacity.items():
        with open(out_dir / f"sweep_{name}.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if not rows:
            failures.append(f"sweep_{name}.csv is empty")
        for row in rows:
            n, u = int(row["n_total"]), float(row["root_utilization"])
            if (u < 1.0) != (n <= limit):
                failures.append(f"{name}: n={n} has root utilization {u} against capacity {limit}")
                break
    return failures


def leaves(r: report.Report) -> Counter:
    return Counter(report.iter_leaves(r))


def check_codec(original: report.Report, parsed: report.Report, merged: report.Report) -> list[str]:
    failures = []
    if parsed != original:
        failures.append(f"parse(serialize(r)) != r for {original.source}")
    if leaves(merged) != leaves(original):
        failures.append(f"aggregate changed the leaf multiset of {original.source}")
    return failures


class Simulations:
    """``hiermon simulate`` on each tree of ``SIM_TREES``, jitter 0.5, the run's seed."""

    def __init__(self, out_dir: Path, seed: int):
        self.runs = {}
        for tree, (topology, config, period_us) in SIM_TREES.items():
            run_dir = out_dir / f"sim-{tree}-seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            if config is not None:
                (run_dir / "tree.cfg").write_text(config)
                topology = ["--config", str(run_dir / "tree.cfg")]
            argv = ["simulate", *topology, "--jitter", JITTER, "--seed", str(seed), "--out", str(run_dir)]
            self.runs[tree] = (argv, run_dir, period_us)

    def call(self, returns: dict, gauge) -> CallResult:
        result = CallResult(facts={"trees": {}})
        gauge()
        for tree, (argv, run_dir, period_us) in self.runs.items():
            code, stdout, wall = run_cli(argv)
            gauge()
            result.parts_s.append(wall)
            result.failures += [f"{tree}: {f}" for f in check_simulation(code, stdout, run_dir / "trace.csv", period_us)]
            fields = summary_fields(stdout)
            trace = returns.get("sim.run")
            result.facts["trees"][tree] = {
                "trace_sha256": sha256(run_dir / "trace.csv"),
                "machines_sha256": sha256(run_dir / "machines.csv"),
                "deliveries": int(fields["deliveries"]),
                "tightness": float(fields["tightness"]),
                "event_counts": {
                    getattr(kind, "value", str(kind)): count
                    for kind, count in getattr(trace, "event_counts", {}).items()
                },
            }
        return result


class Plan:
    """Codec on 0.5/5/50 kB reports, a default sweep, a host-scale capacity search."""

    def __init__(self, out_dir: Path, seed: int):
        rng = Random(seed)
        self.reports = {kb: report.report_of_size_kb(kb, rng=rng) for kb in CODEC_REPS}
        self.sweep_dir = out_dir / f"plan-seed{seed}" / "sweep"
        self.capacity_dir = out_dir / f"plan-seed{seed}" / "capacity"
        self.capacity_dir.mkdir(parents=True, exist_ok=True)
        coeffs = self.capacity_dir.parent / "host-coefficients.txt"
        coeffs.write_text(HOST_COEFFICIENTS)
        self.sweep_argv = ["sweep", "--n-max", str(SWEEP_N_MAX), "--step", str(SWEEP_STEP),
                           "--out", str(self.sweep_dir)]
        self.capacity_argv = ["sweep", "--coeffs", str(coeffs), "--n-max", "100", "--step", "100",
                              "--out", str(self.capacity_dir)]

    def _codec(self, result: CallResult) -> float:
        """Serialize, parse and aggregate each report; per-size MB/s go into facts."""
        total_s = 0.0
        total_bytes = 0
        for kb, original in self.reports.items():
            reps = CODEC_REPS[kb]
            start = perf_counter()
            for _ in range(reps):
                blob = report.serialize(original)
            serialize_s = perf_counter() - start
            start = perf_counter()
            for _ in range(reps):
                parsed = report.parse(blob)
            parse_s = perf_counter() - start
            start = perf_counter()
            for _ in range(reps):
                merged = report.aggregate(parsed.children, report.LevelKind.INTERMEDIATE, "bench", 0)
            aggregate_s = perf_counter() - start
            mb = len(blob) * reps / 1e6
            label = f"{kb:g}kb".replace(".", "-")
            for op, seconds in (("serialize", serialize_s), ("parse", parse_s), ("aggregate", aggregate_s)):
                result.facts[f"report.{op}.mb_s.{label}"] = mb / seconds
            total_s += serialize_s + parse_s + aggregate_s
            total_bytes += 3 * len(blob) * reps
            result.failures += check_codec(original, parsed, merged)
        result.facts["codec_mb_s"] = total_bytes / 1e6 / total_s
        return total_s

    def call(self, returns: dict, gauge) -> CallResult:
        result = CallResult()
        gauge()
        codec_s = self._codec(result)
        gauge()

        code, _, sweep_s = run_cli(self.sweep_argv)
        gauge()
        if code != 0:
            result.failures.append(f"sweep exited {code}")
        else:
            capacity = read_capacity(self.sweep_dir / "max_machines.csv")
            result.failures += check_capacity(capacity, DEFAULT_CAPACITY)
            result.failures += check_sweep(self.sweep_dir, capacity)

        code, _, capacity_s = run_cli(self.capacity_argv)
        gauge()
        if code != 0:
            result.failures.append(f"capacity sweep exited {code}")
        else:
            result.failures += check_capacity(
                read_capacity(self.capacity_dir / "max_machines.csv"), HOST_CAPACITY
            )
        result.parts_s = [codec_s, sweep_s, capacity_s]
        result.facts.update(sweep_wall_s=sweep_s, capacity_wall_s=capacity_s)
        return result


def make(name: str, out_dir: Path, seed: int):
    return {"sim": Simulations, "plan": Plan}[name](out_dir, seed)
