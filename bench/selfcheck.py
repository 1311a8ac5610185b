"""Fast self-check of the benchmark's own checkers and metric lists.

    python3 bench/selfcheck.py

Confirms that each checker passes on good output and fails on bad output
(a wrong capacity, a corrupted trace.csv, a tampered parse result), that a
hook whose target is gone reports 0 calls, and that BENCHMARK.json names
exactly the metrics ``run.py`` reports.  Exits 1 on the first surprise.
Takes about a second.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hiermon import report  # noqa: E402


def expect(label: str, failures: list[str], should_fail: bool) -> None:
    if bool(failures) != should_fail:
        want = "fail" if should_fail else "pass"
        print(f"self-check FAILED: {label} should {want}, got {failures}")
        sys.exit(1)
    print(f"ok  {label}: {'fails' if should_fail else 'passes'}")


def check_simulation_checker(out: Path) -> None:
    argv = ["simulate", "--preset", "two-level-50", "--n-total", "400", "--jitter", "0.5",
            "--seed", "1", "--out", str(out)]
    code, stdout, _ = workloads.run_cli(argv)
    period_us = workloads.SIM_TREES["flat"][2]
    trace_csv = out / "trace.csv"
    expect("good simulation", workloads.check_simulation(code, stdout, trace_csv, period_us), False)

    lines = trace_csv.read_text().splitlines(keepends=True)
    trace_csv.write_text("".join(lines[:-1]))
    expect("trace.csv missing a row", workloads.check_simulation(code, stdout, trace_csv, period_us), True)

    service, emitted, arrived, _ = lines[1].strip().split(",")
    late = f"{service},{emitted},{arrived},{10**12}\n"
    trace_csv.write_text("".join([lines[0], late, *lines[2:]]))
    expect("trace.csv with a stale row", workloads.check_simulation(code, stdout, trace_csv, period_us), True)

    lossy = stdout.replace("losslessness: ok", "losslessness: VIOLATED")
    expect("losslessness violated", workloads.check_simulation(code, lossy, trace_csv, period_us), True)


def main() -> int:
    out = run.OUT / "selfcheck"
    out.mkdir(parents=True, exist_ok=True)
    check_simulation_checker(out)

    expect("default capacity table", workloads.check_capacity(dict(workloads.DEFAULT_CAPACITY),
                                                              workloads.DEFAULT_CAPACITY), False)
    wrong = dict(workloads.DEFAULT_CAPACITY, **{"two-level-50": 4650})
    expect("wrong capacity value", workloads.check_capacity(wrong, workloads.DEFAULT_CAPACITY), True)

    original = report.report_of_size_kb(5.0)
    parsed = report.parse(report.serialize(original))
    merged = report.aggregate(parsed.children, report.LevelKind.INTERMEDIATE, "bench", 0)
    expect("codec round trip", workloads.check_codec(original, parsed, merged), False)
    tampered = replace(parsed, children=parsed.children[:-1])
    expect("report that lost a node", workloads.check_codec(original, tampered, merged), True)

    tracing.HOOKS["gone"] = ("hiermon.cli:no_such_function", "hiermon.no_such_module:run")
    try:
        with tracing.Tracer(["gone"]) as tracer:
            pass
    finally:
        del tracing.HOOKS["gone"]
    expect("gone hook targets are skipped with 0 calls",
           [] if tracer.calls["gone"] == 0 and len(tracer.missing) == 2 else [tracer.missing], False)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in declared[kind]}
        expect(f"BENCHMARK.json {kind} matches run.py",
               [] if listed == units else [f"differs: {set(listed.items()) ^ set(units.items())}"], False)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
