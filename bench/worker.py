"""One workload in its own process, so that peak RSS belongs to that workload.

``run.py`` starts this script; it is not meant to be called by hand.  With
``--mode setup`` it only imports hiermon and builds the workload's inputs,
and reports how long that took.  With ``--mode run`` it then calls the
workload in a closed loop for ``--seconds``; with ``--trace 1`` the first half
of that time is untraced and the second half has every hook of
``tracing.HOOKS`` installed.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gauge  # noqa: E402


def closed_loop(workload, seconds: float, tracer) -> list[dict]:
    """Call the workload back to back until ``seconds`` have passed (at least once)."""
    calls: list[dict] = []
    deadline = perf_counter() + seconds
    while not calls or perf_counter() < deadline:
        gc.collect()
        tracer.reset()
        host = gauge.Gauge()
        try:
            result = workload.call(tracer.returns, host)
            record = {
                "wall_s": result.wall_s,
                "parts_s": result.parts_s,
                "gauge_s": host.seconds,
                "failures": result.failures,
                "facts": result.facts,
            }
        except Exception as exc:  # a crashing call is a failed attempt, not a crashed run
            record = {"wall_s": None, "gauge_s": host.seconds, "failures": [f"{type(exc).__name__}: {exc}"], "facts": {}}
        record["layers"] = {
            name: {
                "calls": tracer.calls[name],
                "seconds": tracer.seconds[name],
                "self_seconds": tracer.self_seconds(name),
            }
            for name in tracer.names
        }
        record["max_machines_loads_calls"] = tracer.child_calls[("cli.max_machines", "loadmodel.hierarchy_loads")]
        calls.append(record)
    return calls


def check_deterministic(calls: list[dict]) -> None:
    """Every call with the same seed must write the same CSVs as the first one."""
    reference: dict = {}
    for record in calls:
        for tree, facts in record["facts"].get("trees", {}).items():
            first = reference.setdefault(tree, facts)
            for key in ("trace_sha256", "machines_sha256"):
                if facts[key] != first[key]:
                    record["failures"].append(f"{tree}: {key} differs from the first call of this seed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import hiermon
    import tracing
    import workloads

    root = Path(__file__).resolve().parents[1]
    if not Path(hiermon.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: hiermon imported from {hiermon.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, Path(args.out), args.seed)
    record: dict = {"setup_s": perf_counter() - _START}

    if args.mode == "run":
        for _ in range(3):  # warm the reference task before its readings count
            gauge.reference_task()
        seconds = args.seconds / 2 if args.trace else args.seconds
        # The only hook of an untraced run keeps sim.run's trace for its event counts.
        with tracing.Tracer(["sim.run"], keep_return=["sim.run"]) as tap:
            record["untraced"] = closed_loop(workload, seconds, tap)
        if args.trace:
            with tracing.Tracer(tracing.HOOKS, keep_return=["sim.run"]) as tracer:
                record["traced"] = closed_loop(workload, seconds, tracer)
            record["missing_hooks"] = tracer.missing
        # Traced calls replay the same seed, so they must reproduce the untraced CSVs.
        check_deterministic(record["untraced"] + record.get("traced", []))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["hiermon_version"] = hiermon.__version__
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
