"""Command-line interface: presets, sweeps, file formats, exit codes."""

import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

from hiermon.capacity import PRESETS, max_machines, sweep_preset
from hiermon import capacity, cli
from hiermon.cli import main, read_config_file, read_timings_file
from hiermon.loadmodel import (
    DEFAULT_COEFFICIENTS,
    MAX_CALIBRATION_KB,
    MAX_CALIBRATION_REPS,
    LoadCoefficients,
    hierarchy_loads,
    write_coefficients,
)
from hiermon.model import SATURATED, HierarchyConfig, LatencyBound, machines_total
from hiermon.sim import SimConfig, run
from support import HOST_COEFFICIENTS, write_config_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- presets -------------------------------------------------------------------


def test_preset_catalogue():
    assert sorted(PRESETS) == [
        "single-level",
        "three-level",
        "two-level-100",
        "two-level-50",
    ]


def test_preset_units():
    assert PRESETS["single-level"].machines_per_unit == 1
    assert PRESETS["two-level-50"].machines_per_unit == 50
    assert PRESETS["two-level-100"].machines_per_unit == 100
    assert PRESETS["three-level"].machines_per_unit == 100


def test_preset_config_shapes():
    config = PRESETS["three-level"].config(400)
    assert config.depth == 3
    assert config.fanout == (1, 10, 10, 4)
    assert config.hold_us == (10_000_000, 30_000_000, 30_000_000, 30_000_000)
    assert config.service_period_us == 10_000_000
    assert machines_total(config) == 400

    config = PRESETS["two-level-50"].config(400)
    assert config.fanout == (1, 50, 8)

    config = PRESETS["single-level"].config(37)
    assert config.fanout == (1, 37)


def test_preset_rejects_non_multiples():
    with pytest.raises(ValueError):
        PRESETS["two-level-50"].config(75)
    with pytest.raises(ValueError):
        PRESETS["three-level"].config(0)
    with pytest.raises(ValueError):
        PRESETS["single-level"].config(-5)


# --- capacity limits (frozen expectations) -------------------------------------


def test_max_machines_per_preset():
    limits = {name: max_machines(p, DEFAULT_COEFFICIENTS) for name, p in PRESETS.items()}
    assert limits == {
        "single-level": 1080,
        "two-level-50": 4600,
        "two-level-100": 4900,
        "three-level": 1700,
    }


def _random_coefficients(rng):
    """Log-uniform costs; the fixed parse cost keeps every top-level fanout below 2e5."""

    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return LoadCoefficients(
        parse_s_per_kb=draw(1e-5, 1e-2),
        parse_fixed_s=draw(3e-4, 1e-1),
        serialize_s_per_kb=draw(1e-6, 5e-3),
        serialize_fixed_s=draw(1e-5, 5e-2),
        aggregate_s_per_kb=draw(1e-7, 1e-3),
        net_latency_s=draw(1e-4, 1e-2),
    )


def test_max_machines_boundary_is_exact():
    """The returned count keeps the root below saturation; one unit more does not."""
    rng = Random(20121)
    cases = [DEFAULT_COEFFICIENTS] + [_random_coefficients(rng) for _ in range(50)]
    for coeffs in cases:
        for preset in PRESETS.values():
            limit = max_machines(preset, coeffs)
            unit = preset.machines_per_unit

            def root_u(n):
                config = preset.config(n)
                return hierarchy_loads(config, coeffs)[config.depth].utilization

            assert root_u(limit) < 1.0
            assert root_u(limit + unit) >= 1.0


def test_delegation_gain_over_flat_tree():
    """One delegation level multiplies capacity several-fold; a second adds less."""
    limits = {name: max_machines(p, DEFAULT_COEFFICIENTS) for name, p in PRESETS.items()}
    ratio = limits["two-level-50"] / limits["single-level"]
    assert 3.5 <= ratio <= 6.5
    first_gain = limits["two-level-50"] - limits["single-level"]
    second_gain = limits["three-level"] - limits["two-level-50"]
    assert second_gain < first_gain


def test_max_machines_zero_when_tiny_tree_saturates():
    expensive = LoadCoefficients(
        parse_s_per_kb=10.0,
        parse_fixed_s=100.0,  # one 60-second-period input already exceeds a full core
        serialize_s_per_kb=1.0,
        serialize_fixed_s=1.0,
        aggregate_s_per_kb=1.0,
        net_latency_s=0.0,
    )
    assert max_machines(PRESETS["single-level"], expensive) == 0


# --- sweep engine --------------------------------------------------------------


def test_sweep_rows_step_and_range():
    rows = list(sweep_preset(PRESETS["two-level-50"], DEFAULT_COEFFICIENTS, 1000, 100))
    assert [r.n_total for r in rows] == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]


def test_sweep_stride_snaps_to_preset_unit():
    rows = list(sweep_preset(PRESETS["three-level"], DEFAULT_COEFFICIENTS, 1000, 50))
    # steps of 50 are impossible when each top-level feeder adds 100 machines
    assert [r.n_total for r in rows] == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]


def test_sweep_utilization_monotone_and_saturation_marked():
    rows = list(sweep_preset(PRESETS["single-level"], DEFAULT_COEFFICIENTS, 2000, 40))
    for earlier, later in zip(rows, rows[1:]):
        assert later.root_utilization >= earlier.root_utilization
    for row in rows:
        if row.root_utilization < 1.0:
            assert row.first_saturated_level is None
            assert not row.t_prop.is_saturated
        else:
            assert row.first_saturated_level == 1
            assert row.t_prop.is_saturated


def test_sweep_utilization_linear_before_knee():
    """Below the knee, root utilization grows linearly with machine count."""
    rows = [
        r
        for r in sweep_preset(PRESETS["single-level"], DEFAULT_COEFFICIENTS, 2000, 20)
        if r.root_utilization < 0.9
    ]
    assert len(rows) >= 10
    xs = [r.n_total for r in rows]
    ys = [r.root_utilization for r in rows]
    slope, intercept = statistics.linear_regression(xs, ys)
    predicted = [slope * x + intercept for x in xs]
    ss_res = sum((y - p) ** 2 for y, p in zip(ys, predicted))
    ss_tot = sum((y - statistics.mean(ys)) ** 2 for y in ys)
    assert 1 - ss_res / ss_tot > 0.999


def test_sweep_latency_flat_before_knee():
    """The bound barely moves until utilization approaches the knee."""
    rows = list(sweep_preset(PRESETS["single-level"], DEFAULT_COEFFICIENTS, 2000, 20))
    below = [r for r in rows if r.root_utilization < 0.9]
    first, last = below[0], below[-1]
    assert last.t_prop.micros / first.t_prop.micros < 1.05


# --- config and timings files ---------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    config = HierarchyConfig.from_seconds(2, [2, 10, 4], [5.0, 30.0, 30.0], 5.0)
    path = tmp_path / "topo.txt"
    write_config_file(path, config)
    assert read_config_file(path) == config


def test_config_file_reports_missing_keys(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text("h=1\nfanout.0=1\nfanout.1=4\nhold_s.0=1\nhold_s.1=1\n")
    with pytest.raises(ValueError, match="service_period_s"):
        read_config_file(path)


def test_config_file_rejects_invalid_hierarchy(tmp_path):
    path = tmp_path / "topo.txt"
    path.write_text(
        "h=1\nfanout.0=1\nfanout.1=0\nhold_s.0=60\nhold_s.1=60\nservice_period_s=60\n"
    )
    with pytest.raises(ValueError, match="fanout"):
        read_config_file(path)


TWO_LEVEL = HierarchyConfig.from_seconds(2, [1, 4, 4], [10.0] * 3, 10.0)


def test_timings_file_parses_saturated_marker(tmp_path):
    path = tmp_path / "timings.txt"
    path.write_text("t_in_s.1=0.25\nt_out_s.1=0.1\nt_in_s.2=Saturated\nt_out_s.2=0.5\n")
    tree = read_timings_file(path, TWO_LEVEL)
    assert [level.t_in for level in tree] == [LatencyBound(0), LatencyBound(250_000), SATURATED]
    assert [level.t_out_us for level in tree] == [0, 100_000, 500_000]
    assert all(level[:3] == (None, None, None) for level in tree)  # no load fields


def test_timings_file_reads_infinite_inflow_as_saturated(tmp_path):
    path = tmp_path / "timings.txt"
    path.write_text("t_in_s.1=inf\nt_out_s.1=0.1\n")
    config = HierarchyConfig.from_seconds(1, [1, 4], [10.0, 10.0], 10.0)
    assert [level.t_in for level in read_timings_file(path, config)] == [LatencyBound(0), SATURATED]


def test_timings_file_rejects_negative_delay(tmp_path):
    path = tmp_path / "timings.txt"
    path.write_text("t_in_s.1=-0.1\nt_out_s.1=0.1\n")
    with pytest.raises(ValueError, match=">= 0"):
        read_timings_file(path, HierarchyConfig.from_seconds(1, [1, 4], [10.0, 10.0], 10.0))


# --- analyze -------------------------------------------------------------------


def test_analyze_preset_table(capsys):
    code, out, err = run_cli(capsys, "analyze", "--preset", "single-level")
    assert code == 0
    assert "synthetic defaults" in err
    lines = out.strip().splitlines()
    assert lines[0] == "level,t_prop_s,t_stale_s"
    assert len(lines) == 3  # header + levels 0..1
    level0 = lines[1].split(",")
    assert level0 == ["0", "60.000000", "120.000000"]
    prop1, stale1 = (float(v) for v in lines[2].split(",")[1:])
    assert stale1 - prop1 == pytest.approx(60.0)


def test_analyze_with_explicit_timings(capsys, tmp_path):
    topo = tmp_path / "topo.txt"
    write_config_file(topo, HierarchyConfig.from_seconds(1, [1, 4], [10.0, 10.0], 10.0))
    timings = tmp_path / "timings.txt"
    timings.write_text("t_in_s.1=0.5\nt_out_s.1=0.25\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("parse_fixed_s=nan\n")
    argv = ["analyze", "--config", str(topo), "--timings", str(timings)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""  # no load-model banner when delays are given explicitly
    assert out.strip().splitlines()[2] == "1,10.500000,20.500000"
    # The delays replace the load model, so a bad or missing --coeffs file is never read.
    for coeffs in (bad, tmp_path / "no-such-file.txt"):
        assert run_cli(capsys, "--coeffs", str(coeffs), *argv) == (0, out, "")


def test_analyze_marks_saturated_levels(capsys, tmp_path):
    topo = tmp_path / "topo.txt"
    write_config_file(topo, HierarchyConfig.from_seconds(2, [1, 4, 4], [10.0] * 3, 10.0))
    timings = tmp_path / "timings.txt"
    timings.write_text(
        "t_in_s.1=0.5\nt_out_s.1=0.1\nt_in_s.2=saturated\nt_out_s.2=0.1\n"
    )
    code, out, _ = run_cli(
        capsys, "analyze", "--config", str(topo), "--timings", str(timings)
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[3] == "2,Saturated,Saturated"


def test_analyze_rejects_n_total_with_config(capsys, tmp_path):
    topo = tmp_path / "topo.txt"
    write_config_file(topo, HierarchyConfig.from_seconds(1, [1, 4], [10.0, 10.0], 10.0))
    code, _, err = run_cli(capsys, "analyze", "--config", str(topo), "--n-total", "40")
    assert code == 2
    assert "--n-total" in err


#: A three-level tree whose timings file saturates level 3 and needs rounding below it.
SATURATED_TIMINGS = (
    "h=3\nfanout.0=2\nfanout.1=3\nfanout.2=2\nfanout.3=4\n"
    "hold_s.0=1.5\nhold_s.1=0.25\nhold_s.2=7\nhold_s.3=2.0000005\nservice_period_s=0.75\n",
    "t_in_s.1=0.0625\nt_out_s.1=0.1234567\nt_in_s.2=1.5e-7\nt_out_s.2=0.5\n"
    "t_in_s.3=saturated\nt_out_s.3=0\n",
)

#: sha256 of `analyze` stdout per (coefficients, preset, machines); recorded before the
#: per-level records replaced the separate timings, loads and bound functions.
PINNED_ANALYZE = {
    ("default", "single-level", 400): "00d69800c95f3c3f4da67bbfa48402d2f12fd11366a86cada61b28a368da4be8",
    # the root saturates
    ("default", "single-level", 2000): "dcea6e9399ed7fef11d0affea559f95d06583d3d01bd802626eefcdd16f7a0f7",
    ("default", "three-level", 400): "9bb15853d0a22a56f716a4fdc7f199d1a14da2c67a14ae57e546f41401846fba",
    ("default", "two-level-100", 400): "5c9b14e78189de98ab1508df88c3b9ee46b9c35edb69e62159145399ae2365bf",
    ("default", "two-level-50", 400): "83dde18f365138ba865d030bf09aecd22898298d757aa3ee678459888ce2a344",
    ("host", "single-level", 400): "c8a95f7563e5406fb9b380b1c86a912d1835fa98dbe11fc79d2530c24f6efbba",
    ("host", "three-level", 400): "b8f67a32b52eeb99815761e369d205ab63370e9bf743a73c2b0fbe74daa436da",
    ("host", "two-level-100", 400): "bdd8cdf44e82d8f6a98219369546a7bf56a9e1c6106c743f288475c2ac7772d8",
    ("host", "two-level-50", 400): "4298d74f1099953db9d8a6d880bce7012dda901858d831f4571053bd47669b37",
}
#: The same for `SATURATED_TIMINGS`.
PINNED_TIMINGS_ANALYZE = "52c70dbc5bcb74570905cae48648378845a41f53bd1d1874c60c250073031b80"


@pytest.mark.parametrize("coeffs, preset, n_total", sorted(PINNED_ANALYZE))
def test_analyze_outputs_are_pinned(capsys, tmp_path, coeffs, preset, n_total):
    argv = ["analyze", "--preset", preset, "--n-total", str(n_total)]
    if coeffs == "host":
        (tmp_path / "host.txt").write_text(HOST_COEFFICIENTS)
        argv = ["--coeffs", str(tmp_path / "host.txt"), *argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ANALYZE[(coeffs, preset, n_total)]


def test_analyze_timings_output_is_pinned(capsys, tmp_path):
    config, timings = SATURATED_TIMINGS
    (tmp_path / "topo.txt").write_text(config)
    (tmp_path / "timings.txt").write_text(timings)
    code, out, _ = run_cli(
        capsys, "analyze", "--config", str(tmp_path / "topo.txt"), "--timings", str(tmp_path / "timings.txt")
    )
    assert code == 0
    assert out.endswith("3,Saturated,Saturated\n")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TIMINGS_ANALYZE


# --- simulate ------------------------------------------------------------------


def _summary_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"missing {key!r} in output:\n{out}")


DEEP_TREE = HierarchyConfig.from_seconds(3, [4, 10, 10, 4], [10.0, 30.0, 30.0, 30.0], 10.0)


@pytest.mark.parametrize("tree", ["two-level-50", "deep"])
def test_analyze_root_row_equals_simulated_bound(capsys, tmp_path, tree):
    """The planner and the simulator size reports by one rule, so their bounds agree."""
    if tree == "deep":  # fanout[0] > 1
        write_config_file(tmp_path / "topo.txt", DEEP_TREE)
        topology = ["--config", str(tmp_path / "topo.txt")]
    else:  # one service per machine
        topology = ["--preset", tree, "--n-total", "4000"]
    code, out, _ = run_cli(capsys, "analyze", *topology)
    assert code == 0
    root_prop = out.strip().splitlines()[-1].split(",")[1]
    code, out, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", *topology)
    assert code == 0
    assert _summary_value(out, "analytic_bound_s") == root_prop


def test_simulate_summary_and_files(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--out",
        str(tmp_path),
        "simulate",
        "--preset",
        "single-level",
        "--n-total",
        "20",
        "--seed",
        "3",
    )
    assert code == 0
    assert _summary_value(out, "machines") == "20"
    trace = run(SimConfig(PRESETS["single-level"].config(20), seed=3))
    assert _summary_value(out, "events") == str(sum(trace.event_counts.values()))
    assert _summary_value(out, "bound_respected") == "true"
    assert _summary_value(out, "losslessness").startswith("ok")
    tightness = float(_summary_value(out, "tightness"))
    assert 0.0 < tightness <= 1.0

    with open(tmp_path / "trace.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, "trace should contain deliveries"
    assert set(rows[0]) == {"service_id", "emitted_at_us", "arrived_root_at_us", "propagation_us"}

    with open(tmp_path / "machines.csv", newline="") as handle:
        machine_rows = list(csv.DictReader(handle))
    # 20 sensor machines plus the root channel host
    assert len(machine_rows) == 21


def test_simulate_prints_the_staleness_verdict_after_the_bound(capsys, tmp_path, monkeypatch):
    from hiermon import cli, sim

    args = ("--out", str(tmp_path), "simulate", "--preset", "single-level", "--n-total", "20")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("bound_respected: true") + 1] == "staleness_respected: true"
    checked = []

    def stale(trace):
        checked.append(trace)
        return sim.verify_against_model(trace)._replace(staleness_respected=False)

    monkeypatch.setattr(cli, "verify_against_model", stale)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and len(checked) == 1
    assert _summary_value(out, "bound_respected") == "true"
    assert _summary_value(out, "staleness_respected") == "false"


#: The names the benchmark hooks on `hiermon.cli`, in the order `simulate` calls them.
BENCH_HOOKED_NAMES = ("run", "write_trace_csv", "write_machines_csv", "verify_against_model")


def test_hooks_set_before_the_simulator_loads_are_what_simulate_calls(tmp_path):
    """Wrappers put on `hiermon.cli` before `hiermon.sim` is imported survive its import,
    are the functions `simulate` calls, and leave the exported CSVs unchanged."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"""
import contextlib, io, json, sys
import hiermon.cli as cli
names = {BENCH_HOOKED_NAMES!r}
calls = []

def wrapped(name):
    def wrapper(*args):
        calls.append(name)
        import hiermon.sim
        return getattr(hiermon.sim, name)(*args)
    return wrapper

def simulate(out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--out", out, "simulate", "--preset", "two-level-50", "--n-total", "100",
                         "--jitter", "0.5", "--seed", "3"]) == 0

loaded_first = "hiermon.sim" in sys.modules
wrappers = {{name: wrapped(name) for name in names}}
for name, wrapper in wrappers.items():
    setattr(cli, name, wrapper)
simulate({str(tmp_path / "wrapped")!r})
kept = all(getattr(cli, name) is wrapper for name, wrapper in wrappers.items())
import hiermon.sim
for name in names:
    setattr(cli, name, getattr(hiermon.sim, name))
simulate({str(tmp_path / "plain")!r})
print(json.dumps([loaded_first, calls, kept]))
"""
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, list(BENCH_HOOKED_NAMES), True]
    assert (tmp_path / "wrapped" / "trace.csv").read_bytes().count(b"\n") > 1  # rows, not just a header
    for name in ("trace.csv", "machines.csv"):
        assert (tmp_path / "wrapped" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_simulate_is_deterministic_per_seed(capsys, tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ("simulate", "--preset", "two-level-50", "--n-total", "100",
            "--jitter", "0.3")
    code, summary_a, _ = run_cli(capsys, "--out", str(out_a), *args, "--seed", "11")
    assert code == 0
    code, summary_b, _ = run_cli(capsys, "--out", str(out_b), *args, "--seed", "11")
    assert code == 0
    code, summary_c, _ = run_cli(capsys, "--out", str(out_c), *args, "--seed", "12")
    assert code == 0

    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "machines.csv").read_bytes() == (out_b / "machines.csv").read_bytes()
    strip = lambda s: [l for l in s.splitlines() if not l.startswith(("trace", "machines_csv"))]
    assert strip(summary_a) == strip(summary_b)
    assert (out_a / "trace.csv").read_bytes() != (out_c / "trace.csv").read_bytes()


def test_simulate_seed_env_override(capsys, tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("simulate", "--preset", "single-level", "--n-total", "10",
            "--jitter", "0.5")
    monkeypatch.setenv("HIERMON_SEED", "99")
    code, summary_a, _ = run_cli(capsys, "--out", str(out_a), *args, "--seed", "1")
    assert code == 0
    assert _summary_value(summary_a, "seed") == "99"
    monkeypatch.delenv("HIERMON_SEED")
    code, summary_b, _ = run_cli(capsys, "--out", str(out_b), *args, "--seed", "99")
    assert code == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_simulate_bad_seed_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HIERMON_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path), "simulate", "--preset", "single-level",
        "--n-total", "5",
    )
    assert code == 2
    assert "HIERMON_SEED" in err


def test_simulate_saturated_topology_reports_levels(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "--out", str(tmp_path), "simulate", "--preset", "single-level",
        "--n-total", "200000",
    )
    assert code == 2
    assert out == ""
    assert "saturated channel levels: 1 " in err
    assert not (tmp_path / "trace.csv").exists()


# --- calibrate -----------------------------------------------------------------


def test_calibrate_writes_samples_and_coefficients(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "calibrate", "--sizes", "0.5,5,25",
        "--reps", "30",
    )
    assert code == 0
    coeffs_path = tmp_path / "coefficients.txt"
    assert coeffs_path.is_file()
    assert "calibrated=true" in coeffs_path.read_text()
    with open(tmp_path / "samples.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert set(rows[0]) == {"size_kb", "parse_s", "serialize_s", "aggregate_s"}


def test_calibrated_coefficients_feed_analyze(capsys, tmp_path):
    coeffs_path = tmp_path / "coefficients.txt"
    write_coefficients(
        coeffs_path,
        LoadCoefficients(
            parse_s_per_kb=0.008,
            parse_fixed_s=0.05,
            serialize_s_per_kb=0.002,
            serialize_fixed_s=0.01,
            aggregate_s_per_kb=0.001,
            net_latency_s=0.005,
            calibrated=True,
        ),
    )
    code, out, err = run_cli(
        capsys, "--coeffs", str(coeffs_path), "analyze", "--preset", "single-level"
    )
    assert code == 0
    assert "(calibrated)" in err
    # coefficients identical to the synthetic defaults: same table
    _, default_out, _ = run_cli(capsys, "analyze", "--preset", "single-level")
    assert out == default_out


def test_calibrate_rejects_weak_protocols(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path), "calibrate", "--sizes", "1,2", "--reps", "30"
    )
    assert code == 2
    assert "3 distinct sizes" in err
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path), "calibrate", "--sizes", "1,2,4", "--reps", "5"
    )
    assert code == 2
    assert "30 repetitions" in err


@pytest.mark.parametrize(
    "sizes, reps, message",
    [
        ("-5,1,2", "30", "> 0"),
        ("0,1,2", "30", "> 0"),
        ("nan,1,2", "30", "> 0"),
        (f"1,2,{MAX_CALIBRATION_KB * 2:g}", "30", f"at most {MAX_CALIBRATION_KB:g} kB"),
        ("1,2,4", str(MAX_CALIBRATION_REPS + 1), f"at most {MAX_CALIBRATION_REPS} repetitions"),
    ],
)
def test_calibrate_bounds_sizes_and_reps_before_building_reports(capsys, tmp_path, monkeypatch, sizes, reps,
                                                                  message):
    from hiermon import loadmodel

    def forbidden(*args, **kwargs):
        raise AssertionError("a refused calibration built a report")

    monkeypatch.setattr(loadmodel, "report_of_size_kb", forbidden)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "--out", str(out_dir), "calibrate", f"--sizes={sizes}", "--reps", reps)
    assert code == 2
    assert message in err
    assert not out_dir.exists()


def test_calibrate_accepts_the_ceilings(capsys, tmp_path, monkeypatch):
    from hiermon import cli
    from hiermon.loadmodel import CostSample

    seen = []
    samples = [CostSample(s, 1e-5 + 1e-6 * s, 1e-5 + 1e-7 * s, 1e-6 + 1e-8 * s) for s in (0.5, 5, 25)]
    monkeypatch.setattr(cli, "measure_costs", lambda sizes, reps: seen.append((sizes, reps)) or samples)
    code, _, _ = run_cli(capsys, "--out", str(tmp_path), "calibrate",
                         f"--sizes=0.5,5,{MAX_CALIBRATION_KB:g}", "--reps", str(MAX_CALIBRATION_REPS))
    assert code == 0
    assert seen == [([0.5, 5.0, MAX_CALIBRATION_KB], MAX_CALIBRATION_REPS)]


def test_calibrate_unstable_keeps_samples(capsys, tmp_path, monkeypatch):
    from hiermon import cli
    from hiermon.loadmodel import CalibrationUnstableError, CostSample

    partial = [CostSample(0.5, 1e-5, 1e-5, 1e-6)]

    def explode(sizes, reps):
        raise CalibrationUnstableError("parse timings too noisy", samples=partial)

    monkeypatch.setattr(cli, "measure_costs", explode)
    code, _, err = run_cli(
        capsys, "--out", str(tmp_path), "calibrate", "--sizes", "0.5,5,25",
        "--reps", "30",
    )
    assert code == 3
    assert "too noisy" in err
    assert not (tmp_path / "coefficients.txt").exists()
    with open(tmp_path / "samples.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert float(rows[0]["size_kb"]) == 0.5


def test_calibrate_names_clamped_fits(capsys, tmp_path, monkeypatch):
    from hiermon import cli
    from hiermon.loadmodel import CostSample

    # parse costs fall on a line through -1 ms at 0 kB: a negative intercept
    samples = [CostSample(s, -1e-3 + 1e-3 * s, 1e-5 + 1e-6 * s, 1e-6 * s) for s in (0.5, 5, 25)]
    monkeypatch.setattr(cli, "measure_costs", lambda sizes, reps: samples)
    with pytest.warns(UserWarning, match="parse fit produced a negative term"):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "calibrate", "--sizes", "0.5,5,25", "--reps", "30"
        )
    assert code == 0
    assert "clamped: parse\n" in out
    assert "parse_fixed_s=0.0\n" in (tmp_path / "coefficients.txt").read_text()


# --- sweep command -------------------------------------------------------------


def test_sweep_command_files(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "sweep", "--presets", "single-level",
        "two-level-50", "--n-max", "2000", "--step", "100",
    )
    assert code == 0
    with open(tmp_path / "sweep_single-level.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 20
    assert set(rows[0]) == {"n_total", "t_prop_s", "root_utilization", "first_saturated_level"}
    saturated = [r for r in rows if r["first_saturated_level"] != "none"]
    assert saturated and all(r["t_prop_s"] == "Saturated" for r in saturated)
    unsaturated = [r for r in rows if r["first_saturated_level"] == "none"]
    assert all(float(r["root_utilization"]) < 1.0 for r in unsaturated)

    with open(tmp_path / "max_machines.csv", newline="") as handle:
        limits = {r["preset"]: int(r["max_machines"]) for r in csv.DictReader(handle)}
    assert limits == {"single-level": 1080, "two-level-50": 4600}
    assert "max_machines=1080" in out


@pytest.mark.parametrize("flags", [["--n-max", "-5"], ["--n-max", "0"], ["--step", "0"], ["--step", "-50"]])
def test_sweep_refuses_empty_ranges_before_writing(capsys, tmp_path, flags):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--out", str(out_dir), "sweep", *flags)
    assert code == 2
    assert "--n-max and --step must be at least 1" in err
    assert out == ""
    assert not out_dir.exists()


def test_sweep_row_budget_refuses_before_any_row(monkeypatch, capsys, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused sweep built rows")

    monkeypatch.setattr(cli, "sweep_preset", forbidden)
    monkeypatch.setattr(cli, "max_machines", forbidden)
    out_dir = tmp_path / "out"
    # 10**12 single-level rows alone
    code, out, err = run_cli(capsys, "--out", str(out_dir), "sweep", "--n-max", str(10**12), "--step", "1")
    assert code == 2
    assert f"above the budget of {capacity.MAX_SWEEP_ROWS}" in err
    assert out == "" and not out_dir.exists()
    # the budget counts every preset's rows: 980 400 + 19 608 here
    argv = ["sweep", "--presets", "single-level", "two-level-50", "--n-max", "980400", "--step", "1"]
    code, _, err = run_cli(capsys, "--out", str(out_dir), *argv)
    assert code == 2
    assert "the sweep would build 1000008 rows, above the budget of 1000000" in err
    capacity.check_sweep([PRESETS["single-level"]], capacity.MAX_SWEEP_ROWS, 1)  # at the budget: accepted


def test_sweep_memory_does_not_grow_with_rows(capsys, tmp_path):
    """`sweep` writes each row as it is built, so its peak traced memory is the same at
    1 000 and at 10 000 rows; holding the rows would take about 1.5 MB more."""
    argv = ["sweep", "--presets", "single-level", "--step", "1", "--n-max"]
    assert main(["--out", str(tmp_path / "warm"), *argv, "1000"]) == 0  # parser and module caches
    peaks = []
    for n_max in (1_000, 10_000):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "--out", str(tmp_path / str(n_max)), *argv, str(n_max))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and f"single-level: {n_max} rows" in out
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 200_000


# --- global flags and parsing ---------------------------------------------------


def test_flags_accepted_after_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--preset", "single-level", "--n-total", "5",
        "--out", str(tmp_path), "--seed", "2",
    )
    assert code == 0
    assert (tmp_path / "trace.csv").is_file()


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "analyze" in out and "sweep" in out
    for sub in ("analyze", "calibrate", "simulate", "sweep"):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["analyze", "--help"],
    ["calibrate", "--help"],
    ["simulate", "--help"],
    ["sweep", "--help"],
    [],
    ["bogus"],
    ["simulate", "--preset", "single-level", "--bogus"],
    ["--out", "x", "simulate", "--bogus"],
    ["sweep", "--n-max", "x"],
    ["analyze", "--preset", "single-level", "extra"],
    ["analyze", "--preset", "single-level", "--timings"],
])
def test_parser_text_matches_the_full_parser(capsys, argv):
    """`main` builds only the named subcommand's parser; every help, usage and error text,
    and the exit code, must still be the full parser's.  Computed here, not pinned:
    the wrap follows the terminal width."""
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    code = 0 if exit_info.value.code in (0, None) else 2
    assert run_cli(capsys, *argv) == (code, expected.out, expected.err)


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that stops early (`hiermon sweep | head -1`) gets no traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
    # The first line is printed before the sweep starts; the next one after it.
    argv = ["--out", str(tmp_path), "sweep", "--presets", "single-level",
            "--n-max", "20000", "--step", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hiermon", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.readline().startswith("coefficients:")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


def test_invalid_config_exits_two(capsys, tmp_path):
    topo = tmp_path / "topo.txt"
    topo.write_text("h=0\nfanout.0=1\nhold_s.0=1\nservice_period_s=1\n")
    code, _, err = run_cli(capsys, "analyze", "--config", str(topo))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flags", [
    ["--config"], ["--preset", "single-level", "--coeffs"], ["--preset", "single-level", "--timings"],
], ids=["config", "coeffs", "timings"])
def test_unreadable_input_file_exits_two(capsys, tmp_path, flags):
    missing = tmp_path / "no-such-file.txt"
    code, out, err = run_cli(capsys, "analyze", *flags, str(missing))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, problem", [
    ("nan", "parse_fixed_s must be finite and >= 0"),
    ("inf", "parse_fixed_s must be finite and >= 0"),
    ("abc", "could not convert string to float: 'abc'"),
], ids=["nan", "inf", "abc"])
@pytest.mark.parametrize("command", [
    ["analyze", "--preset", "single-level"],
    ["sweep", "--presets", "single-level", "--n-max", "100"],
    ["simulate", "--preset", "single-level", "--n-total", "5"],
])
def test_non_finite_coefficient_exits_two_before_any_output(capsys, tmp_path, value, problem, command):
    coeffs_path = tmp_path / "coefficients.txt"
    write_coefficients(coeffs_path, DEFAULT_COEFFICIENTS)
    coeffs_path.write_text(coeffs_path.read_text().replace("parse_fixed_s=0.05", f"parse_fixed_s={value}"))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--out", str(out_dir), "--coeffs", str(coeffs_path), *command)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read coefficients: {coeffs_path}: {problem}\n"
    assert not out_dir.exists()


_TOPOLOGY = "h=1\nfanout.0=1\nfanout.1=4\nhold_s.0={hold}\nhold_s.1=10\nservice_period_s={period}\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("case", [
    "hold-analyze", "hold-simulate", "period-analyze", "period-simulate", "timings", "duration",
])
def test_non_finite_duration_exits_two_before_any_output(capsys, tmp_path, case, value):
    path = tmp_path / "input.txt"
    if case == "timings":
        path.write_text(f"t_in_s.1=0.5\nt_out_s.1={value}\n")
        argv = ["analyze", "--preset", "single-level", "--timings", str(path)]
    elif case == "duration":
        argv = ["simulate", "--preset", "single-level", "--n-total", "5", "--duration", value]
    else:
        hold, period = (value, "10") if case.startswith("hold") else ("10", value)
        path.write_text(_TOPOLOGY.format(hold=hold, period=period))
        argv = [case.split("-")[1], "--config", str(path)]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "--out", str(out_dir), *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"got {value}" in err
    assert case == "duration" or str(path) in err
    assert not out_dir.exists()
