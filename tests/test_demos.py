"""The demos run end to end against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEMOS = (
    "capacity_sweep",
    "host_calibration",
    "propagation_bounds",
    "report_pipeline",
    "simulation_vs_bounds",
)


def test_demos_exit_zero(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name in DEMOS:
        result = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{name}.py")],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, f"{name} exited {result.returncode}:\n{result.stderr}"
