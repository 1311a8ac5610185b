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


def test_readme_quick_start_runs(tmp_path):
    """The README's "Library quick start" block runs as written against the package."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "leaves reached the root" in result.stdout
