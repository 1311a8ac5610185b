"""The capacity engine against the full per-row load model it replaces."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiermon.capacity import PRESETS, PresetModel, SweepRow, max_machines, sweep_preset
from hiermon.cli import main
from hiermon.loadmodel import DEFAULT_COEFFICIENTS, LoadCoefficients, hierarchy_loads, hierarchy_timings
from hiermon.model import propagation_time


def oracle_rows(preset, coeffs, n_max, step):
    """One full tree and one whole `hierarchy_loads` per machine count."""
    unit = preset.machines_per_unit
    stride = max(1, round(step / unit))
    rows = []
    for m in range(stride, n_max // unit + 1, stride):
        config = preset.config(m * unit)
        loads = hierarchy_loads(config, coeffs)
        timings = hierarchy_timings(loads)
        saturated = [lv for lv in range(1, config.depth + 1) if timings.t_in[lv].is_saturated]
        rows.append(SweepRow(
            n_total=m * unit,
            t_prop=propagation_time(config, timings, config.depth),
            root_utilization=loads[config.depth].utilization,
            first_saturated_level=saturated[0] if saturated else None,
        ))
    return rows


def oracle_max_machines(preset, coeffs):
    """The affine estimate and exact walk of `max_machines`, on whole trees."""

    def root_u(m):
        config = preset.config(m * preset.machines_per_unit)
        return hierarchy_loads(config, coeffs)[config.depth].utilization

    u1 = root_u(1)
    if u1 >= 1.0:
        return 0
    m = max(1, math.ceil((1.0 - u1) / (root_u(2) - u1)))
    while m > 1 and root_u(m) >= 1.0:
        m -= 1
    while root_u(m + 1) < 1.0:
        m += 1
    return m * preset.machines_per_unit


#: Level 1 of every preset saturates, while the root of a small deeper tree does not.
SATURATES_LEVEL_1 = LoadCoefficients(0.01, 1.2, 0.0, 0.0, 0.0, 0.0)
#: Level 2 of three-level saturates, while its level 1 and a small root do not.
SATURATES_LEVEL_2 = LoadCoefficients(0.17, 0.9, 0.0, 0.0, 0.0, 0.001)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _cost(lo, hi):
    return st.one_of(st.just(0.0), _log_uniform(lo, hi))


_coefficients = st.builds(
    LoadCoefficients,
    parse_s_per_kb=_log_uniform(1e-6, 1.0),
    parse_fixed_s=_cost(1e-6, 1.0),
    serialize_s_per_kb=_cost(1e-7, 0.1),
    serialize_fixed_s=_cost(1e-7, 1.0),
    aggregate_s_per_kb=_cost(1e-8, 0.01),
    net_latency_s=_cost(1e-5, 0.1),
)


@settings(max_examples=60, deadline=None)
@given(_coefficients, st.integers(0, 2500), st.integers(1, 1000))
@example(DEFAULT_COEFFICIENTS, 12_000, 50)
@example(SATURATES_LEVEL_1, 2000, 50)
@example(SATURATES_LEVEL_2, 2000, 1)
@example(DEFAULT_COEFFICIENTS, 99, 50)
def test_engine_equals_the_full_model(coeffs, n_max, step):
    for preset in PRESETS.values():
        assert sweep_preset(preset, coeffs, n_max, step) == oracle_rows(preset, coeffs, n_max, step)
        assert max_machines(preset, coeffs) == oracle_max_machines(preset, coeffs)


@pytest.mark.parametrize(
    "coeffs, preset, level",
    [(SATURATES_LEVEL_1, "two-level-50", 1), (SATURATES_LEVEL_1, "three-level", 1),
     (SATURATES_LEVEL_2, "three-level", 2)],
)
def test_saturated_lower_level_marks_every_row(coeffs, preset, level):
    """A saturated level below the root saturates every row, whatever the root's load."""
    model = PresetModel(PRESETS[preset], coeffs)
    assert model.lower_saturated == level
    rows = sweep_preset(PRESETS[preset], coeffs, 3000, 100)
    assert any(r.root_utilization < 1.0 for r in rows)
    assert all(r.first_saturated_level == level and r.t_prop.is_saturated for r in rows)
    assert rows == oracle_rows(PRESETS[preset], coeffs, 3000, 100)


HOST_COEFFICIENTS = """\
parse_s_per_kb=0.000375
parse_fixed_s=0.00015
serialize_s_per_kb=0.000255
serialize_fixed_s=7.5e-05
aggregate_s_per_kb=1.125e-05
net_latency_s=0.0005
calibrated=true
"""

#: sha256 over each ``sweep`` output file's name and bytes, in name order, for
#: the default and a host-scale coefficients file at two grids; recorded from
#: the per-row full model before the engine replaced it.
PINNED_SWEEPS = {
    ("default", 12000, 50): "4bcbef8180b666ab824010d6054725455cad607d568faa95672e5b7e53fde316",
    ("default", 100, 100): "42f2d969cc4b9740ca9d8298b4e86bfffa7f92631dd566cd326a0e6912f6779f",
    ("host", 12000, 50): "0fbad8edc694bfe55dc773aec06693e2cf57fd9d58f33997c684967bfdaca2f4",
    ("host", 100, 100): "2bdc7442f4b76a5ec6cf0a73323ddc6a55628b6a825c3fa80196fcf88e216d84",
}


@pytest.mark.parametrize("coeffs, n_max, step", sorted(PINNED_SWEEPS))
def test_sweep_outputs_are_pinned(tmp_path, coeffs, n_max, step):
    out = tmp_path / "out"
    argv = ["--out", str(out), "sweep", "--n-max", str(n_max), "--step", str(step)]
    if coeffs == "host":
        (tmp_path / "host.txt").write_text(HOST_COEFFICIENTS)
        argv = ["--coeffs", str(tmp_path / "host.txt"), *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == PINNED_SWEEPS[(coeffs, n_max, step)]


def _coefficients_of(text: str) -> LoadCoefficients:
    values = dict(line.split("=") for line in text.splitlines())
    return LoadCoefficients(**{k: float(v) for k, v in values.items() if k != "calibrated"}, calibrated=True)


COEFFICIENT_SETS = {
    "default": DEFAULT_COEFFICIENTS,
    "host": _coefficients_of(HOST_COEFFICIENTS),
    "saturates-level-1": SATURATES_LEVEL_1,
    "saturates-level-2": SATURATES_LEVEL_2,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.sampled_from(sorted(COEFFICIENT_SETS)), st.data())
def test_engine_root_is_the_full_model_root(name, coeffs_name, data):
    """The whole root record, period and size included, equals the full model's, float for float."""
    preset, coeffs = PRESETS[name], COEFFICIENT_SETS[coeffs_name]
    capacity = max_machines(preset, coeffs) // preset.machines_per_unit
    edges = st.sampled_from([1, max(capacity, 1), capacity + 1])
    m = data.draw(st.integers(1, 2 * max(capacity, 1)) | edges)
    full = hierarchy_loads(preset.config(m * preset.machines_per_unit), coeffs)
    assert PresetModel(preset, coeffs).root(m) == full[-1]
