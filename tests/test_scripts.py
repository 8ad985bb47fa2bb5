"""Smoke runs of the sweep scripts under scripts/, at their smallest sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(out, header_lines):
    return [line.split() for line in out.splitlines()[header_lines:]]


def test_run_regimes_prints_one_row_per_fixture(capsys, fixtures_dir):
    assert load_script("run_regimes").main([]) == 0
    rows = table_rows(capsys.readouterr().out, 2)
    assert len(rows) == len(list(fixtures_dir.glob("scenario_*.json"))) > 0


def test_ablation_prints_one_row_per_seed_and_a_summary(capsys):
    assert load_script("ablation_overtaking").main(["--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "-" * 32
    assert lines[-1].startswith("mean handover success: lateral-aware ")
    assert [line.split()[0] for line in lines[1:-2]] == ["1", "2"]


def test_drift_sweep_prints_one_row_per_amplitude(capsys):
    assert load_script("drift_sweep").main(["--seeds", "1", "--amplitudes", "0,15"]) == 0
    rows = table_rows(capsys.readouterr().out, 2)
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, 15.0])
