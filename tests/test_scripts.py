"""Smoke runs of the scripts/ entry points at a tiny scale."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, outputs", [
    ("run_desk_scale", ["model.alqf", "model.alqq", "metrics.json", "memory.json"]),
    ("run_sweep", ["sweep.csv", "sweep.json"]),
])
def test_script_main_runs(tmp_path, monkeypatch, name, outputs):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [name, "--out", str(out),
                                      "--n-per-class", "2", "--epochs", "1"])
    module.main()
    assert all((out / f).is_file() for f in outputs)
