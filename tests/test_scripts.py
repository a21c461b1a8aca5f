"""Smoke runs of the self-checking experiments in scripts/."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["duality_sweep", "limit_survey"])
def test_script_runs_clean(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    assert module.main(["--samples", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out
