"""The checks `scripts/bench_record.py` makes before it records a run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake(lines, code=0):
    """A command that prints `lines` and exits with `code`, whatever its options."""
    body = "".join(f"print({line!r})\n" for line in lines)
    return [sys.executable, "-c", body + f"raise SystemExit({code})"]


def _result(metrics, correct=True):
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                       "metrics": {m: {"value": 1.5, "unit": "s"} for m in metrics}})


def _run(module, command):
    return module.run_once(Path("."), command, "hu-large", 1, 25, 0, ["wall_s", "setup_s"])


def test_accepts_a_complete_result(bench_record):
    got = _run(bench_record, _fake(["wall_s 1.5 s", _result(["wall_s", "setup_s"])]))
    assert got == {"wall_s": 1.5, "setup_s": 1.5}


@pytest.mark.parametrize("lines, code, reason", [
    (["wall_s 1.5 s"], 0, "not a JSON result"),
    ([_result(["wall_s", "setup_s"]), "done"], 0, "not a JSON result"),
    ([], 0, "not a JSON result"),
    ([_result(["wall_s"])], 0, "missing metrics setup_s"),
    (["absent: setup_s", _result(["wall_s", "setup_s"])], 0, "absent: setup_s"),
    ([_result(["wall_s", "setup_s"], correct=False)], 1, "jobs failed"),
    ([_result(["wall_s", "setup_s"])], 1, "exit 1"),
])
def test_refuses_a_run_it_cannot_record(bench_record, lines, code, reason):
    with pytest.raises(bench_record.Refused, match=reason):
        _run(bench_record, _fake(lines, code))
