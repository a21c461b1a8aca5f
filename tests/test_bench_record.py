"""The checks `scripts/bench_record.py` makes before it records a run, and
the layout it writes."""

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


def _record(module) -> dict:
    metrics = {"wall_s": module.summary([0.25, 0.5, 0.125], "s"),
               "peak_rss_mb": module.summary([30.5, 31.0, 30.75], "MB")}
    return {"benchmark": ["python3", "perfbench/run.py"], "seeds": [1, 2, 3],
            "machine": {"cpu_count": 2, "python": "3.11.7"},
            "revisions": {side: {"sha": sha, "workloads": {"hu-large": metrics,
                                                           "hv-small": metrics}}
                          for side, sha in (("base", "a1"), ("head", "b2"))}}


def test_record_text_keeps_each_metric_on_one_line(bench_record):
    record = _record(bench_record)
    text = bench_record.dumps(record)
    assert json.loads(text) == record
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    for key, value in record.items():
        if key != "revisions":
            assert f"{json.dumps(key)}: {json.dumps(value)}" in lines, key
    for revision in record["revisions"].values():
        for metrics in revision["workloads"].values():
            for name, value in metrics.items():
                assert f"{json.dumps(name)}: {json.dumps(value)}" in lines, name


def test_committed_records_are_in_the_written_layout(bench_record):
    paths = sorted(SCRIPT.parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert bench_record.dumps(json.loads(text)) == text, path.name
