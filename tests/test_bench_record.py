"""The checks `scripts/bench_record.py` makes before it records a run, the
order in which it runs the two sides, how it counts wins, and the layout it
writes.  The comparisons run on fake commands and on copies of this tree,
never on git history; no timing is checked, since that would depend on the
host's load."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_record.py"
EXAMPLES = ROOT / "examples"
JOBS = [(["hu"], "two_cycle.rg"),
        (["specialize", "--to", "ising", "--format", "json"], "sunset.rg"),
        (["cut", "-e", "nope"], "dumbbell.rg")]


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


# A benchmark command whose metrics depend on the seed it is given and on the
# checkout it runs in: head's wall_s is lower in every pair, hits tie in every
# pair, and head's score is higher on odd seeds only.
_SIDED = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
head = os.path.basename(os.getcwd()) == "head"
values = {"wall_s": seed + (0 if head else 0.5), "hits": seed,
          "score": seed + (1 if head and seed % 2 else 0)}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {k: {"value": v} for k, v in values.items()}}))
"""


def test_pairs_alternate_and_count_wins(bench_record, tmp_path):
    trees = {}
    for side in bench_record.SIDES:
        (tmp_path / side).mkdir()
        trees[side], name = bench_record.checkout(str(tmp_path / side), tmp_path / "unused")
        assert name == {"dir": str((tmp_path / side).resolve())}
    better = {"wall_s": "lower", "hits": "lower", "score": "higher"}
    spec = {"command": [sys.executable, "-c", _SIDED], "run_seconds": 1,
            "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": name, "better": b} for name, b in better.items()]}
    lines = []
    runs = bench_record.measure(trees, spec, 0, range(1, 5), lines.append)
    assert [line.split(":")[0] for line in lines] == [
        f"{side} {w} seed {seed} trace 0"
        for seed, sides in zip(range(1, 5), [("base", "head"), ("head", "base")] * 2)
        for w in ("w1", "w2") for side in sides]
    for w in ("w1", "w2"):
        assert runs["base"][w]["hits"] == runs["head"][w]["hits"] == [1, 2, 3, 4]
        assert runs["head"][w]["wall_s"] == [1, 2, 3, 4]
        assert runs["base"][w]["wall_s"] == [1.5, 2.5, 3.5, 4.5]
    got = {name: bench_record.wins(runs["base"]["w1"][name], runs["head"]["w1"][name], b)
           for name, b in better.items()}
    assert got == {"wall_s": {"head": 4, "base": 0}, "hits": {"head": 0, "base": 0},
                   "score": {"head": 2, "base": 0}}
    assert bench_record.wins([1, 2], [2, 1], "lower") == {"head": 1, "base": 1}
    assert bench_record.wins([1, 2], [2, 1], "higher") == {"head": 1, "base": 1}
    assert bench_record.wins([1, 1], [2, 2], "higher") == {"head": 2, "base": 0}


@pytest.fixture(scope="module")
def jobs(bench_record):
    """JOBS as perfbench jobs, on the example files."""
    job = bench_record.perfbench_module("jobs").Job
    return [job(name, argv, "", {}, "", str(EXAMPLES / name)) for argv, name in JOBS]


def _copy(tmp_path: Path, name: str) -> Path:
    tree = tmp_path / name
    shutil.copytree(ROOT / "src" / "rgp", tree / "src" / "rgp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_equal_trees_compare(bench_record, jobs, tmp_path):
    lines = []
    trees = {"base": _copy(tmp_path, "a"), "head": _copy(tmp_path, "b")}
    got = bench_record.cpu_ab(trees, jobs, 3, lines.append)
    assert [line.split(":")[0] for line in lines] == [
        "round 1 base", "round 1 head", "round 2 head", "round 2 base",
        "round 3 base", "round 3 head"]
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == 1
    ratio = got["ratio"]
    assert len(ratio["runs"]) == 3 and ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert sum(got["wins"].values()) <= 3 and got["min_ratio"] > 0
    assert set(got["peak_rss_mb"]) == {"base", "head"}


def test_other_output_is_refused(bench_record, jobs, tmp_path):
    # head's specialize verb prints the class counts instead
    head = _copy(tmp_path, "b")
    cli = head / "src" / "rgp" / "cli.py"
    cli.write_text(cli.read_text().replace('"specialize", _cmd_poly, "classical',
                                           '"specialize", _cmd_counts, "classical'))
    with pytest.raises(bench_record.Refused, match="round 1 head printed other bytes"):
        bench_record.cpu_ab({"base": _copy(tmp_path, "a"), "head": head}, jobs, 2,
                            lambda line: None)


def test_a_tree_that_does_not_import_is_refused(bench_record, jobs, tmp_path):
    head = _copy(tmp_path, "b")
    (head / "src" / "rgp" / "qpoly.py").write_text("this is not python\n")
    with pytest.raises(bench_record.Refused, match="import failed"):
        bench_record.cpu_ab({"base": _copy(tmp_path, "a"), "head": head}, jobs, 2,
                            lambda line: None)


def test_a_run_that_dies_is_refused(bench_record, jobs, tmp_path):
    head = tmp_path / "b" / "src" / "rgp"
    head.mkdir(parents=True)
    (head / "__init__.py").write_text("")
    (head / "cli.py").write_text("import os\n\ndef main(argv):\n    os._exit(3)\n")
    with pytest.raises(bench_record.Refused, match="a run died"):
        bench_record.cpu_ab({"base": _copy(tmp_path, "a"), "head": tmp_path / "b"}, jobs, 2,
                            lambda line: None)


def _record(module) -> dict:
    metrics = {"wall_s": module.summary([0.25, 0.5, 0.125], "s"),
               "peak_rss_mb": module.summary([30.5, 31.0, 30.75], "MB")}
    won = {"wall_s": {"head": 7, "base": 2}, "peak_rss_mb": {"head": 0, "base": 10}}
    cpu = {"ratio": module.summary([0.9, 1.1, 0.95], "head/base"), "min_ratio": 0.97,
           "wins": {"head": 2, "base": 1}, "peak_rss_mb": {"base": 40.5, "head": 40.0}}
    return {"benchmark": ["python3", "perfbench/run.py"], "pairs": 10,
            "machine": {"cpu_count": 2, "python": "3.11.7"},
            "revisions": {side: {"sha": sha, "workloads": {"hu-large": metrics,
                                                           "hv-small": metrics}}
                          for side, sha in (("base", "a1"), ("head", "b2"))},
            "wins": {"hu-large": won, "hv-small": won},
            "cpu": {"hu-large": cpu, "hv-small": cpu}}


def test_record_text_keeps_each_metric_on_one_line(bench_record):
    record = _record(bench_record)
    text = bench_record.dumps(record)
    assert json.loads(text) == record
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    for key, value in record.items():
        if key not in ("revisions", "wins", "cpu"):
            assert f"{json.dumps(key)}: {json.dumps(value)}" in lines, key
    for revision in record["revisions"].values():
        for metrics in revision["workloads"].values():
            for name, value in metrics.items():
                assert f"{json.dumps(name)}: {json.dumps(value)}" in lines, name
    for key in ("wins", "cpu"):
        for workload, value in record[key].items():
            assert f"{json.dumps(workload)}: {json.dumps(value)}" in lines, (key, workload)


def test_committed_records_are_in_the_written_layout(bench_record):
    paths = sorted(SCRIPT.parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        assert bench_record.dumps(json.loads(text)) == text, path.name
