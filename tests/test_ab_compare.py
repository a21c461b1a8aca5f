"""`scripts/ab_compare.py` on two copies of one tree: it compares their
outputs and refuses a side that prints other bytes or does not import.  No
timing is checked, since that would depend on the host's load."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_compare.py"
EXAMPLES = ROOT / "examples"
JOBS = [(["hu"], "two_cycle.rg"),
        (["specialize", "--to", "ising", "--format", "json"], "sunset.rg"),
        (["cut", "-e", "nope"], "dumbbell.rg")]


@pytest.fixture(scope="module")
def ab_compare():
    spec = importlib.util.spec_from_file_location("ab_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def jobs(ab_compare):
    """JOBS as perfbench jobs, on the example files."""
    job = ab_compare.perfbench_module("jobs").Job
    return [job(name, argv, "", {}, "", str(EXAMPLES / name)) for argv, name in JOBS]


def _copy(tmp_path: Path, name: str) -> Path:
    tree = tmp_path / name
    shutil.copytree(ROOT / "src" / "rgp", tree / "src" / "rgp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_equal_trees_compare(ab_compare, jobs, tmp_path):
    lines = []
    got = ab_compare.compare(_copy(tmp_path, "a"), _copy(tmp_path, "b"), jobs, 3,
                             show=lines.append)
    assert [line.split(":")[0] for line in lines] == [
        "round 1 A", "round 1 B", "round 2 B", "round 2 A", "round 3 A", "round 3 B"]
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == 1
    assert len(got["ratios"]) == 3 and got["rounds"] == 3
    assert got["q1"] <= got["median"] <= got["q3"] and 0 <= got["b_lower"] <= 3
    assert got["min_ratio"] > 0 and set(got["rss_mb"]) == {"A", "B"}


def test_other_output_is_refused(ab_compare, jobs, tmp_path):
    # B's specialize verb prints the class counts instead
    b = _copy(tmp_path, "b")
    cli = b / "src" / "rgp" / "cli.py"
    cli.write_text(cli.read_text().replace('"specialize", _cmd_poly, "classical',
                                           '"specialize", _cmd_counts, "classical'))
    with pytest.raises(ab_compare.Refused, match="round 1 B printed other bytes"):
        ab_compare.compare(_copy(tmp_path, "a"), b, jobs, 2, show=lambda line: None)


def test_a_tree_that_does_not_import_is_refused(ab_compare, jobs, tmp_path):
    b = _copy(tmp_path, "b")
    (b / "src" / "rgp" / "qpoly.py").write_text("this is not python\n")
    with pytest.raises(ab_compare.Refused, match="import failed"):
        ab_compare.compare(_copy(tmp_path, "a"), b, jobs, 2, show=lambda line: None)
