"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import json

import pytest

import run
from jobs import WORKLOADS, build_jobs, load_references
from tracer import Tracer

run.import_rgp()

import rgp.cli  # noqa: E402  (importable only after import_rgp)
import rgp.ops  # noqa: E402
from rgp.errors import RgpError  # noqa: E402
from rgp.maps import canonical_form  # noqa: E402

REFS = load_references()


def _shape(job):
    g = rgp.cli.read_graph_text(job.text)
    return canonical_form(g).key, sorted(g.edge_labels)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = build_jobs(REFS, workload, 11, 25)
    again = build_jobs(REFS, workload, 11, 25)
    other = build_jobs(REFS, workload, 12, 25)
    assert [(j.id, j.argv, j.text, j.back) for j in first] == \
        [(j.id, j.argv, j.text, j.back) for j in again]
    assert [_shape(j) for j in first] == [_shape(j) for j in again]
    # another seed renames the same maps
    assert [j.id for j in first] == [j.id for j in other]
    assert [j.back for j in first] != [j.back for j in other]
    keys = {j.id: _shape(j)[0] for j in first}
    assert all(keys[j.id] == _shape(j)[0] for j in other)
    for job in first:
        # fresh names keep the str order of the pool names
        new = sorted(job.back)
        assert [job.back[n] for n in new] == sorted(job.back.values())


def _run(jobs, cli_main, tmp_path):
    run.write_jobs(jobs, tmp_path / "inputs")
    return run.run_jobs(jobs, cli_main, tmp_path / "outputs")


def test_every_kind_of_failure_counts(tmp_path):
    jobs = [j for j in build_jobs(REFS, "subset-sums", 3, 1e9)
            if j.id in ("critical-banana6", "critical-banana7",
                        "limit-hk-cycle8", "limit-hk-cycle9")]
    assert len(jobs) == 4
    fake = {"critical-banana6": "corrupt", "critical-banana7": "raise",
            "limit-hk-cycle8": "exit"}

    def cli_main(argv):
        what = fake.get(next(j.id for j in jobs if j.path == argv[-1]))
        if what == "raise":
            raise RgpError("injected")
        if what == "exit":
            return 1
        if what == "corrupt":
            print(json.dumps([{"coeff": "1", "vars": []}]))
            return 0
        return rgp.cli.main(argv)

    results = _run(jobs, cli_main, tmp_path)
    failures, _terms = run.check(results)
    assert len(results) == 4
    assert sorted(job_id for job_id, _ in failures) == sorted(fake)

    clean, _ = run.check(_run(jobs, rgp.cli.main, tmp_path / "clean"))
    assert clean == []


def _traced(jobs, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        results = _run(jobs, lambda argv: rgp.cli.main(argv), tmp_path)
    finally:
        tracer.uninstall()
    return tracer, results


@pytest.mark.parametrize("workload, seconds", [("hv-small", 1.0), ("subset-sums", 2.0)])
def test_layer_self_time_within_traced_wall(workload, seconds, tmp_path):
    tracer, results = _traced(build_jobs(REFS, workload, 5, seconds), tmp_path)
    assert run.check(results)[0] == []
    wall = sum(r.seconds for r in results)
    layers = tracer.layer_self()
    assert all(0 <= own <= wall for own in layers.values()), (layers, wall)
    assert sum(layers.values()) <= wall
    assert rgp.cli.main.__name__ == "main" and not hasattr(rgp.cli.main, "__wrapped__")


def test_missing_function_is_an_absent_metric(tmp_path, monkeypatch):
    monkeypatch.delattr(rgp.ops, "spanning_subgraph")
    jobs = [j for j in build_jobs(REFS, "hv-small", 5, 1e9) if j.id == "sunset"]
    tracer, results = _traced(jobs, tmp_path)
    assert run.check(results)[0] == []
    metrics, absent = run.per_layer(tracer, {"cli.terms_out": 1})
    assert "ops.spanning_subgraph.calls" in absent
    assert "trace.overhead_frac" in absent
    assert metrics["hyperbolic.hv.calls"]["value"] == 1
    assert metrics["qpoly.nodes"]["value"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _how in run.PER_LAYER]
