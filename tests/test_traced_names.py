"""Every name the benchmark traces still resolves in the package.

perfbench wraps `rgp` functions and `MultiPoly` methods by name when it runs
with `--trace 1`, and reports a per-layer metric as absent when its name no
longer resolves; a recorded run with an absent metric is refused.  This test
reads the benchmark's metric table (`PER_LAYER` in perfbench/run.py) and its
method table (`POLY_METHODS` in perfbench/tracer.py), without changing either,
and checks every `calls`, `self` and `site` span against the package, so a
rename fails here instead of in a traced run.  It also runs, per workload,
the cheapest pool job of each distinct command line under the benchmark's
tracer, so a metric that a code path stops producing (a counter that is
never bumped) fails here too.
"""

import importlib
import sys
from pathlib import Path
from types import FunctionType

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from jobs import WORKLOADS, build_jobs, load_references, write_jobs  # noqa: E402
from run import PER_LAYER  # noqa: E402
from tracer import POLY_METHODS, TERM_COUNTERS, Tracer  # noqa: E402

import rgp.cli  # noqa: E402
import rgp.hyperbolic  # noqa: E402
from rgp.poly import MultiPoly, VarId  # noqa: E402


def _function(span: str):
    """The function a span name wraps, or None when the name is gone."""
    layer, _, name = span.partition(".")
    if layer == "poly":
        for attr, traced in POLY_METHODS.items():
            fn = vars(MultiPoly).get(attr)
            if traced == span and isinstance(fn, FunctionType):
                return fn
        return None
    mod = importlib.import_module(f"rgp.{layer}")
    fn = vars(mod).get(name)
    if name.startswith("_") or not isinstance(fn, FunctionType) or fn.__module__ != mod.__name__:
        return None
    return fn


def _spans():
    """(metric, span, binding module or None) for every span-backed metric."""
    out = []
    for metric, _unit, how in PER_LAYER:
        if how[0] in ("calls", "self"):
            out.append((metric, how[1], None))
        elif how[0] == "site":
            out.append((metric, how[2], how[1]))
        elif how[0] == "count" and how[1] in TERM_COUNTERS.values():
            span = next(s for s, counter in TERM_COUNTERS.items() if counter == how[1])
            out.append((metric, span, None))
    return out


def test_every_traced_span_resolves():
    spans = _spans()
    assert len(spans) >= 30
    gone = [metric for metric, span, _site in spans if _function(span) is None]
    assert gone == []


def test_every_traced_site_binds_the_function():
    sites = [(metric, span, site) for metric, span, site in _spans() if site is not None]
    assert sites
    unbound = []
    for metric, span, site in sites:
        fn = _function(span)
        mod = importlib.import_module(f"rgp.{site}")
        if not any(obj is fn for obj in vars(mod).values()):
            unbound.append(metric)
    assert unbound == []


def test_term_counters_count_one_entry_per_term():
    """The tracer sums `len(receiver.terms)` into each TERM_COUNTERS counter,
    so `terms` must hold exactly one entry per term."""
    x, y = MultiPoly.variable("X", "e1"), MultiPoly.variable("Y", "e2")
    one = MultiPoly.one()
    polys = [MultiPoly.zero(), one, (x + y) ** 3, (x + y) - y,
             ((x + one) * (y - one)).rename({VarId("Y", "e2"): VarId("X", "e1")})]
    sizes = [sum(1 for _ in p.monomials()) for p in polys]
    assert sizes == [0, 1, 4, 1, 2]
    assert [len(p.terms) for p in polys] == sizes
    tracer = Tracer()
    tracer.install()
    try:
        for p in polys:
            p.substitute({VarId("X", "e1"): 2})
            p + x
    finally:
        tracer.uninstall()
    assert tracer.counts == {counter: sum(sizes) for counter in TERM_COUNTERS.values()}


def _cheapest_jobs(workload: str) -> list:
    """The workload's cheapest pool job (by `nominal_s`) of each distinct
    command line, with the run names of seed 1."""
    refs = load_references()
    pool = refs["workloads"][workload]
    jobs = build_jobs(refs, workload, 1, 1e9)
    cheapest = {}
    for entry, job in zip(pool, jobs):
        argv = tuple(job.argv)
        if argv not in cheapest or entry["nominal_s"] < cheapest[argv][0]:
            cheapest[argv] = (entry["nominal_s"], job)
    return [job for _cost, job in cheapest.values()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_jobs_report_every_metric(workload, tmp_path, monkeypatch):
    # a cold reduction memo, as in a fresh benchmark process
    monkeypatch.setattr(rgp.hyperbolic, "_SHARED_MEMO", {})
    jobs = _cheapest_jobs(workload)
    write_jobs(jobs, tmp_path / "inputs")
    tracer = Tracer()
    tracer.install()
    try:
        # looked up at each call, so the traced wrapper of main runs
        results = run.run_jobs(jobs, lambda argv: rgp.cli.main(argv), tmp_path / "outputs")
    finally:
        tracer.uninstall()
    failures, _terms = run.check(results)
    assert failures == []
    _metrics, absent = run.per_layer(tracer, {"cli.terms_out": 0,
                                              "trace.overhead_frac": 0.0})
    assert absent == []
