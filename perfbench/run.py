"""Benchmark of the rgp CLI verbs, end to end and layer by layer.

    python3 perfbench/run.py --workload hu-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7          # every workload
    python3 perfbench/run.py --rebuild-references             # rebuild the pool

One process runs one workload: a closed loop with a single client that calls
``rgp.cli.main(argv)`` on each job in turn, the way a batch script would, so
process state (the shared reduction memo) carries over from job to job and
starts cold.  Each output is written aside and checked after the loop against
the pool's reference digest; a job fails on an exception, a non-zero exit or
an output that is not the reference polynomial.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
jobs with every layer wrapped (see tracer.py) and reports the per-layer
metrics; it first runs the untraced jobs in a child process to measure the
tracing overhead.  The last line of standard output is one JSON object; the
lines before it print every metric by name with its unit.  The exit code is
0 only when every job's output is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from jobs import WORKLOADS, build_jobs, canonical_output, digest, load_references, write_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 175

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: (metric, unit, how it is computed).
#   ("self", span)   self time of a span name       ("calls", span)  its calls
#   ("layer", layer) summed self time of a layer    ("count", name)  a counter
#   ("site", module, span)  calls of span made through module's binding
PER_LAYER = [
    *[(f"{layer}.self_s", "s", ("layer", layer))
      for layer in ("cli", "hyperbolic", "qpoly", "ops", "maps", "poly")],
    ("cli.read_graph_file.calls", "count", ("calls", "cli.read_graph_file")),
    ("cli.read_graph_file.self_s", "s", ("self", "cli.read_graph_file")),
    ("cli.terms_out", "count", ("count", "cli.terms_out")),
    *[(f"hyperbolic.{fn}.calls", "count", ("calls", f"hyperbolic.{fn}"))
      for fn in ("hu", "hv", "symanzik_u", "hu_commutative_limit", "hu_critical")],
    ("qpoly.q_by_reduction.calls", "count", ("calls", "qpoly.q_by_reduction")),
    ("qpoly.q_by_reduction.self_s", "s", ("self", "qpoly.q_by_reduction")),
    ("qpoly.nodes", "count", ("site", "qpoly", "maps.canonical_form")),
    ("qpoly.memo_misses", "count", ("site", "qpoly", "ops.partial_dual")),
    ("qpoly.memo_hit_ratio", "ratio", ("count", "qpoly.memo_hit_ratio")),
    ("poly.substitute.calls", "count", ("calls", "poly.substitute")),
    ("poly.substitute.self_s", "s", ("self", "poly.substitute")),
    ("poly.substitute.terms_in", "count", ("count", "poly.substitute.terms_in")),
    ("poly.add.calls", "count", ("calls", "poly.add")),
    ("poly.add.self_s", "s", ("self", "poly.add")),
    ("poly.add.terms_copied", "count", ("count", "poly.add.terms_copied")),
    ("poly.mul.calls", "count", ("calls", "poly.mul")),
    ("poly.mul.self_s", "s", ("self", "poly.mul")),
    ("poly.to_json.self_s", "s", ("self", "poly.to_json")),
    ("maps.canonical_form.calls", "count", ("calls", "maps.canonical_form")),
    ("maps.canonical_form.self_s", "s", ("self", "maps.canonical_form")),
    ("maps.make_graph.calls", "count", ("calls", "maps.make_graph")),
    ("maps.make_graph.self_s", "s", ("self", "maps.make_graph")),
    ("maps.validate_map.calls", "count", ("calls", "maps.validate_map")),
    ("maps.validate_map.self_s", "s", ("self", "maps.validate_map")),
    ("maps.face_count.calls", "count", ("calls", "maps.face_count")),
    ("ops.spanning_subgraph.calls", "count", ("calls", "ops.spanning_subgraph")),
    *[(f"ops.{fn}.{kind}", unit, (kind.split("_")[0], f"ops.{fn}"))
      for fn in ("partial_dual", "delete", "delete_edges", "cut")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("trace.overhead_frac", "ratio", ("count", "trace.overhead_frac")),
]


@dataclass
class Result:
    job: object
    seconds: float
    rc: object          # exit code, or None when the call raised
    error: str          # the exception, if the call raised
    stderr: str
    out_path: Path


def import_rgp():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rgp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rgp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("rgp.cli")
    if Path(cli.__file__).resolve().parent != SRC / "rgp":
        sys.exit(f"perfbench: imported rgp from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, seconds: float, workdir: Path) -> tuple:
    """Import rgp, load the references and build and write the job list,
    SETUP_REPEATS times over (the package is dropped from ``sys.modules``
    before each import).  Returns (rgp.cli, jobs, median set-up seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "rgp" or m.startswith("rgp.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        cli = import_rgp()
        jobs = build_jobs(load_references(), workload, seed, seconds)
        write_jobs(jobs, workdir / "inputs")
        times.append(time.perf_counter() - t0)
    return cli, jobs, statistics.median(times)


def run_jobs(jobs: list, cli_main, outdir: Path) -> list:
    """Run every job through ``cli_main(argv)``, timing each call alone."""
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for i, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        error = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(job.argv + [job.path])
        except Exception as ex:   # a crash fails the job, not the run
            rc, error = None, f"{type(ex).__name__}: {ex}"
        elapsed = time.perf_counter() - t0
        out_path = outdir / f"{i:03d}.out"
        out_path.write_text(out.getvalue(), encoding="utf-8")
        results.append(Result(job, elapsed, rc, error, err.getvalue(), out_path))
    return results


def check(results: list) -> tuple:
    """(failures as (job id, reason), total output terms)."""
    failures, terms = [], 0
    for r in results:
        if r.error:
            failures.append((r.job.id, r.error))
            continue
        if r.rc != 0:
            failures.append((r.job.id, f"exit {r.rc}: {r.stderr.strip()[:300]}"))
            continue
        try:
            payload, n_terms = canonical_output(r.out_path.read_text(encoding="utf-8"),
                                                r.job.back)
        except (ValueError, KeyError, TypeError) as ex:
            failures.append((r.job.id, f"unreadable output: {type(ex).__name__}: {ex}"))
            continue
        terms += n_terms
        if digest(payload) != r.job.digest:
            failures.append((r.job.id, "output differs from the reference"))
    return failures, terms


def tail(durations: list):
    """(value, percentile) of the highest percentile with at least ten jobs
    above it, or None with fewer than eleven jobs."""
    n = len(durations)
    if n < 11:
        return None
    k = n - 11
    return sorted(durations)[k], 100.0 * (k + 1) / n


def print_job_times(durations: list) -> None:
    """The per-job median and tail.  They are printed, not reported: with a
    handful of jobs of mixed sizes, which job is the median changes from run
    to run, and the median moved by a quarter between runs."""
    print(f"job_p50_s {statistics.median(durations):.4f} s ({len(durations)} jobs)")
    t = tail(durations)
    if t is None:
        print(f"job_tail_s n/a ({len(durations)} jobs; needs at least 11)")
    else:
        print(f"job_tail_s {t[0]:.4f} s (p{t[1]:.0f} of {len(durations)} jobs, "
              f"10 beyond it)")


def print_trace(tracer, wall: float) -> None:
    print("span                                      calls      self_s     total_s")
    for name, (calls, total, own) in sorted(tracer.by_name().items(),
                                            key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:40s} {calls:9d} {own:11.4f} {total:11.4f}")
    print("parent -> span (top 15 by self time)            calls      self_s")
    edges = sorted(tracer.spans.items(), key=lambda kv: -kv[1][2])[:15]
    for (parent, name), (calls, _total, own) in edges:
        print(f"{str(parent) + ' -> ' + name:46s} {calls:9d} {own:11.4f}")
    for layer, own in tracer.layer_self().items():
        print(f"layer {layer:12s} self {own:.4f} s ({own / wall:.1%} of traced wall)")


def per_layer(tracer, counts: dict) -> tuple:
    """(metrics, absent metric names) from a finished traced run."""
    names = tracer.by_name()
    layers = tracer.layer_self()
    nodes = tracer.site_calls("qpoly", "maps.canonical_form")
    misses = tracer.site_calls("qpoly", "ops.partial_dual")
    counts = dict(counts, **tracer.counts)
    if nodes and misses is not None:
        counts["qpoly.memo_hit_ratio"] = 1.0 - misses / nodes
    metrics, absent = {}, []
    for metric, unit, how in PER_LAYER:
        kind = how[0]
        if kind == "layer":
            value = layers[how[1]]
        elif kind in ("calls", "self"):
            rec = names.get(how[1])
            value = None if rec is None else (rec[0] if kind == "calls" else rec[2])
        elif kind == "site":
            value = tracer.site_calls(how[1], how[2])
        else:
            value = counts.get(how[1])
        if value is None:
            absent.append(metric)
        else:
            metrics[metric] = {"value": value, "unit": unit}
    return metrics, absent


def untraced_wall(args):
    """wall_s of the same run without tracing, from a child process, or
    None if the child failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"untraced child ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"untraced child exited {proc.returncode}: {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])["metrics"]["wall_s"]["value"]


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run_workload(args, workdir: Path) -> int:
    cli, jobs, setup_s = set_up(args.workload, args.seed, args.seconds, workdir)
    reference_wall = untraced_wall(args) if args.trace else None
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        # cli.main is looked up at each call, so the traced wrapper is used
        results = run_jobs(jobs, lambda argv: cli.main(argv), workdir / "outputs")
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, terms_out = check(results)
    durations = [r.seconds for r in results]
    wall = sum(durations)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"jobs {len(results)}  trace {args.trace}")
    for job_id, reason in failures:
        print(f"FAILED {job_id}: {reason}")
    print(f"failed_frac {len(failures) / len(results):.4f} ratio "
          f"({len(failures)} of {len(results)} jobs)")
    if tracer is None:
        metrics = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        print_job_times(durations)
    else:
        counts = {"cli.terms_out": terms_out}
        if reference_wall:
            counts["trace.overhead_frac"] = wall / reference_wall - 1.0
        metrics, absent = per_layer(tracer, counts)
        print(f"traced wall {wall:.3f} s; untraced wall {reference_wall} s")
        print_trace(tracer, wall)
        if absent:
            print("absent: " + " ".join(absent))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload, one child process at a time."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="pool-commit seconds of work to run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rebuild-references", action="store_true",
                        help="recompute the pool and its reference digests")
    args = parser.parse_args(argv)
    if args.rebuild_references:
        import_rgp()
        from references import rebuild
        try:
            return rebuild(WORK / "rebuild")
        finally:
            shutil.rmtree(WORK / "rebuild", ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
