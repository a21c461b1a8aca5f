"""Compare the CPU time of two rgp trees on one perfbench job list.

    python3 scripts/ab_compare.py PARENT_DIR CHANGE_DIR --workload hv-small
    python3 scripts/ab_compare.py A B --workload subset-sums --seed 1 --rounds 11

A and B are checkouts (each with ``src/rgp``), for example two ``git
archive`` exports.  This process imports both packages, as ``rgp_a`` and
``rgp_b``, and builds the job list with ``perfbench/jobs.py`` for the
``run_seconds`` of ``BENCHMARK.json``.  Each round runs the list once per
side, in alternating order (AB, BA, ...), and each run is a child forked from
this process: it starts cold, whatever module state a revision keeps, runs
the jobs through perfbench's own job loop (``perfbench/run.py::run_jobs``)
and reports its CPU time (``time.process_time`` around that loop), its peak
RSS and a digest of every job's argv, stdout, stderr, exit code and crash.

The comparison is refused when a tree fails to import, a run dies, or two
runs print different bytes; every job runs in every run.  It prints every
run, then the B/A CPU ratio per round as median [quartiles], min B / min A
and the number of rounds in which B was faster.  It sets no bound and makes
no claim: a claim still needs its ``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    """A comparison whose runs cannot be compared."""


def import_tree(tree: Path, name: str):
    """The ``cli`` module of ``tree/src/rgp``, imported as package `name`."""
    init = tree / "src" / "rgp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    if spec is None:
        raise Refused(f"{tree}: no rgp package under src")
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    try:
        spec.loader.exec_module(package)
        return importlib.import_module(f"{name}.cli")
    except Exception as ex:
        raise Refused(f"{tree}: import failed: {type(ex).__name__}: {ex}") from None


def perfbench_module(name: str):
    """Module `name` of this checkout's ``perfbench`` directory."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def run_jobs(cli, jobs: list) -> dict:
    """Every job through perfbench's job loop: CPU seconds, peak RSS and the
    digest of what the jobs printed.  The loop writes each output to a file,
    as it does in a perfbench run, so that time is measured too."""
    with tempfile.TemporaryDirectory(prefix="ab_compare-out-") as outdir:
        t0 = time.process_time()
        results = perfbench_module("run").run_jobs(jobs, cli.main, Path(outdir))
        cpu_s = time.process_time() - t0
        digest = hashlib.sha256()
        for r in results:   # a crash is output, compared like any other
            digest.update(json.dumps([r.job.argv + [r.job.path],
                                      r.out_path.read_text(encoding="utf-8"),
                                      r.stderr, r.rc, r.error]).encode())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"cpu_s": cpu_s, "rss_mb": rss_mb, "digest": digest.hexdigest()}


def forked_run(cli, jobs: list) -> dict:
    """`run_jobs` in a child forked from this process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's code: it leaves by
        # os._exit, 0 once its result is written, 1 otherwise
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(run_jobs(cli, jobs), pipe)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise Refused(f"a run died (wait status {status})")
    return json.loads(text)


def compare(tree_a: Path, tree_b: Path, jobs: list, rounds: int, show=print) -> dict:
    """Alternate forked runs of the two trees for `rounds` rounds and
    summarise the B/A CPU ratios; `show` gets one line per run."""
    if rounds < 2:
        raise Refused("at least two rounds are needed for quartiles")
    clis = {"A": import_tree(tree_a, "rgp_a"), "B": import_tree(tree_b, "rgp_b")}
    runs: dict = {"A": [], "B": []}
    digests = set()
    for i in range(rounds):
        for side in ("AB" if i % 2 == 0 else "BA"):
            run = forked_run(clis[side], jobs)
            show(f"round {i + 1} {side}: cpu {run['cpu_s']:.4f} s  "
                 f"peak rss {run['rss_mb']:.1f} MB  output {run['digest'][:12]}")
            runs[side].append(run)
            digests.add(run["digest"])
            if len(digests) > 1:
                raise Refused(f"round {i + 1} {side} printed other bytes than the runs before it")
    ratios = [b["cpu_s"] / a["cpu_s"] for a, b in zip(runs["A"], runs["B"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    cpu = {side: [r["cpu_s"] for r in rs] for side, rs in runs.items()}
    return {"ratios": ratios, "median": median, "q1": q1, "q3": q3,
            "min_ratio": min(cpu["B"]) / min(cpu["A"]),
            "b_lower": sum(r < 1 for r in ratios), "rounds": rounds,
            "rss_mb": {side: statistics.median(r["rss_mb"] for r in rs)
                       for side, rs in runs.items()}}


def perfbench_jobs(workload: str, seed: int, directory: Path) -> list:
    """The jobs perfbench runs for this workload and seed in the benchmark's
    ``run_seconds``, with the job files written under `directory`."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    jobs = perfbench_module("jobs")
    job_list = jobs.build_jobs(jobs.load_references(), workload, seed, seconds)
    jobs.write_jobs(job_list, directory)
    return job_list


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout measured as 'before'")
    parser.add_argument("b", type=Path, help="checkout measured as 'after'")
    parser.add_argument("--workload", required=True,
                        choices=("hu-large", "hv-small", "subset-sums"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="ab_compare-"))
    try:
        jobs = perfbench_jobs(args.workload, args.seed, scratch)
        print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  "
              f"rounds {args.rounds}")
        got = compare(args.a, args.b, jobs, args.rounds)
    except Refused as ex:
        print(f"ab_compare: refused: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("B/A cpu per round: " + " ".join(f"{r:.3f}" for r in got["ratios"]))
    print(f"B/A cpu median {got['median']:.3f} [{got['q1']:.3f}, {got['q3']:.3f}]  "
          f"min B / min A {got['min_ratio']:.3f}  B lower in {got['b_lower']} of "
          f"{got['rounds']}  peak rss median A {got['rss_mb']['A']:.1f} MB, "
          f"B {got['rss_mb']['B']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
