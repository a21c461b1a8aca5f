"""Compare two rgp trees on the benchmark and record them in one BENCH_<n>.json.

    python3 scripts/bench_record.py --base HEAD~1 --out BENCH_15.json
    python3 scripts/bench_record.py --base v1 --head ../prototype --out BENCH_16.json

`--base` and `--head` (default HEAD) each name a checkout directory, measured
as it stands, or a revision, exported with `git archive` into a temporary
directory.  One run makes three comparisons, each alternating which side
goes first so that drift of the host hits both alike:

- end to end: PAIRS pairs of runs per workload of BENCHMARK.json's command
  for its `run_seconds` at `--trace 0`.  Pair k runs seed k + 1 on both
  sides, base first on even k and head first on odd k.  Every run is kept,
  each side gets the median and quartiles of every metric, and `wins` counts
  the pairs each side won in the direction BENCHMARK.json gives the metric
  (ties count for neither);
- per layer: one `--trace 1` run per side, workload and seed of TRACE_SEEDS;
- CPU: ROUNDS rounds per workload on perfbench's CPU_SEED job list, in this
  process tree.  Both packages are imported here (as `rgp_base` and
  `rgp_head`) and each run is a child forked from this process, so it starts
  cold whatever module state a revision keeps.  It runs the jobs through
  perfbench's own job loop (`perfbench/run.py::run_jobs`), timed with
  `time.process_time` around that loop.  `cpu` holds the head/base ratio per
  round (median and quartiles), min head / min base, the rounds each side
  was faster and each side's median peak RSS.

Nothing is written unless every benchmark run exits 0 with every job correct,
its last line of standard output is the JSON result, that result holds every
metric BENCHMARK.json names for its trace mode and no `absent:` line was
printed; and both trees import, no forked run dies and every forked run of a
workload prints the same bytes.  The record also names the machine and each
side's git SHA (or directory).  Each top-level entry other than `revisions`,
`wins` and `cpu`, each (revision, workload, metric) object and each workload
of `wins` and `cpu` sits on one line.  The script applies no bound and makes
no claim.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SEEDS = (1, 2, 3)
ROUNDS = 11
CPU_SEED = 1
SIDES = ("base", "head")


class Refused(Exception):
    """A run whose output cannot be recorded or compared."""


def checkout(ref: str, dest: Path) -> tuple:
    """(a directory holding `ref`, how the record names it): a directory as
    it stands, or a revision exported into `dest`."""
    tree = Path(ref).resolve()
    if tree.is_dir():
        return tree, {"dir": str(tree)}
    sha = subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest, {"sha": sha}


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count(),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                               / 2 ** 30, 1),
            "python": platform.python_version()}


def order(i: int) -> tuple:
    """The sides of pair or round `i` in running order."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float,
             trace: int, wanted: list) -> dict:
    """The metrics of one checked run: {name: value}."""
    where = f"{checkout.name} {workload} seed {seed} trace {trace}"
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    absent = [line for line in lines if line.startswith("absent:")]
    if absent:
        raise Refused(f"{where}: {absent[0]}")
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        tail = lines[-1] if lines else proc.stderr.strip()[-300:]
        raise Refused(f"{where}: last stdout line is not a JSON result: {tail!r}") from None
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        raise Refused(f"{where}: exit {proc.returncode}, {result.get('failed')} of "
                      f"{result.get('attempted')} jobs failed")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise Refused(f"{where}: missing metrics {' '.join(missing)}")
    return {name: metrics[name]["value"] for name in wanted}


def measure(trees: dict, spec: dict, trace: int, seeds, show) -> dict:
    """{side: {workload: {metric: [value per seed]}}}: the benchmark command
    once per seed, workload and side, the sides of the i-th seed in
    `order(i)`; `show` gets one line per run."""
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    runs = {side: {w["name"]: {name: [] for name in wanted} for w in spec["workloads"]}
            for side in SIDES}
    for i, seed in enumerate(seeds):
        for workload in runs["base"]:
            for side in order(i):
                got = run_once(trees[side], spec["command"], workload, seed,
                               spec["run_seconds"], trace, wanted)
                show(f"{side} {workload} seed {seed} trace {trace}: "
                     + ", ".join(f"{name} {got[name]:.4g}" for name in wanted[:3]))
                for name, value in got.items():
                    runs[side][workload][name].append(value)
    return runs


def wins(base: list, head: list, better: str) -> dict:
    """The pairs (base[k], head[k]) each side won; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return {"head": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "base": sum(sign * (h - b) < 0 for b, h in zip(base, head))}


def summary(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def perfbench_module(name: str):
    """Module `name` of this checkout's `perfbench` directory."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def perfbench_jobs(workload: str, seed: int, seconds: float, directory: Path) -> list:
    """The jobs perfbench runs for this workload, seed and run length, with
    the job files written under `directory`."""
    jobs = perfbench_module("jobs")
    job_list = jobs.build_jobs(jobs.load_references(), workload, seed, seconds)
    jobs.write_jobs(job_list, directory)
    return job_list


def import_tree(tree: Path, name: str):
    """The `cli` module of `tree/src/rgp`, imported as package `name`."""
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


def timed_jobs(cli, jobs: list) -> dict:
    """Every job through perfbench's job loop: CPU seconds, peak RSS and the
    digest of what the jobs printed.  The loop writes each output to a file,
    as it does in a perfbench run, so that time is measured too."""
    with tempfile.TemporaryDirectory(prefix="bench_record-out-") as outdir:
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
    """`timed_jobs` in a child forked from this process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's code: it leaves by
        # os._exit, 0 once its result is written, 1 otherwise
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(timed_jobs(cli, jobs), pipe)
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


def cpu_ab(trees: dict, jobs: list, rounds: int, show) -> dict:
    """Forked runs of both trees on `jobs`, the sides of round i in
    `order(i)`; `show` gets one line per run."""
    clis = {side: import_tree(trees[side], f"rgp_{side}") for side in SIDES}
    runs: dict = {side: [] for side in SIDES}
    digests = set()
    for i in range(rounds):
        for side in order(i):
            run = forked_run(clis[side], jobs)
            show(f"round {i + 1} {side}: cpu {run['cpu_s']:.4f} s  "
                 f"peak rss {run['rss_mb']:.1f} MB  output {run['digest'][:12]}")
            runs[side].append(run)
            digests.add(run["digest"])
            if len(digests) > 1:
                raise Refused(f"round {i + 1} {side} printed other bytes than the runs before it")
    cpu = {side: [r["cpu_s"] for r in rs] for side, rs in runs.items()}
    return {"ratio": summary([h / b for b, h in zip(cpu["base"], cpu["head"])], "head/base"),
            "min_ratio": min(cpu["head"]) / min(cpu["base"]),
            "wins": wins(cpu["base"], cpu["head"], "lower"),
            "peak_rss_mb": {side: statistics.median(r["rss_mb"] for r in rs)
                            for side, rs in runs.items()}}


def record(base: str, head: str, show) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="bench_record-"))
    try:
        trees, names = {}, {}
        for side, ref in zip(SIDES, (base, head)):
            trees[side], names[side] = checkout(ref, scratch / side)
        ends = measure(trees, spec, 0, range(1, PAIRS + 1), show)
        layers = measure(trees, spec, 1, TRACE_SEEDS, show)
        cpu = {}
        for w in workloads:
            jobs = perfbench_jobs(w, CPU_SEED, spec["run_seconds"], scratch / "jobs" / w)
            show(f"cpu {w}: {len(jobs)} jobs, seed {CPU_SEED}")
            cpu[w] = cpu_ab(trees, jobs, ROUNDS, show)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "benchmark": spec["command"],
        "seconds": spec["run_seconds"],
        "pairs": PAIRS,
        "trace_seeds": list(TRACE_SEEDS),
        "rounds": ROUNDS,
        "machine": machine(),
        "revisions": {
            side: {**names[side],
                   "workloads": {w: {name: summary(values, units[name]) for name, values
                                     in {**ends[side][w], **layers[side][w]}.items()}
                                 for w in workloads}}
            for side in SIDES},
        "wins": {w: {m["name"]: wins(ends["base"][w][m["name"]], ends["head"][w][m["name"]],
                                     m["better"]) for m in spec["end_to_end"]}
                 for w in workloads},
        "cpu": cpu,
    }


# how far each top-level entry opens, one level per line:
# revisions -> revision -> workloads -> workload -> metric; wins, cpu -> workload
_OPENED = {"revisions": 4, "wins": 1, "cpu": 1}


def dumps(result: dict) -> str:
    """The record as JSON text, opened as `_OPENED` says."""
    def block(pairs, pad: str) -> str:
        return ("{\n" + ",\n".join(f"{pad} {json.dumps(k)}: {v}" for k, v in pairs)
                + f"\n{pad}}}")

    def opened(value, pad: str, depth: int) -> str:
        if depth == 0 or not isinstance(value, dict):
            return json.dumps(value)
        return block(((k, opened(v, pad + " ", depth - 1)) for k, v in value.items()), pad)

    return block(((k, opened(v, " ", _OPENED.get(k, 0))) for k, v in result.items()),
                 "") + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision or checkout directory measured as 'before'")
    parser.add_argument("--head", default="HEAD",
                        help="revision or checkout directory measured as 'after'")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        result = record(args.base, args.head,
                        show=lambda line: print(line, file=sys.stderr, flush=True))
    except Refused as ex:
        print(f"bench_record: refusing to write {args.out}: {ex}", file=sys.stderr)
        return 1
    args.out.write_text(dumps(result))
    for w, cpu in result["cpu"].items():
        ratio = cpu["ratio"]
        print(f"{w} cpu head/base {ratio['median']:.3f} [{ratio['q1']:.3f}, "
              f"{ratio['q3']:.3f}]  min {cpu['min_ratio']:.3f}  head faster in "
              f"{cpu['wins']['head']} of {result['rounds']}")
        for name, won in result["wins"][w].items():
            base, head = (result["revisions"][side]["workloads"][w][name] for side in SIDES)
            print(f"{w} {name} base {base['median']:.4g} [{base['q1']:.4g}, "
                  f"{base['q3']:.4g}]  head {head['median']:.4g} [{head['q1']:.4g}, "
                  f"{head['q3']:.4g}]  head won {won['head']}, base {won['base']} "
                  f"of {result['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
