"""Record perfbench figures for two revisions in one BENCH_<n>.json file.

    python3 scripts/bench_record.py --base HEAD~1 --out BENCH_15.json
    python3 scripts/bench_record.py --base v1 --head v2 --out BENCH_16.json

Each revision is exported with `git archive` into a temporary directory, and
the benchmark command of BENCHMARK.json runs there for its `run_seconds` once
per workload, seed (1, 2 and 3) and trace mode: `--trace 0` gives the end-to-end metrics, `--trace 1` the
per-layer ones.  Base and head runs alternate, so drift of the host hits both
alike.  The file holds, per revision and workload, the median and the spread
(interquartile range / median) of every metric over the seeds, each run's
value, the machine and the git SHA.  Each top-level entry other than
`revisions`, and each (revision, workload, metric) object, sits on one line.

Nothing is written unless every run exits 0 with every job correct, its last
line of standard output is the JSON result, that result holds every metric
BENCHMARK.json names for its trace mode, and no `absent:` line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


class Refused(Exception):
    """A run whose output cannot be recorded."""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


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


def summary(values: list, unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "runs": values}


def record(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    workloads = [w["name"] for w in spec["workloads"]]
    shas = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    runs: dict = {side: {w: {} for w in workloads} for side in shas}
    scratch = Path(tempfile.mkdtemp(prefix="bench_record-"))
    try:
        checkouts = {side: export(sha, scratch / side) for side, sha in shas.items()}
        for seed in SEEDS:
            for workload in workloads:
                for trace in (0, 1):
                    for side, checkout in checkouts.items():
                        got = run_once(checkout, spec["command"], workload, seed,
                                       spec["run_seconds"], trace, wanted[trace])
                        print(f"{side} {workload} seed {seed} trace {trace}: "
                              + (f"wall_s {got['wall_s']:.2f}" if trace == 0 else "ok"),
                              file=sys.stderr, flush=True)
                        for name, value in got.items():
                            runs[side][workload].setdefault(name, []).append(value)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "benchmark": spec["command"],
        "seeds": list(SEEDS),
        "seconds": spec["run_seconds"],
        "spread": "interquartile range / median over the seeds",
        "machine": machine(),
        "revisions": {
            side: {"sha": shas[side],
                   "workloads": {w: {name: summary(values, units[name])
                                     for name, values in metrics.items()}
                                 for w, metrics in runs[side].items()}}
            for side in shas},
    }


def dumps(result: dict) -> str:
    """The record as JSON text, one line per top-level entry other than
    `revisions` and one per (revision, workload, metric) object."""
    def block(pairs, pad: str) -> str:
        return ("{\n" + ",\n".join(f"{pad} {json.dumps(k)}: {v}" for k, v in pairs)
                + f"\n{pad}}}")

    def opened(value, pad: str, depth: int) -> str:
        if depth == 0 or not isinstance(value, dict):
            return json.dumps(value)
        return block(((k, opened(v, pad + " ", depth - 1)) for k, v in value.items()), pad)

    # revisions -> revision -> workloads -> workload -> metric
    return block(((k, opened(v, " ", 4 if k == "revisions" else 0))
                  for k, v in result.items()), "") + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as 'before'")
    parser.add_argument("--head", default="HEAD", help="revision measured as 'after'")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        result = record(args)
    except Refused as ex:
        print(f"bench_record: refusing to write {args.out}: {ex}", file=sys.stderr)
        return 1
    args.out.write_text(dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
