"""Job lists and output checks for the rgp benchmark.

A workload's jobs come from a committed pool (``references.json``): one graph
file per job, the CLI verb to run on it, the digest of its correct output and
what the job cost at the commit that built the pool.  A run takes a prefix of
the pool sized by ``--seconds``, in pool order, and gives every edge a fresh
name drawn from the run seed.

The seed changes names only.  The fresh names keep the ``str`` order of the
old ones: the four-term reduction picks its next edge by that order, and on
a 7-edge map another order alone moved the cost of ``hu`` by up to 80 %.  The
job order stays fixed because the shared reduction memo carries over from job
to job, so another order changes what each job finds in it; shuffling it
moved peak RSS on ``hu-large`` by 20 %.  Either would swamp the benchmark's
bounds.  The renaming keeps each item's position in its vertex line, so the
program numbers the crosses as it did for the pool file and computes the same
thing under other names.

Outputs are compared as polynomials: the check parses the JSON the CLI
prints, maps the fresh edge names back, and hashes a canonical form that does
not depend on term order or JSON layout.  This module uses no part of rgp.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORKLOADS = ("hu-large", "hv-small", "subset-sums")


@dataclass
class Job:
    id: str
    argv: list          # verb and options; the input path goes last
    text: str           # graph file with the run's edge names
    back: dict          # run edge name -> pool edge name
    digest: str         # reference digest, in pool names
    path: str = ""


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def select(pool: list, seconds: float) -> list:
    """Pool entries, in pool order, whose summed pool-commit cost fits in
    ``seconds``; an entry that would overflow is skipped, and the first entry
    is always taken."""
    chosen, spent = [], 0.0
    for entry in pool:
        if not chosen or spent + entry["nominal_s"] <= seconds:
            chosen.append(entry)
            spent += entry["nominal_s"]
    return chosen


def edge_labels(text: str) -> list:
    """Edge labels declared by a rotation-form graph file."""
    out = []
    for line in text.splitlines():
        words = line.split()
        if len(words) >= 3 and words[0] == "edge" and words[2] == ":":
            out.append(words[1])
    return out


def fresh_names(rng: random.Random, labels: list) -> dict:
    """Map each label to a random new name; the new names sort (as str) in
    the same order as the labels they replace."""
    names: set = set()
    while len(names) < len(labels):
        names.add("e" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    return dict(zip(sorted(labels, key=str), sorted(names)))


def rename_edges(text: str, names: dict) -> str:
    """Rename edges and their `<edge>.1` / `<edge>.2` ends in a graph file
    written by ``rgp.cli.format_graph_file`` (single-space separated)."""
    tokens = {}
    for old, new in names.items():
        tokens[old] = new
        tokens[f"{old}.1"] = f"{new}.1"
        tokens[f"{old}.2"] = f"{new}.2"
    lines = [" ".join(tokens.get(w, w) for w in line.split(" "))
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


def build_jobs(refs: dict, workload: str, seed: int, seconds: float) -> list:
    """The run's job list: same workload, seed and seconds give the same
    list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for entry in select(refs["workloads"][workload], seconds):
        names = fresh_names(rng, edge_labels(entry["graph"]))
        jobs.append(Job(entry["id"], list(entry["argv"]),
                        rename_edges(entry["graph"], names),
                        {new: old for old, new in names.items()},
                        entry["digest"]))
    return jobs


def write_jobs(jobs: list, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, job in enumerate(jobs):
        path = directory / f"{i:03d}-{job.id}.rg"
        path.write_text(job.text, encoding="utf-8")
        job.path = str(path)


# ---------------------------------------------------------------------------
# canonical outputs
# ---------------------------------------------------------------------------

def canon_terms(pairs) -> list:
    """Canonical polynomial from (coeff, [(kind, repr(label), exp), ...])
    pairs: like monomials merged, zero terms dropped, everything sorted."""
    acc: dict = {}
    for coeff, mono in pairs:
        key = tuple(sorted(mono))
        acc[key] = acc.get(key, 0) + int(coeff)
    return sorted((mono, str(c)) for mono, c in acc.items() if c)


def json_terms(terms: list, back: dict | None = None) -> list:
    """Canonical polynomial from a JSON term list as the CLI prints it, with
    run edge names mapped back through ``back``."""
    back = back or {}
    return canon_terms(
        (t["coeff"], [(v["kind"], repr(back.get(v["label"], v["label"])), v["exp"])
                      for v in t["vars"]])
        for t in terms)


def canonical_output(stdout: str, back: dict) -> tuple:
    """(canonical payload, number of output terms) of one CLI output: a
    polynomial, or the ``hv`` quadratic form."""
    obj = json.loads(stdout)
    if isinstance(obj, list):
        return json_terms(obj, back), len(obj)
    payload = {"flags": obj["flags"]}
    n_terms = 0
    for table in ("diag", "sym", "antisym"):
        payload[table] = {k: json_terms(v, back) for k, v in obj[table].items()}
        n_terms += sum(len(v) for v in obj[table].values())
    return payload, n_terms


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def drop_kinds(terms: list, kinds: set) -> list:
    """Set every variable of the given kinds to 1."""
    return canon_terms((c, [v for v in mono if v[0] not in kinds])
                       for mono, c in terms)


def zero_kinds(terms: list, kinds: set) -> list:
    """Set every variable of the given kinds to 0."""
    return canon_terms((c, mono) for mono, c in terms
                       if not any(v[0] in kinds for v in mono))
