"""Build the job pools and their reference digests (``references.json``).

Every pool job runs once through the CLI, as a benchmark run would, and once
by a second strategy where the package has one:

- ``hu``: ``hu(method="expansion")``; ``cycle_graph(8)`` by the closed form
  ``hu_cycle``.
- ``hv``: the diagonal by expansion HU of the flag-deleted graphs.  The
  off-diagonal parts have no second route; the CLI output is the reference.
- ``q --r-rule symbolic``: ``q_by_expansion``.
- ``specialize --to ising``: expansion Q under the even-vertex rule with y
  and z set to 0.
- ``limit --commutative``: ``hu_commutative_limit(method="extraction")``.
- ``limit --heat-kernel --commutative`` on an n-cycle: its spanning trees
  omit one edge each, so the limit is the sum of the a_e.
- ``hu-critical``: HU at Omega = 1 (``hu_cycle`` on cycles, ``hu`` on
  bananas; all of them orientable).
- ``symanzik-u``: no second route; the CLI output is the reference.

The set-to-constant steps are done here on canonical term lists, not with
``MultiPoly.substitute``.  Nothing is written if any pair of routes
disagrees.  Building takes several minutes; the slowest job is the
extraction on ``cycle_graph(9)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

from rgp import hyperbolic
from rgp.cli import format_graph_file, main as cli_main, read_graph_text
from rgp.corpus import (banana, cycle_graph, random_rotation_graph, star,
                        sunset, triangle)
from rgp.hyperbolic import hu, hu_commutative_limit, hu_cycle
from rgp.maps import structure_report
from rgp.ops import delete_flag
from rgp.qpoly import RSequenceSpec, q_by_expansion

from jobs import (REFERENCES, canonical_output, digest, drop_kinds, edge_labels,
                  json_terms, zero_kinds)

# The pool shapes are fixed; a run seed only renames edges and reorders jobs.
POOL_SEED = 2009


def _maps(rng, count, n_edges, flags, connected=True):
    out = []
    while len(out) < count:
        g = random_rotation_graph(rng, max_edges=n_edges[1], min_edges=n_edges[0],
                                  max_flags=flags[1])
        if len(g.flag_labels) < flags[0] or g.bare_vertices:
            continue
        if connected and structure_report(g).k != 1:
            continue
        out.append(g)
    return out


def _poly(p) -> list:
    return json_terms(p.to_json_obj())


def _at_omega_one(p) -> list:
    return drop_kinds(_poly(p), {"OMEGA"})


def _hu_expansion(g):
    return _poly(hu(g, method="expansion"))


def _hv_diagonal(g):
    return {"diag": {str(f): _hu_expansion(delete_flag(g, f))
                     for f in sorted(g.flag_labels, key=str)}}


def _cycle_spanning_trees(g):
    return json_terms([{"coeff": "1", "vars": [{"kind": "ALPHA", "label": lab, "exp": 1}]}
                       for lab in g.edge_labels])


def _ising_expansion(g):
    q = q_by_expansion(g, RSequenceSpec.even_two_odd_zero()).poly
    return zero_kinds(_poly(q), {"Y", "Z"})


HU = ["hu"]
HV = ["hv"]
SYMANZIK = ["symanzik-u"]
LIMIT = ["limit", "--commutative"]
LIMIT_HK = ["limit", "--heat-kernel", "--commutative"]
CRITICAL = ["hu-critical"]
Q_SYMBOLIC = ["q", "--r-rule", "symbolic"]
ISING = ["specialize", "--to", "ising"]


def pools() -> dict:
    """workload -> [(id, argv, graph, (route name, route) or None)] in pool
    order.  A prefix of the pool is what a short run executes, so every
    prefix mixes the workload's job kinds."""
    rng = random.Random(POOL_SEED)
    expansion = ("hu(method=expansion)", _hu_expansion)

    hu_large = [("cycle8", HU, cycle_graph(8), ("hu_cycle", lambda g: _poly(hu_cycle(g))))]
    for i, g in enumerate(_maps(rng, 8, (7, 7), (1, 3))):
        hu_large.append((f"map7-{i}", HU, g, expansion))

    diag = ("hu(method=expansion) of each flag deletion", _hv_diagonal)
    hv_small = [("sunset", HV, sunset(), diag),
                ("triangle-flags", HV, triangle(with_flags=True), diag),
                ("star3-flags", HV, star(3, with_flags=True), diag)]
    for i, g in enumerate(_maps(rng, 30, (3, 5), (2, 4), connected=False)):
        hv_small.append((f"map-{i}", HV, g, diag))

    limit = ("hu_commutative_limit(method=extraction)",
             lambda g: _poly(hu_commutative_limit(g, method="extraction")))
    trees = ("cycle spanning trees", _cycle_spanning_trees)
    critical_cycle = ("hu_cycle at Omega=1", lambda g: _at_omega_one(hu_cycle(g)))
    critical_banana = ("hu at Omega=1", lambda g: _at_omega_one(hu(g)))
    q_symbolic = ("q_by_expansion", lambda g: _poly(q_by_expansion(g).poly))
    ising = ("q_by_expansion(even2odd0) at y=z=0", _ising_expansion)
    maps5 = _maps(rng, 30, (5, 5), (0, 2))

    def map_jobs(i):
        return [(f"q-map5-{i}", Q_SYMBOLIC, maps5[i], q_symbolic),
                (f"ising-map5-{i}", ISING, maps5[i], ising)]

    subset_sums = [
        ("symanzik-banana10", SYMANZIK, banana(10), None),
        ("limit-cycle8", LIMIT, cycle_graph(8), limit),
        ("limit-hk-cycle8", LIMIT_HK, cycle_graph(8), trees),
        ("critical-cycle9", CRITICAL, cycle_graph(9), critical_cycle),
        ("critical-banana6", CRITICAL, banana(6), critical_banana),
        *map_jobs(0),
        ("symanzik-banana11", SYMANZIK, banana(11), None),
        ("limit-cycle9", LIMIT, cycle_graph(9), limit),
        ("limit-hk-cycle9", LIMIT_HK, cycle_graph(9), trees),
        ("critical-cycle10", CRITICAL, cycle_graph(10), critical_cycle),
        ("critical-banana7", CRITICAL, banana(7), critical_banana),
        *map_jobs(1),
        ("symanzik-banana12", SYMANZIK, banana(12), None),
    ]
    for i in range(2, len(maps5)):
        subset_sums += map_jobs(i)
    return {"hu-large": hu_large, "hv-small": hv_small, "subset-sums": subset_sums}


def _agrees(cli_payload, second) -> bool:
    if isinstance(second, dict):
        return all(cli_payload[k] == v for k, v in second.items())
    return cli_payload == second


def build(workdir: Path, log=sys.stderr) -> tuple:
    """(references, disagreements).  Runs each workload's CLI jobs in pool
    order in this process, timing them for the pool-prefix sizing, then the
    second routes."""
    out = {"pool_seed": POOL_SEED, "workloads": {}}
    disagreements = []
    workdir.mkdir(parents=True, exist_ok=True)
    for workload, pool in pools().items():
        getattr(hyperbolic, "_SHARED_MEMO", {}).clear()   # time each workload cold
        entries = []
        for job_id, argv, g, second in pool:
            text = format_graph_file(g)
            labels = edge_labels(text)
            if set(labels) & set(map(str, g.flag_labels)):
                raise SystemExit(f"{job_id}: an edge and a flag share a name")
            path = workdir / f"{job_id}.rg"
            path.write_text(text, encoding="utf-8")
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv + ["--format", "json", str(path)])
            cost = time.perf_counter() - t0
            if rc != 0:
                raise SystemExit(f"{job_id}: rgp exited {rc}")
            payload, n_terms = canonical_output(buf.getvalue(), {})
            entries.append({"id": job_id, "argv": argv + ["--format", "json"],
                            "graph": text, "digest": digest(payload),
                            "terms": n_terms, "nominal_s": round(cost, 3),
                            "routes": ["cli"], "_payload": payload,
                            "_second": second})
            print(f"{workload} {job_id} cli {cost:.2f}s {n_terms} terms",
                  file=log, flush=True)
        for entry in entries:
            payload, second = entry.pop("_payload"), entry.pop("_second")
            if second is None:
                continue
            name, route = second
            t0 = time.perf_counter()
            ok = _agrees(payload, route(read_graph_text(entry["graph"])))
            print(f"{workload} {entry['id']} {name} "
                  f"{time.perf_counter() - t0:.2f}s {'agrees' if ok else 'DISAGREES'}",
                  file=log, flush=True)
            entry["routes"].append(name)
            if not ok:
                disagreements.append(f"{workload}/{entry['id']}: cli != {name}")
        out["workloads"][workload] = entries
    return out, disagreements


def rebuild(workdir: Path) -> int:
    refs, disagreements = build(workdir)
    if disagreements:
        for line in disagreements:
            print(f"DISAGREEMENT {line}", file=sys.stderr)
        print(f"not writing {REFERENCES.name}", file=sys.stderr)
        return 1
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}", file=sys.stderr)
    return 0
