"""Survey the heat-kernel and commutative limits on random maps.

For flagless connected samples this enumerates quasi-trees (the support of
the Symanzik polynomial), cross-checks the spanning-tree limit against a
plain union-find tree enumerator, and compares both commutative-limit
strategies for the hyperbolic polynomial.  The summary shows how the
quasi-tree nullity spectrum spreads with genus.

    python3 scripts/limit_survey.py --samples 80 --seed 5
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass

from rgp.corpus import random_rotation_graph
from rgp.hyperbolic import (hu_commutative_limit, symanzik_commutative_limit,
                            symanzik_u)
from rgp.maps import structure_report, vertices_of
from rgp.poly import MultiPoly, VarId


@dataclass
class SurveyConfig:
    seed: int = 5
    samples: int = 80
    max_edges: int = 4


def _spanning_tree_sum(g) -> MultiPoly:
    idx = {}
    for i, v in enumerate(vertices_of(g)):
        for c in v.crosses:
            idx[c] = i
    nv = len(vertices_of(g))
    ends = {lab: (idx[min(orb)], idx[g.map.sigma1[min(orb)]])
            for lab, orb in g.edge_labels.items()}
    edges = g.sorted_edges()
    total = MultiPoly.zero()
    for mask in range(1 << len(edges)):
        keep = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        if len(keep) != nv - 1:
            continue
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for lab in keep:
            a, b = find(ends[lab][0]), find(ends[lab][1])
            if a == b:
                ok = False
                break
            parent[a] = b
        if not ok or len({find(v) for v in range(nv)}) != 1:
            continue
        term = MultiPoly.one()
        for lab in edges:
            if lab not in keep:
                term = term * MultiPoly.variable("ALPHA", lab)
        total = total + term
    return total


def run(cfg: SurveyConfig) -> int:
    rng = random.Random(cfg.seed)
    nullity_by_genus: dict[int, Counter] = {}
    n_used = 0
    while n_used < cfg.samples:
        g = random_rotation_graph(rng, max_edges=cfg.max_edges, max_flags=0,
                                  min_edges=1)
        rep = structure_report(g)
        if rep.k != 1 or g.bare_vertices:
            continue
        n_used += 1

        u = symanzik_u(g)
        if symanzik_commutative_limit(u) != _spanning_tree_sum(g):
            print("FAIL: spanning-tree limit disagrees with tree enumerator")
            return 1
        if (hu_commutative_limit(g)
                != hu_commutative_limit(g, method="extraction")):
            print("FAIL: commutative-limit strategies disagree")
            return 1

        hist = nullity_by_genus.setdefault(rep.euler_genus, Counter())
        for mono, _ in u.monomials():
            hist[mono.get(VarId("BETA"), 0)] += 1
    print(f"{n_used} flagless connected samples, seed {cfg.seed}: "
          "all limit cross-checks hold")
    print("  genus -> quasi-tree count by nullity (beta degree)")
    for genus in sorted(nullity_by_genus):
        hist = nullity_by_genus[genus]
        print(f"  {genus:5d} -> {dict(sorted(hist.items()))}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SurveyConfig.seed)
    ap.add_argument("--samples", type=int, default=SurveyConfig.samples)
    ap.add_argument("--max-edges", type=int, default=SurveyConfig.max_edges)
    ns = ap.parse_args(argv)
    return run(SurveyConfig(seed=ns.seed, samples=ns.samples,
                            max_edges=ns.max_edges))


if __name__ == "__main__":
    raise SystemExit(main())
