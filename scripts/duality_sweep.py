"""Random sweep over partial duality.

Samples rotation-system graphs, dualises random edge subsets, and checks
the transform identities for Q and HU against direct recomputation on the
dual, plus the involution and the colored-count invariants.  Everything is
seeded, so a reported failure is reproducible; the script doubles as a
long-running fuzzer when given a large --samples.

    python3 scripts/duality_sweep.py --samples 200 --seed 11
"""

from __future__ import annotations

import argparse
import random
import time
from collections import Counter
from dataclasses import dataclass

from rgp.corpus import random_rotation_graph
from rgp.hyperbolic import hu, hu_partial_dual_transform
from rgp.maps import isomorphic, structure_report
from rgp.ops import class_counts, partial_dual
from rgp.qpoly import q_by_reduction, q_partial_dual_transform


@dataclass
class SweepConfig:
    seed: int = 11
    samples: int = 100
    max_edges: int = 4
    max_flags: int = 3


def run(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    genus_hist: Counter = Counter()
    n_nonorientable = 0
    n_counts_checked = 0
    t0 = time.monotonic()
    for i in range(cfg.samples):
        g = random_rotation_graph(rng, max_edges=cfg.max_edges,
                                  max_flags=cfg.max_flags)
        rep = structure_report(g)
        genus_hist[rep.euler_genus] += 1
        n_nonorientable += not rep.orientable
        subset = [e for e in g.sorted_edges() if rng.random() < 0.5]
        pd = partial_dual(g, subset)

        p = q_by_reduction(g).poly
        if q_by_reduction(pd).poly != q_partial_dual_transform(p, subset):
            print(f"FAIL sample {i}: Q transform mismatch on {subset}")
            return 1
        if hu(pd) != hu_partial_dual_transform(hu(g), subset):
            print(f"FAIL sample {i}: HU transform mismatch on {subset}")
            return 1
        if not isomorphic(partial_dual(pd, subset), g):
            print(f"FAIL sample {i}: dualising twice is not the identity")
            return 1
        if subset:
            c, d = class_counts(g), class_counts(pd)
            if (c.cev, c.coddf, c.cevf) != (d.cev, d.coddf, d.cevf):
                print(f"FAIL sample {i}: colored counts moved under duality")
                return 1
            n_counts_checked += 1
    took = time.monotonic() - t0
    print(f"{cfg.samples} samples, seed {cfg.seed}: all duality identities "
          f"hold ({took:.2f}s)")
    print(f"  euler genus histogram: "
          f"{dict(sorted(genus_hist.items()))}")
    print(f"  non-orientable: {n_nonorientable}/{cfg.samples}; "
          f"colored-count checks: {n_counts_checked}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=SweepConfig.seed)
    ap.add_argument("--samples", type=int, default=SweepConfig.samples)
    ap.add_argument("--max-edges", type=int, default=SweepConfig.max_edges)
    ap.add_argument("--max-flags", type=int, default=SweepConfig.max_flags)
    ns = ap.parse_args(argv)
    return run(SweepConfig(seed=ns.seed, samples=ns.samples,
                           max_edges=ns.max_edges, max_flags=ns.max_flags))


if __name__ == "__main__":
    raise SystemExit(main())
