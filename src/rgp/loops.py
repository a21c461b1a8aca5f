"""HU's odd-vertex sum as a loop model on the sigma0-cycles of the partial
duals, summed by a transfer matrix.

For an edge subset A, the partial dual G^A has sigma0' = sigma0 pi, where
pi(x) = theta(sigma1(x)) on the crosses of the edges in A and pi(x) = x on
the rest (`maps._dual_triple`).  Its vertices are the conjugate pairs of
sigma0'-cycles: the boundary components of the spanning ribbon subgraph
(V, A).  Mark every flag cross and every cross of an edge in B.  Each cycle
of a pair then carries the residual vertex's count n of flags and cut
edge ends, and HU's rule weighs that vertex r_n = 2 [n odd].  So

    HU(G) = sum over (A, B) of prod_e img_e(A, B) prod_(vertices of G^A) r_n

is a loop model.  Its groups are the edges (four crosses) and the flags
(two); a group's choice draws, from each of its crosses x, the arc
x -> sigma0(pi(x)).  An edge has four choices, each weighed by its image:
x (e not in A, not in B), y (in A only), z (in A and B) and w (in B only);
an image of 0 drops its choice.  A flag has one choice, marked.  A cycle
that closes with an even mark count kills its state.  The odd ones close in
conjugate pairs with equal counts, so the sum pays 2 at every second
closure.  A bare vertex weighs r_0 = 0.

The dynamic programme adds the groups in a greedy order that keeps the
fewest sigma0 arcs open between added and pending groups; the most it ever
holds open is the order's width.  A state is the sorted tuple of open
paths, each (start cross, end cross, marks), and the parity of the cycles
closed so far; each new state's addends are added once with
`MultiPoly.sum`.  The values are products of the images as given: there is
no canonical form, memo, surgery or `substitute`.  The width is known before
any work, and above MAX_WIDTH the sum raises TooLarge.

A step's marks hold one parity bit per entry, -1 setting all of them, and a
closing cycle keeps only the entries whose bits it has odd.  The sweep's
marks are 0 or -1, one entry in every bit.  `fused_sums` serves the graphs
that fuse two flags of G into an edge, with an antisymmetric marker flag or
none.  It adds G's edge groups alone, every flag cross pending, and keeps
the states.  A flag pair then closes each kept state by one more step, every
pending cross drawing its arc, with six entry bits: a marker's mark rides on
the fused edge's arcs through its corner, so one step closes all three
entries of the pair.
"""

from __future__ import annotations

from collections import Counter

from .errors import TooLarge
from .maps import RibbonGraph, orientation_selection
from .poly import MultiPoly

# The open sigma0 arcs the order may hold.  Twisted 3-vertex maps of 24-28
# edges reach widths of 24-28, where even HU at a point takes 14-72 s.
MAX_WIDTH = 24

# (in A, in B) of an edge's four choices, in image order x, y, z, w.
_CHOICES = ((0, 0), (1, 0), (1, 1), (0, 1))


def _order(groups: list, s0: dict) -> list:
    """The groups added one at a time, each time the one that leaves the
    fewest sigma0 arcs between added and pending groups (the first on a tie).
    Raises TooLarge when the most arcs open after any step, the order's
    width, is above MAX_WIDTH.  Crosses in no group stay pending throughout."""
    group_of = dict.fromkeys(s0, len(groups))   # a group never added
    group_of.update((x, k) for k, (crosses, _choices) in enumerate(groups) for x in crosses)
    links = [Counter() for _ in range(len(groups) + 1)]
    for x, k in group_of.items():
        h = group_of[s0[x]]
        if h != k:
            links[k][h] += 1
            links[h][k] += 1
    gain = [sum(c.values()) for c in links]   # the open arcs' change on adding
    pending = set(range(len(groups)))
    order, open_arcs, width = [], 0, 0
    while pending:
        k = min(pending, key=lambda k: (gain[k], k))
        pending.remove(k)
        order.append(k)
        open_arcs += gain[k]
        width = max(width, open_arcs)
        for h, n in links[k].items():
            gain[h] -= 2 * n
    if width > MAX_WIDTH:
        raise TooLarge(f"the loop order holds {width} sigma0 arcs open, above "
                       f"{MAX_WIDTH}; the reduction route has no such bound")
    return order


def _step(paths: tuple, closed: int, arcs: tuple, odd: int = -1):
    """(state, pairs, odd) after drawing `arcs`, each (cross, target, marks),
    from the state (paths, closed): the new state, the number of conjugate
    pairs it closes and the entries of `odd` still alive, each closing cycle
    keeping those whose bits it has odd.  None when no entry is left."""
    head = {e: (s, p) for s, e, p in paths}    # end -> (start, marks)
    tail = {s: e for s, e, _p in paths}        # start -> end
    pairs = 0
    for x, y, mark in arcs:
        s, p = head.pop(x, (x, 0))     # the path that ends at x, or x alone
        p ^= mark
        if y == s:
            odd &= p
            if not odd:
                return None
            closed ^= 1
            pairs += not closed
            continue
        tail.pop(s, None)
        e = tail.pop(y, None)          # the path that starts at y, or y alone
        q = 0 if e is None else head.pop(e)[1]
        e = y if e is None else e
        head[e] = (s, p ^ q)
        tail[s] = e
    return (tuple(sorted((s, e, p) for e, (s, p) in head.items())), closed), pairs, odd


def _edge_groups(g: RibbonGraph, images: dict) -> list:
    """Each edge's group (crosses, [(weights, arcs)]), its choices weighed by
    `images` and each choice's weights indexed by the pairs it closes."""
    s0, th, s1 = g.map.sigma0, g.map.theta, g.map.sigma1
    groups = []
    for lab in g.sorted_edges():
        crosses = sorted(g.edge_labels[lab])
        choices = []
        for img, (in_a, in_b) in zip(images[lab], _CHOICES):
            if img == 0:
                continue
            arcs = tuple((x, s0[th[s1[x]]] if in_a else s0[x], -in_b) for x in crosses)
            choices.append(((img, img * 2, img * 4), arcs))
        groups.append((crosses, choices))
    return groups


def _sweep(groups: list, order: list) -> dict:
    """{(paths, closed): value} after adding the groups in `order`."""
    states = {((), 0): MultiPoly.one()}
    for k in order:
        addends: dict = {}
        for (paths, closed), value in states.items():
            for weights, arcs in groups[k][1]:
                found = _step(paths, closed, arcs)
                if found is not None:
                    w = weights[found[1]]
                    addends.setdefault(found[0], []).append(
                        value if isinstance(w, int) and w == 1 else value * w)
        states = {key: p for key, ps in addends.items()
                  if (p := ps[0] if len(ps) == 1 else MultiPoly.sum(ps))}
    return states


def loop_sum(g: RibbonGraph, images: dict) -> MultiPoly:
    """HU's sum over (A, B) with each edge's images (x, y, z, w) in place of
    its variables, `images` holding one 4-tuple of ints or `MultiPoly`s per
    edge label.  Raises TooLarge when the order's width is above MAX_WIDTH."""
    if g.bare_vertices:
        return MultiPoly.zero()
    s0 = g.map.sigma0
    groups = _edge_groups(g, images)
    for orb in g.flag_labels.values():
        crosses = sorted(orb)
        groups.append((crosses, [((1, 2, 4), tuple((x, s0[x], -1) for x in crosses))]))
    return _sweep(groups, _order(groups, s0)).get(((), 0), MultiPoly.zero())


def fused_sums(g: RibbonGraph, images: dict, pairs: list) -> list:
    """For each flag pair (i, j) of `pairs`, the loop sums [sym, after i,
    after j] of G with i and j fused into one untwisted edge e, forced into A
    and signed by B, and every other flag kept.  By the four-term relation
    each is HU(G'^e - e) - HU(G'^e v e) of that graph G'.  e joins each
    flag's cross on the rotation of `orientation_selection(g).chosen` to the
    other flag's other cross.  "after i" adds a marker flag right after i in
    that rotation; it passes every arc through unmarked but its own, so its
    mark moves onto the arcs of e that run through it: the one from j's
    chosen cross and the one from i's other cross.  Each kept state closes
    by one `_step` over the flag crosses' arcs, one mark bit per entry and
    side of B.  With no pair nothing is swept.  Raises TooLarge when the
    edges' order is wider than MAX_WIDTH."""
    if g.bare_vertices or not pairs:
        return [[MultiPoly.zero()] * 3 for _ in pairs]
    s0, th = g.map.sigma0, g.map.theta
    groups = _edge_groups(g, images)
    states = _sweep(groups, _order(groups, s0))
    chosen = orientation_selection(g).chosen
    rotating = {f: min(orb & chosen) for f, orb in g.flag_labels.items()}   # one cross each
    # mark bit 2k + b: entry k (sym, after i, after j), e in B when b = 1.
    # Marks are parities, so a marker's bits toggle those of e's arcs.
    every, in_b, after_i, after_j = 0b111111, 0b101010, 0b001100, 0b110000
    flag_arcs = {x: (s0[x], every) for orb in g.flag_labels.values() for x in orb}
    sums = []
    for i, j in pairs:
        ci, cj = rotating[i], rotating[j]
        # e in A: x -> sigma0(theta(sigma1(x))), sigma1 joining ci to th[cj], th[ci] to cj
        arcs = dict(flag_arcs)
        arcs.update({ci: (s0[cj], in_b ^ after_j), th[ci]: (s0[th[cj]], in_b ^ after_i),
                     cj: (s0[ci], in_b ^ after_i), th[cj]: (s0[th[ci]], in_b ^ after_j)})
        arcs = tuple((x, y, mark) for x, (y, mark) in arcs.items())
        addends = [[], [], []]
        for (paths, closed), value in states.items():
            found = _step(paths, closed, arcs, every)
            if found is None:
                continue
            _state, n, odd = found
            for k, ps in enumerate(addends):
                c = ((odd >> 2 * k & 1) - (odd >> 2 * k + 1 & 1)) << n
                if c:
                    ps.append(value if c == 1 else value.scale(c))
        sums.append([MultiPoly.sum(ps) for ps in addends])
    return sums
