"""Operations on ribbon graphs: deletion, cut, duality, contraction, unions and
components, and the odd/even spanning-class counts.

Edge and flag deletion induce the permutations on the surviving crosses;
cutting an edge turns it into two flags, one per half-ribbon.  `_halves` is
the one place that splits an edge into the half-ribbons <e>.1 and <e>.2, with
`'` appended to a name already taken, for the flags of `cut` and the item ids
of `to_rotation_spec`.  Partial
duality is the one permutation surgery `maps._dual_triple`; the natural dual
is the partial dual along every edge.  The surgery keeps every edge's four
crosses and every flag's two crosses intact, so labels survive all of these
operations.  Contraction is deletion after dualising the one edge.

These surgeries, and the restriction to a union of components, build valid
maps from valid ones, so they skip `maps.validate_map`; the test suite checks
their outputs against it on the corpus and on random maps.  Each edits a
copy of the permutation dicts it changes and shares the others (deletion
induces sigma0 in one pass); `make_graph` copies each label table once and
checks it one label at a time.

Vertices that lose all their crosses (deleting a bridge end, a flag removal)
are kept as bare isolated vertices — the polynomial layer weights them by
degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DuplicateId, UnknownEdge
from .maps import (CombinatorialMap, RibbonGraph, RotationSpec,
                   make_graph, orientation_selection, vertices_of,
                   _UnionFind, _dual_triple, _incidences)


# ---------------------------------------------------------------------------
# deletion / cut
# ---------------------------------------------------------------------------

def _remove_crosses(g: RibbonGraph, removed: set, edges: dict, flags: dict) -> RibbonGraph:
    """Induce the permutations on the crosses outside `removed`, whole edges
    and flags, so theta and sigma1 just restrict.  A sigma0-cycle inside
    `removed` is half of a vertex that stays behind bare."""
    m, s0 = g.map, g.map.sigma0
    sigma0 = {}
    for x, y in s0.items():
        if x not in removed:
            while y in removed:
                y = s0[y]
            sigma0[x] = y
    cycles_inside, left = 0, set(removed)
    while left:
        x = y = left.pop()
        while (y := s0[y]) in left:
            left.discard(y)
        cycles_inside += y == x
    theta, sigma1 = ({x: y for x, y in p.items() if x not in removed}
                     for p in (m.theta, m.sigma1))
    kept = CombinatorialMap(frozenset(sigma0), sigma0, theta, sigma1)
    return make_graph(kept, edges, flags,
                      bare_vertices=g.bare_vertices + cycles_inside // 2, check=False)


def delete_edges(g: RibbonGraph, labels: Iterable) -> RibbonGraph:
    """Remove the given edges; endpoint vertices that lose every cross stay
    behind as bare vertices."""
    labels = dict.fromkeys(labels)   # given order, set membership
    removed: set[int] = set()
    for lab in labels:
        removed |= g.edge_crosses(lab)
    edges = {lab: orb for lab, orb in g.edge_labels.items() if lab not in labels}
    return _remove_crosses(g, removed, edges, g.flag_labels)


def delete(g: RibbonGraph, e) -> RibbonGraph:
    g.edge_crosses(e)  # raises UnknownEdge early
    return delete_edges(g, [e])


def _halves(g: RibbonGraph, e, taken) -> list[tuple[str, frozenset]]:
    """The edge's two half-ribbons as (name, crosses): the theta-pair of its
    smallest cross, then the other pair.  They are named <e>.1 and <e>.2,
    each with `'` appended while `taken` holds the name."""
    orb = g.edge_crosses(e)
    x = min(orb)
    first = frozenset((x, g.map.theta[x]))
    halves = []
    for suffix, half in enumerate((first, orb - first), 1):
        name = f"{e}.{suffix}"
        while name in taken:
            name += "'"
        halves.append((name, half))
    return halves


def cut(g: RibbonGraph, e) -> RibbonGraph:
    """Replace the edge by two flags, one per half-ribbon: sigma1 becomes the
    identity on the edge's crosses, everything else is untouched."""
    halves = _halves(g, e, g.flag_labels)
    sigma1 = {**g.map.sigma1, **{x: x for _, half in halves for x in half}}
    m = CombinatorialMap(g.map.crosses, g.map.sigma0, g.map.theta, sigma1)
    flags = {**g.flag_labels, **dict(halves)}
    edges = {lab: o for lab, o in g.edge_labels.items() if lab != e}
    return make_graph(m, edges, flags, bare_vertices=g.bare_vertices, check=False)


def delete_flag(g: RibbonGraph, flag) -> RibbonGraph:
    """Remove one flag (both crosses); a vertex reduced to nothing stays bare."""
    try:
        orb = g.flag_labels[flag]
    except KeyError:
        raise UnknownEdge(f"no flag labelled {flag!r}") from None
    flags = {lab: o for lab, o in g.flag_labels.items() if lab != flag}
    return _remove_crosses(g, orb, g.edge_labels, flags)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def natural_dual(g: RibbonGraph) -> RibbonGraph:
    """Geometric dual: the partial dual along every edge.  Vertices and faces
    swap; edge/flag cross-sets persist."""
    return partial_dual(g, g.edge_labels)


def partial_dual(g: RibbonGraph, edges: Iterable) -> RibbonGraph:
    """Dualise only the given edge subset, by the surgery `maps._dual_triple`
    on the union of those edges' crosses.  Dualising twice is the identity.
    """
    Ep = set().union(*(g.edge_crosses(lab) for lab in set(edges)))
    return make_graph(_dual_triple(g.map, Ep), g.edge_labels, g.flag_labels,
                      bare_vertices=g.bare_vertices, check=False)


def contract(g: RibbonGraph, e) -> RibbonGraph:
    """Contract the edge: dualise it, then delete it."""
    return delete(partial_dual(g, [e]), e)


def spanning_subgraph(g: RibbonGraph, keep: Iterable) -> RibbonGraph:
    """Same vertices, only the given edges (flags retained)."""
    keep = set(keep)
    for lab in keep:
        g.edge_crosses(lab)
    return delete_edges(g, [lab for lab in g.edge_labels if lab not in keep])


# ---------------------------------------------------------------------------
# disjoint union and components
# ---------------------------------------------------------------------------

def restrict(g: RibbonGraph, crosses: frozenset) -> RibbonGraph:
    """The part of the graph on `crosses`, a union of its cross components
    (closed under sigma0, theta and sigma1), with no bare vertices."""
    m = g.map
    part = CombinatorialMap(crosses, *({x: p[x] for x in crosses}
                                       for p in (m.sigma0, m.theta, m.sigma1)))
    edges = {lab: orb for lab, orb in g.edge_labels.items() if orb <= crosses}
    flags = {lab: orb for lab, orb in g.flag_labels.items() if orb <= crosses}
    return make_graph(part, edges, flags, check=False)


def disjoint_union(a: RibbonGraph, b: RibbonGraph) -> RibbonGraph:
    """Put two graphs side by side.  Labels are kept when the two label sets
    are disjoint; otherwise every label is prefixed ('a:' / 'b:')."""
    if a.map.crosses and b.map.crosses:
        shift = max(a.map.crosses) + 1 - min(b.map.crosses)
    else:
        shift = 0

    collide = (set(a.edge_labels) | set(a.flag_labels)) & (set(b.edge_labels) | set(b.flag_labels))

    def relab(side: str, lab):
        return f"{side}:{lab}" if collide else lab

    crosses = frozenset(a.map.crosses) | frozenset(x + shift for x in b.map.crosses)

    def merge(pa: dict, pb: dict) -> dict:
        out = dict(pa)
        for x, y in pb.items():
            out[x + shift] = y + shift
        return out

    m = CombinatorialMap(crosses,
                         merge(a.map.sigma0, b.map.sigma0),
                         merge(a.map.theta, b.map.theta),
                         merge(a.map.sigma1, b.map.sigma1))
    edges = {relab("a", lab): orb for lab, orb in a.edge_labels.items()}
    edges.update({relab("b", lab): frozenset(c + shift for c in orb)
                  for lab, orb in b.edge_labels.items()})
    flags = {relab("a", lab): orb for lab, orb in a.flag_labels.items()}
    flags.update({relab("b", lab): frozenset(c + shift for c in orb)
                  for lab, orb in b.flag_labels.items()})
    if len(edges) != len(a.edge_labels) + len(b.edge_labels) or \
       len(flags) != len(a.flag_labels) + len(b.flag_labels):
        raise DuplicateId("label collision inside one operand")
    return make_graph(m, edges, flags,
                      bare_vertices=a.bare_vertices + b.bare_vertices)


# ---------------------------------------------------------------------------
# spanning-class counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCounts:
    odd: int
    even: int
    codd: int
    cev: int
    oddf: int
    evf: int
    coddf: int
    cevf: int


def class_counts(g: RibbonGraph) -> ClassCounts:
    """Closed-form counts of the odd/even spanning subgraph classes.

    odd/even count the edge subsets (all flags kept) that make every vertex
    degree odd / even.  That is a linear system over GF(2) whose incidence
    matrix has rank v - c (a loop adds 2 to its vertex, so it is a free
    column): it has 2^(e - v + c) solutions when each component's right-hand
    sides sum to 0, and none otherwise.  A bare vertex is never odd.

    The 'f' variants range over subsets of half-edge slots (flags still
    forced), with a vertex degree = chosen slots + flags there.  Each vertex
    owns its slots, so they count per vertex: 2^(s-1) for s > 0 slots, else
    1 or 0 as its flag parity fits.  Colored counts multiply by 2 per vertex.
    """
    flags_at, ends = _incidences(g)
    nv = len(flags_at)
    uf = _UnionFind(nv)
    slots = [0] * nv
    for u, w in ends.values():
        uf.union(u, w)
        slots[u] += 1
        slots[w] += 1
    odd_sum: dict = {}    # per component: parity of sum(1 + flags)
    even_sum: dict = {}   # per component: parity of sum(flags)
    for v, nf in enumerate(flags_at):
        root = uf.find(v)
        odd_sum[root] = odd_sum.get(root, 0) ^ (1 + nf) % 2
        even_sum[root] = even_sum.get(root, 0) ^ nf % 2
    solutions = 1 << (len(ends) - nv + len(odd_sum))
    bare = g.bare_vertices
    odd = solutions if bare == 0 and not any(odd_sum.values()) else 0
    even = solutions if not any(even_sum.values()) else 0

    oddf = evf = 1
    for s, nf in zip(slots, flags_at):
        if s:
            oddf <<= s - 1
            evf <<= s - 1
        else:
            oddf *= nf % 2
            evf *= 1 - nf % 2
    if bare:
        oddf = 0

    color = 1 << (nv + bare)
    return ClassCounts(odd=odd, even=even, codd=odd * color, cev=even * color,
                       oddf=oddf, evf=evf, coddf=oddf * color, cevf=evf * color)


# ---------------------------------------------------------------------------
# rotation-system export
# ---------------------------------------------------------------------------

def to_rotation_spec(g: RibbonGraph) -> RotationSpec:
    """Present the graph as vertex rotations + edge pairings (+ twists).

    Rotations follow the deterministic per-vertex cycle selection; an edge is
    twisted when sigma1 couples two selected crosses.  Feeding the result back
    through from_rotation_system yields an isomorphic graph.
    """
    chosen = orientation_selection(g).chosen
    theta = g.map.theta
    hr_id = {orb: lab for lab, orb in g.flag_labels.items()}
    taken = set(g.flag_labels)
    edges = []
    for lab in g.sorted_edges():
        (id1, first), (id2, second) = _halves(g, lab, taken)
        hr_id[first], hr_id[second] = id1, id2
        taken.update((id1, id2))
        (sx,), (sy,) = first & chosen, second & chosen
        edges.append((lab, id1, id2, int(g.map.sigma1[sx] == sy)))

    verts = []
    for i, v in enumerate(vertices_of(g), 1):
        walk = v.cycle if set(v.cycle) <= chosen else v.partner
        verts.append((f"v{i}", tuple(hr_id[frozenset((x, theta[x]))] for x in walk)))
    n = len(verts)
    verts += [(f"v{n + j}", ()) for j in range(1, g.bare_vertices + 1)]

    flags = tuple(sorted(g.flag_labels, key=str))
    return RotationSpec(vertices=tuple(verts), edges=tuple(edges), flags=flags)
