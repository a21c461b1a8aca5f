"""Builders for the example graphs used throughout the tests and scripts.

Each builder declares the structural facts its callers rely on (counts from
`structure_report`, and which groups of flags share a face) and `_built`
checks them, raising SelfCheckFailed with the graph's name, the expected and
the observed values, so a regression in the core shows up here first.
"""

from __future__ import annotations

import random

from .errors import HasFlags, InvalidArgument, SelfCheckFailed, UnknownEdge
from .maps import (CombinatorialMap, RibbonGraph, RotationSpec, face_sets,
                   from_rotation_system, make_graph, perm_from_cycles,
                   structure_report)
from .ops import to_rotation_spec


def _require(ok: bool, fact: str) -> None:
    if not ok:
        raise SelfCheckFailed(fact)


def _checked(name: str, g: RibbonGraph, flag_groups=(), **facts) -> RibbonGraph:
    """g, once each named StructureReport field equals its value and each
    nonempty group of flag labels lies on one face, a different face per
    group; else SelfCheckFailed naming the graph and what it showed."""
    rep = structure_report(g)
    seen = {fact: getattr(rep, fact) for fact in facts}
    _require(seen == facts, f"{name}: expected {facts}, got {seen}")
    faces = face_sets(g)
    groups = [group for group in flag_groups if group]
    homes = [next((i for i, fs in enumerate(faces)
                   if all(g.flag_labels[lab] <= fs for lab in group)), None)
             for group in groups]
    _require(None not in homes and len(set(homes)) == len(homes),
             f"{name}: expected flag groups {groups} each on its own face, got faces {homes}")
    return g


def _built(name: str, vertices, edges, flag_groups=(), **facts) -> RibbonGraph:
    """The graph of this rotation system, checked as `_checked` does."""
    g = from_rotation_system(RotationSpec(vertices=tuple(vertices), edges=tuple(edges)))
    return _checked(name, g, flag_groups, **facts)


# ---------------------------------------------------------------------------
# small named graphs
# ---------------------------------------------------------------------------

def bridge(m: int = 0, n: int = 0) -> RibbonGraph:
    """One edge joining two vertices carrying m and n flags."""
    u = ("uh",) + tuple(f"u{i}" for i in range(1, m + 1))
    v = ("vh",) + tuple(f"v{i}" for i in range(1, n + 1))
    return _built(f"bridge({m}, {n})", (("u", u), ("v", v)), (("e1", "uh", "vh", 0),),
                  v=2, e=1, f=m + n, faces=1, orientable=True)


def loop_graph(m: int = 0, n: int = 0, twisted: bool = False) -> RibbonGraph:
    """A single loop at a single vertex with m flags in one face and n in the
    other (the twisted variant has just one face)."""
    p = tuple(f"p{i}" for i in range(1, m + 1))
    q = tuple(f"q{i}" for i in range(1, n + 1))
    vertices = (("v", ("h1",) + p + ("h2",) + q),)
    if twisted:
        return _built(f"loop_graph({m}, {n}, twisted=True)", vertices,
                      (("e1", "h1", "h2", 1),), v=1, e=1, faces=1, orientable=False)
    return _built(f"loop_graph({m}, {n})", vertices, (("e1", "h1", "h2", 0),), (p, q),
                  v=1, e=1, faces=2, orientable=True)


def twisted_loop() -> RibbonGraph:
    return loop_graph(twisted=True)


def banana(n: int, planar: bool = True) -> RibbonGraph:
    """n parallel edges between two vertices; the planar version reverses the
    second rotation, the non-planar one repeats it."""
    u = tuple(f"a{i}" for i in range(1, n + 1))
    v = tuple(f"b{i}" for i in (range(n, 0, -1) if planar else range(1, n + 1)))
    edges = ((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, n + 1))
    facts = ({"faces": n, "euler_genus": 0} if planar
             else {"faces": 1, "euler_genus": 2, "orientable": True} if n == 3 else {})
    return _built(f"banana({n}, planar={planar})", (("u", u), ("v", v)), edges,
                  v=2, e=n, **facts)


def two_cycle() -> RibbonGraph:
    """The cycle of length two = planar 2-banana."""
    return banana(2)


def double_tadpole() -> RibbonGraph:
    """Two interleaved loops on one vertex (the non-planar '8')."""
    return _built("double_tadpole", (("v", ("h1a", "h2a", "h1b", "h2b")),),
                  (("e1", "h1a", "h1b", 0), ("e2", "h2a", "h2b", 0)),
                  v=1, e=2, faces=1, euler_genus=2, orientable=True)


def dumbbell() -> RibbonGraph:
    """Two vertices joined by e1, with planar loops e2 and e3."""
    return _built("dumbbell", (("u", ("h1u", "l2a", "l2b")), ("v", ("h1v", "l3a", "l3b"))),
                  (("e1", "h1u", "h1v", 0), ("e2", "l2a", "l2b", 0), ("e3", "l3a", "l3b", 0)),
                  v=2, e=3, faces=3, euler_genus=0)


def linear_tree3() -> RibbonGraph:
    """Path on four vertices; e1 is the middle edge, e2 and e3 the ends."""
    return _built("linear_tree3", (("v1", ("a2",)), ("v2", ("b2", "a1")),
                                   ("v3", ("b1", "a3")), ("v4", ("b3",))),
                  (("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
                  v=4, e=3, f=0, faces=1)


def path_tree(k: int, flags_at: tuple = ()) -> RibbonGraph:
    """Path with k edges e1..ek in order; flags_at[i] flags on vertex i."""
    counts = tuple(flags_at) + (0,) * (k + 1 - len(flags_at))
    verts = []
    for i in range(k + 1):
        items: list = []
        if i > 0:
            items.append(f"b{i}")
        if i < k:
            items.append(f"a{i + 1}")
        items += [f"F{i}.{j}" for j in range(counts[i])]
        verts.append((f"v{i}", tuple(items)))
    edges = ((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, k + 1))
    return _built(f"path_tree({k}, {flags_at})", verts, edges, faces=1)


def star(n: int, with_flags: bool = False) -> RibbonGraph:
    """n-star: center joined to n leaves; optionally one flag per leaf
    (labelled f1..fn, flag i on leaf i)."""
    verts = [("c", tuple(f"c{i}" for i in range(1, n + 1)))]
    for i in range(1, n + 1):
        items = (f"l{i}", f"f{i}") if with_flags else (f"l{i}",)
        verts.append((f"leaf{i}", items))
    edges = ((f"e{i}", f"c{i}", f"l{i}", 0) for i in range(1, n + 1))
    return _built(f"star({n}, {with_flags})", verts, edges,
                  v=n + 1, e=n, f=n if with_flags else 0, faces=1)


def cycle_graph(n: int, flag_plan: dict | None = None) -> RibbonGraph:
    """Cycle with edges e1..en, edge ei joining vi to v(i+1).  flag_plan maps
    a vertex index (1-based) to (inner, outer) flag counts; 'inner'/'outer'
    are the two faces, consistently across vertices."""
    plan = flag_plan or {}
    verts, inner, outer = [], [], []
    for i in range(1, n + 1):
        n_in, n_out = plan.get(i, (0, 0))
        ins = tuple(f"I{i}.{j}" for j in range(n_in))
        outs = tuple(f"O{i}.{j}" for j in range(n_out))
        verts.append((f"v{i}", (f"b{(i - 2) % n + 1}",) + ins + (f"a{i}",) + outs))
        inner += ins
        outer += outs
    edges = ((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, n + 1))
    return _built(f"cycle_graph({n}, {plan})", verts, edges, (inner, outer),
                  v=n, e=n, faces=2, euler_genus=0)


def triangle(with_flags: bool = False) -> RibbonGraph:
    """Planar 3-cycle; optionally one flag per vertex, all three in the same
    face (flags g1, g2, g3 at v1, v2, v3)."""
    if not with_flags:
        return cycle_graph(3)
    return _built("triangle", (("v1", ("b3", "g1", "a1")), ("v2", ("b1", "g2", "a2")),
                               ("v3", ("b2", "g3", "a3"))),
                  (("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
                  (("g1", "g2", "g3"),), v=3, e=3, f=3, faces=2)


def broken_cycle3() -> RibbonGraph:
    """Planar triangle with two flags at v1 (between e3 and e1), one per face."""
    return cycle_graph(3, {1: (1, 1)})


def sunset() -> RibbonGraph:
    """Planar 3-banana plus one flag per vertex (s1 on u, s2 on v), both in
    the face bounded by edges e1 and e3."""
    g = _built("sunset", (("u", ("a1", "a2", "a3", "s1")), ("v", ("b3", "b2", "b1", "s2"))),
               (("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
               (("s1", "s2"),), v=2, e=3, f=2, faces=3)
    face = next(fs for fs in face_sets(g) if g.flag_labels["s1"] <= fs)
    _require({lab for lab, orb in g.edge_labels.items() if orb & face} == {"e1", "e3"},
             "sunset: the flags' face must be bounded by e1 and e3")
    return g


def fig_two_vertex() -> RibbonGraph:
    """The 12-cross two-vertex, two-edge, two-flag non-orientable example,
    given directly by its permutation triple."""
    dom = range(1, 13)
    m = CombinatorialMap(
        frozenset(dom),
        perm_from_cycles(dom, [(1, 3), (4, 2), (6, 9, 11, 8), (5, 7, 12, 10)]),
        perm_from_cycles(dom, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]),
        perm_from_cycles(dom, [(1, 5), (2, 6), (3, 8), (4, 7)]),
    )
    g = _checked("fig_two_vertex", make_graph(m),
                 v=2, e=2, f=2, k=1, faces=1, euler_genus=1, orientable=False)
    _require(g.edge_labels == {"e1": frozenset({1, 2, 5, 6}), "e2": frozenset({3, 4, 7, 8})},
             "fig_two_vertex: unexpected edge labels")
    _require(g.flag_labels == {"f1": frozenset({9, 10}), "f2": frozenset({11, 12})},
             "fig_two_vertex: unexpected flag labels")
    return g


def single_vertex(n_flags: int = 0) -> RibbonGraph:
    """One vertex carrying n flags (a bare vertex when n = 0)."""
    items = tuple(f"x{i}" for i in range(1, n_flags + 1))
    return _built(f"single_vertex({n_flags})", (("v", items),), (), v=1, e=0, f=n_flags)


def half_edge_detached(g: RibbonGraph, edge, end: int = 1) -> RibbonGraph:
    """Detach one end of ``edge`` onto a fresh bivalent vertex.

    The chosen half-edge is replaced, in place in its rotation, by a new
    flag ``<edge>.stub``; the half-edge itself moves to a new vertex
    ``hat`` that also carries a second new flag ``<edge>.leaf``.  Edge
    labels and twists are preserved, so spanning subgraphs of the result
    correspond to spanning subgraphs of ``g`` by the identity on edge
    labels.  For *orientable* ``g``, quasi-trees of ``g`` are exactly
    the edge sets whose spanning subgraph here has two boundary
    components with one of the new flags on each.  (Not true with
    twists: detaching the twisted loop turns its Möbius spanning
    subgraph, one boundary circle, into a flat path, also one.)
    """
    if g.flag_labels:
        raise HasFlags("half_edge_detached expects a graph without flags")
    if edge not in g.edge_labels:
        raise UnknownEdge(f"unknown edge: {edge!r}")
    if end not in (1, 2):
        raise InvalidArgument("end must be 1 or 2")
    spec = to_rotation_spec(g)
    target = f"{edge}.{end}"
    stub, leaf = f"{edge}.stub", f"{edge}.leaf"
    vertices = []
    hit = False
    for vid, items in spec.vertices:
        if target in items and not hit:
            items = tuple(stub if it == target else it for it in items)
            hit = True
        vertices.append((vid, items))
    _require(hit, f"half_edge_detached: {target} is in no rotation")
    vertices.append(("hat", (target, leaf)))
    out = from_rotation_system(RotationSpec(vertices=tuple(vertices),
                                            edges=spec.edges))
    rep = structure_report(g)
    _checked("half_edge_detached", out, v=rep.v + 1, e=rep.e)
    _require(set(out.flag_labels) == {stub, leaf},
             "half_edge_detached: the flags are not the stub and the leaf")
    return out


# ---------------------------------------------------------------------------
# the acceptance corpus and random graphs
# ---------------------------------------------------------------------------

def acceptance_corpus() -> dict:
    """The named graphs the acceptance tests sweep over."""
    out = {}
    for m in (0, 1, 2):
        for n in (0, 1, 2):
            out[f"bridge_{m}{n}"] = bridge(m, n)
            out[f"loop_{m}{n}"] = loop_graph(m, n)
    out["two_cycle"] = two_cycle()
    out["banana3_planar"] = banana(3, planar=True)
    out["banana3_nonplanar"] = banana(3, planar=False)
    out["double_tadpole"] = double_tadpole()
    out["dumbbell"] = dumbbell()
    out["linear_tree3"] = linear_tree3()
    out["star3"] = star(3)
    out["star4"] = star(4)
    out["triangle"] = triangle()
    out["triangle_flags"] = triangle(with_flags=True)
    out["sunset"] = sunset()
    out["star3_flags"] = star(3, with_flags=True)
    out["fig_two_vertex"] = fig_two_vertex()
    return out


def random_rotation_graph(rng: random.Random, max_edges: int = 4,
                          max_flags: int = 4, orientable: bool = False,
                          min_edges: int = 0) -> RibbonGraph:
    """A random rotation-system graph.  With orientable=True all twists are
    zero (and every orientable graph arises this way up to isomorphism)."""
    n_e = rng.randint(min_edges, max_edges)
    n_f = rng.randint(0, max_flags)
    items = [f"h{i}" for i in range(2 * n_e)] + [f"F{i}" for i in range(n_f)]
    rng.shuffle(items)
    n_v = rng.randint(1, max(1, len(items)) if items else 2)
    buckets: list[list] = [[] for _ in range(n_v)]
    for it in items:
        buckets[rng.randrange(n_v)].append(it)
    halves = [f"h{i}" for i in range(2 * n_e)]
    rng.shuffle(halves)
    edges = tuple((f"e{i + 1}", halves[2 * i], halves[2 * i + 1],
                   0 if orientable else rng.randint(0, 1))
                  for i in range(n_e))
    return from_rotation_system(RotationSpec(
        vertices=tuple((f"v{i}", tuple(b)) for i, b in enumerate(buckets)),
        edges=edges,
    ))
