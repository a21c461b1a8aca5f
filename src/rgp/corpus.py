"""Builders for the example graphs used throughout the tests and scripts.

Each builder checks the structural facts its callers rely on (face counts,
flag placement, orientability) and raises SelfCheckFailed if one fails, so a
regression in the core shows up here first, with a named graph attached.
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


def _face_of(g: RibbonGraph, crosses) -> int:
    """Index of the face containing all the given crosses; -1 if split."""
    for i, fs in enumerate(face_sets(g)):
        if set(crosses) <= fs:
            return i
    return -1


def _flag_faces(g: RibbonGraph) -> dict:
    return {lab: _face_of(g, orb) for lab, orb in g.flag_labels.items()}


def _edges_on_face(g: RibbonGraph, face_idx: int) -> set:
    fs = face_sets(g)[face_idx]
    return {lab for lab, orb in g.edge_labels.items() if orb & fs}


# ---------------------------------------------------------------------------
# small named graphs
# ---------------------------------------------------------------------------

def bridge(m: int = 0, n: int = 0) -> RibbonGraph:
    """One edge joining two vertices carrying m and n flags."""
    u = ("uh",) + tuple(f"u{i}" for i in range(1, m + 1))
    v = ("vh",) + tuple(f"v{i}" for i in range(1, n + 1))
    g = from_rotation_system(RotationSpec(
        vertices=(("u", u), ("v", v)),
        edges=(("e1", "uh", "vh", 0),),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.faces, rep.orientable) == (2, 1, m + n, 1, True),
             "bridge: not a planar one-edge tree")
    return g


def loop_graph(m: int = 0, n: int = 0, twisted: bool = False) -> RibbonGraph:
    """A single loop at a single vertex with m flags in one face and n in the
    other (the twisted variant has just one face)."""
    items = ("h1",) + tuple(f"p{i}" for i in range(1, m + 1)) \
        + ("h2",) + tuple(f"q{i}" for i in range(1, n + 1))
    g = from_rotation_system(RotationSpec(
        vertices=(("v", items),),
        edges=(("e1", "h1", "h2", 1 if twisted else 0),),
    ))
    rep = structure_report(g)
    if twisted:
        _require((rep.v, rep.e, rep.faces, rep.orientable) == (1, 1, 1, False),
                 "twisted loop: not one non-orientable face")
    else:
        _require((rep.v, rep.e, rep.faces, rep.orientable) == (1, 1, 2, True),
                 "loop: not two orientable faces")
        ff = _flag_faces(g)
        sides = {0: [l for l in ff if l.startswith("p")], 1: [l for l in ff if l.startswith("q")]}
        placed = {ff[l] for l in ff}
        if m and n:
            _require(len({ff[l] for l in sides[0]}) == 1
                     and len({ff[l] for l in sides[1]}) == 1,
                     "loop: a side's flags split over faces")
            _require({ff[l] for l in sides[0]} != {ff[l] for l in sides[1]},
                     "loop: both sides' flags on one face")
        elif m + n:
            _require(len(placed) == 1, "loop: one side's flags split over faces")
    return g


def twisted_loop() -> RibbonGraph:
    return loop_graph(twisted=True)


def banana(n: int, planar: bool = True) -> RibbonGraph:
    """n parallel edges between two vertices; the planar version reverses the
    second rotation, the non-planar one repeats it."""
    u = tuple(f"a{i}" for i in range(1, n + 1))
    v = tuple(f"b{i}" for i in (range(n, 0, -1) if planar else range(1, n + 1)))
    g = from_rotation_system(RotationSpec(
        vertices=(("u", u), ("v", v)),
        edges=tuple((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, n + 1)),
    ))
    rep = structure_report(g)
    if planar:
        _require((rep.v, rep.e, rep.faces, rep.euler_genus) == (2, n, n, 0),
                 "planar banana: not n faces on the sphere")
    else:
        _require(rep.v == 2 and rep.e == n, "banana: not two vertices and n edges")
        if n == 3:
            _require(rep.faces == 1 and rep.euler_genus == 2 and rep.orientable,
                     "non-planar 3-banana: not one face on the torus")
    return g


def two_cycle() -> RibbonGraph:
    """The cycle of length two = planar 2-banana."""
    return banana(2)


def double_tadpole() -> RibbonGraph:
    """Two interleaved loops on one vertex (the non-planar '8')."""
    g = from_rotation_system(RotationSpec(
        vertices=(("v", ("h1a", "h2a", "h1b", "h2b")),),
        edges=(("e1", "h1a", "h1b", 0), ("e2", "h2a", "h2b", 0)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.faces, rep.euler_genus, rep.orientable) == (1, 2, 1, 2, True),
             "double tadpole: not one face on the torus")
    return g


def dumbbell() -> RibbonGraph:
    """Two vertices joined by e1, with planar loops e2 and e3."""
    g = from_rotation_system(RotationSpec(
        vertices=(("u", ("h1u", "l2a", "l2b")), ("v", ("h1v", "l3a", "l3b"))),
        edges=(("e1", "h1u", "h1v", 0), ("e2", "l2a", "l2b", 0),
               ("e3", "l3a", "l3b", 0)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.faces, rep.euler_genus) == (2, 3, 3, 0),
             "dumbbell: not three faces on the sphere")
    return g


def linear_tree3() -> RibbonGraph:
    """Path on four vertices; e1 is the middle edge, e2 and e3 the ends."""
    g = from_rotation_system(RotationSpec(
        vertices=(("v1", ("a2",)), ("v2", ("b2", "a1")),
                  ("v3", ("b1", "a3")), ("v4", ("b3",))),
        edges=(("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.faces) == (4, 3, 0, 1),
             "linear_tree3: not a flagless 3-edge tree")
    return g


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
    g = from_rotation_system(RotationSpec(
        vertices=tuple(verts),
        edges=tuple((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, k + 1)),
    ))
    _require(structure_report(g).faces == 1, "path_tree: more than one face")
    return g


def star(n: int, with_flags: bool = False) -> RibbonGraph:
    """n-star: center joined to n leaves; optionally one flag per leaf
    (labelled f1..fn, flag i on leaf i)."""
    verts = [("c", tuple(f"c{i}" for i in range(1, n + 1)))]
    for i in range(1, n + 1):
        items = (f"l{i}", f"f{i}") if with_flags else (f"l{i}",)
        verts.append((f"leaf{i}", items))
    g = from_rotation_system(RotationSpec(
        vertices=tuple(verts),
        edges=tuple((f"e{i}", f"c{i}", f"l{i}", 0) for i in range(1, n + 1)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.faces) == (n + 1, n, n if with_flags else 0, 1),
             "star: wrong vertex, edge, flag or face count")
    return g


def cycle_graph(n: int, flag_plan: dict | None = None) -> RibbonGraph:
    """Cycle with edges e1..en, edge ei joining vi to v(i+1).  flag_plan maps
    a vertex index (1-based) to (inner, outer) flag counts; 'inner'/'outer'
    are the two faces, consistently across vertices."""
    plan = flag_plan or {}
    verts = []
    for i in range(1, n + 1):
        prev = f"b{(i - 2) % n + 1}"
        inner, outer = plan.get(i, (0, 0))
        items = (prev,) + tuple(f"I{i}.{j}" for j in range(inner)) \
            + (f"a{i}",) + tuple(f"O{i}.{j}" for j in range(outer))
        verts.append((f"v{i}", items))
    g = from_rotation_system(RotationSpec(
        vertices=tuple(verts),
        edges=tuple((f"e{i}", f"a{i}", f"b{i}", 0) for i in range(1, n + 1)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.faces, rep.euler_genus) == (n, n, 2, 0),
             "cycle_graph: not two faces on the sphere")
    ff = _flag_faces(g)
    inner_faces = {f for l, f in ff.items() if l.startswith("I")}
    outer_faces = {f for l, f in ff.items() if l.startswith("O")}
    _require(len(inner_faces) <= 1 and len(outer_faces) <= 1,
             "cycle_graph: a side's flags split over faces")
    if inner_faces and outer_faces:
        _require(inner_faces != outer_faces, "cycle_graph: inner and outer flags on one face")
    return g


def triangle(with_flags: bool = False) -> RibbonGraph:
    """Planar 3-cycle; optionally one flag per vertex, all three in the same
    face (flags g1, g2, g3 at v1, v2, v3)."""
    if not with_flags:
        return cycle_graph(3)
    verts = (("v1", ("b3", "g1", "a1")), ("v2", ("b1", "g2", "a2")),
             ("v3", ("b2", "g3", "a3")))
    g = from_rotation_system(RotationSpec(
        vertices=verts,
        edges=(("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.faces) == (3, 3, 3, 2),
             "triangle: wrong vertex, edge, flag or face count")
    _require(len(set(_flag_faces(g).values())) == 1, "triangle: flags must share a face")
    return g


def broken_cycle3() -> RibbonGraph:
    """Planar triangle with two flags at v1 (between e3 and e1), one per face."""
    g = cycle_graph(3, {1: (1, 1)})
    ff = _flag_faces(g)
    _require(len(ff) == 2 and len(set(ff.values())) == 2,
             "broken_cycle3: the two flags must lie on different faces")
    return g


def sunset() -> RibbonGraph:
    """Planar 3-banana plus one flag per vertex (s1 on u, s2 on v), both in
    the face bounded by edges e1 and e3."""
    g = from_rotation_system(RotationSpec(
        vertices=(("u", ("a1", "a2", "a3", "s1")), ("v", ("b3", "b2", "b1", "s2"))),
        edges=(("e1", "a1", "b1", 0), ("e2", "a2", "b2", 0), ("e3", "a3", "b3", 0)),
    ))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.faces) == (2, 3, 2, 3),
             "sunset: wrong vertex, edge, flag or face count")
    ff = _flag_faces(g)
    _require(ff["s1"] == ff["s2"] != -1, "sunset: both flags must share a face")
    _require(_edges_on_face(g, ff["s1"]) == {"e1", "e3"},
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
    g = make_graph(m)
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f, rep.k, rep.faces) == (2, 2, 2, 1, 1),
             "fig_two_vertex: wrong vertex, edge, flag, component or face count")
    _require(rep.euler_genus == 1 and not rep.orientable,
             "fig_two_vertex: not the projective plane")
    _require(g.edge_labels == {"e1": frozenset({1, 2, 5, 6}), "e2": frozenset({3, 4, 7, 8})},
             "fig_two_vertex: unexpected edge labels")
    _require(g.flag_labels == {"f1": frozenset({9, 10}), "f2": frozenset({11, 12})},
             "fig_two_vertex: unexpected flag labels")
    return g


def single_vertex(n_flags: int = 0) -> RibbonGraph:
    """One vertex carrying n flags (a bare vertex when n = 0)."""
    items = tuple(f"x{i}" for i in range(1, n_flags + 1))
    g = from_rotation_system(RotationSpec(vertices=(("v", items),), edges=()))
    rep = structure_report(g)
    _require((rep.v, rep.e, rep.f) == (1, 0, n_flags),
             "single_vertex: not one vertex with n flags")
    return g


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
    rep_in, rep_out = structure_report(g), structure_report(out)
    _require(rep_out.v == rep_in.v + 1 and rep_out.e == rep_in.e,
             "half_edge_detached: not one more vertex and the same edges")
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
