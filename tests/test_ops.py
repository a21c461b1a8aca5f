"""Deletion, cut, duality, contraction, unions and components, class counts."""

import random

import pytest

from rgp import corpus
from rgp.errors import UnknownEdge
from rgp.maps import (RotationSpec, cross_components, face_count, from_rotation_system,
                      isomorphic, perm_from_cycles, structure_report, validate_map,
                      vertices_of)
from rgp.ops import (class_counts, contract, cut, delete, delete_edges, delete_flag,
                     disjoint_union, natural_dual, partial_dual, restrict,
                     spanning_subgraph, to_rotation_spec)


@pytest.fixture(scope="module")
def fig2():
    return corpus.fig_two_vertex()


# --- deletion / cut -----------------------------------------------------------

def test_delete_fig2_edge(fig2):
    g = delete(fig2, "e1")
    assert set(g.map.crosses) == {3, 4, 7, 8, 9, 10, 11, 12}
    assert g.map.sigma0 == perm_from_cycles(g.map.crosses, [(9, 11, 8), (7, 12, 10)])
    assert g.map.sigma1 == perm_from_cycles(g.map.crosses, [(3, 8), (4, 7)])
    assert list(g.edge_labels) == ["e2"]
    assert g.flag_labels == fig2.flag_labels


def test_delete_unknown_edge(fig2):
    with pytest.raises(UnknownEdge):
        delete(fig2, "nope")
    with pytest.raises(UnknownEdge, match=r"^no flag labelled 'nope'$"):
        delete_flag(fig2, "nope")


def test_delete_bridge_leaves_bare_vertices():
    g = delete(corpus.bridge(), "e1")
    rep = structure_report(g)
    assert (rep.v, rep.e, rep.f, rep.k, rep.faces) == (2, 0, 0, 2, 2)
    assert g.bare_vertices == 2


def test_cut_fig2(fig2):
    g = cut(fig2, "e1")
    assert g.map.crosses == fig2.map.crosses
    assert g.map.sigma0 == fig2.map.sigma0
    assert g.map.sigma1 == perm_from_cycles(fig2.map.crosses, [(3, 8), (4, 7)])
    assert g.flag_labels["e1.1"] == frozenset({1, 2})
    assert g.flag_labels["e1.2"] == frozenset({5, 6})
    assert "e1" not in g.edge_labels


def test_cut_bridge_gives_two_flagged_points():
    g = cut(corpus.bridge(), "e1")
    expect = disjoint_union(corpus.single_vertex(1), corpus.single_vertex(1))
    assert isomorphic(g, expect)


def test_cut_then_delete_flags_is_delete(fig2):
    # cutting an edge and removing both stubs equals deleting it
    g = delete_flag(delete_flag(cut(fig2, "e2"), "e2.1"), "e2.2")
    assert isomorphic(g, delete(fig2, "e2"))


# --- duality --------------------------------------------------------------------

def test_natural_dual_swaps_vertices_and_faces():
    for g in (corpus.two_cycle(), corpus.dumbbell(), corpus.sunset(),
              corpus.fig_two_vertex(), corpus.banana(3, planar=False)):
        d = natural_dual(g)
        a, b = structure_report(g), structure_report(d)
        assert (a.v, a.faces) == (b.faces, b.v)
        assert a.e == b.e and a.f == b.f and a.k == b.k


def test_dual_of_loop_is_bridge():
    assert isomorphic(natural_dual(corpus.loop_graph()), corpus.bridge())


def test_full_partial_dual_equals_natural_dual(fig2):
    rng = random.Random(85)
    randoms = [corpus.random_rotation_graph(rng) for _ in range(40)]
    assert any(g.flag_labels for g in randoms)
    assert not all(structure_report(g).orientable for g in randoms)
    for g in [fig2, corpus.two_cycle(), corpus.sunset(), corpus.twisted_loop()] + randoms:
        assert partial_dual(g, g.edge_labels) == natural_dual(g)
        assert natural_dual(natural_dual(g)) == g


def test_partial_dual_involution(fig2):
    for g in (fig2, corpus.dumbbell(), corpus.star(3, with_flags=True)):
        for e in g.edge_labels:
            assert partial_dual(partial_dual(g, [e]), [e]) == g
        assert partial_dual(partial_dual(g, g.edge_labels), g.edge_labels) == g


def test_partial_dual_composition_random():
    rng = random.Random(23)
    for _ in range(20):
        g = corpus.random_rotation_graph(rng, max_edges=4)
        edges = list(g.edge_labels)
        s1 = {e for e in edges if rng.random() < 0.5}
        s2 = {e for e in edges if rng.random() < 0.5}
        lhs = partial_dual(partial_dual(g, s1), s2)
        rhs = partial_dual(g, s1 ^ s2)
        assert isomorphic(lhs, rhs)


def test_partial_dual_keeps_labels(fig2):
    d = partial_dual(fig2, ["e1"])
    assert d.edge_labels["e1"] == fig2.edge_labels["e1"]
    assert d.edge_labels["e2"] == fig2.edge_labels["e2"]
    assert d.flag_labels == fig2.flag_labels


def test_partial_dual_two_cycle_is_double_tadpole():
    assert isomorphic(partial_dual(corpus.two_cycle(), ["e1"]),
                      corpus.double_tadpole())


def test_partial_dual_vertex_count_is_subgraph_boundary_count():
    rng = random.Random(31)
    for _ in range(15):
        g = corpus.random_rotation_graph(rng, max_edges=4, max_flags=2)
        edges = list(g.edge_labels)
        sub = {e for e in edges if rng.random() < 0.5}
        expected = face_count(spanning_subgraph(g, sub))
        assert structure_report(partial_dual(g, sub)).v == expected


def test_delete_commutes_with_disjoint_partial_dual(fig2):
    g = fig2
    assert delete(partial_dual(g, ["e1"]), "e2") == partial_dual(delete(g, "e2"), ["e1"])


def test_partial_duality_preserves_orientability():
    rng = random.Random(41)
    for _ in range(15):
        g = corpus.random_rotation_graph(rng, max_edges=4)
        ori = structure_report(g).orientable
        edges = list(g.edge_labels)
        sub = {e for e in edges if rng.random() < 0.5}
        assert structure_report(partial_dual(g, sub)).orientable == ori


# --- contraction -----------------------------------------------------------------

def _direct_contract_nonloop(g, e):
    """Independent contraction: splice the far rotation into the near one."""
    spec = to_rotation_spec(g)
    (lab, p, q, twist), = [t for t in spec.edges if t[0] == e]
    vmap = {vl: list(items) for vl, items in spec.vertices}
    u = next(vl for vl, items in vmap.items() if p in items)
    w = next(vl for vl, items in vmap.items() if q in items)
    assert u != w, "loop edges not handled here"
    qi = vmap[w].index(q)
    rest = vmap[w][qi + 1:] + vmap[w][:qi]      # far rotation, q removed
    if twist:
        rest = list(reversed(rest))
    pi = vmap[u].index(p)
    merged = vmap[u][:pi] + rest + vmap[u][pi + 1:]
    verts = []
    for vl, items in vmap.items():
        if vl == u:
            verts.append((vl, tuple(merged)))
        elif vl != w:
            verts.append((vl, tuple(items)))
    edges = tuple(t for t in spec.edges if t[0] != e)
    return from_rotation_system(RotationSpec(tuple(verts), edges, spec.flags))


def test_contract_matches_direct_merge():
    cases = []
    cases += [(corpus.bridge(1, 2), "e1"), (corpus.dumbbell(), "e1"),
              (corpus.linear_tree3(), "e1"), (corpus.sunset(), "e2"),
              (corpus.triangle(with_flags=True), "e3")]
    rng = random.Random(53)
    while len(cases) < 15:
        g = corpus.random_rotation_graph(rng, max_edges=4, max_flags=2, min_edges=1)
        v_of = {}
        for i, v in enumerate(vertices_of(g)):
            for c in v.crosses:
                v_of[c] = i
        for lab, orb in g.edge_labels.items():
            x = min(orb)
            if v_of[x] != v_of[g.map.sigma1[x]]:
                cases.append((g, lab))
                break
    for g, e in cases:
        assert isomorphic(contract(g, e), _direct_contract_nonloop(g, e))


def test_contract_bridge_is_point():
    g = contract(corpus.bridge(), "e1")
    rep = structure_report(g)
    assert (rep.v, rep.e, rep.f) == (1, 0, 0)
    assert g.bare_vertices == 1


def test_contract_equals_delete_after_dual(fig2):
    for e in ("e1", "e2"):
        assert contract(fig2, e) == delete(partial_dual(fig2, [e]), e)


# --- disjoint union -----------------------------------------------------------------

def test_disjoint_union_counts():
    a, b = corpus.dumbbell(), corpus.sunset()
    u = disjoint_union(a, b)
    ra, rb, ru = structure_report(a), structure_report(b), structure_report(u)
    assert (ru.v, ru.e, ru.f, ru.k) == (ra.v + rb.v, ra.e + rb.e, ra.f + rb.f, ra.k + rb.k)


def test_disjoint_union_label_collision_prefixes():
    a = corpus.two_cycle()
    u = disjoint_union(a, a)
    assert set(u.edge_labels) == {"a:e1", "a:e2", "b:e1", "b:e2"}


def test_disjoint_union_commutes_up_to_iso():
    a, b = corpus.loop_graph(1, 0), corpus.bridge(0, 1)
    assert isomorphic(disjoint_union(a, b), disjoint_union(b, a))


def test_restrict_recovers_the_parts():
    a, b = corpus.loop_graph(1, 0), corpus.twisted_loop()
    u = disjoint_union(disjoint_union(a, b), corpus.single_vertex(0))
    parts = [restrict(u, comp) for comp in cross_components(u)]
    assert [p.bare_vertices for p in parts] == [0, 0]
    assert isomorphic(parts[0], a) and isomorphic(parts[1], b)


# --- surgeries keep the map axioms -------------------------------------------------

def _surgery_outputs(g, rng):
    """The graphs that the unvalidated surgeries build from g."""
    labels = g.sorted_edges()
    subset = [e for e in labels if rng.random() < 0.5]
    yield partial_dual(g, subset)
    yield spanning_subgraph(g, subset)
    for e in labels:
        yield delete(g, e)
        yield cut(g, e)
        yield partial_dual(g, [e])
    for f in sorted(g.flag_labels, key=str):
        yield delete_flag(g, f)
    for comp in cross_components(g):
        yield restrict(g, comp)


def test_surgery_outputs_validate():
    graphs = list(corpus.acceptance_corpus().values())
    rng = random.Random(1717)
    graphs += [corpus.random_rotation_graph(rng, max_edges=4, max_flags=3)
               for _ in range(60)]
    assert any(not structure_report(g).orientable for g in graphs)
    assert any(g.flag_labels for g in graphs)
    for g in graphs:
        for h in _surgery_outputs(g, rng):
            assert validate_map(h.map) == []


# --- rotation-spec export ---------------------------------------------------------

def _cyclic_classes(items: tuple) -> set:
    """Every rotation of the sequence and of its reverse."""
    return {seq[i:] + seq[:i] for seq in (items, items[::-1]) for i in range(len(seq) or 1)}


def test_rotation_round_trip():
    graphs = list(corpus.acceptance_corpus().values())
    rng = random.Random(61)
    graphs += [corpus.random_rotation_graph(rng) for _ in range(20)]
    # Two walked vertices, then two bare ones named after them.
    stubbed = delete_edges(corpus.star(3), ["e1", "e2"])
    assert to_rotation_spec(stubbed).vertices == (
        ("v1", ("e3.1",)), ("v2", ("e3.2",)), ("v3", ()), ("v4", ()))
    graphs.append(stubbed)
    for g in graphs:
        spec = to_rotation_spec(g)
        h = from_rotation_system(spec)
        assert isomorphic(g, h)
        # Cutting e keeps every vertex's items: its half-ribbons become the
        # flags e.1 and e.2, named as the spec names the edge's ends.
        for e in g.edge_labels:
            cut_spec = to_rotation_spec(cut(g, e))
            assert len(cut_spec.vertices) == len(spec.vertices)
            for (name, items), (cut_name, cut_items) in zip(spec.vertices, cut_spec.vertices):
                assert cut_name == name and cut_items in _cyclic_classes(items)
            assert {f"{e}.1", f"{e}.2"} <= set(cut_spec.flags)
            assert e not in [lab for lab, *_ in cut_spec.edges]


# --- class counts --------------------------------------------------------------------

def test_class_counts_two_cycle_pair():
    # acceptance check 8 pins c and d.even, d.oddf, d.cev, d.coddf, d.cevf
    g = corpus.two_cycle()
    c = class_counts(g)
    d = class_counts(partial_dual(g, ["e1"]))
    assert (d.odd, d.evf) == (0, 8)
    assert d.codd != c.codd


def test_class_counts_flagged_point():
    c = class_counts(corpus.single_vertex(1))
    assert (c.odd, c.even, c.oddf, c.evf) == (1, 0, 1, 0)


def test_class_counts_bare_vertex():
    c = class_counts(corpus.single_vertex(0))
    assert (c.odd, c.even, c.oddf, c.evf) == (0, 1, 0, 1)
    assert (c.codd, c.cev) == (0, 2)


def test_class_counts_banana40():
    c = class_counts(corpus.banana(40))
    assert c.odd == c.even == 2 ** 39
    assert c.oddf == c.evf == 2 ** 78
    assert c.coddf == c.cevf == 2 ** 80


def test_half_edge_detached_rejects_bad_input():
    with pytest.raises(ValueError):
        corpus.half_edge_detached(corpus.sunset(), "e1")  # has flags
    with pytest.raises(ValueError):
        corpus.half_edge_detached(corpus.dumbbell(), "nope")
    with pytest.raises(ValueError):
        corpus.half_edge_detached(corpus.dumbbell(), "e1", end=3)
