"""Map axioms, derived structure, rotation systems, canonical forms."""

import random

import pytest

from reference_enumerators import (exhaustive_canonical_form,
                                   exhaustive_cross_serial_form,
                                   reference_cut, reference_delete_edges,
                                   reference_delete_flag, reference_partial_dual)
from rgp import corpus
from rgp.errors import (DanglingHalfEdge, DuplicateId, InvalidArgument, InvalidMap,
                        OddIncidence)
from rgp.gf2 import rank
from rgp.maps import (CombinatorialMap, RotationSpec, _interlace, _orbit,
                      boundary_components, canonical_form, component_count,
                      face_count, from_rotation_system, isomorphic, make_graph,
                      orientation_selection, perm_from_cycles, relabel_crosses,
                      structure_report, validate_map, vertices_of)
from rgp.ops import (cut, delete, delete_edges, delete_flag, partial_dual,
                     spanning_subgraph)
from rgp.qpoly import RSequenceSpec


@pytest.fixture(scope="module")
def fig2():
    return corpus.fig_two_vertex()


# --- validation ---------------------------------------------------------------

def test_fig2_is_valid(fig2):
    assert validate_map(fig2.map) == []


def test_theta_fixed_point_detected():
    dom = range(4)
    m = CombinatorialMap(frozenset(dom),
                         perm_from_cycles(dom, []),
                         perm_from_cycles(dom, [(0, 1)]),   # 2, 3 fixed by theta
                         perm_from_cycles(dom, []))
    bad = validate_map(m)
    assert any(v.axiom == "A.2" and v.witnesses == (2,) for v in bad)


def test_sigma1_equal_theta_detected():
    dom = range(4)
    m = CombinatorialMap(frozenset(dom),
                         perm_from_cycles(dom, []),
                         perm_from_cycles(dom, [(0, 1), (2, 3)]),
                         perm_from_cycles(dom, [(0, 1), (2, 3)]))
    bad = validate_map(m)
    assert any(v.axiom == "A.2" and "theta" in v.message for v in bad)


@pytest.mark.parametrize("n, theta, sigma1, violation", [
    (3, [(0, 1)], [], ("A.1", (), "odd number of crosses")),
    (4, [(0, 1), (2, 3)], [(0, 2, 3)], ("A.1", (0,), "sigma1 is not an involution")),
    (4, [(0, 1), (2, 3)], [(1, 2)], ("A.1", (0,), "theta and sigma1 do not commute")),
], ids=["odd-crosses", "sigma1-not-involution", "theta-sigma1-not-commuting"])
def test_first_axiom_violations_detected(n, theta, sigma1, violation):
    dom = range(n)
    m = CombinatorialMap(frozenset(dom), perm_from_cycles(dom, []),
                         perm_from_cycles(dom, theta), perm_from_cycles(dom, sigma1))
    assert violation in [(v.axiom, v.witnesses, v.message) for v in validate_map(m)]


def test_conjugation_axiom_detected():
    dom = range(4)
    # sigma0 = (0,2) on 'a' crosses only, not inverted on the partner cycle
    m = CombinatorialMap(frozenset(dom),
                         perm_from_cycles(dom, [(0, 2)]),
                         perm_from_cycles(dom, [(0, 1), (2, 3)]),
                         perm_from_cycles(dom, []))
    bad = validate_map(m)
    assert any(v.axiom == "A.3" for v in bad)


def test_shared_orbit_axiom_detected():
    dom = range(4)
    # sigma0 = (0,1)(2,3): each cycle contains a theta pair
    m = CombinatorialMap(frozenset(dom),
                         perm_from_cycles(dom, [(0, 1), (3, 2)]),
                         perm_from_cycles(dom, [(0, 1), (2, 3)]),
                         perm_from_cycles(dom, []))
    bad = validate_map(m)
    assert any(v.axiom in ("A.3", "A.4") for v in bad)


def test_one_vertex_with_many_loops_validates():
    items = tuple(f"h{i}" for i in range(400))
    g = from_rotation_system(RotationSpec(
        vertices=(("v", items),),
        edges=tuple((f"e{i}", f"h{2 * i}", f"h{2 * i + 1}", 0) for i in range(200))))
    assert len(g.map.crosses) == 800
    assert validate_map(g.map) == []


def _a4_test_map(rng, n_pairs):
    """Crosses 0..2n-1 with theta pairing 2i, 2i+1, a sigma1 that commutes
    with theta, and sigma0-cycles that are either self-conjugate (breaking
    A.4) or come as a conjugate pair, so A.1-A.3 hold."""
    def th(x):
        return x ^ 1

    pairs = list(range(n_pairs))
    rng.shuffle(pairs)
    cycles = []
    while pairs:
        k = rng.randint(1, min(3, len(pairs)))
        xs = [2 * i + rng.randint(0, 1) for i in pairs[:k]]
        pairs = pairs[k:]
        back = tuple(th(x) for x in reversed(xs))
        if rng.random() < 0.5:
            cycles.append(tuple(xs) + back)
        else:
            cycles += [tuple(xs), back]
    dom = range(2 * n_pairs)
    s1 = []
    order = list(range(n_pairs))
    rng.shuffle(order)
    for i, j in zip(order[0::2], order[1::2]):
        b = rng.randint(0, 1)
        s1 += [(2 * i, 2 * j + b), (2 * i + 1, 2 * j + 1 - b)]
    theta = perm_from_cycles(dom, [(2 * i, 2 * i + 1) for i in range(n_pairs)])
    return CombinatorialMap(frozenset(dom), perm_from_cycles(dom, cycles), theta,
                            perm_from_cycles(dom, s1))


def test_shared_orbit_witnesses_match_per_cross_orbits():
    rng = random.Random(41)
    broken = 0
    for _ in range(60):
        m = _a4_test_map(rng, rng.randint(1, 12))
        bad = validate_map(m)
        assert all(v.axiom == "A.4" for v in bad)
        expected = [(x, m.theta[x]) for x in sorted(m.crosses)
                    if x in set(_orbit(m.sigma0, m.theta[x]))]
        assert [v.witnesses for v in bad] == expected
        broken += bool(expected)
    assert broken > 20


def test_make_graph_rejects_label_tables_off_the_orbits(fig2):
    # fig2: edges {1,2,5,6} and {3,4,7,8}, flags {9,10} and {11,12}
    e1, e2 = fig2.edge_labels["e1"], fig2.edge_labels["e2"]
    f1, f2 = fig2.flag_labels["f1"], fig2.flag_labels["f2"]
    bad_tables = [
        ({"e1": frozenset({1, 2, 5, 7}), "e2": frozenset({3, 4, 6, 8})},
         {"f1": f1, "f2": f2}),                                   # non-orbit edges
        ({"e1": e1, "e2": e2}, {"f1": frozenset({9, 11}),
                                "f2": frozenset({10, 12})}),      # non-orbit flags
        ({"e1": e1, "e2": e2, "e3": e1}, {"f1": f1, "f2": f2}),   # two labels, one orbit
        ({"e1": e1, "e2": e2}, {"f1": f1, "f2": f2, "f3": f1}),
        ({"e1": e1}, {"f1": f1, "f2": f2}),                       # a missing orbit
        ({"e1": e1, "e2": e2}, {"f1": f1}),
        ({"e1": e1}, {"f1": f1, "f2": f2, "e2": e2}),             # edge orbit as a flag
        ({"e1": e1}, {"f1": f1, "f2": f2, "e2.1": frozenset({3, 4}),
                      "e2.2": frozenset({7, 8})}),
        ({"e1": e1, "e2": e2, "f2": f2}, {"f1": f1}),             # flag orbit as an edge
        ({"e1": e1, "e2": e2, "f": f1 | f2}, {}),
    ]
    for edges, flags in bad_tables:
        with pytest.raises(InvalidMap):
            make_graph(fig2.map, edges, flags)
    g = make_graph(fig2.map, {"a": e2, "b": e1}, {"c": f2, "d": f1})
    assert (g.edge_labels, g.flag_labels) == ({"a": e2, "b": e1}, {"c": f2, "d": f1})


def test_domain_mismatch_detected():
    m = CombinatorialMap(frozenset(range(4)),
                         perm_from_cycles(range(4), []),
                         perm_from_cycles(range(4), [(0, 1), (2, 3)]),
                         perm_from_cycles(range(2), []))
    assert any(v.axiom == "domain" for v in validate_map(m))


def test_non_bijection_is_a_domain_violation(fig2):
    s1 = dict(fig2.map.sigma1)
    s1[1] = s1[2]    # sigma1 sends 1 and 2 to cross 6, and nothing to 5
    m = CombinatorialMap(fig2.map.crosses, fig2.map.sigma0, fig2.map.theta, s1)
    bad = validate_map(m)
    assert [v.axiom for v in bad] == ["domain"] and "sigma1" in bad[0].message
    with pytest.raises(InvalidMap, match="domain"):
        make_graph(m)


def test_perm_from_cycles_rejects_bad_cycles():
    assert perm_from_cycles(range(4), [(0, 2, 1)]) == {0: 2, 1: 0, 2: 1, 3: 3}
    assert perm_from_cycles(range(4), [()]) == {x: x for x in range(4)}
    with pytest.raises(InvalidMap, match="outside domain"):
        perm_from_cycles(range(4), [(0, 4)])
    with pytest.raises(InvalidMap, match="two cycles"):
        perm_from_cycles(range(4), [(0, 1), (1, 2)])


# --- derived structure -------------------------------------------------------

def test_fig2_structure(fig2):
    rep = structure_report(fig2)
    assert rep == structure_report(fig2)
    assert (rep.v, rep.e, rep.f, rep.k, rep.faces, rep.euler_genus, rep.orientable) \
        == (2, 2, 2, 1, 1, 1, False)


def test_fig2_vertices(fig2):
    vs = vertices_of(fig2)
    assert [v.crosses for v in vs] == [frozenset({1, 2, 3, 4}),
                                       frozenset(range(5, 13))]
    # conjugate cycle pairs: partner = reversed cycle pushed through theta
    for v in vs:
        th = fig2.map.theta
        rev = (v.cycle[0],) + tuple(reversed(v.cycle[1:]))
        assert set(v.partner) == {th[x] for x in v.cycle}


def test_conjugacy_property_random():
    rng = random.Random(7)
    for _ in range(25):
        g = corpus.random_rotation_graph(rng, max_edges=4, max_flags=3)
        th = g.map.theta
        for v in vertices_of(g):
            n = len(v.cycle)
            conj = tuple(th[v.cycle[-i]] for i in range(n))
            # same cyclic word
            doubled = v.partner + v.partner
            assert any(doubled[i:i + n] == conj for i in range(n))


def test_single_flag_map():
    g = corpus.single_vertex(1)
    rep = structure_report(g)
    assert (rep.v, rep.e, rep.f, rep.faces, rep.k) == (1, 0, 1, 1, 1)


def test_bare_vertex():
    g = corpus.single_vertex(0)
    rep = structure_report(g)
    assert (rep.v, rep.e, rep.f, rep.faces, rep.k, rep.euler_genus) == (1, 0, 0, 1, 1, 0)


def test_counts_relation_random():
    # |crosses| = 4e + 2f on every random graph
    rng = random.Random(11)
    for _ in range(30):
        g = corpus.random_rotation_graph(rng)
        rep = structure_report(g)
        assert len(g.map.crosses) == 4 * rep.e + 2 * rep.f


def test_face_count_is_dual_vertex_count(fig2):
    from rgp.ops import natural_dual
    rng = random.Random(135)
    randoms = [corpus.random_rotation_graph(rng) for _ in range(40)]
    assert any(g.flag_labels for g in randoms)
    assert not all(structure_report(g).orientable for g in randoms)
    for g in [fig2, corpus.two_cycle(), corpus.dumbbell(), corpus.sunset()] + randoms:
        dual = natural_dual(g)
        assert face_count(g) == structure_report(dual).v
        assert face_count(dual) == structure_report(g).v


def test_interlace_rank_counts_faces():
    # for every A, with X = A ^ T: faces of the spanning subgraph on A =
    # vertices of G^A = base + |X| - rank M[X]
    rng = random.Random(31)
    kinds = set()
    for _ in range(200):
        g = corpus.random_rotation_graph(rng, max_edges=5, max_flags=3)
        rows, tree_mask, base = _interlace(g)
        edges = g.sorted_edges()
        for amask in range(1 << len(edges)):
            x = amask ^ tree_mask
            faces = base + x.bit_count() - rank(
                rows[i] & x for i in range(len(edges)) if x >> i & 1)
            keep = [lab for i, lab in enumerate(edges) if amask >> i & 1]
            assert face_count(spanning_subgraph(g, keep)) == faces
            h = partial_dual(g, keep)
            assert len(vertices_of(h)) + h.bare_vertices == faces
        rep = structure_report(g)
        kinds.update(kind for kind, seen in (
            ("disconnected", rep.k > 1), ("flagged", rep.f > 0),
            ("non-orientable", not rep.orientable),
            ("bare vertex", g.bare_vertices > 0)) if seen)
    assert kinds == {"disconnected", "flagged", "non-orientable", "bare vertex"}


# --- rotation systems ----------------------------------------------------------

def test_loop_with_two_flag_faces():
    g = corpus.loop_graph(1, 1)
    rep = structure_report(g)
    assert (rep.v, rep.e, rep.f, rep.faces) == (1, 1, 2, 2)


def test_rotation_errors():
    with pytest.raises(DuplicateId):
        from_rotation_system(RotationSpec(
            vertices=(("u", ("h1", "h1")),), edges=()))
    with pytest.raises(DanglingHalfEdge):
        from_rotation_system(RotationSpec(
            vertices=(("u", ("h1",)),),
            edges=(("e1", "h1", "h2", 0),)))
    with pytest.raises(OddIncidence):
        from_rotation_system(RotationSpec(
            vertices=(("u", ("h1",)),),
            edges=(("e1", "h1", "h1", 0),)))
    with pytest.raises(DuplicateId):
        from_rotation_system(RotationSpec(
            vertices=(("u", ("h1", "h2", "h3")),),
            edges=(("e1", "h1", "h2", 0), ("e2", "h2", "h3", 0))))
    with pytest.raises(DuplicateId):
        from_rotation_system(RotationSpec(
            vertices=(("v", ("a",)),), edges=(), flags=("a", "a")))
    with pytest.raises(InvalidArgument):
        from_rotation_system(RotationSpec(
            vertices=(("u", ("h1", "h2")),),
            edges=(("e1", "h1", "h2", 2),)))


def test_graphs_and_maps_hash_like_equality():
    table = {corpus.two_cycle(): "two-cycle"}
    assert table[corpus.two_cycle()] == "two-cycle"
    assert len({corpus.two_cycle().map, corpus.two_cycle().map}) == 1
    for g in (corpus.two_cycle(), corpus.dumbbell(), corpus.sunset()):
        twice = partial_dual(partial_dual(g, ["e1"]), ["e1"])
        assert twice == g and twice in {g}


def test_untwisted_rotations_are_orientable():
    rng = random.Random(3)
    for _ in range(30):
        g = corpus.random_rotation_graph(rng, orientable=True)
        assert orientation_selection(g).orientable


def test_twisted_loop_not_orientable():
    assert not orientation_selection(corpus.twisted_loop()).orientable


def test_random_rotation_graphs_validate():
    rng = random.Random(5)
    for _ in range(40):
        g = corpus.random_rotation_graph(rng)
        assert validate_map(g.map) == []


# --- canonical form -------------------------------------------------------------

def _random_bijection(rng, crosses):
    xs = sorted(crosses)
    ys = xs[:]
    rng.shuffle(ys)
    # move to a fresh integer range half the time
    if rng.random() < 0.5:
        off = rng.randint(100, 200)
        ys = [y + off for y in ys]
    return dict(zip(xs, ys))


def test_canonical_form_relabel_invariance():
    rng = random.Random(13)
    graphs = [corpus.fig_two_vertex(), corpus.two_cycle(), corpus.sunset(),
              corpus.dumbbell(), corpus.twisted_loop(), corpus.star(3, with_flags=True)]
    for g in graphs:
        key = canonical_form(g).key
        for _ in range(25):
            h = relabel_crosses(g, _random_bijection(rng, g.map.crosses))
            assert canonical_form(h).key == key
    for g in _canonical_sweep():
        h = relabel_crosses(g, _random_bijection(rng, g.map.crosses))
        assert canonical_form(h).key == canonical_form(g).key


def _canonical_sweep():
    """The corpus, 240 seeded random maps, and a partial dual and a
    one-edge deletion of each random map that has edges."""
    rng = random.Random(4)
    randoms = [corpus.random_rotation_graph(rng, max_edges=6, max_flags=4)
               for _ in range(240)]
    derived = []
    for g in randoms:
        edges = g.sorted_edges()
        if edges:
            derived.append(partial_dual(g, [e for e in edges if rng.random() < 0.5]))
            derived.append(delete(g, rng.choice(edges)))
    return list(corpus.acceptance_corpus().values()) + randoms + derived


def test_canonical_form_matches_exhaustive():
    graphs = _canonical_sweep()
    assert any(component_count(g) > 1 for g in graphs)
    assert any(g.flag_labels for g in graphs)
    assert not all(structure_report(g).orientable for g in graphs)
    for g in graphs:
        got, want = canonical_form(g), exhaustive_canonical_form(g)
        assert got.key == want.key
        assert list(got.edge_slots.items()) == list(want.edge_slots.items())


@pytest.mark.parametrize("rule", [RSequenceSpec.even_two_odd_zero(),
                                  RSequenceSpec.delta_one(),
                                  RSequenceSpec.constant(3)], ids=lambda r: r.rule)
def test_rule_folded_canonical_form_matches_exhaustive(rule):
    # the key under a weight rule's corner fold, against the full serial
    # search under the same fold, and under relabelled crosses
    rng = random.Random(31)
    graphs = _canonical_sweep()
    # the fold merges some classes of the sweep
    assert (len({canonical_form(g, rule.fold).key for g in graphs})
            < len({canonical_form(g).key for g in graphs}))
    for g in graphs:
        got, want = canonical_form(g, rule.fold), exhaustive_canonical_form(g, rule.fold)
        assert got.key == want.key
        assert list(got.edge_slots.items()) == list(want.edge_slots.items())
        h = relabel_crosses(g, _random_bijection(rng, g.map.crosses))
        assert canonical_form(h, rule.fold).key == got.key


def test_symbolic_fold_keeps_the_canonical_form():
    # the symbolic rule sees every count: its fold changes no byte
    fold = RSequenceSpec.symbolic().fold
    for g in _canonical_sweep():
        assert canonical_form(g, fold) == canonical_form(g)


def test_folded_key_classes_are_the_cross_serial_classes():
    # folding the flags into corner counts loses no isomorphism class
    pairs = {(canonical_form(g).key, exhaustive_cross_serial_form(g).key)
             for g in _canonical_sweep()}
    folded = {k for k, _ in pairs}
    assert len(folded) == len({k for _, k in pairs}) == len(pairs)
    assert len(pairs) < len(_canonical_sweep())


def _surgery(h):
    m = h.map
    return (m.sigma0, m.theta, m.sigma1,
            list(h.edge_labels.items()), list(h.flag_labels.items()),
            h.bare_vertices)


def test_surgeries_match_reference():
    rng = random.Random(23)
    cases = 0
    for g in _canonical_sweep():
        edges = g.sorted_edges()
        some = [e for e in edges if rng.random() < 0.5]
        assert _surgery(partial_dual(g, some)) == reference_partial_dual(g, some)
        assert _surgery(delete_edges(g, some)) == reference_delete_edges(g, some)
        for e in edges:
            assert _surgery(delete(g, e)) == reference_delete_edges(g, [e])
            assert _surgery(cut(g, e)) == reference_cut(g, e)
            assert _surgery(partial_dual(g, [e])) == reference_partial_dual(g, [e])
        for f in g.flag_labels:
            assert _surgery(delete_flag(g, f)) == reference_delete_flag(g, f)
        cases += 1 + 3 * len(edges) + len(g.flag_labels)
    assert cases > 5000


def test_canonical_form_distinguishes_twist():
    flat = corpus.two_cycle()
    twisted = from_rotation_system(RotationSpec(
        vertices=(("u", ("a1", "a2")), ("v", ("b2", "b1"))),
        edges=(("e1", "a1", "b1", 1), ("e2", "a2", "b2", 0)),
    ))
    assert canonical_form(flat).key != canonical_form(twisted).key
    assert not isomorphic(flat, twisted)


def test_canonical_slots_cover_edges(fig2):
    cf = canonical_form(fig2)
    assert sorted(cf.edge_slots.values()) == [0, 1]


def test_isomorphic_ignores_labels():
    g = corpus.two_cycle()
    h = make_graph(g.map, {"left": g.edge_labels["e1"], "right": g.edge_labels["e2"]},
                   dict(g.flag_labels))
    assert isomorphic(g, h)


# --- boundary components ---------------------------------------------------------

def test_boundary_component_count_examples():
    assert len(boundary_components(corpus.two_cycle())) == 2
    assert len(boundary_components(corpus.banana(3))) == 3
    assert len(boundary_components(corpus.banana(3, planar=False))) == 1
    assert len(boundary_components(corpus.dumbbell())) == 3
    assert len(boundary_components(corpus.twisted_loop())) == 1
