import random
from itertools import combinations

import pytest

from rgp.corpus import (
    acceptance_corpus,
    banana,
    bridge,
    broken_cycle3,
    cycle_graph,
    double_tadpole,
    dumbbell,
    fig_two_vertex,
    linear_tree3,
    loop_graph,
    path_tree,
    random_rotation_graph,
    single_vertex,
    star,
    sunset,
    triangle,
    twisted_loop,
    two_cycle,
)
from rgp.errors import (
    HasFlags,
    NoFlags,
    NotACycle,
    NotATree,
    NotConnected,
    NotOrientable,
    SelfCheckFailed,
    TooLarge,
    UnknownMethod,
)
from rgp import hyperbolic
from rgp.hyperbolic import (
    hu,
    hu_commutative_limit,
    hu_critical,
    hu_cycle,
    hu_partial_dual_transform,
    hu_tree,
    hu_via_critical_algorithm,
    hv,
    symanzik_commutative_limit,
    symanzik_dual_check,
    symanzik_u,
)
from rgp.maps import RotationSpec, from_rotation_system, structure_report
from rgp.ops import (cut, delete, delete_flag, disjoint_union, partial_dual,
                     to_rotation_spec)
from rgp.poly import MultiPoly, parse

from reference_enumerators import spanning_tree_cotree_sum


def T(lab) -> MultiPoly:
    return MultiPoly.variable("T", lab)


def O(lab) -> MultiPoly:
    return MultiPoly.variable("OMEGA", lab)


def C(n) -> MultiPoly:
    return MultiPoly.const(n)


def one_plus_t2(lab) -> MultiPoly:
    return C(1) + T(lab) ** 2


def at_omega_one(p: MultiPoly) -> MultiPoly:
    return p.substitute({v: 1 for v in p.variables() if v.kind == "OMEGA"})


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_flagged_point_values():
    assert hu(single_vertex(0)) == MultiPoly.zero()
    assert hu(single_vertex(1)) == C(2)
    assert hu(single_vertex(2)) == MultiPoly.zero()
    assert hu(single_vertex(3)) == C(2)


def test_bridge_family():
    for m in range(3):
        for n in range(3):
            got = hu(bridge(m, n))
            if m % 2 == 0 and n % 2 == 0:
                assert got == parse("4*t_e1*O_e1^2"), (m, n)
            elif m % 2 == 1 and n % 2 == 1:
                assert got == parse("4*t_e1"), (m, n)
            else:
                assert got == parse("2*O_e1 + 2*O_e1*t_e1^2"), (m, n)


def test_loop_family():
    for m in range(3):
        for n in range(3):
            got = hu(loop_graph(m, n))
            if m % 2 == 0 and n % 2 == 0:
                assert got == parse("4*O_e1*t_e1^2"), (m, n)
            elif m % 2 == 1 and n % 2 == 1:
                assert got == parse("4*O_e1"), (m, n)
            else:
                assert got == parse("2*t_e1 + 2*t_e1*O_e1^2"), (m, n)


def test_twisted_loop_vanishes():
    assert hu(twisted_loop()) == MultiPoly.zero()


def test_two_cycle():
    expected = (C(4) * O("e1") * O("e2") * (T("e1") ** 2 + T("e2") ** 2)
                + C(4) * (O("e1") ** 2 + O("e2") ** 2) * T("e1") * T("e2"))
    assert hu(two_cycle()) == expected


def test_double_tadpole():
    expected = (C(4) * (O("e1") ** 2 + T("e2") ** 2) * T("e1") * O("e2")
                + C(4) * (T("e1") ** 2 + O("e2") ** 2) * O("e1") * T("e2"))
    assert hu(double_tadpole()) == expected


def _banana3_planar_expected() -> MultiPoly:
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    out = C(4) * t1 * t2 * t3 * (o1 ** 2 + o2 ** 2 + o3 ** 2 + (o1 * o2 * o3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        out = out + C(4) * ti * oj * ok * (tj ** 2 + tk ** 2) * (C(1) + oi ** 2)
    return out


def test_banana3_planar():
    assert hu(banana(3)) == _banana3_planar_expected()


def test_banana3_nonplanar():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(4) * t1 * t2 * t3 * (o1 ** 2 + o2 ** 2 + o3 ** 2 + (o1 * o2 * o3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(4) * oj * ok * ti * (
            tj ** 2 + tk ** 2 + oi ** 2 + oi ** 2 * tj ** 2 * tk ** 2)
    got = hu(banana(3, planar=False))
    assert got == expected
    assert got != hu(banana(3))


def test_path2():
    expected = (C(4) * O("e1") ** 2 * O("e2") * T("e1") * one_plus_t2("e2")
                + C(4) * O("e1") * O("e2") ** 2 * T("e2") * one_plus_t2("e1"))
    assert hu(path_tree(2)) == expected


def test_linear_tree3():
    # e1 is the middle edge
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = (C(16) * t1 * t2 * o2 ** 2 * t3 * o3 ** 2
                + C(4) * t1 * o1 ** 2 * o2 * one_plus_t2("e2") * o3 * one_plus_t2("e3")
                + C(4) * t2 * o2 ** 2 * o1 * one_plus_t2("e1") * o3 * one_plus_t2("e3")
                + C(4) * t3 * o3 ** 2 * o1 * one_plus_t2("e1") * o2 * one_plus_t2("e2"))
    assert hu(linear_tree3()) == expected


def test_dumbbell():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = (C(16) * t1 * o2 * t2 ** 2 * o3 * t3 ** 2
                + C(4) * t1 * o1 ** 2 * t2 * (C(1) + o2 ** 2) * t3 * (C(1) + o3 ** 2)
                + C(4) * o2 * t2 ** 2 * o1 * one_plus_t2("e1") * t3 * (C(1) + o3 ** 2)
                + C(4) * o3 * t3 ** 2 * o1 * one_plus_t2("e1") * t2 * (C(1) + o2 ** 2))
    assert hu(dumbbell()) == expected


def test_triangle():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(4) * o1 * o2 * o3 * (t1 ** 2 + t2 ** 2 + t3 ** 2 + (t1 * t2 * t3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(4) * oi * one_plus_t2_of(ti) * tj * tk * (oj ** 2 + ok ** 2)
    assert hu(triangle()) == expected


def one_plus_t2_of(t: MultiPoly) -> MultiPoly:
    return C(1) + t * t


def test_triangle_with_flags():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(8) * t1 * t2 * t3 * (C(1) + (o1 * o2 * o3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + (C(2) * ti * (C(1) + oi ** 2)
                               * oj * one_plus_t2_of(tj) * ok * one_plus_t2_of(tk))
    assert hu(triangle(with_flags=True)) == expected


def test_broken_cycle3():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(4) * o1 * o2 * o3 * (
        C(1) + (t1 * t2) ** 2 + (t1 * t3) ** 2 + (t2 * t3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(4) * oi * tj * tk * one_plus_t2_of(ti) * (oj ** 2 + ok ** 2)
    assert hu(broken_cycle3()) == expected


def test_sunset():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(4) * t1 * t2 * t3 * (
        C(1) + (o1 * o2) ** 2 + (o1 * o3) ** 2 + (o2 * o3) ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(4) * ti * (tj ** 2 + tk ** 2) * oj * ok * (C(1) + oi ** 2)
    assert hu(sunset()) == expected


def _star_expected(n: int) -> MultiPoly:
    labels = [f"e{i + 1}" for i in range(n)]
    total = MultiPoly.zero()
    for amask in range(1 << n):
        in_a = [bool(amask >> i & 1) for i in range(n)]
        if (n - sum(in_a)) % 2 == 0:
            continue
        term = C(2 ** (n - sum(in_a) + 1))
        for i, lab in enumerate(labels):
            if in_a[i]:
                term = term * O(lab) * one_plus_t2(lab)
            else:
                term = term * O(lab) ** 2 * T(lab)
        total = total + term
    return total


def test_star_closed_form():
    assert hu(star(3)) == _star_expected(3)
    assert hu(star(4)) == _star_expected(4)


def test_star3_with_flags():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = (C(2) * o1 * o2 * o3
                * one_plus_t2_of(t1) * one_plus_t2_of(t2) * one_plus_t2_of(t3))
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(8) * oi * one_plus_t2_of(ti) * tj * tk
    assert hu(star(3, with_flags=True)) == expected


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_expansion_matches_reduction():
    rng = random.Random(314)
    for _ in range(25):
        g = random_rotation_graph(rng, max_edges=3, max_flags=3)
        assert hu(g, method="expansion") == hu(g)


def test_four_term_reduction():
    for g in (two_cycle(), dumbbell(), triangle(with_flags=True),
              fig_two_vertex(), loop_graph(1, 1)):
        full = hu(g)
        for e in g.sorted_edges():
            pd = partial_dual(g, [e])
            rhs = (T(e) * hu(delete(g, e))
                   + O(e) * hu(delete(pd, e))
                   + O(e) * T(e) ** 2 * hu(cut(pd, e))
                   + T(e) * O(e) ** 2 * hu(cut(g, e)))
            assert rhs == full, e


def test_multiplicative_over_components():
    u = disjoint_union(bridge(1, 0), loop_graph(0, 1))

    def tagged(p: MultiPoly, tag: str) -> MultiPoly:
        return p.substitute({v: MultiPoly.variable(v.kind, f"{tag}:{v.label}")
                             for v in p.variables()})

    assert hu(u) == (tagged(hu(bridge(1, 0)), "a")
                     * tagged(hu(loop_graph(0, 1)), "b"))


def test_duality_transform():
    for g in (two_cycle(), bridge(1, 1), triangle(), fig_two_vertex(),
              banana(3, planar=False)):
        p = hu(g)
        for e in g.sorted_edges():
            assert hu(partial_dual(g, [e])) == hu_partial_dual_transform(p, [e])
    rng = random.Random(27)
    for _ in range(10):
        g = random_rotation_graph(rng, max_edges=3, max_flags=2)
        subset = [e for e in g.sorted_edges() if rng.random() < 0.5]
        assert hu(partial_dual(g, subset)) == hu_partial_dual_transform(hu(g), subset)


def test_bridge_dualizes_to_flagged_loop():
    # the single-edge dual of the doubly flagged bridge is the loop with one
    # flag in each face, and the polynomials swap accordingly
    g = partial_dual(bridge(1, 1), ["e1"])
    assert hu(g) == hu_partial_dual_transform(hu(bridge(1, 1)), ["e1"])
    assert hu(bridge(1, 1)) == parse("4*t_e1")
    assert hu(g) == parse("4*O_e1")


def test_positivity():
    rng = random.Random(88)
    graphs = [two_cycle(), dumbbell(), fig_two_vertex(), sunset()]
    graphs += [random_rotation_graph(rng, max_edges=3, max_flags=3) for _ in range(20)]
    for g in graphs:
        assert all(c > 0 for c in hu(g).terms.values())


# ---------------------------------------------------------------------------
# trees and cycles
# ---------------------------------------------------------------------------

def test_hu_tree_agrees():
    cases = [bridge(0, 0), bridge(1, 2), path_tree(2), path_tree(3),
             path_tree(2, flags_at={1: 1, 3: 2}), linear_tree3(),
             star(3), star(4), star(3, with_flags=True), single_vertex(2)]
    for g in cases:
        assert hu_tree(g) == hu(g)


def test_hu_tree_rejects():
    for g in (two_cycle(), loop_graph(0, 0), dumbbell(),
              disjoint_union(bridge(0, 0), bridge(0, 0))):
        with pytest.raises(NotATree):
            hu_tree(g)


def test_hu_cycle_agrees():
    cases = [loop_graph(m, n) for m in range(2) for n in range(2)]
    cases += [two_cycle(), cycle_graph(3), cycle_graph(4), cycle_graph(5), triangle(),
              triangle(with_flags=True), broken_cycle3(),
              cycle_graph(3, flag_plan={1: (2, 0), 2: (0, 1)}),
              cycle_graph(5, flag_plan={1: (1, 0), 3: (1, 1), 4: (0, 1)})]
    for g in cases:
        assert hu_cycle(g) == hu(g)


def test_hu_cycle_rejects():
    for g in (twisted_loop(), bridge(0, 0), dumbbell(), banana(3),
              path_tree(2)):
        with pytest.raises(NotACycle):
            hu_cycle(g)


# ---------------------------------------------------------------------------
# the critical point
# ---------------------------------------------------------------------------

def test_critical_dumbbell():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    expected = C(8) * t2 * t3 * (
        C(2) * t1 * (C(1) + t2 * t3) + one_plus_t2_of(t1) * (t2 + t3))
    assert hu_critical(dumbbell()) == expected


def test_critical_triangle_with_flags():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    expected = (C(4) * (t1 + t2 + t3 + t1 * t2 * t3)
                * (C(1) + t1 * t2 + t1 * t3 + t2 * t3))
    assert hu_critical(triangle(with_flags=True)) == expected


def test_critical_banana3_nonplanar():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    expected = (C(4) * (t1 + t2 + t3 + t1 * t2 * t3)
                * (C(1) + t1 * t2 + t1 * t3 + t2 * t3))
    assert hu_critical(banana(3, planar=False)) == expected


def test_critical_equals_omega_one_orientable():
    cases = [bridge(1, 1), loop_graph(2, 1), two_cycle(), banana(3),
             banana(3, planar=False), dumbbell(), sunset(), star(3),
             triangle(with_flags=True), single_vertex(1), single_vertex(0)]
    rng = random.Random(555)
    cases += [random_rotation_graph(rng, max_edges=4, max_flags=2, orientable=True)
              for _ in range(20)]
    for g in cases:
        assert hu_critical(g) == at_omega_one(hu(g))


def test_critical_fails_nonorientable():
    g = twisted_loop()
    assert hu(g) == MultiPoly.zero()
    assert hu_critical(g) == parse("4*t_e1")   # the face product does not vanish


def test_reconstruction_from_critical():
    cases = [bridge(2, 1), loop_graph(1, 1), two_cycle(), banana(3),
             banana(3, planar=False), dumbbell(), sunset(),
             triangle(with_flags=True), star(3, with_flags=True)]
    rng = random.Random(777)
    cases += [random_rotation_graph(rng, max_edges=4, max_flags=2, orientable=True)
              for _ in range(10)]
    for g in cases:
        assert hu_via_critical_algorithm(g) == hu(g)


def test_reconstruction_rejects_nonorientable():
    for g in (twisted_loop(), fig_two_vertex()):
        with pytest.raises(NotOrientable):
            hu_via_critical_algorithm(g)


def test_reconstruction_self_check_raises(monkeypatch):
    # a typed error, not an assert, so it also fires under python -O
    real = hyperbolic.hu_critical
    monkeypatch.setattr(hyperbolic, "hu_critical", lambda g: real(g) + C(1))
    with pytest.raises(SelfCheckFailed):
        hu_via_critical_algorithm(two_cycle())


def test_unknown_method_is_typed():
    g = two_cycle()
    with pytest.raises(UnknownMethod):
        hu(g, method="nope")
    with pytest.raises(UnknownMethod):
        hu_commutative_limit(g, method="nope")
    with pytest.raises(UnknownMethod):
        symanzik_u(g, method="nope")


# ---------------------------------------------------------------------------
# the quadratic form
# ---------------------------------------------------------------------------

def test_hv_needs_flags():
    with pytest.raises(NoFlags):
        hv(two_cycle())


def test_hv_bridge():
    form = hv(bridge(1, 1))
    assert form.flags == ("u1", "v1")
    expected_diag = parse("2*O_e1 + 2*O_e1*t_e1^2")
    assert form.diag["u1"] == expected_diag
    assert form.diag["v1"] == expected_diag
    assert form.sym[("u1", "v1")] == parse("4*O_e1*t_e1^2 - 4*O_e1")
    assert form.antisym[("u1", "v1")] == MultiPoly.zero()


def test_hv_flagged_loop():
    # single-edge dual of the flagged bridge: one flag in each face
    form = hv(loop_graph(1, 1))
    expected_diag = parse("2*t_e1 + 2*t_e1*O_e1^2")
    assert form.diag["p1"] == expected_diag
    assert form.diag["q1"] == expected_diag
    assert form.sym[("p1", "q1")] == parse("4*t_e1*O_e1^2 - 4*t_e1")
    assert form.antisym[("p1", "q1")] == MultiPoly.zero()


def _sunset_expected_parts():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    diag = (C(8) * o1 * o2 * o3 * (t2 ** 2 + (t1 * t3) ** 2)
            + C(2) * o1 * t2 * t3 * one_plus_t2_of(t1) * (C(1) + o2 ** 2) * (C(1) + o3 ** 2)
            + C(2) * o2 * t1 * t3 * one_plus_t2_of(t2) * (C(1) + o1 ** 2) * (C(1) + o3 ** 2)
            + C(2) * o3 * t1 * t2 * one_plus_t2_of(t3) * (C(1) + o1 ** 2) * (C(1) + o2 ** 2))
    sym = (C(16) * o1 * o2 * o3 * ((t1 * t3) ** 2 - t2 ** 2)
           + C(4) * o1 * (C(1) + o2 ** 2) * (C(1) + o3 ** 2) * t2 * t3 * (t1 ** 2 - C(1))
           + C(4) * o2 * (C(1) + o1 ** 2) * (C(1) + o3 ** 2) * t1 * t3 * (t2 ** 2 - C(1))
           + C(4) * o3 * (C(1) + o1 ** 2) * (C(1) + o2 ** 2) * t1 * t2 * (t3 ** 2 - C(1)))
    # the off-diagonal parts are the full pair coefficients, i.e. twice the
    # half-coefficients entering the Dodgson identity
    anti = (C(8) * (C(1) + o1 ** 2) * o2 * o3 * t1 * (t3 ** 2 - t2 ** 2)
            + C(8) * (C(1) + o2 ** 2) * o1 * o3 * t2 * (t3 ** 2 - t1 ** 2)
            + C(8) * (C(1) + o3 ** 2) * o1 * o2 * t3 * (t2 ** 2 - t1 ** 2))
    return diag, sym, anti


def test_hv_sunset():
    form = hv(sunset())
    diag, sym, anti = _sunset_expected_parts()
    assert form.flags == ("s1", "s2")
    assert form.diag["s1"] == diag
    assert form.diag["s2"] == diag
    assert form.sym[("s1", "s2")] == sym
    assert form.antisym[("s1", "s2")] in (anti, MultiPoly.zero() - anti)


def test_hv_star3():
    form = hv(star(3, with_flags=True))
    t = {i: T(f"e{i}") for i in (1, 2, 3)}
    o = {i: O(f"e{i}") for i in (1, 2, 3)}

    def expected_diag(i, j, k):
        return (C(16) * t[1] * t[2] * t[3] * o[i] ** 2
                + C(4) * o[i] ** 2 * t[i] * o[j] * o[k]
                * one_plus_t2_of(t[j]) * one_plus_t2_of(t[k])
                + C(4) * o[j] * o[i] * t[k] * one_plus_t2_of(t[j]) * one_plus_t2_of(t[i])
                + C(4) * o[k] * o[i] * t[j] * one_plus_t2_of(t[k]) * one_plus_t2_of(t[i]))

    assert form.diag["f1"] == expected_diag(1, 2, 3)
    assert form.diag["f2"] == expected_diag(2, 3, 1)
    assert form.diag["f3"] == expected_diag(3, 1, 2)

    def expected_sym(i, j, k):
        return C(8) * (C(1) - t[i] ** 2) * (t[j] ** 2 - C(1)) * o[i] * o[j] * t[k]

    assert form.sym[("f1", "f2")] == expected_sym(1, 2, 3)
    assert form.sym[("f2", "f3")] == expected_sym(2, 3, 1)
    assert form.sym[("f1", "f3")] == expected_sym(3, 1, 2)

    def expected_anti(i, j, k):
        return (C(4) * (C(1) - t[i] ** 2) * (C(1) - t[j] ** 2)
                * (C(1) + t[k] ** 2) * o[1] * o[2] * o[3])

    a12, a23, a13 = (form.antisym[("f1", "f2")], form.antisym[("f2", "f3")],
                     form.antisym[("f1", "f3")])
    zero = MultiPoly.zero()
    for sign in (1, -1):
        flip = (lambda p: p) if sign == 1 else (lambda p: zero - p)
        if a12 == flip(expected_anti(1, 2, 3)):
            assert a23 == flip(expected_anti(2, 3, 1))
            # the (1,3) slot stores the reverse of the cyclic (3,1) entry
            assert a13 == flip(zero - expected_anti(3, 1, 2))
            break
    else:
        raise AssertionError("antisymmetric part matches neither global sign")


def test_hv_duality_covariance():
    # diag and sym transported through a partial dual; antisym up to one sign
    for g, edges in ((bridge(1, 1), ["e1"]), (sunset(), ["e2"]),
                     (sunset(), ["e1", "e3"])):
        a = hv(partial_dual(g, edges))
        b = hv(g)
        zero = MultiPoly.zero()
        swaps = {}
        for i in b.flags:
            swaps[i] = hu_partial_dual_transform(b.diag[i], edges)
        assert {i: a.diag[i] for i in a.flags} == swaps
        for key, val in b.sym.items():
            assert a.sym[key] == hu_partial_dual_transform(val, edges)
        for key, val in b.antisym.items():
            want = hu_partial_dual_transform(val, edges)
            assert a.antisym[key] in (want, zero - want)


def test_dodgson_sunset():
    form = hv(sunset())
    d1, d2 = form.diag["s1"], form.diag["s2"]
    s = form.sym[("s1", "s2")]
    a = form.antisym[("s1", "s2")]
    bare = delete_flag(delete_flag(sunset(), "s1"), "s2")
    lhs = C(4) * d1 * d2 - s * s + a * a
    assert lhs == C(4) * hu(sunset()) * hu(bare)


def test_dodgson_other_pairs():
    for g in (fig_two_vertex(), bridge(1, 1), loop_graph(1, 1)):
        form = hv(g)
        for i, j in combinations(form.flags, 2):
            lhs = (C(4) * form.diag[i] * form.diag[j]
                   - form.sym[(i, j)] ** 2 + form.antisym[(i, j)] ** 2)
            bare = delete_flag(delete_flag(g, i), j)
            assert lhs == C(4) * hu(g) * hu(bare), (i, j)


# ---------------------------------------------------------------------------
# heat-kernel limit
# ---------------------------------------------------------------------------

def A(lab) -> MultiPoly:
    return MultiPoly.variable("ALPHA", lab)


def B() -> MultiPoly:
    return MultiPoly.variable("BETA")


def test_symanzik_errors():
    with pytest.raises(HasFlags):
        symanzik_u(bridge(1, 0))
    with pytest.raises(NotConnected):
        symanzik_u(disjoint_union(bridge(0, 0), loop_graph(0, 0)))
    for method in ("rank", "faces"):
        with pytest.raises(TooLarge):
            symanzik_u(banana(3), method=method, max_edges=2)
        assert symanzik_u(banana(3), method=method, max_edges=3) == symanzik_u(banana(3))


def test_symanzik_values():
    assert symanzik_u(bridge(0, 0)) == MultiPoly.one()
    assert symanzik_u(path_tree(3)) == MultiPoly.one()
    assert symanzik_u(two_cycle()) == A("e1") + A("e2")
    assert symanzik_u(banana(3)) == (A("e1") * A("e2") + A("e1") * A("e3")
                                     + A("e2") * A("e3"))
    assert symanzik_u(banana(3, planar=False)) == (
        A("e1") * A("e2") + A("e1") * A("e3") + A("e2") * A("e3") + B() ** 2)
    assert symanzik_u(double_tadpole()) == A("e1") * A("e2") + B() ** 2
    assert symanzik_u(dumbbell()) == A("e2") * A("e3")
    assert symanzik_u(loop_graph(0, 0)) == A("e1")
    assert symanzik_u(twisted_loop()) == A("e1") + B()


def test_symanzik_rank_matches_faces():
    graphs = [g for g in acceptance_corpus().values()
              if not g.flag_labels and structure_report(g).k == 1]
    graphs += [banana(n, planar) for n in range(1, 11) for planar in (True, False)]
    graphs += [cycle_graph(n) for n in range(1, 9)]
    rng = random.Random(9)
    randoms = []
    while len(randoms) < 150:
        g = random_rotation_graph(rng, max_edges=6, max_flags=0)
        if structure_report(g).k == 1:
            randoms.append(g)
    assert any(tw for g in randoms for *_e, tw in to_rotation_spec(g).edges)
    for g in graphs + randoms:
        assert symanzik_u(g) == symanzik_u(g, method="faces")


def test_symanzik_duality():
    graphs = [two_cycle(), banana(3), banana(3, planar=False), dumbbell(),
              double_tadpole(), loop_graph(0, 0), triangle()]
    for g in graphs:
        for e in g.sorted_edges():
            assert symanzik_dual_check(g, [e]), e
        assert symanzik_dual_check(g, g.sorted_edges())
    rng = random.Random(4242)
    for _ in range(10):
        g = random_rotation_graph(rng, max_edges=4, max_flags=0, min_edges=1)
        if structure_report(g).k != 1:
            continue
        subset = [e for e in g.sorted_edges() if rng.random() < 0.5]
        assert symanzik_dual_check(g, subset)


def test_symanzik_spanning_tree_limit():
    for g in (two_cycle(), banana(3), banana(3, planar=False), dumbbell(),
              triangle(), path_tree(3), double_tadpole()):
        assert symanzik_commutative_limit(symanzik_u(g)) == spanning_tree_cotree_sum(g)


def test_hu_limit_errors():
    with pytest.raises(HasFlags):
        hu_commutative_limit(bridge(1, 0))


def test_hu_limit_bridge():
    assert hu_commutative_limit(bridge(0, 0)) == parse("4*O_e1^2*t_e1")


def test_hu_limit_bananas():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = C(4) * t1 * t2 * t3 * (o1 ** 2 + o2 ** 2 + o3 ** 2)
    for (ti, oi), (tj, oj), (tk, ok) in (
            ((t1, o1), (t2, o2), (t3, o3)),
            ((t2, o2), (t3, o3), (t1, o1)),
            ((t3, o3), (t1, o1), (t2, o2))):
        expected = expected + C(4) * ti * oj * ok * (tj ** 2 + tk ** 2)
    assert hu_commutative_limit(banana(3)) == expected
    assert hu_commutative_limit(banana(3, planar=False)) == expected


def test_hu_limit_dumbbell():
    t1, t2, t3 = T("e1"), T("e2"), T("e3")
    o1, o2, o3 = O("e1"), O("e2"), O("e3")
    expected = (C(16) * t1 * o2 * t2 ** 2 * o3 * t3 ** 2
                + C(4) * t1 * o1 ** 2 * t2 * t3
                + C(4) * o1 * o2 * t2 ** 2 * one_plus_t2_of(t1) * t3
                + C(4) * o1 * o3 * t3 ** 2 * one_plus_t2_of(t1) * t2)
    assert hu_commutative_limit(dumbbell()) == expected
    assert hu_commutative_limit(dumbbell(), method="extraction") == expected


def test_hu_limit_two_cycle_saturates():
    # at genus zero with all vertices covered the full polynomial is leading
    assert hu_commutative_limit(two_cycle()) == hu(two_cycle())


def test_hu_limit_twisted_cases():
    assert hu_commutative_limit(twisted_loop()) == MultiPoly.zero()
    assert hu_commutative_limit(twisted_loop(), method="extraction") == MultiPoly.zero()
    # two interleaved twisted loops: HU is nonzero but its Omega-degree
    # never reaches down to v, so the commutative limit vanishes
    double_twist = from_rotation_system(RotationSpec(
        vertices=(("v", ("e2.1", "e1.1", "e2.2", "e1.2")),),
        edges=(("e1", "e1.1", "e1.2", 1), ("e2", "e2.1", "e2.2", 1)),
    ))
    assert hu(double_twist) != MultiPoly.zero()
    assert hu_commutative_limit(double_twist) == MultiPoly.zero()
    assert hu_commutative_limit(double_twist, method="extraction") == MultiPoly.zero()
    twisted_two_cycle = from_rotation_system(RotationSpec(
        vertices=(("u", ("e1.1", "e2.1")), ("v", ("e1.2", "e2.2"))),
        edges=(("e1", "e1.1", "e1.2", 0), ("e2", "e2.1", "e2.2", 1)),
    ))
    expected = C(4) * (O("e1") ** 2 + O("e2") ** 2) * T("e1") * T("e2")
    assert hu_commutative_limit(twisted_two_cycle) == expected
    assert hu_commutative_limit(twisted_two_cycle, method="extraction") == expected


def test_hu_limit_methods_agree():
    graphs = [bridge(0, 0), loop_graph(0, 0), two_cycle(), banana(3),
              banana(3, planar=False), double_tadpole(), dumbbell(),
              path_tree(2), star(3), triangle(), twisted_loop()]
    rng = random.Random(909)
    graphs += [random_rotation_graph(rng, max_edges=3, max_flags=0)
               for _ in range(15)]
    for g in graphs:
        assert (hu_commutative_limit(g)
                == hu_commutative_limit(g, method="extraction"))
