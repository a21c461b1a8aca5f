import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from rgp.cli import read_graph_file, read_graph_text
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
from rgp import hyperbolic, loops, poly
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
    symanzik_u,
)
from rgp.maps import RotationSpec, from_rotation_system
from rgp.ops import delete_flag, disjoint_union, partial_dual, to_rotation_spec
from rgp.poly import MultiPoly, VarId, parse

from reference_enumerators import spanning_tree_cotree_sum

ROOT = Path(__file__).resolve().parents[1]


def T(lab) -> MultiPoly:
    return MultiPoly.variable("T", lab)


def O(lab) -> MultiPoly:
    return MultiPoly.variable("OMEGA", lab)


def C(n) -> MultiPoly:
    return MultiPoly.const(n)


def one_plus_t2_of(t: MultiPoly) -> MultiPoly:
    return C(1) + t * t


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_flagged_point_values():
    assert hu(single_vertex(0)) == MultiPoly.zero()
    assert hu(single_vertex(1)) == C(2)
    assert hu(single_vertex(2)) == MultiPoly.zero()
    assert hu(single_vertex(3)) == C(2)


def test_double_tadpole():
    expected = (C(4) * (O("e1") ** 2 + T("e2") ** 2) * T("e1") * O("e2")
                + C(4) * (T("e1") ** 2 + O("e2") ** 2) * O("e1") * T("e2"))
    assert hu(double_tadpole()) == expected


def test_path2():
    expected = (C(4) * O("e1") ** 2 * O("e2") * T("e1") * one_plus_t2_of(T("e2"))
                + C(4) * O("e1") * O("e2") ** 2 * T("e2") * one_plus_t2_of(T("e1")))
    assert hu(path_tree(2)) == expected


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_multiplicative_over_components():
    u = disjoint_union(bridge(1, 0), loop_graph(0, 1))

    def tagged(p: MultiPoly, tag: str) -> MultiPoly:
        return p.substitute({v: MultiPoly.variable(v.kind, f"{tag}:{v.label}")
                             for v in p.variables()})

    assert hu(u) == (tagged(hu(bridge(1, 0)), "a")
                     * tagged(hu(loop_graph(0, 1)), "b"))


def test_bridge_dualizes_to_flagged_loop():
    # the single-edge dual of the doubly flagged bridge (HU 4*t_e1) is the
    # loop with one flag in each face, and the polynomial swaps accordingly
    assert hu(partial_dual(bridge(1, 1), ["e1"])) == parse("4*O_e1")


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


def test_critical_fails_nonorientable():
    # HU of the twisted loop is zero, but its face product does not vanish
    assert hu_critical(twisted_loop()) == parse("4*t_e1")


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


def test_hu_critical_route():
    # the library owns all three HU routes
    assert hu(dumbbell(), method="critical") == hu_via_critical_algorithm(dumbbell())
    with pytest.raises(NotOrientable):
        hu(twisted_loop(), method="critical")


def test_quadratic_form_hashes_like_equality():
    assert hv(sunset()) == hv(sunset())
    assert len({hv(sunset()), hv(sunset())}) == 1


def test_unknown_method_is_typed():
    g = two_cycle()
    with pytest.raises(UnknownMethod):
        hu(g, method="nope")
    with pytest.raises(UnknownMethod):
        hu_commutative_limit(g, method="nope")
    with pytest.raises(UnknownMethod):
        symanzik_u(g, method="nope")
    with pytest.raises(UnknownMethod):
        hv(sunset(), method="nope")


def test_loop_width_guard(monkeypatch, wide_map):
    # the order and its width come before any state is stepped
    def no_work(*args):
        raise AssertionError("work done past the width guard")

    monkeypatch.setattr(loops, "_step", no_work)
    with pytest.raises(TooLarge, match=r"holds 48 sigma0 arcs open, above 24"):
        hu(wide_map, method="loops")


def test_loop_routes_answer_a_bare_vertex_first(monkeypatch, wide_map):
    # a bare vertex weighs 0, so HU and hv's entries are 0 whatever the width
    def with_bare(g):
        spec = to_rotation_spec(g)
        return from_rotation_system(RotationSpec(spec.vertices + (("bare", ()),), spec.edges))

    assert hu(with_bare(wide_map), method="loops") == MultiPoly.zero()

    def no_surgery(h, label):
        raise AssertionError(f"the entry of {label} was taken by surgery")

    monkeypatch.setattr(loops, "MAX_WIDTH", 2)
    monkeypatch.setattr(hyperbolic, "_edge_difference", no_surgery)
    form = hv(with_bare(sunset()))
    assert form.sym == form.antisym == {("s1", "s2"): MultiPoly.zero()}


def test_hv_builds_no_graph_and_steps_each_edge_once(monkeypatch):
    # G's own edge groups stepped once in one sweep, every entry then closed
    # from the kept states: no rotation spec written and no graph built
    pool = json.loads((ROOT / "perfbench" / "references.json").read_text())
    calls, swept = [], []
    real_sweep = loops._sweep

    def counted(name):
        real = getattr(hyperbolic, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    def sweep(groups, order):
        swept.append(sorted(order))
        return real_sweep(groups, order)

    for name in ("from_rotation_system", "to_rotation_spec"):
        monkeypatch.setattr(hyperbolic, name, counted(name))
    monkeypatch.setattr(loops, "_sweep", sweep)
    for g in (sunset(), read_graph_text(pool["workloads"]["hv-small"][7]["graph"])):
        calls.clear()
        swept.clear()
        hv(g)
        assert calls == []
        assert swept == [list(range(len(g.edge_labels)))]


def test_hv_takes_wide_entries_by_surgery(monkeypatch):
    # sunset's edge prefix holds 8 arcs open: above the bound, each of its
    # three entries is taken by surgery, with the surgery route's values
    monkeypatch.setattr(loops, "MAX_WIDTH", 2)
    real, labels = hyperbolic._edge_difference, []

    def counted(h, label):
        labels.append(label)
        return real(h, label)

    monkeypatch.setattr(hyperbolic, "_edge_difference", counted)
    assert hv(sunset()) == hv(sunset(), method="surgery")
    assert labels == ["s1~s2"] * 6


def test_hv_takes_every_corpus_entry_by_loop_sum(monkeypatch):
    # the flagged acceptance corpus, examples and hv-small pool all fit the
    # edge prefix's width: a wider prefix would send them back to surgery
    graphs = list(acceptance_corpus().values())
    graphs += [read_graph_file(str(path)) for path in sorted((ROOT / "examples").glob("*.rg"))]
    pool = json.loads((ROOT / "perfbench" / "references.json").read_text())
    graphs += [read_graph_text(entry["graph"]) for entry in pool["workloads"]["hv-small"]]
    graphs = [g for g in graphs if g.flag_labels]

    def no_surgery(h, label):
        raise AssertionError(f"the entry of {label} was taken by surgery")

    monkeypatch.setattr(hyperbolic, "_edge_difference", no_surgery)
    for g in graphs:
        hv(g)
    assert len(graphs) >= 55


# ---------------------------------------------------------------------------
# the quadratic form
# ---------------------------------------------------------------------------

def test_hv_needs_flags():
    with pytest.raises(NoFlags):
        hv(two_cycle())


def test_hv_steps_its_names_around_the_graphs_labels():
    # the flag "+" takes the surgery route's marker name and the edge "a~b"
    # its fused edge's; "0" and "x" free both names and sort like the labels
    # they replace.  The loop route names neither, and must agree
    def graph(plus, ab):
        return from_rotation_system(RotationSpec(
            vertices=(("u", ("a", "h1", plus, "k1", "k2")), ("v", ("h2", "b"))),
            edges=((ab, "h1", "h2", 0), ("z", "k1", "k2", 0))))

    def back(p):
        return MultiPoly.from_monomials(
            ({VarId(v.kind, "a~b" if v.label == "x" else v.label): e for v, e in mono.items()}, c)
            for mono, c in p.monomials())

    def flag(f):
        return "+" if f == "0" else f

    for method in ("loops", "surgery"):
        clashing, free = hv(graph("+", "a~b"), method=method), hv(graph("0", "x"), method=method)
        assert clashing.flags == tuple(map(flag, free.flags))
        assert clashing.diag == {flag(i): back(p) for i, p in free.diag.items()}
        for table in ("sym", "antisym"):
            assert getattr(clashing, table) == {
                (flag(i), flag(j)): back(p) for (i, j), p in getattr(free, table).items()}
        assert MultiPoly.zero() not in clashing.antisym.values()


@pytest.mark.parametrize("method", ["loops", "surgery"])
def test_hv_antisymmetry_check_fires(monkeypatch, method):
    # one marked entry off by one: the two flag orders no longer negate
    if method == "loops":
        real = loops.fused_sums

        def off_when_marked(h, images, pairs):
            return [[sym, after_i + C(1), after_j]
                    for sym, after_i, after_j in real(h, images, pairs)]

        monkeypatch.setattr(hyperbolic, "fused_sums", off_when_marked)
    else:
        real = hyperbolic._edge_difference

        def off_when_marked(h, label):
            return real(h, label) + (C(1) if "+" in h.flag_labels else C(0))

        monkeypatch.setattr(hyperbolic, "_edge_difference", off_when_marked)
    with pytest.raises(SelfCheckFailed, match="antisymmetric"):
        hv(sunset(), method=method)


def test_edge_difference_check_fires(monkeypatch):
    # an hu that leaves the fused edge's t in the cut branch only
    real = hyperbolic.hu
    monkeypatch.setattr(hyperbolic, "hu",
                        lambda h, **kwargs: real(h) + T("s1~s2") * len(h.flag_labels))
    with pytest.raises(SelfCheckFailed, match="fused edge"):
        hv(sunset(), method="surgery")


def test_hv_duality_covariance():
    # diag and sym transported through a partial dual; antisym up to one sign
    for g, edges, flags in ((bridge(1, 1), ["e1"], ("u1", "v1")),
                            (sunset(), ["e2"], ("s1", "s2")),
                            (sunset(), ["e1", "e3"], ("s1", "s2"))):
        a = hv(partial_dual(g, edges))
        b = hv(g)
        assert b.flags == flags
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


def _orientable_flagged_maps(n: int) -> list:
    """The first n maps with at least two flags from a seeded orientable
    stream.  The identity below needs orientability: drawn from the same seed
    without orientable=True, the first 31 non-orientable maps with at least
    two flags break it on 5."""
    rng = random.Random(48)
    maps = []
    while len(maps) < n:
        g = random_rotation_graph(rng, max_edges=4, max_flags=4, orientable=True)
        if len(g.flag_labels) >= 2:
            maps.append(g)
    return maps


def test_dodgson_other_pairs():
    # 4 diag_i diag_j - sym^2 + antisym^2 = 4 HU(G) HU(G - i - j); the random
    # maps add 119 pairs, 40 of them with a nonzero antisym
    for g in (fig_two_vertex(), bridge(1, 1), loop_graph(1, 1),
              *_orientable_flagged_maps(40)):
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


def test_commutative_limit_guard():
    # the enumeration visits 2^e subsets: 12 edges pass, 13 do not
    with pytest.raises(TooLarge):
        hu_commutative_limit(banana(13))
    assert not hu_commutative_limit(banana(12)).is_zero()
    # a bare vertex makes the limit zero before any subset is visited
    assert hu_commutative_limit(disjoint_union(banana(13), single_vertex())).is_zero()


def test_commutative_limit_add_budget(monkeypatch):
    # `+` calls during the limit of cycle_graph(9), and the entries each
    # copies (its larger operand); a running total copied on every `+` took
    # 2002 calls and 500258 entries
    calls, copied = [], []
    add = MultiPoly.__add__

    def counting_add(a, b):
        calls.append(1)
        copied.append(max(len(a.terms), len(b.terms)))
        return add(a, b)

    monkeypatch.setattr(MultiPoly, "__add__", counting_add)
    assert len(hu_commutative_limit(cycle_graph(9)).terms) == 18916
    assert (len(calls), sum(copied)) == (288, 18044)


def test_hu_images_stay_on_one_table(monkeypatch):
    # table extensions (`poly._onto`) of a warm-memo hu(cycle_graph(6)):
    # images built from one-variable t and O took 24, four per edge
    onto = poly._onto
    calls = []

    def counting_onto(*args):
        calls.append(1)
        return onto(*args)

    g = cycle_graph(6)
    hu(g)
    monkeypatch.setattr(poly, "_onto", counting_onto)
    hu(g)
    assert len(calls) == 0


def test_shared_memo_bound(monkeypatch):
    g = triangle(with_flags=True)
    want = hv(g)
    monkeypatch.setattr(hyperbolic, "_SHARED_MEMO", {})
    monkeypatch.setattr(hyperbolic, "_SHARED_MEMO_BOUND", 0)
    assert hv(g) == want
    hu(cycle_graph(4))
    own = set(hyperbolic._SHARED_MEMO)
    assert own
    hu(sunset())
    hu(cycle_graph(4))
    assert set(hyperbolic._SHARED_MEMO) == own


def test_symanzik_values():
    assert symanzik_u(bridge(0, 0)) == MultiPoly.one()
    assert symanzik_u(path_tree(3)) == MultiPoly.one()
    assert symanzik_u(dumbbell()) == A("e2") * A("e3")
    assert symanzik_u(loop_graph(0, 0)) == A("e1")
    assert symanzik_u(twisted_loop()) == A("e1") + B()


def test_symanzik_spanning_tree_limit():
    # check 7 of the acceptance suite sweeps the flagless corpus graphs
    g = path_tree(3)
    assert symanzik_commutative_limit(symanzik_u(g)) == spanning_tree_cotree_sum(g)


def test_hu_limit_errors():
    with pytest.raises(HasFlags):
        hu_commutative_limit(bridge(1, 0))


def test_hu_limit_bridge():
    assert hu_commutative_limit(bridge(0, 0)) == parse("4*O_e1^2*t_e1")


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
