import itertools
import random
from pathlib import Path

import pytest

import rgp.qpoly
from rgp import cli
from rgp.corpus import (
    acceptance_corpus,
    banana,
    bridge,
    cycle_graph,
    fig_two_vertex,
    loop_graph,
    path_tree,
    random_rotation_graph,
    single_vertex,
    star,
    triangle,
    twisted_loop,
    two_cycle,
)
from rgp.errors import TooLarge
from rgp.maps import (RibbonGraph, RotationSpec, canonical_form, cross_components,
                      from_rotation_system, structure_report)
from rgp.ops import disjoint_union, partial_dual
from rgp.poly import MultiPoly, VarId, parse
from rgp.qpoly import (
    QResult,
    RSequenceSpec,
    q_by_expansion,
    q_by_reduction,
    q_partial_dual_transform,
    q_polynomial,
    specialize_br,
    specialize_dimer,
    specialize_ising,
)

from reference_enumerators import exhaustive_q

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

ALL_RULES = [
    RSequenceSpec.symbolic(),
    RSequenceSpec.even_two_odd_zero(),
    RSequenceSpec.odd_two_even_zero(),
    RSequenceSpec.delta_one(),
]
# the rules above and two constants: one that never vanishes, one that always does
SIX_RULES = ALL_RULES + [RSequenceSpec.constant(3), RSequenceSpec.constant(0)]


def test_bridge_golden():
    res = q_by_expansion(bridge(0, 0))
    assert res.poly == parse("x_e1*r_0^2 + w_e1*r_1^2 + y_e1*r_0 + z_e1*r_2")
    assert res.admissible_pairs == 4
    assert res.method == "EXPANSION"


def test_reduction_matches_bridge_golden():
    res = q_by_reduction(bridge(0, 0))
    assert res.poly == parse("x_e1*r_0^2 + w_e1*r_1^2 + y_e1*r_0 + z_e1*r_2")
    assert res.admissible_pairs is None
    assert res.method == "REDUCTION"


def test_terminal_graphs():
    assert q_by_reduction(single_vertex(0)).poly == parse("r_0")
    assert q_by_reduction(single_vertex(3)).poly == parse("r_3")
    assert q_by_expansion(single_vertex(2)).poly == parse("r_2")


def test_flagged_bridge_degrees():
    # one flag on each endpoint shifts every vertex weight up by one
    res = q_by_expansion(bridge(1, 1))
    assert res.poly == parse(
        "x_e1*r_1^2 + w_e1*r_2^2 + y_e1*r_2 + z_e1*r_4")


def test_expansion_equals_reduction_corpus():
    for name, g in acceptance_corpus().items():
        if len(g.edge_labels) > 4:
            continue
        for rule in ALL_RULES:
            a = q_by_expansion(g, rule).poly
            b = q_by_reduction(g, rule).poly
            assert a == b, (name, rule.rule)


def test_expansion_matches_polynomial_products():
    # the scalar weights against MultiPoly products of r_n, pair by pair
    def check(g):
        for rule in SIX_RULES:
            got, ref = q_by_expansion(g, rule), exhaustive_q(g, rule)
            assert got.poly == ref.poly, rule
            assert got.admissible_pairs == ref.admissible_pairs, rule

    for g in acceptance_corpus().values():
        check(g)
    rng = random.Random(5)
    kinds = set()
    for _ in range(40):
        g = random_rotation_graph(rng, max_edges=5, max_flags=3)
        check(g)
        rep = structure_report(g)
        kinds.update(kind for kind, seen in (
            ("disconnected", rep.k > 1), ("flagged", rep.f > 0),
            ("non-orientable", not rep.orientable),
            ("bare vertex", g.bare_vertices > 0)) if seen)
    assert kinds == {"disconnected", "flagged", "non-orientable", "bare vertex"}


def test_expansion_equals_reduction_random():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_rotation_graph(rng, max_edges=3, max_flags=3)
        rule = ALL_RULES[rng.randrange(len(ALL_RULES))]
        assert q_by_expansion(g, rule).poly == q_by_reduction(g, rule).poly


def test_expansion_equals_reduction_disconnected_random():
    rng = random.Random(4711)
    for _ in range(40):
        g = disjoint_union(random_rotation_graph(rng, max_edges=2, max_flags=3),
                           random_rotation_graph(rng, max_edges=2, max_flags=3))
        rule = ALL_RULES[rng.randrange(len(ALL_RULES))]
        assert q_by_expansion(g, rule).poly == q_by_reduction(g, rule).poly


def _recording_canonical_form(monkeypatch) -> list:
    """Replace qpoly's canonical_form by a wrapper that records its graphs."""
    seen = []

    def record(h):
        seen.append(h)
        return canonical_form(h)

    monkeypatch.setattr(rgp.qpoly, "canonical_form", record)
    return seen


def test_zero_weight_branches_are_pruned(monkeypatch):
    seen = _recording_canonical_form(monkeypatch)
    g = disjoint_union(cycle_graph(4), single_vertex(0))
    assert q_by_reduction(g, RSequenceSpec.odd_two_even_zero()).poly == MultiPoly.zero()
    assert seen == []


def test_memo_sees_connected_graphs_only(monkeypatch):
    seen = _recording_canonical_form(monkeypatch)
    g = disjoint_union(disjoint_union(_flagged_cycle(), _flagged_bridge()),
                       single_vertex(2))
    assert q_by_reduction(g).poly == q_by_expansion(g).poly
    assert seen
    for h in seen:
        assert len(cross_components(h)) == 1 and h.bare_vertices == 0


def test_edge_order_independence():
    rng = random.Random(7)
    for g in (two_cycle(), triangle(), fig_two_vertex(), path_tree(3)):
        ref = q_by_reduction(g).poly
        labels = sorted(g.edge_labels, key=str)
        for _ in range(5):
            rng.shuffle(labels)
            assert q_by_reduction(g, edge_order=list(labels)).poly == ref


def test_memo_shared_across_isomorphic_labelings():
    alt = from_rotation_system(RotationSpec(
        vertices=(("u", ("p.1",)), ("v", ("p.2", "q.1")), ("w", ("q.2",))),
        edges=(("left", "p.1", "p.2", 0), ("right", "q.1", "q.2", 0)),
    ))
    memo = {}
    q_by_reduction(path_tree(2), memo=memo)
    res = q_by_reduction(alt, memo=memo)
    assert res.poly == q_by_reduction(alt).poly
    assert {v.label for v in res.poly.variables() if v.kind == "X"} == {"left", "right"}


def test_expansion_guard():
    g = banana(3)
    with pytest.raises(TooLarge):
        q_by_expansion(g, max_edges=2)
    # override allows it
    assert q_by_expansion(g, max_edges=3).poly == q_by_reduction(g).poly


def test_q_polynomial_dispatch():
    g = two_cycle()
    a = q_polynomial(g, method="expansion")
    b = q_polynomial(g, method="reduction")
    assert a.poly == b.poly
    assert (a.method, b.method) == ("EXPANSION", "REDUCTION")
    with pytest.raises(ValueError):
        q_polynomial(g, method="magic")


def _recording_routes(monkeypatch) -> list:
    """Replace qpoly's two routes by wrappers that record which one ran."""
    seen = []
    for name in ("q_by_expansion", "q_by_reduction"):
        def record(*args, _name=name, _real=getattr(rgp.qpoly, name), **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(rgp.qpoly, name, record)
    return seen


# the route `q_polynomial` and `rgp q` take by default: enumerate when no
# weight can vanish, so that every pair is admissible; reduce when one can
DEFAULT_ROUTES = {
    "symbolic": "q_by_expansion",
    "const:3": "q_by_expansion",
    "even2odd0": "q_by_reduction",
    "odd2even0": "q_by_reduction",
    "delta1": "q_by_reduction",
    "const:0": "q_by_reduction",
}


def test_default_route_per_rule(monkeypatch, capsys):
    seen = _recording_routes(monkeypatch)
    g = two_cycle()
    path = str(EXAMPLES / "two_cycle.rg")
    for text, route in DEFAULT_ROUTES.items():
        rule = cli._r_rule(text)
        seen.clear()
        assert q_polynomial(g, rule).poly == exhaustive_q(g, rule).poly
        assert seen == [route], text
        seen.clear()
        assert cli.main(["q", "--r-rule", text, path]) == 0
        assert seen == [route], text
        assert capsys.readouterr().out == exhaustive_q(g, rule).poly.to_string() + "\n"
    seen.clear()
    q_polynomial(g)
    assert seen == ["q_by_expansion"]


def _scaled(p: MultiPoly, g: RibbonGraph) -> MultiPoly:
    lam = MultiPoly.variable("LAMBDA")
    mu = MultiPoly.variable("MU")
    mapping = {}
    for v in p.variables():
        if v.kind in ("X", "Y"):
            mapping[v] = lam * mu * mu * MultiPoly.variable(v.kind, v.label)
        elif v.kind in ("Z", "W"):
            mapping[v] = lam * MultiPoly.variable(v.kind, v.label)
        elif v.kind == "R":
            mapping[v] = (mu ** v.label) * MultiPoly.variable("R", v.label)
    return p.substitute(mapping)


def test_scaling_identity():
    # Q(l*m^2 x, l*m^2 y, l z, l w, m^j r_j) = l^e m^(2e+f) Q
    for g in (bridge(1, 2), loop_graph(2, 1), two_cycle(),
              star(3, with_flags=True), fig_two_vertex()):
        p = q_by_reduction(g).poly
        e = len(g.edge_labels)
        f = len(g.flag_labels)
        lhs = _scaled(p, g)
        rhs = p * (MultiPoly.variable("LAMBDA") ** e) * (MultiPoly.variable("MU") ** (2 * e + f))
        assert lhs == rhs


def test_partial_duality_transform_singletons():
    for g in (two_cycle(), triangle(), fig_two_vertex(), loop_graph(1, 1)):
        p = q_by_reduction(g).poly
        for e in g.edge_labels:
            assert q_by_reduction(partial_dual(g, [e])).poly == q_partial_dual_transform(p, [e])


def test_partial_duality_transform_random_subsets():
    rng = random.Random(99)
    for _ in range(15):
        g = random_rotation_graph(rng, max_edges=3, max_flags=2)
        labels = sorted(g.edge_labels, key=str)
        subset = [e for e in labels if rng.random() < 0.5]
        p = q_by_reduction(g).poly
        assert q_by_reduction(partial_dual(g, subset)).poly == q_partial_dual_transform(p, subset)


def test_partial_duality_transform_numeric_rule():
    g = two_cycle()
    rule = RSequenceSpec.even_two_odd_zero()
    p = q_by_reduction(g, rule).poly
    assert q_by_reduction(partial_dual(g, ["e1"]), rule).poly == q_partial_dual_transform(p, ["e1"])


def test_specialize_br_two_banana():
    assert specialize_br(two_cycle()) == parse(
        "r^2 + y_e1*r + y_e2*r + y_e1*y_e2*r^2")


def test_specialize_br_loop():
    # single untwisted loop: A empty keeps one vertex, A={e1} exposes two
    assert specialize_br(loop_graph(0, 0)) == parse("r + y_e1*r^2")


def test_specialize_dimer():
    assert specialize_dimer(bridge(0, 0)) == parse("w_e1")
    assert specialize_dimer(triangle()) == MultiPoly.zero()
    assert specialize_dimer(cycle_graph(4)) == parse("w_e1*w_e3 + w_e2*w_e4")


def test_specialize_ising():
    assert specialize_ising(bridge(0, 0)) == parse("4*x_e1")
    assert specialize_ising(single_vertex(0)) == parse("2")
    assert specialize_ising(two_cycle()) == parse("4*x_e1*x_e2 + 4*w_e1*w_e2")


def _flagged_bridge() -> RibbonGraph:
    return from_rotation_system(RotationSpec(
        vertices=(("u", ("p.1", "F")), ("v", ("p.2",))),
        edges=(("p", "p.1", "p.2", 0),),
        flags=("F",),
    ))


def _plain_loop() -> RibbonGraph:
    return from_rotation_system(RotationSpec(
        vertices=(("s", ("q.1", "q.2")),),
        edges=(("q", "q.1", "q.2", 0),),
    ))


def _flagged_cycle() -> RibbonGraph:
    return from_rotation_system(RotationSpec(
        vertices=(("a", ("c.1", "G", "d.2")), ("b", ("c.2", "H", "K", "d.1"))),
        edges=(("c", "c.1", "c.2", 0), ("d", "d.1", "d.2", 0)),
        flags=("G", "H", "K"),
    ))


def test_multiplicative_over_disjoint_union():
    ga, gb = _flagged_bridge(), _plain_loop()
    u = disjoint_union(ga, gb)
    assert q_by_reduction(u).poly == q_by_reduction(ga).poly * q_by_reduction(gb).poly

    # flagged, plain, bare and non-orientable parts, under every weight rule;
    # the part labels are pairwise disjoint, so the union keeps them
    parts = [ga, gb, single_vertex(0), twisted_loop(), _flagged_cycle()]
    rules = ALL_RULES + [RSequenceSpec.constant(0), RSequenceSpec.constant(3)]
    groups = list(itertools.combinations(range(len(parts)), 2)) + [(0, 1, 2, 3)]
    for rule in rules:
        q = [q_by_reduction(g, rule).poly for g in parts]
        for group in groups:
            u, product = parts[group[0]], q[group[0]]
            for k in group[1:]:
                u = disjoint_union(u, parts[k])
                product = product * q[k]
            reduced = q_by_reduction(u, rule).poly
            assert reduced == product, (rule, group)
            assert reduced == q_by_expansion(u, rule).poly, (rule, group)


def test_admissible_pair_counts():
    assert q_by_expansion(bridge(0, 0), RSequenceSpec.delta_one()).admissible_pairs == 1
    # symbolic weights never vanish: all 4^e pairs count
    assert q_by_expansion(two_cycle()).admissible_pairs == 16
