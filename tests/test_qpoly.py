import itertools
import random
from pathlib import Path

import pytest

import rgp.qpoly
from rgp import cli
from rgp.corpus import (
    banana,
    bridge,
    cycle_graph,
    fig_two_vertex,
    loop_graph,
    path_tree,
    random_rotation_graph,
    single_vertex,
    triangle,
    twisted_loop,
    two_cycle,
)
from rgp.errors import InvalidArgument, TooLarge, UnknownMethod
from rgp.hyperbolic import hu
from rgp.maps import (RibbonGraph, RotationSpec, _fold, canonical_form, cross_components,
                      from_rotation_system, make_graph)
from rgp.ops import disjoint_union, partial_dual
from rgp.poly import MultiPoly, VarId, parse
from rgp.qpoly import (
    RSequenceSpec,
    _sub_per_edge,
    q_by_expansion,
    q_by_reduction,
    q_partial_dual_transform,
    q_polynomial,
    specialize_br,
    specialize_dimer,
    specialize_ising,
)

from reference_enumerators import ALL_RULES, SIX_RULES, exhaustive_q

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


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


def _flag_heavy_sweep() -> list:
    """Seeded maps of up to 5 edges and 8 flags: unlike the Q sweeps of
    test_differential.py (3 flags), they often put two or more flags in one
    corner."""
    rng = random.Random(26)
    return [random_rotation_graph(rng, max_edges=5, max_flags=8) for _ in range(30)]


def test_expansion_equals_folded_reduction_with_flag_heavy_corners():
    graphs = _flag_heavy_sweep()
    # corners of 2 and of 3 or more flags, which the parity and delta folds merge
    assert {2, 3} <= {n for g in graphs for n in _fold(g.map)[1].values()}
    assert max(len(g.edge_labels) for g in graphs) == 5
    for rule in SIX_RULES:
        shared = {}
        for g in graphs:
            want = q_by_expansion(g, rule).poly
            assert q_by_reduction(g, rule).poly == want, rule
            assert q_by_reduction(g, rule, memo=shared).poly == want, rule
    for g in graphs:
        assert hu(g) == hu(g, method="expansion")


def test_parity_fold_keys_a_flag_pair_in_one_corner_with_its_map():
    # bridge(3, 0) is bridge(1, 0) with two more flags in the same corner
    g, h = bridge(1, 0), bridge(3, 0)
    rule = RSequenceSpec.odd_two_even_zero()
    assert canonical_form(g).key != canonical_form(h).key
    assert canonical_form(g, rule.fold).key == canonical_form(h, rule.fold).key
    memo = {}
    q_by_reduction(g, rule, memo=memo)
    size = len(memo)
    assert q_by_reduction(h, rule, memo=memo).poly == q_by_expansion(h, rule).poly
    assert len(memo) == size


def _recording_canonical_form(monkeypatch) -> list:
    """Replace qpoly's canonical_form by a wrapper that records its graphs
    and forwards the rule's fold."""
    seen = []

    def record(h, *args):
        seen.append(h)
        return canonical_form(h, *args)

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
    # labels break the ties of the reduction-edge rule, and every edge of
    # two_cycle and triangle ties, so relabelling the edges in shuffled order
    # changes the picks; renamed back, Q is the same
    rng = random.Random(7)
    for g in (two_cycle(), triangle(), fig_two_vertex(), path_tree(3)):
        ref = q_by_reduction(g).poly
        labels = sorted(g.edge_labels, key=str)
        for _ in range(5):
            rng.shuffle(labels)
            new = {lab: f"s{i}" for i, lab in enumerate(labels)}
            h = make_graph(g.map, {new[lab]: orb for lab, orb in g.edge_labels.items()},
                           g.flag_labels, g.bare_vertices)
            assert h.sorted_edges()[0] == new[labels[0]]
            back = {VarId(kind, new[lab]): VarId(kind, lab) for lab in labels for kind in "XYZW"}
            assert q_by_reduction(h).poly.rename(back) == ref


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


def _recording_partial_dual(monkeypatch) -> list:
    """Replace qpoly's partial_dual by a wrapper that records its edge
    lists."""
    duals = []
    real_partial_dual = rgp.qpoly.partial_dual

    def record(h, edges):
        duals.append(list(edges))
        return real_partial_dual(h, edges)

    monkeypatch.setattr(rgp.qpoly, "partial_dual", record)
    return duals


def test_pruned_reduction_skips_the_dual(monkeypatch):
    duals = _recording_partial_dual(monkeypatch)
    seen = _recording_canonical_form(monkeypatch)
    g = cycle_graph(5)
    rule = RSequenceSpec.even_two_odd_zero()
    pruned = q_by_reduction(g, rule, zero_kinds="YZ").poly
    assert duals == []
    pruned_nodes = len(seen)
    seen.clear()
    full = q_by_reduction(g, rule).poly
    assert duals and 0 < pruned_nodes < len(seen)
    assert pruned == _sub_per_edge(g, full, y=0, z=0)


def test_reduction_edge_is_a_loop_first(monkeypatch):
    # the bridge "a" sorts before the loop "b" at its end
    g = from_rotation_system(RotationSpec(
        vertices=(("u", ("a.1",)), ("v", ("a.2", "b.1", "b.2"))),
        edges=(("a", "a.1", "a.2", 0), ("b", "b.1", "b.2", 0)),
    ))
    assert g.sorted_edges()[0] == "a"
    duals = _recording_partial_dual(monkeypatch)
    assert q_by_reduction(g).poly == q_by_expansion(g).poly
    assert duals[0] == ["b"]


def test_reduction_edge_has_the_lowest_end_degrees(monkeypatch):
    # a path b-a-c whose middle edge sorts first: the leaf edges have end
    # degrees 1 + 2, the middle one 2 + 2, and the tie goes to "b"
    g = from_rotation_system(RotationSpec(
        vertices=(("u", ("b.1",)), ("v", ("b.2", "a.1")), ("w", ("a.2", "c.1")),
                  ("x", ("c.2",))),
        edges=(("b", "b.1", "b.2", 0), ("a", "a.1", "a.2", 0), ("c", "c.1", "c.2", 0)),
    ))
    assert g.sorted_edges()[0] == "a"
    duals = _recording_partial_dual(monkeypatch)
    assert q_by_reduction(g).poly == q_by_expansion(g).poly
    assert duals[0] == ["b"]


def test_reduction_node_budget(monkeypatch):
    # the 9th 8-edge map of this draw under the odd rule, with a fresh memo;
    # reducing on the first label took 1281 canonical forms
    rng = random.Random(88)
    g = [random_rotation_graph(rng, max_edges=8, min_edges=8) for _ in range(9)][-1]
    seen = _recording_canonical_form(monkeypatch)
    q_by_reduction(g, RSequenceSpec.odd_two_even_zero(), memo={})
    assert len(seen) == 412


def test_memo_keeps_pruned_and_full_entries_apart():
    g = fig_two_vertex()
    full = q_by_reduction(g).poly
    pruned = _sub_per_edge(g, full, z=0, w=0)
    assert pruned != full
    for order in (("", "ZW"), ("ZW", "")):
        memo = {}
        for zero_kinds in order:
            got = q_by_reduction(g, memo=memo, zero_kinds=zero_kinds).poly
            assert got == (pruned if zero_kinds else full), order


def test_unknown_zero_kind_is_rejected():
    for zero_kinds in ("YQ", "y", ["YZ"]):
        with pytest.raises(InvalidArgument):
            q_by_reduction(two_cycle(), zero_kinds=zero_kinds)


def test_r_sequence_spec_checks_its_constant():
    assert repr(RSequenceSpec.symbolic()) == "RSequenceSpec(rule='SYMBOLIC', value=None)"
    for args in (("CONSTANT",), ("CONSTANT", 2.5), ("DELTA_ONE", 2)):
        with pytest.raises(InvalidArgument):
            RSequenceSpec(*args)
    with pytest.raises(UnknownMethod):
        RSequenceSpec("CONSTANT_THREE")
    # the memo key holds the spec: equal specs hash alike, distinct ones differ
    rebuilt = [RSequenceSpec(s.rule, s.value) for s in SIX_RULES]
    assert rebuilt == SIX_RULES and len(set(rebuilt + SIX_RULES)) == 6


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
