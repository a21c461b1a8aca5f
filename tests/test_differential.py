"""Independent routes to one invariant must agree: one test per identity.

Each test checks that two routes (subset expansion, four-term reduction,
partial-duality laws, the Omega = 1 face product, the commutative limits,
closed-form counts) agree, and is parametrized over the seeded streams of
maps that check it, one test id per stream.  A stream draws its maps, and
each map's rule, edge subset or edge, from its own `random.Random(seed)`.
"""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from rgp.corpus import (acceptance_corpus, banana, bridge, cycle_graph, double_tadpole,
                        dumbbell, fig_two_vertex, loop_graph, path_tree,
                        random_rotation_graph, single_vertex, star, sunset, triangle,
                        twisted_loop, two_cycle)
from rgp import loops
from rgp.cli import read_graph_text
from rgp.hyperbolic import (hu, hu_commutative_limit, hu_critical, hu_cycle,
                            hu_partial_dual_transform, hu_tree, hu_via_critical_algorithm,
                            hv, symanzik_commutative_limit, symanzik_dual_check, symanzik_u)
from rgp.maps import RotationSpec, from_rotation_system, isomorphic, structure_report
from rgp.ops import class_counts, disjoint_union, partial_dual, to_rotation_spec
from rgp.poly import MultiPoly, VarId
from rgp.qpoly import (RSequenceSpec, q_by_expansion, q_by_reduction,
                       q_partial_dual_transform, specialize_br, specialize_dimer,
                       specialize_ising)

from reference_enumerators import (ALL_RULES, SIX_RULES, _sub_per_edge,
                                   exhaustive_class_counts, exhaustive_q,
                                   spanning_tree_cotree_sum)

ALL_KINDS = {"bare vertex", "disconnected", "flagged", "non-orientable"}


def _kinds(graphs) -> set:
    """The kinds in ALL_KINDS that some map of graphs has."""
    kinds = set()
    for g in graphs:
        rep = structure_report(g)
        kinds.update(kind for kind, seen in (
            ("bare vertex", g.bare_vertices > 0), ("disconnected", rep.k > 1),
            ("flagged", rep.f > 0), ("non-orientable", not rep.orientable)) if seen)
    return kinds


def _streams(*streams):
    return pytest.mark.parametrize("stream", streams, ids=lambda s: s.__name__)


def _subset_stream(seed: int, n: int, **kwargs) -> list:
    """n random maps, each with a random subset of its edges."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        g = random_rotation_graph(rng, **kwargs)
        cases.append((g, [e for e in g.sorted_edges() if rng.random() < 0.5]))
    return cases


# --- streams ------------------------------------------------------------------

def random_maps() -> list:
    rng = random.Random(2024)
    return [(random_rotation_graph(rng, max_edges=3, max_flags=3),
             ALL_RULES[rng.randrange(len(ALL_RULES))]) for _ in range(40)]


def disjoint_unions() -> list:
    rng = random.Random(4711)
    return [(disjoint_union(random_rotation_graph(rng, max_edges=2, max_flags=3),
                            random_rotation_graph(rng, max_edges=2, max_flags=3)),
             ALL_RULES[rng.randrange(len(ALL_RULES))]) for _ in range(40)]


def random_subsets() -> list:
    return _subset_stream(99, 15, max_edges=3, max_flags=2)


def fixed_and_random_subsets() -> list:
    fixed = [(g, [e]) for g in (two_cycle(), bridge(1, 1), triangle(), fig_two_vertex(),
                                banana(3, planar=False))
             for e in g.sorted_edges()]
    return fixed + _subset_stream(27, 10, max_edges=3, max_flags=2)


def first_edges() -> list:
    rng = random.Random(83)
    graphs = [random_rotation_graph(rng, max_edges=3, max_flags=2, min_edges=1)
              for _ in range(15)]
    return [(g, g.sorted_edges()[:1]) for g in graphs]


def duality_sweep() -> list:
    """Up to 4 edges and 3 flags: the largest maps the duality laws see."""
    return _subset_stream(11, 10, max_edges=4, max_flags=3)


def limit_graphs() -> list:
    graphs = [bridge(0, 0), loop_graph(0, 0), two_cycle(), banana(3),
              banana(3, planar=False), double_tadpole(), dumbbell(),
              path_tree(2), star(3), triangle(), twisted_loop()]
    rng = random.Random(909)
    return graphs + [random_rotation_graph(rng, max_edges=3, max_flags=0)
                     for _ in range(15)]


def limit_families() -> list:
    """Cycles and bananas, planar and not, past the survey's four edges."""
    return ([cycle_graph(n) for n in range(5, 8)]
            + [banana(n, planar=planar) for n in range(4, 7) for planar in (True, False)])


def limit_survey() -> list:
    """Connected flagless maps with 1 to 4 edges and no bare vertex."""
    rng = random.Random(5)
    graphs = []
    while len(graphs) < 10:
        g = random_rotation_graph(rng, max_edges=4, max_flags=0, min_edges=1)
        if structure_report(g).k == 1 and not g.bare_vertices:
            graphs.append(g)
    return graphs


# --- Q and HU: expansion, reduction, reference products -----------------------

@_streams(random_maps, disjoint_unions)
def test_q_expansion_equals_reduction(stream):
    for g, rule in stream():
        assert q_by_expansion(g, rule).poly == q_by_reduction(g, rule).poly


def test_q_expansion_matches_polynomial_products():
    # the scalar weights against MultiPoly products of r_n, pair by pair
    rng = random.Random(5)
    randoms = [random_rotation_graph(rng, max_edges=5, max_flags=3) for _ in range(40)]
    assert _kinds(randoms) == ALL_KINDS
    for g in list(acceptance_corpus().values()) + randoms:
        for rule in SIX_RULES:
            got, ref = q_by_expansion(g, rule), exhaustive_q(g, rule)
            assert got.poly == ref.poly, rule
            assert got.admissible_pairs == ref.admissible_pairs, rule


def test_references_share_no_walker_with_the_engines():
    # a reference that walked subsets, or built incidences or partial duals,
    # with the engines' own helpers would pass wherever those helpers fail
    path = Path(__file__).with_name("reference_enumerators.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "rgp" for alias in node.names}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & {"_subset_degrees", "_incidences", "partial_dual"} == set()


def test_hu_expansion_equals_reduction():
    rng = random.Random(314)
    for _ in range(25):
        g = random_rotation_graph(rng, max_edges=3, max_flags=3)
        assert hu(g, method="expansion") == hu(g)


# --- the loop model (rgp.loops) -----------------------------------------------

def hu_sweep() -> list:
    """The acceptance corpus and 120 random maps of up to 6 edges and 3 flags."""
    rng = random.Random(5)
    return (list(acceptance_corpus().values())
            + [random_rotation_graph(rng, max_edges=6, max_flags=3) for _ in range(120)])


def hu_unions() -> list:
    rng = random.Random(4711)
    return [disjoint_union(random_rotation_graph(rng, max_edges=3, max_flags=3),
                           random_rotation_graph(rng, max_edges=3, max_flags=3))
            for _ in range(30)]


@_streams(hu_sweep, hu_unions)
def test_hu_loops_equal_expansion_and_reduction(stream):
    graphs = stream()
    assert _kinds(graphs) == ALL_KINDS
    nonzero = 0
    for g in graphs:
        want = hu(g, method="expansion")
        assert hu(g, method="loops") == want == hu(g)
        nonzero += not want.is_zero()
    assert nonzero >= 5


def flagged_corpus() -> list:
    return [g for g in acceptance_corpus().values() if g.flag_labels]


def flagged_randoms() -> list:
    """The first 60 maps with at least two flags, up to 5 edges and 4 flags."""
    rng = random.Random(7)
    graphs = []
    while len(graphs) < 60:
        g = random_rotation_graph(rng, max_edges=5, max_flags=4)
        if len(g.flag_labels) >= 2:
            graphs.append(g)
    return graphs


def flagged_bare_twisted() -> list:
    """The first 40 maps with at least two flags, up to 6 edges and 4 flags:
    bare vertices and twists among them."""
    rng = random.Random(17)
    graphs = []
    while len(graphs) < 40:
        g = random_rotation_graph(rng, max_edges=6, max_flags=4)
        if len(g.flag_labels) >= 2:
            graphs.append(g)
    assert _kinds(graphs) >= {"bare vertex", "non-orientable"}
    return graphs


def flagged_wider() -> list:
    """The first 5 connected maps with two flags and 7-9 edges."""
    rng = random.Random(9)
    graphs = []
    while len(graphs) < 5:
        g = random_rotation_graph(rng, max_edges=9, min_edges=7, max_flags=2)
        if len(g.flag_labels) == 2 and structure_report(g).k == 1:
            graphs.append(g)
    return graphs


def _raw_form(g, rng: random.Random) -> str:
    """g in the raw `crosses`/`sigma0`/`theta`/`sigma1` form, its crosses
    renumbered by a shuffle of 1..n."""
    crosses = sorted(g.map.crosses)
    name = dict(zip(crosses, rng.sample(range(1, len(crosses) + 1), len(crosses))))
    lines = [f"crosses: {len(crosses)}"]
    for key in ("sigma0", "theta", "sigma1"):
        perm, seen, cycles = getattr(g.map, key), set(), []
        for x in crosses:
            cycle = []
            while x not in seen:
                seen.add(x)
                cycle.append(str(name[x]))
                x = perm[x]
            if cycle:
                cycles.append(f"({' '.join(cycle)})")
        lines.append(f"{key}: {''.join(cycles)}")
    return "\n".join(lines) + "\n"


def flagged_raw_rereads() -> list:
    """flagged_bare_twisted's maps read back from the raw form with their
    crosses shuffled (bare vertices drop out).  No rotation numbers their
    crosses: the cross of a flag on its vertex's chosen sigma0-cycle is the
    larger for 39 of the 127 flags, against 18 before the shuffle."""
    rng = random.Random(56)
    return [read_graph_text(_raw_form(g, rng)) for g in flagged_bare_twisted()]


@_streams(flagged_corpus, flagged_randoms, flagged_bare_twisted, flagged_wider,
          flagged_raw_rereads)
def test_hv_loops_equal_surgery(stream):
    graphs = stream()
    offdiagonal = 0
    for g in graphs:
        form = hv(g)
        assert form == hv(g, method="surgery")
        offdiagonal += any(not p.is_zero() for p in [*form.sym.values(), *form.antisym.values()])
    assert offdiagonal >= min(10, len(graphs))


def test_fused_sums_equal_the_loop_sum_of_the_fused_graph():
    # every pair's three entries, closed from one sweep of G's edges, against
    # a loop sum of the graph that fuses the pair into an edge of images
    # (0, 1, -1, 0), keeps the other flags and, for the antisym entries, has
    # a marker flag right after i or after j
    rng = random.Random(23)
    checked = nonzero = 0
    while checked < 60:
        g = random_rotation_graph(rng, max_edges=5, max_flags=4)
        if len(g.flag_labels) < 2:
            continue
        checked += 1
        spec = to_rotation_spec(g)
        pairs = list(combinations(spec.flags, 2))
        images = {e: tuple(rng.choice((0, 1, 3)) for _ in range(4)) for e in g.edge_labels}
        for (i, j), entries in zip(pairs, loops.fused_sums(g, images, pairs)):
            for p, after in zip(entries, (None, i, j)):
                h = from_rotation_system(RotationSpec(
                    tuple((v, sum(((it, "+") if it == after else (it,) for it in items), ()))
                          for v, items in spec.vertices),
                    spec.edges + (("i~j", i, j, 0),)))
                assert p == loops.loop_sum(h, {**images, "i~j": (0, 1, -1, 0)})
                nonzero += not p.is_zero()
    assert nonzero >= 100     # 115 of the 642 entries


def test_hu_loops_reach():
    # 57,514 terms, past what the expansion affords, against the closed form
    g = cycle_graph(10)
    p = hu(g, method="loops")
    assert len(p.terms) == 57514
    assert p == hu_cycle(g)


def test_loops_imports_no_engine():
    # the loop sum is checked against qpoly's routes and hv's surgery, so it
    # may share none of their code
    path = Path(loops.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "maps" in imported
    assert imported & {"qpoly", "hyperbolic", "ops"} == set()


# --- partial duality ----------------------------------------------------------

@_streams(random_subsets, duality_sweep)
def test_q_partial_dual_transform(stream):
    for g, subset in stream():
        p = q_by_reduction(g).poly
        assert q_by_reduction(partial_dual(g, subset)).poly == q_partial_dual_transform(p, subset)


@_streams(fixed_and_random_subsets, duality_sweep)
def test_hu_partial_dual_transform(stream):
    for g, subset in stream():
        assert hu(partial_dual(g, subset)) == hu_partial_dual_transform(hu(g), subset)


@_streams(first_edges, duality_sweep)
def test_colored_counts_invariant_under_partial_duality(stream):
    for g, subset in stream():
        if subset:
            c, d = class_counts(g), class_counts(partial_dual(g, subset))
            assert (d.cev, d.coddf, d.cevf) == (c.cev, c.coddf, c.cevf)


def test_partial_dual_twice_is_identity():
    for g, subset in duality_sweep():
        assert isomorphic(partial_dual(partial_dual(g, subset), subset), g)


# --- the heat-kernel polynomial U ---------------------------------------------

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


# --- the critical polynomial (Omega = 1) --------------------------------------

def test_critical_equals_omega_one_orientable():
    cases = [bridge(1, 1), loop_graph(2, 1), two_cycle(), banana(3),
             banana(3, planar=False), dumbbell(), sunset(), star(3),
             triangle(with_flags=True), single_vertex(1), single_vertex(0)]
    rng = random.Random(555)
    cases += [random_rotation_graph(rng, max_edges=4, max_flags=2, orientable=True)
              for _ in range(20)]
    for g in cases:
        p = hu(g)
        omega = {v: 1 for v in p.variables() if v.kind == "OMEGA"}
        assert hu_critical(g) == p.substitute(omega)


def test_reconstruction_from_critical():
    cases = [bridge(2, 1), loop_graph(1, 1), two_cycle(), banana(3),
             banana(3, planar=False), dumbbell(), sunset(),
             triangle(with_flags=True), star(3, with_flags=True)]
    rng = random.Random(777)
    cases += [random_rotation_graph(rng, max_edges=4, max_flags=2, orientable=True)
              for _ in range(10)]
    for g in cases:
        assert hu_via_critical_algorithm(g) == hu(g)


# --- closed forms: trees and cycles -------------------------------------------

def _random_tree(rng: random.Random):
    """Up to 5 edges, each new vertex hung from a random earlier one, and 0-2
    flags per vertex at random rotation positions."""
    rotations = [[]]
    edges = []
    for child in range(1, rng.randint(0, 5) + 1):
        rotations[rng.randrange(child)].append(f"p{child}")
        rotations.append([f"c{child}"])
        edges.append((f"e{child}", f"p{child}", f"c{child}", 0))
    for v, items in enumerate(rotations):
        for j in range(rng.randint(0, 2)):
            items.insert(rng.randint(0, len(items)), f"F{v}.{j}")
    return from_rotation_system(RotationSpec(
        vertices=tuple((f"v{v}", tuple(items)) for v, items in enumerate(rotations)),
        edges=tuple(edges)))


def test_closed_forms_equal_hu():
    rng = random.Random(33)
    cases = [(_random_tree(rng), hu_tree) for _ in range(40)]
    for _ in range(30):
        n = rng.randint(1, 4)
        plan = {i: (rng.randint(0, 2), rng.randint(0, 2)) for i in range(1, n + 1)}
        cases.append((cycle_graph(n, plan), hu_cycle))
    cases += [(loop_graph(m, n), hu_cycle) for m in range(3) for n in range(3)]
    for g, closed_form in cases:
        assert closed_form(g) == hu(g)


# --- one-point joins ------------------------------------------------------------

def test_hu_of_one_point_joins():
    # 2 HU(G1 v G2) = HU(G1) HU(G2+) + HU(G1+) HU(G2), G+ being G with one
    # flag at its join corner: at the joined vertex the odd rule sees only
    # the parity of the two sides' counts.  The joined rotation runs G1's
    # join-vertex items from its corner c on, then G2's from its corner c
    # on; a bare join vertex is allowed
    rng = random.Random(31)
    nonzero = 0
    for _ in range(150):
        sides, vertices, edges, rotation = [], (), (), ()
        for tag in ("a.", "b."):
            spec = to_rotation_spec(random_rotation_graph(rng, max_edges=3, max_flags=2))
            rest = [(tag + v, tuple(tag + str(it) for it in items)) for v, items in spec.vertices]
            u, items = rest.pop(rng.randrange(len(rest)))
            c = rng.randint(0, len(items))
            own = tuple((tag + str(e), tag + str(p), tag + str(q), tw)
                        for e, p, q, tw in spec.edges)
            sides.append([hu(from_rotation_system(RotationSpec((*rest, (u, rot)), own)))
                          for rot in (items, items[:c] + (tag + "+",) + items[c:])])
            vertices += tuple(rest)
            edges += own
            rotation += items[c:] + items[:c]
        (g1, g1_plus), (g2, g2_plus) = sides
        join = hu(from_rotation_system(RotationSpec((*vertices, ("join", rotation)), edges)))
        assert join * 2 == g1 * g2_plus + g1_plus * g2
        nonzero += not join.is_zero()
    assert nonzero >= 45     # 52 of the 150 joins


# --- commutative limits -------------------------------------------------------

@_streams(limit_graphs, limit_survey, limit_families)
def test_hu_limit_methods_agree(stream):
    for g in stream():
        assert hu_commutative_limit(g) == hu_commutative_limit(g, method="extraction")


def test_spanning_tree_limit():
    for g in limit_survey():
        assert symanzik_commutative_limit(symanzik_u(g)) == spanning_tree_cotree_sum(g)


# --- specialisations and subgraph-class counts --------------------------------

# each specialisation, its weight rule and the constants it sets on every edge
SPECIALIZATIONS = [
    (specialize_br, RSequenceSpec.symbolic(), dict(x=1, z=0, w=0)),
    (specialize_dimer, RSequenceSpec.delta_one(), dict(x=1, y=0, z=0)),
    (specialize_ising, RSequenceSpec.even_two_odd_zero(), dict(y=0, z=0)),
]


def test_specializations_match_unpruned_expansion():
    # the pruned two-term reductions against every (A, B) pair, then the
    # same constants (and for BR the same single r)
    graphs = [g for g in acceptance_corpus().values() if len(g.edge_labels) <= 5]
    rng = random.Random(24)
    for i in range(60):
        if i % 4:
            graphs.append(random_rotation_graph(rng, max_edges=5, max_flags=3))
        else:
            graphs.append(disjoint_union(random_rotation_graph(rng, max_edges=2, max_flags=3),
                                         random_rotation_graph(rng, max_edges=3, max_flags=3)))
    rvar = VarId("R")
    for g in graphs:
        for specialize, rule, constants in SPECIALIZATIONS:
            ref = _sub_per_edge(g, q_by_expansion(g, rule).poly, **constants)
            if specialize is specialize_br:
                ref = ref.rename({v: rvar for v in ref.variables() if v.kind == "R"})
            assert specialize(g) == ref, specialize.__name__


def test_class_counts_match_exhaustive():
    # the closed form against the 2^e edge and 2^(2e) slot enumerations
    graphs = list(acceptance_corpus().values())
    rng = random.Random(17)
    graphs += [random_rotation_graph(rng, max_edges=6, max_flags=4) for _ in range(300)]
    assert _kinds(graphs) == ALL_KINDS
    for g in graphs:
        assert class_counts(g) == exhaustive_class_counts(g), to_rotation_spec(g)


def test_class_counts_match_reduction():
    # class_counts and q_by_reduction enumerate separately; the colored odd
    # and even counts are Q at A = {} under the odd- and even-vertex rules:
    # at x = w = 1, y = z = 0 only A = {} survives, each B counted once
    rng = random.Random(808)
    nonzero = 0
    for _ in range(60):
        g = random_rotation_graph(rng, max_edges=4, max_flags=3)
        c = class_counts(g)
        odd = q_by_reduction(g, RSequenceSpec.odd_two_even_zero()).poly
        even = q_by_reduction(g, RSequenceSpec.even_two_odd_zero()).poly
        assert _sub_per_edge(g, odd, x=1, y=0, z=0, w=1) == MultiPoly.const(c.codd)
        assert _sub_per_edge(g, even, x=1, y=0, z=0, w=1) == MultiPoly.const(c.cev)
        nonzero += (c.codd != 0) + (c.cev != 0)
    assert nonzero > 30
