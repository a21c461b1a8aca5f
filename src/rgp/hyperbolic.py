"""Hyperbolic-model polynomials: HU, the quadratic form HV, the face-product
factorization at Omega = 1, and the heat-kernel / commutative limits.

HU is the odd-weight evaluation of Q,

    HU = Q(x -> t, y -> O, z -> O t^2, w -> t O^2)  with  r_n = 2 [n odd],

a polynomial with nonnegative integer coefficients supported on the pairs
(A, B) whose residual graph has odd flag count at every vertex ("admissible").
The images of x, y, z and w are built on one t/Omega table (`_t_omega`).
Closed forms for trees, cycles and the Omega = 1 specialization give three
independent computation routes, all cross-checked in the test suite.

Routes.  `hu` reduces Q by the four-term relation and substitutes the
images (the default), enumerates Q's (A, B) pairs ("expansion"), sums the
loop model of `loops` with the images as its values ("loops"), or rebuilds
HU from the face product on orientable maps ("critical").  `hv` takes its
diagonal from `hu` of each flag-deleted graph.  Its off-diagonal entries
fuse two flags into an edge e of a new graph G' and take
HU(G'^e - e) - HU(G'^e v e): by default as loop sums with e forced into A
and signed by B, all closed from one sum over G's edges ("loops", where
that sum's width allows), or by building both graphs and calling `hu` on
each ("surgery").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import (HasFlags, NoFlags, NotACycle, NotATree, NotConnected,
                     NotOrientable, SelfCheckFailed, TooLarge, UnknownMethod)
from .gf2 import rank
from .loops import fused_sums, loop_sum
from .maps import (
    RibbonGraph,
    _UnionFind,
    _incidences,
    _interlace,
    _subset_degrees,
    face_count,
    orientation_selection,
    structure_report,
    vertices_of,
    RotationSpec,
    from_rotation_system,
)
from .ops import (cut, delete, delete_flag, natural_dual, partial_dual,
                  spanning_subgraph, to_rotation_spec)
from .poly import MultiPoly, VarId
from .qpoly import EXPANSION_MAX_EDGES, RSequenceSpec, q_by_expansion, q_by_reduction

# Q-reduction results are independent of labels, so one memo serves every HU
# computation in the process (HV alone triggers dozens of related graphs);
# `hu` empties it before a call once it holds over _SHARED_MEMO_BOUND entries.
_SHARED_MEMO: dict = {}
_SHARED_MEMO_BOUND = 4096

# hu_commutative_limit's enumeration visits all 2^e edge subsets.
_COMMUTATIVE_MAX_EDGES = 12
# symanzik_u's default guard: it visits all 2^e edge subsets too.
SYMANZIK_MAX_EDGES = 20


def _t_omega(edges) -> tuple[dict, dict]:
    """({e: t_e}, {e: O_e}) for the given edge labels, all over one shared
    key-ordered table (`MultiPoly.basis`)."""
    var = MultiPoly.basis(VarId(kind, lab) for lab in edges for kind in ("T", "OMEGA"))
    return ({lab: var[VarId("T", lab)] for lab in edges},
            {lab: var[VarId("OMEGA", lab)] for lab in edges})


def _hu_images(edges) -> dict:
    """{e: the images (t_e, O_e, O_e t_e^2, t_e O_e^2) of x_e, y_e, z_e and
    w_e}, all on the one t/Omega table of `_t_omega`."""
    t, om = _t_omega(edges)
    return {lab: (t[lab], om[lab], om[lab] * t[lab] * t[lab], t[lab] * om[lab] * om[lab])
            for lab in edges}


def hu(g: RibbonGraph, method: str = "reduction",
       max_edges: int = EXPANSION_MAX_EDGES) -> MultiPoly:
    """First hyperbolic polynomial, via Q under the odd-vertex weight (method
    "reduction" or "expansion") with Q's four variables per edge replaced by
    their images (`_hu_images`), as the loop sum over those images (method
    "loops", `TooLarge` above `loops.MAX_WIDTH`), or rebuilt from the face
    product at Omega = 1 on orientable maps (method "critical")."""
    rule = RSequenceSpec.odd_two_even_zero()
    if method == "reduction":
        if len(_SHARED_MEMO) > _SHARED_MEMO_BOUND:
            _SHARED_MEMO.clear()
        q = q_by_reduction(g, rule, memo=_SHARED_MEMO).poly
    elif method == "expansion":
        q = q_by_expansion(g, rule, max_edges=max_edges).poly
    elif method == "loops":
        return loop_sum(g, _hu_images(g.edge_labels))
    elif method == "critical":
        return hu_via_critical_algorithm(g)
    else:
        raise UnknownMethod(f"unknown method {method!r}")
    return q.substitute({VarId(kind, lab): img for lab, imgs in _hu_images(g.edge_labels).items()
                         for kind, img in zip("XYZW", imgs)})


def hu_partial_dual_transform(p: MultiPoly, edges) -> MultiPoly:
    """Swap t_e <-> O_e on the given edges: HU of a partial dual equals the
    swapped HU of the original."""
    mapping = {}
    for lab in edges:
        t, om = VarId("T", lab), VarId("OMEGA", lab)
        mapping.update({t: om, om: t})
    return p.rename(mapping)


# ---------------------------------------------------------------------------
# closed forms: trees and cycles
# ---------------------------------------------------------------------------

def _parity_split(factors) -> tuple[MultiPoly, MultiPoly]:
    """(even, odd) parts of the product of the (fe + fo) factors: the sums,
    over choosing fo from an even / odd number of factors, of the products."""
    even, odd = MultiPoly.one(), MultiPoly.zero()
    for fe, fo in factors:
        even, odd = even * fe + odd * fo, even * fo + odd * fe
    return even, odd


def _contracted_sum(edges: list, flags_at: list, ends: dict, amasks,
                    t: dict, om: dict) -> MultiPoly:
    """The closed-form sum over the given A (bitmasks over `edges`): contract
    A, then every vertex of G/A must be made odd by the cut edges B among the
    rest.  Each admissible (A, B) is weighted 2^(vertices of G/A).  t and om
    are the edges' t_e and O_e (`_t_omega`)."""
    one = MultiPoly.one()

    def terms():
        for amask in amasks:
            uf = _UnionFind(len(flags_at))
            rest = []
            for i, lab in enumerate(edges):
                if amask >> i & 1:
                    uf.union(*ends[lab])
                else:
                    rest.append(lab)
            roots = [uf.find(v) for v in range(len(flags_at))]
            cls = {r: k for k, r in enumerate(dict.fromkeys(roots))}   # G/A vertices
            base = [0] * len(cls)
            for r, nf in zip(roots, flags_at):
                base[cls[r]] += nf
            contracted = MultiPoly.const(2 ** len(base))
            for i, lab in enumerate(edges):
                if amask >> i & 1:
                    contracted = contracted * om[lab] * (one + t[lab] * t[lab])
            pairs = [(cls[roots[u]], cls[roots[w]]) for u, w in (ends[lab] for lab in rest)]
            for bmask, deg in _subset_degrees(base, pairs):
                if any(d % 2 == 0 for d in deg):
                    continue
                term = one
                for j, lab in enumerate(rest):
                    term = term * (om[lab] * om[lab] * t[lab] if bmask >> j & 1 else t[lab])
                yield contracted * term

    return MultiPoly.sum(terms())


def hu_tree(g: RibbonGraph) -> MultiPoly:
    """HU of a tree: contract any A, then every leftover vertex must be made
    odd by cut edges, weighted 2^(vertices of G/A) = 2^(e - |A| + 1)."""
    rep = structure_report(g)
    if rep.k != 1 or rep.e != rep.v - 1:
        raise NotATree(f"v={rep.v}, e={rep.e}, k={rep.k} is not a tree")
    if g.bare_vertices:
        return MultiPoly.zero()   # a flagless point has even (zero) flag count
    flags_at, ends = _incidences(g)
    edges = g.sorted_edges()
    return _contracted_sum(edges, flags_at, ends, range(1 << len(edges)), *_t_omega(edges))


def hu_cycle(g: RibbonGraph) -> MultiPoly:
    """HU of an untwisted cycle (flags allowed anywhere, loops count)."""
    rep = structure_report(g)
    flags_at, ends = _incidences(g)
    slots_ok = all(len(v.crosses) // 2 - nf == 2
                   for v, nf in zip(vertices_of(g), flags_at))
    if rep.k != 1 or g.bare_vertices or rep.e < 1 or not slots_ok or rep.faces != 2:
        raise NotACycle("expected a connected untwisted cycle (two faces, "
                        "every vertex bivalent)")
    edges = g.sorted_edges()
    m, n = _incidences(natural_dual(g))[0]     # flags per face
    t, om = _t_omega(edges)

    total = MultiPoly.zero()
    if (m - n) % 2 == 0:
        # the two-face term survives only when both faces break the same way:
        # prod O_e (1 + t_e^2) with an odd (n even) / even (n odd) number of t^2
        even, odd = _parity_split((om[lab], om[lab] * t[lab] * t[lab]) for lab in edges)
        total = MultiPoly.const(4) * (odd if n % 2 == 0 else even)

    # proper subsets only: A = every edge is the two-face term above
    return total + _contracted_sum(edges, flags_at, ends, range((1 << len(edges)) - 1),
                                   t, om)


# ---------------------------------------------------------------------------
# the critical point Omega = 1
# ---------------------------------------------------------------------------

def hu_critical(g: RibbonGraph) -> MultiPoly:
    """The critical face product: HU at Omega = 1 on orientable maps.

    On a non-orientable map it is only the face product and need not equal
    HU at Omega = 1: the twisted loop has HU = 0 but face product 4*t_e1.

    Each face contributes the odd-cardinality sum over its edge slots (an edge
    has two slots; both may lie on the same face) shifted by the face's flag
    parity; a flagless isolated vertex contributes an empty odd sum, i.e. 0.
    """
    if g.bare_vertices:
        return MultiPoly.zero()
    face_flags, sides = _incidences(natural_dual(g))
    edges = g.sorted_edges()
    # the t variables alone: a shared O table would widen every face product
    var = MultiPoly.basis(VarId("T", lab) for lab in edges)
    one = MultiPoly.one()
    total = MultiPoly.const(2 ** len(face_flags))
    for face, phi in enumerate(face_flags):
        factors = []
        for lab in edges:
            t = var[VarId("T", lab)]
            mult = sides[lab].count(face)
            if mult == 1:
                factors.append((one, t))
            elif mult == 2:
                factors.append((one + t * t, t * 2))
        even, odd = _parity_split(factors)
        total = total * (odd if phi % 2 == 0 else even)
    return total


def hu_via_critical_algorithm(g: RibbonGraph) -> MultiPoly:
    """Rebuild the full HU from its Omega = 1 factorization.

    Each monomial of the face product determines the dualized set A (edges of
    even t-degree) and the cut-within-A set (t^2 edges); the edges of odd
    t-degree are distributed over cut/delete by the odd-parity admissibility
    rule.  Only meaningful on orientable graphs — the factorization itself
    fails otherwise — so non-orientable input raises NotOrientable.
    """
    if not orientation_selection(g).orientable:
        raise NotOrientable("reconstruction from the critical factorization "
                            "requires an orientable graph")
    crit = hu_critical(g)
    edges = g.sorted_edges()
    terms = []
    for tmono, _coeff in crit.monomials():
        texp = {v.label: e for v, e in tmono.items()}
        A = [lab for lab in edges if texp.get(lab, 0) % 2 == 0]
        square = [lab for lab in edges if texp.get(lab, 0) == 2]
        odd = [lab for lab in edges if texp.get(lab, 0) == 1]
        h = partial_dual(g, A)
        flags_at, ends = _incidences(h)
        base = list(flags_at)
        for lab in square:
            u, w = ends[lab]
            base[u] += 1
            base[w] += 1
        weight = 2 ** (len(vertices_of(h)) + h.bare_vertices)
        # t-part from the face product, O_e on A, O_e^2 on the cut odd edges
        for dmask, deg in _subset_degrees(base, [ends[lab] for lab in odd]):
            if any(d % 2 == 0 for d in deg):
                continue
            mono = dict(tmono)
            mono.update((VarId("OMEGA", lab), 1) for lab in A)
            mono.update((VarId("OMEGA", lab), 2)
                        for j, lab in enumerate(odd) if dmask >> j & 1)
            terms.append((mono, weight))
    total = MultiPoly.from_monomials(terms)
    flattened = total.substitute({VarId("OMEGA", lab): 1 for lab in edges})
    if flattened != crit:
        raise SelfCheckFailed("reconstruction must specialize back to the face product")
    return total


# ---------------------------------------------------------------------------
# the quadratic form HV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """Flag-indexed quadratic form: diagonal, symmetric and antisymmetric
    coefficient tables.  sym and antisym are keyed by flag pairs (i, j) with
    str(i) < str(j); the antisymmetric part for (j, i) is the negation."""
    flags: tuple
    diag: dict
    sym: dict
    antisym: dict

    def __hash__(self) -> int:
        return hash((self.flags, frozenset(self.diag.items()),
                     frozenset(self.sym.items()), frozenset(self.antisym.items())))


def _edge_difference(g: RibbonGraph, label) -> MultiPoly:
    """HU(G^e - e) - HU(G^e v e) for the fused edge, by surgery."""
    pd = partial_dual(g, [label])
    d = hu(delete(pd, label)) - hu(cut(pd, label))
    if any(v.label == label for v in d.variables()):
        raise SelfCheckFailed("the fused edge must be eliminated from both branches")
    return d


def hv(g: RibbonGraph, method: str = "loops") -> QuadraticForm:
    """Second hyperbolic polynomial as a quadratic form over the flags.

    diag_i drops flag i and takes HU; the off-diagonal parts fuse flags i and
    j into one untwisted edge of `to_rotation_spec(g)` and take the
    difference of HU over the two ways of removing it.  antisym additionally
    marks a flag spliced into the rotation right after i.  Method "loops"
    writes one graph with a marker right after every flag and sums its
    edges' loop model once (`loops.fused_sums`): each entry closes the kept
    states with its own marker marked and the other markers absent.  Where
    that sum is wider than `loops.MAX_WIDTH`, and for method "surgery", each
    entry builds its graph and calls `hu` on both surgeries.  The
    antisymmetric table is canonical up to one global sign, fixed here by
    the rotations `to_rotation_spec` writes.
    """
    if method not in ("loops", "surgery"):
        raise UnknownMethod(f"unknown method {method!r}")
    flags = tuple(sorted(g.flag_labels, key=str))
    if not flags:
        raise NoFlags("the quadratic form needs at least one flag")
    diag = {i: hu(delete_flag(g, i)) for i in flags}
    spec = to_rotation_spec(g)
    marker = "+"
    while any(str(it).startswith(marker) for _v, items in spec.vertices for it in items):
        marker += "+"

    def marked(names: dict) -> tuple:
        """spec's rotations with each flag f of `names` followed by names[f]."""
        return tuple((v, sum(((it, names[it]) if it in names else (it,) for it in items), ()))
                     for v, items in spec.vertices)

    pairs = list(combinations(flags, 2))
    sums = None
    if method == "loops":
        names = {f: f"{marker}{k}" for k, f in enumerate(flags)}
        others = {(i, j): set(flags) - {i, j} for i, j in pairs}
        try:
            # each pair's sym entry, then its antisym entries marked after i and after j
            sums = fused_sums(
                from_rotation_system(RotationSpec(marked(names), spec.edges)),
                _hu_images(g.edge_labels),
                [(i, j, [m, m | {names[i]}, m | {names[j]}]) for (i, j), m in others.items()])
        except TooLarge:
            pass    # wider than the loop order affords: surgery has no bound
    if sums is None:
        sums = []
        for i, j in pairs:
            label = f"{i}~{j}"
            while label in g.edge_labels:
                label += "'"
            edges = spec.edges + ((label, i, j, 0),)
            sums.append([_edge_difference(from_rotation_system(RotationSpec(v, edges)), label)
                         for v in (spec.vertices, marked({i: marker}), marked({j: marker}))])
    sym, antisym = {}, {}
    for pair, (symmetric, fwd, bwd) in zip(pairs, sums):
        if fwd != -bwd:
            raise SelfCheckFailed("the marked difference must be antisymmetric "
                                  "in the flag order")
        sym[pair], antisym[pair] = symmetric, fwd
    return QuadraticForm(flags, diag, sym, antisym)


# ---------------------------------------------------------------------------
# heat-kernel limit: the Symanzik polynomial
# ---------------------------------------------------------------------------

def symanzik_u(g: RibbonGraph, method: str = "rank",
               max_edges: int = SYMANZIK_MAX_EDGES) -> MultiPoly:
    """Sum over spanning quasi-trees: b^(|A| - v + 1) * prod_{e not in A} a_e.

    A quasi-tree is an edge subset A whose spanning subgraph has one face.
    rank: the face count is read off the interlace matrix (`maps._interlace`),
    one GF(2) rank per A; faces: each spanning subgraph is built and its faces
    walked (the reference route).  Both visit all 2^e subsets, so more than
    max_edges edges raise TooLarge.
    """
    if g.flag_labels:
        raise HasFlags("the heat-kernel limit is defined for flagless graphs")
    rep = structure_report(g)
    if rep.k != 1:
        raise NotConnected(f"{rep.k} components")
    edges = g.sorted_edges()
    ne = len(edges)
    if ne > max_edges:
        raise TooLarge(f"{ne} edges exceeds the symanzik guard {max_edges}")
    if method == "rank":
        rows, tree_mask, base_vertices = _interlace(g)

        def faces(amask: int) -> int:
            x = amask ^ tree_mask
            return base_vertices + x.bit_count() - rank(
                rows[i] & x for i in range(ne) if x >> i & 1)
    elif method == "faces":
        def faces(amask: int) -> int:
            return face_count(spanning_subgraph(
                g, [edges[i] for i in range(ne) if amask >> i & 1]))
    else:
        raise UnknownMethod(f"unknown method {method!r}")
    beta = VarId("BETA")
    alphas = [VarId("ALPHA", lab) for lab in edges]
    terms = []
    for amask in range(1 << ne):
        if faces(amask) != 1:
            continue
        mono = {a: 1 for i, a in enumerate(alphas) if not amask >> i & 1}
        mono[beta] = amask.bit_count() - rep.v + 1
        terms.append((mono, 1))
    return MultiPoly.from_monomials(terms)


def symanzik_dual_check(g: RibbonGraph, edges) -> bool:
    """Exact covariance of U under partial duality: dualized edges invert
    (a_e -> b^2/a_e, times a_e/b each) with a global b^(v - v_dual) factor."""
    sub = set(edges)
    h = partial_dual(g, sub)
    direct = symanzik_u(h)
    shift = structure_report(g).v - structure_report(h).v
    beta = VarId("BETA")
    rebuilt = []
    for mono, c in symanzik_u(g).monomials():
        bexp = shift + mono.pop(beta, 0) - len(sub)
        for lab in sub:
            alpha = VarId("ALPHA", lab)
            if alpha in mono:
                bexp += 2 * mono.pop(alpha)   # a_e -> b^2 / a_e cancels it
            else:
                mono[alpha] = 1
        if bexp < 0:
            return False
        mono[beta] = bexp
        rebuilt.append((mono, c))
    return MultiPoly.from_monomials(rebuilt) == direct


def symanzik_commutative_limit(p: MultiPoly) -> MultiPoly:
    """Drop to b-degree zero: the spanning-tree part of U."""
    return p.coefficient_of_kind_degree("BETA", 0)


# ---------------------------------------------------------------------------
# commutative (small-Omega) limit of HU
# ---------------------------------------------------------------------------

def _cycle_edges(comp_edges: list, ends) -> list:
    """Leaf-strip the component; what survives is its unique cycle."""
    degree: dict = {}
    for lab in comp_edges:
        u, w = ends[lab]
        degree[u] = degree.get(u, 0) + 1
        degree[w] = degree.get(w, 0) + 1
    alive = set(comp_edges)
    changed = True
    while changed:
        changed = False
        for lab in list(alive):
            u, w = ends[lab]
            if u != w and (degree[u] == 1 or degree[w] == 1):
                alive.remove(lab)
                degree[u] -= 1
                degree[w] -= 1
                changed = True
    return sorted(alive, key=str)


def hu_commutative_limit(g: RibbonGraph, method: str = "enumeration") -> MultiPoly:
    """Leading small-Omega part of HU (total Omega-degree = vertex count).

    enumeration: sum over spanning subgraphs whose components are trees with
    at least one edge or unicyclic graphs with an untwisted cycle; each tree
    contributes 4 * sum_e O_e^2 t_e prod_(rest) O (1+t^2), each cycle the odd
    cut-subset sum, and uncovered edges contribute t_e.  It visits all 2^e
    edge subsets, so more than _COMMUTATIVE_MAX_EDGES edges raise TooLarge.

    extraction: substitute O_e -> b O_e into HU and take the b^v coefficient.
    No monomial may sit below degree v; degree above v everywhere means the
    coefficient, and hence the limit, is zero (interleaved twisted loops).
    """
    if g.flag_labels:
        raise HasFlags("the commutative limit is defined for flagless graphs")
    if method == "extraction":
        p = hu(g)
        if p.is_zero():
            return MultiPoly.zero()
        v = structure_report(g).v
        beta = MultiPoly.variable("BETA")
        om = _t_omega(g.edge_labels)[1]
        graded = p.substitute({VarId("OMEGA", lab): beta * o for lab, o in om.items()})
        degrees = {mono.get(VarId("BETA"), 0) for mono, _c in graded.monomials()}
        if min(degrees) < v:
            raise SelfCheckFailed(f"leading Omega-degree {min(degrees)} < v = {v}")
        return graded.coefficient_of_kind_degree("BETA", v)
    if method != "enumeration":
        raise UnknownMethod(f"unknown method {method!r}")

    edges = g.sorted_edges()
    ne = len(edges)
    if g.bare_vertices:
        return MultiPoly.zero()   # an uncoverable vertex admits no subgraph
    if ne > _COMMUTATIVE_MAX_EDGES:
        raise TooLarge(f"{ne} edges exceeds the commutative-limit guard "
                       f"{_COMMUTATIVE_MAX_EDGES}")
    flags_at, ends = _incidences(g)
    nv = len(flags_at)
    twist = {lab: tw for lab, _p, _q, tw in to_rotation_spec(g).edges}
    t, om = _t_omega(edges)
    one = MultiPoly.one()
    kept = {lab: om[lab] * (one + t[lab] * t[lab]) for lab in edges}
    factors: dict = {}   # a component's edges -> its factor, None if it has none

    def factor(labs: tuple, size: int):
        if len(labs) == size - 1:
            # the tree: 4 * sum_e O_e^2 t_e prod_(rest) O (1 + t^2)
            prod, acc = one, MultiPoly.zero()
            for lab in labs:
                acc = acc * kept[lab] + prod * om[lab] * om[lab] * t[lab]
                prod = prod * kept[lab]
            return acc * 4
        if len(labs) > size:
            return None
        cyc = _cycle_edges(labs, ends)
        if sum(twist[lab] for lab in cyc) % 2 == 1:
            return None
        _even, odd = _parity_split((om[lab], om[lab] * t[lab] * t[lab]) for lab in cyc)
        for lab in labs:
            if lab not in cyc:
                odd = odd * kept[lab]
        return odd * 4

    def weights():
        for mask in range(1 << ne):
            uf = _UnionFind(nv)
            weight = one
            for i, lab in enumerate(edges):
                if mask >> i & 1:
                    uf.union(*ends[lab])
                else:
                    weight = weight * t[lab]
            roots = [uf.find(v) for v in range(nv)]
            comp_edges: dict = {}
            for i, lab in enumerate(edges):
                if mask >> i & 1:
                    comp_edges.setdefault(roots[ends[lab][0]], []).append(lab)
            if len(comp_edges) != len(set(roots)):
                continue     # a vertex no kept edge covers
            size = Counter(roots)
            for root, labs in comp_edges.items():
                key = tuple(labs)
                if key not in factors:
                    factors[key] = factor(key, size[root])
                f = factors[key]
                if f is None:
                    break
                weight = weight * f
            else:
                yield weight

    return MultiPoly.sum(weights())
