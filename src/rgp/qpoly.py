"""The four-variable subset-expansion polynomial Q and its specializations.

Q sums over pairs (A, B): A a subset of edges, B a subset of edges of the
partial dual by A.  Edges fall into four classes — untouched (x), dualised
only (y), dualised and kept (z), kept only (w) — and each vertex of the
partial dual contributes a weight r_n where n counts the flags left on it by
the residual operation (cut B, delete the rest, keep original flags).

Two strategies are implemented: direct enumeration of (A, B), and the
four-term edge reduction

    Q(G) = x_e Q(G - e) + y_e Q(G^e - e) + z_e Q(G^e v e) + w_e Q(G v e)

with memoisation keyed by the canonical form (so isomorphic intermediate
graphs are computed once and transported along the label bijection).

The weights r_n are per vertex, so Q of a disjoint union is the product of
the Q of its parts.  The reduction splits every disconnected graph into its
components, so the memo holds connected maps without bare vertices only, and
a branch whose bare or edgeless vertices weigh zero (r_0 = 0 under the odd
rule) is dropped before it is reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import TooLarge, UnknownMethod
from .maps import (RibbonGraph, _incidences, _subset_degrees, canonical_form,
                   cross_components)
from .ops import cut, delete, partial_dual, restrict
from .poly import MultiPoly, VarId


# ---------------------------------------------------------------------------
# vertex-degree weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RSequenceSpec:
    """The weight r_n attached to a residual vertex with n flags."""
    rule: str
    constant: Optional[int] = None

    SYMBOLIC = "SYMBOLIC"
    EVEN_TWO_ODD_ZERO = "EVEN_TWO_ODD_ZERO"
    ODD_TWO_EVEN_ZERO = "ODD_TWO_EVEN_ZERO"
    DELTA_ONE = "DELTA_ONE"
    CONSTANT = "CONSTANT"

    @staticmethod
    def symbolic() -> "RSequenceSpec":
        return RSequenceSpec(RSequenceSpec.SYMBOLIC)

    @staticmethod
    def even_two_odd_zero() -> "RSequenceSpec":
        return RSequenceSpec(RSequenceSpec.EVEN_TWO_ODD_ZERO)

    @staticmethod
    def odd_two_even_zero() -> "RSequenceSpec":
        return RSequenceSpec(RSequenceSpec.ODD_TWO_EVEN_ZERO)

    @staticmethod
    def delta_one() -> "RSequenceSpec":
        return RSequenceSpec(RSequenceSpec.DELTA_ONE)

    @staticmethod
    def constant(c: int) -> "RSequenceSpec":
        return RSequenceSpec(RSequenceSpec.CONSTANT, c)

    def weight(self, n: int) -> MultiPoly:
        if self.rule == self.SYMBOLIC:
            return MultiPoly.variable("R", n)
        if self.rule == self.EVEN_TWO_ODD_ZERO:
            return MultiPoly.const(2 if n % 2 == 0 else 0)
        if self.rule == self.ODD_TWO_EVEN_ZERO:
            return MultiPoly.const(2 if n % 2 == 1 else 0)
        if self.rule == self.DELTA_ONE:
            return MultiPoly.const(1 if n == 1 else 0)
        if self.rule == self.CONSTANT:
            return MultiPoly.const(self.constant)
        raise UnknownMethod(f"unknown r-rule {self.rule!r}")

    def key(self):
        return (self.rule, self.constant)


@dataclass(frozen=True)
class QResult:
    poly: MultiPoly
    method: str                      # "EXPANSION" or "REDUCTION"
    admissible_pairs: Optional[int]  # (A,B) pairs with nonzero weight; expansion only


def _edge_var(kind: str, label) -> MultiPoly:
    return MultiPoly.variable(kind, label)


# ---------------------------------------------------------------------------
# strategy 1: subset expansion
# ---------------------------------------------------------------------------

def q_by_expansion(g: RibbonGraph, r: RSequenceSpec | None = None,
                   max_edges: int = 10) -> QResult:
    """Enumerate all (A, B) pairs.  Guarded by e(G) <= max_edges."""
    r = r or RSequenceSpec.symbolic()
    edges = g.sorted_edges()
    ne = len(edges)
    if ne > max_edges:
        raise TooLarge(f"{ne} edges exceeds the expansion guard {max_edges}")

    # the class of edge i is "XWYZ"[2 [i in A] + [i in B]]
    edge_vars = [[VarId(kind, lab) for kind in "XWYZ"] for lab in edges]
    terms = []
    admissible = 0
    for amask in range(1 << ne):
        A = [edges[i] for i in range(ne) if amask >> i & 1]
        h = partial_dual(g, A)
        flags_at, ends = _incidences(h)
        r0_bare = r.weight(0) ** h.bare_vertices
        for bmask, deg in _subset_degrees(flags_at, [ends[lab] for lab in edges]):
            weight = r0_bare
            for n in deg:
                weight = weight * r.weight(n)
                if weight.is_zero():
                    break
            if weight.is_zero():
                continue
            admissible += 1
            mono = {kinds[2 * (amask >> i & 1) + (bmask >> i & 1)]: 1
                    for i, kinds in enumerate(edge_vars)}
            for rexps, c in weight.monomials():
                rexps.update(mono)
                terms.append((rexps, c))
    return QResult(MultiPoly.from_monomials(terms), "EXPANSION", admissible)


# ---------------------------------------------------------------------------
# strategy 2: four-term reduction
# ---------------------------------------------------------------------------

def _edge_relabelling(labels: dict) -> dict:
    """x/y/z/w of each label in `labels` -> the same kinds at its image."""
    return {VarId(kind, a): VarId(kind, b) for a, b in labels.items() for kind in "XYZW"}


def q_by_reduction(g: RibbonGraph, r: RSequenceSpec | None = None,
                   edge_order: Optional[list] = None,
                   memo: Optional[dict] = None) -> QResult:
    """Recursive four-term reduction with canonical-form memoisation.

    The reduction edge is the first entry of edge_order present in the current
    graph (default: smallest label).  Results are independent of the order;
    the memo (shareable across calls) stores polynomials over canonical edge
    slots and rebrands them through each caller's slot bijection.

    A disconnected or edgeless graph, or one with bare vertices, is the
    product of its components: bare vertices and edgeless components fold
    into one scalar weight, and a zero factor returns zero at once.  So only
    connected graphs with edges and no bare vertex reach the canonical form
    and the memo.
    """
    r = r or RSequenceSpec.symbolic()
    if memo is None:
        memo = {}
    rkey = r.key()

    def rec(h: RibbonGraph) -> MultiPoly:
        """Q as the product over the components.  A component without edges
        is one vertex carrying only flags, so it and the bare vertices fold
        into one scalar, r_(flag count) each.  A zero factor ends the branch."""
        comps = cross_components(h)
        if len(comps) == 1 and h.edge_labels and not h.bare_vertices:
            return connected(h)
        s1 = h.map.sigma1.mapping
        scalar = r.weight(0) ** h.bare_vertices
        live = []
        for comp in comps:
            if any(s1[x] != x for x in comp):
                live.append(comp)
            else:
                scalar = scalar * r.weight(len(comp) // 2)
        if scalar.is_zero():
            return scalar
        p = scalar
        for comp in live:
            p = p * connected(restrict(h, comp))
            if p.is_zero():
                break
        return p

    def connected(h: RibbonGraph) -> MultiPoly:
        """The memoised four-term step on a connected graph with edges and no
        bare vertex."""
        cf = canonical_form(h)
        hit = memo.get((cf.key, rkey))
        if hit is not None:
            return hit.rename(_edge_relabelling(
                {slot: lab for lab, slot in cf.edge_slots.items()}))
        e = None
        if edge_order:
            for cand in edge_order:
                if cand in h.edge_labels:
                    e = cand
                    break
        if e is None:
            e = h.sorted_edges()[0]
        hd = partial_dual(h, [e])
        p = (_edge_var("X", e) * rec(delete(h, e))
             + _edge_var("Y", e) * rec(delete(hd, e))
             + _edge_var("Z", e) * rec(cut(hd, e))
             + _edge_var("W", e) * rec(cut(h, e)))
        memo[(cf.key, rkey)] = p.rename(_edge_relabelling(cf.edge_slots))
        return p

    return QResult(rec(g), "REDUCTION", None)


def q_polynomial(g: RibbonGraph, r: RSequenceSpec | None = None,
                 method: str = "reduction", max_edges: int = 10) -> QResult:
    if method == "expansion":
        return q_by_expansion(g, r, max_edges=max_edges)
    if method == "reduction":
        return q_by_reduction(g, r)
    raise UnknownMethod(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# partial-duality transport
# ---------------------------------------------------------------------------

def q_partial_dual_transform(p: MultiPoly, edges: Iterable) -> MultiPoly:
    """Swap x<->y and z<->w on the given edge labels: the polynomial of a
    partial dual equals the transformed polynomial of the original."""
    mapping = {}
    for lab in edges:
        x, y, z, w = (VarId(kind, lab) for kind in "XYZW")
        mapping.update({x: y, y: x, z: w, w: z})
    return p.rename(mapping)


# ---------------------------------------------------------------------------
# specializations
# ---------------------------------------------------------------------------

def _sub_per_edge(g: RibbonGraph, p: MultiPoly, x=None, y=None, z=None, w=None) -> MultiPoly:
    mapping = {}
    for lab in g.edge_labels:
        for kind, val in (("X", x), ("Y", y), ("Z", z), ("W", w)):
            if val is not None:
                mapping[VarId(kind, lab)] = MultiPoly.const(val)
    return p.substitute(mapping)


def specialize_br(g: RibbonGraph) -> MultiPoly:
    """x=1, z=w=0 and a single symbolic vertex weight r: the edge-subset sum
    of y^A r^(vertex count of the partial dual)."""
    p = q_by_reduction(g, RSequenceSpec.symbolic()).poly
    p = _sub_per_edge(g, p, x=1, z=0, w=0)
    rvar = VarId("R")
    return p.rename({v: rvar for v in p.variables() if v.kind == "R" and v.label is not None})


def specialize_dimer(g: RibbonGraph) -> MultiPoly:
    """x=1, y=z=0 with the delta-at-one weight: the perfect-matching sum in w."""
    p = q_by_reduction(g, RSequenceSpec.delta_one()).poly
    return _sub_per_edge(g, p, x=1, y=0, z=0)


def specialize_ising(g: RibbonGraph) -> MultiPoly:
    """y=z=0 with even-degree weight 2: the even-subgraph (Ising) sum in x, w."""
    p = q_by_reduction(g, RSequenceSpec.even_two_odd_zero()).poly
    return _sub_per_edge(g, p, y=0, z=0)
