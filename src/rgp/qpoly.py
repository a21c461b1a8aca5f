"""The four-variable subset-expansion polynomial Q and its specializations.

Q sums over pairs (A, B): A a subset of edges, B a subset of edges of the
partial dual by A.  Edges fall into four classes — untouched (x), dualised
only (y), dualised and kept (z), kept only (w) — and each vertex of the
partial dual contributes a weight r_n where n counts the flags left on it by
the residual operation (cut B, delete the rest, keep original flags).

Two strategies are implemented: direct enumeration of (A, B), and the
four-term edge reduction

    Q(G) = x_e Q(G - e) + y_e Q(G^e - e) + z_e Q(G^e v e) + w_e Q(G v e)

on a loop first, else on an edge with the lowest end degrees, with
memoisation keyed by the canonical form (so isomorphic intermediate graphs
are computed once and transported along the label bijection).  The
key sees each corner's flag count only through the rule's fold
(`RSequenceSpec.fold`): n mod 2 under the parity rules, min(n, 2) under
delta-at-one, nothing under a constant.  That is exact because the
surgeries split a vertex boundary only at edge ends, so the flags of one
corner end at one residual vertex, and each fold is a congruence of (N, +)
on whose classes r_n is constant.  Maps that differ only in what the rule
cannot see share one memo entry.

Every r_n is an int times at most one variable (`RSequenceSpec.scalar`), so
the enumeration weighs each pair with int products and variable counts, and
hands its exponent rows over one fixed variable table to
`MultiPoly.from_rows`.  For each A it walks the subsets B in Gray-code order
(`maps._subset_degrees`): a step moves one edge in or out of B, so it changes
one edge column of the row and the weights of two vertices.

The weights r_n are per vertex, so Q of a disjoint union is the product of
the Q of its parts.  The reduction splits every disconnected graph into its
components, so the memo holds connected maps without bare vertices only, and
a branch whose bare or edgeless vertices weigh zero (r_0 = 0 under the odd
rule) is dropped before it is reduced.  Likewise a branch whose edge weight is
zero (`zero_kinds`) is never built: the specialisations that set two of x, y,
z, w to 0 run a two-term reduction.

`q_polynomial` enumerates by default when no weight can be zero (every pair
then survives, and the reduction has nothing to prune), and reduces
otherwise.  Both routes stay, as independent checks of each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional

from .errors import InvalidArgument, TooLarge, UnknownMethod
from .maps import (RibbonGraph, _incidences, _subset_degrees, canonical_form,
                   cross_components)
from .ops import cut, delete, partial_dual, restrict
from .poly import MultiPoly, VarId


# ---------------------------------------------------------------------------
# vertex-degree weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RSequenceSpec:
    """The weight r_n attached to a residual vertex with n flags.  `value`
    is the int every r_n equals under the constant rule, and None under the
    others."""
    rule: str
    value: Optional[int] = None

    SYMBOLIC = "SYMBOLIC"
    EVEN_TWO_ODD_ZERO = "EVEN_TWO_ODD_ZERO"
    ODD_TWO_EVEN_ZERO = "ODD_TWO_EVEN_ZERO"
    DELTA_ONE = "DELTA_ONE"
    CONSTANT = "CONSTANT"

    def __post_init__(self) -> None:
        if self.rule not in (self.SYMBOLIC, self.EVEN_TWO_ODD_ZERO,
                             self.ODD_TWO_EVEN_ZERO, self.DELTA_ONE, self.CONSTANT):
            raise UnknownMethod(f"unknown r-rule {self.rule!r}")
        if self.rule == self.CONSTANT:
            if not isinstance(self.value, int):
                raise InvalidArgument(f"the constant rule wants an int, not {self.value!r}")
        elif self.value is not None:
            raise InvalidArgument(f"the {self.rule} rule takes no constant")

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

    def scalar(self, n: int) -> tuple[int, Optional[VarId]]:
        """r_n as a coefficient times at most one variable (None: no
        variable)."""
        if self.rule == self.SYMBOLIC:
            return 1, VarId("R", n)
        if self.rule == self.EVEN_TWO_ODD_ZERO:
            return (2 if n % 2 == 0 else 0), None
        if self.rule == self.ODD_TWO_EVEN_ZERO:
            return (2 if n % 2 == 1 else 0), None
        if self.rule == self.DELTA_ONE:
            return (1 if n == 1 else 0), None
        return self.value, None

    def fold(self, n: int) -> int:
        """What the weights see of n flags in one corner: n mod 2 under the
        parity rules, min(n, 2) under delta-at-one, 0 under a constant, n
        itself under the symbolic rule.  Each fold is a congruence of
        (N, +) on whose classes r_n is constant, so the folded counts of the
        corners that meet at a vertex fix that vertex's weight."""
        if self.rule in (self.EVEN_TWO_ODD_ZERO, self.ODD_TWO_EVEN_ZERO):
            return n % 2
        if self.rule == self.DELTA_ONE:
            return min(n, 2)
        if self.rule == self.CONSTANT:
            return 0
        return n

    def weight(self, n: int) -> MultiPoly:
        c, v = self.scalar(n)
        return MultiPoly.variable(v.kind, v.label) if v else MultiPoly.const(c)


@dataclass(frozen=True)
class QResult:
    poly: MultiPoly
    method: str                      # "EXPANSION" or "REDUCTION"
    admissible_pairs: Optional[int]  # (A,B) pairs with nonzero weight; expansion only


# ---------------------------------------------------------------------------
# strategy 1: subset expansion
# ---------------------------------------------------------------------------

def q_by_expansion(g: RibbonGraph, r: RSequenceSpec | None = None,
                   max_edges: int = 10) -> QResult:
    """Enumerate all (A, B) pairs.  Guarded by e(G) <= max_edges.

    Every r_n is a coefficient times at most one variable, so the weight of
    a pair is an int times a product of R variables.  For each A the subsets
    B come in Gray-code order, and the walk keeps one exponent row and each
    vertex's weight: a step that moves edge j in or out of B swaps j's
    column and re-weighs j's two ends, and a pair is admissible when the
    product of the int weights is not zero."""
    r = r or RSequenceSpec.symbolic()
    edges = g.sorted_edges()
    ne = len(edges)
    if ne > max_edges:
        raise TooLarge(f"{ne} edges exceeds the expansion guard {max_edges}")

    # r_n for every count of flags and edge ends a vertex can carry
    scalars = [r.scalar(n) for n in range(len(g.flag_labels) + 2 * ne + 1)]
    # One table for every term: x, y, z, w of each edge, then the r_n; each
    # term is a row of exponents over it.
    table = [VarId(kind, lab) for kind in "XYZW" for lab in edges]
    table += dict.fromkeys(v for _, v in scalars if v is not None)
    column = {v: i for i, v in enumerate(table)}
    weights = [(c, None if v is None else column[v]) for c, v in scalars]
    c0, r0 = weights[0]
    # the column of edge i's variable is edge_columns[i][i in A][i in B]
    edge_columns = [((i, 3 * ne + i), (ne + i, 2 * ne + i)) for i in range(ne)]
    admissible = 0

    def rows():
        nonlocal admissible
        for amask in range(1 << ne):
            h = partial_dual(g, [edges[i] for i in range(ne) if amask >> i & 1])
            c_bare = c0 ** h.bare_vertices
            if not c_bare:
                continue
            flags_at, ends = _incidences(h)
            pairs = [ends[lab] for lab in edges]
            columns = [ec[amask >> i & 1] for i, ec in enumerate(edge_columns)]
            # the row of B = {}, and each vertex's weight r_(its flags) as an
            # int and the column of its variable
            row = [0] * len(table)
            if r0 is not None:
                row[r0] = h.bare_vertices
            for out_of_b, _ in columns:
                row[out_of_b] = 1
            coeffs = [weights[n][0] for n in flags_at]
            cols = [weights[n][1] for n in flags_at]
            for i in cols:
                if i is not None:
                    row[i] += 1
            # each step moves one edge j in or out of B: j's column and the
            # weights of its two ends change, and nothing else
            prev = 0
            for bmask, deg in _subset_degrees(flags_at, pairs):
                if bmask != prev:
                    j = (bmask ^ prev).bit_length() - 1
                    prev = bmask
                    in_b = bmask >> j & 1
                    row[columns[j][1 - in_b]] = 0
                    row[columns[j][in_b]] = 1
                    for v in set(pairs[j]):
                        if cols[v] is not None:
                            row[cols[v]] -= 1
                        coeffs[v], cols[v] = weights[deg[v]]
                        if cols[v] is not None:
                            row[cols[v]] += 1
                c = c_bare * prod(coeffs)
                if not c:
                    continue
                admissible += 1
                yield row, c

    q = MultiPoly.from_rows(table, rows())
    return QResult(q, "EXPANSION", admissible)


# ---------------------------------------------------------------------------
# strategy 2: four-term reduction
# ---------------------------------------------------------------------------

def _edge_relabelling(labels: dict) -> dict:
    """x/y/z/w of each label in `labels` -> the same kinds at its image."""
    return {VarId(kind, a): VarId(kind, b) for a, b in labels.items() for kind in "XYZW"}


def _reduction_edge(h: RibbonGraph):
    """A loop of h if it has one, else an edge whose two ends carry the
    fewest edge ends in total; ties go to the first label in `sorted_edges`
    order."""
    _, ends = _incidences(h)
    degree = Counter(v for pair in ends.values() for v in pair)

    def cost(lab):
        u, w = ends[lab]
        return u != w, degree[u] + degree[w]

    return min(h.sorted_edges(), key=cost)


def q_by_reduction(g: RibbonGraph, r: RSequenceSpec | None = None,
                   memo: Optional[dict] = None,
                   zero_kinds: Iterable[str] = "") -> QResult:
    """Recursive four-term reduction with canonical-form memoisation.

    The reduction edge is a loop if the current graph has one, else an edge
    whose two ends carry the fewest edge ends (`_reduction_edge`); labels
    only break ties, and results are independent of the choice.  A low-degree
    end soon becomes a bare vertex, which the odd rule weighs zero, and a
    loop's partial dual splits its vertex, so the memo sees smaller pieces.
    The memo (shareable across calls) stores polynomials over canonical edge
    slots and rebrands them through each caller's slot bijection.  Its key
    is the canonical form under the rule's fold (`RSequenceSpec.fold`) with
    the frozen rule itself, so entries of different rules never mix.

    A disconnected or edgeless graph, or one with bare vertices, is the
    product of its components: bare vertices and edgeless components fold
    into one scalar weight, and a zero factor returns zero at once.  So only
    connected graphs with edges and no bare vertex reach the canonical form
    and the memo.

    `zero_kinds`, a subset of "XYZW", sets those edge variables to 0 on every
    edge: their branches are never built, and the partial dual is skipped
    when neither Y nor Z is left.  The children's Q hold only the other
    edges' variables, so the pruned result is the full one with those
    variables at 0.  The zero kinds are part of the memo key.
    """
    r = r or RSequenceSpec.symbolic()
    if memo is None:
        memo = {}
    zero = set(zero_kinds)
    if not zero <= set("XYZW"):
        raise InvalidArgument(f"zero kinds {sorted(zero)} are not a subset of XYZW")
    kept = "".join(kind for kind in "XYZW" if kind not in zero)
    rkey = (r, kept)

    def rec(h: RibbonGraph) -> MultiPoly:
        """Q as the product over the components.  A component without edges
        is one vertex carrying only flags, so it and the bare vertices fold
        into one scalar, r_(flag count) each.  A zero factor ends the branch."""
        comps = cross_components(h)
        if len(comps) == 1 and h.edge_labels and not h.bare_vertices:
            return connected(h)
        s1 = h.map.sigma1
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
        cf = canonical_form(h, r.fold)
        hit = memo.get((cf.key, rkey))
        if hit is not None:
            return hit.rename(_edge_relabelling(
                {slot: lab for lab, slot in cf.edge_slots.items()}))
        e = _reduction_edge(h)
        hd = partial_dual(h, [e]) if "Y" in kept or "Z" in kept else None
        branches = (("X", delete, h), ("Y", delete, hd), ("Z", cut, hd), ("W", cut, h))
        terms = (MultiPoly.variable(kind, e) * rec(op(base, e))
                 for kind, op, base in branches if kind in kept)
        # summed as they come: at most one child's Q waits beside the sum
        first = next(terms, None)
        p = MultiPoly.zero() if first is None else sum(terms, first)
        memo[(cf.key, rkey)] = p.rename(_edge_relabelling(cf.edge_slots))
        return p

    return QResult(rec(g), "REDUCTION", None)


def q_default_method(r: RSequenceSpec | None = None) -> str:
    """The route `q_polynomial` takes when no method is given: "expansion"
    when no r_n can be zero, "reduction" otherwise."""
    r = r or RSequenceSpec.symbolic()
    if r.rule == r.SYMBOLIC or (r.rule == r.CONSTANT and r.value != 0):
        return "expansion"
    return "reduction"


def q_polynomial(g: RibbonGraph, r: RSequenceSpec | None = None,
                 method: Optional[str] = None, max_edges: int = 10) -> QResult:
    """Q of g by `method`, "expansion" or "reduction".

    The default is `q_default_method(r)`.  When no weight can be zero (the
    symbolic rule, or a nonzero constant) every (A, B) pair is admissible,
    so Q has 4^e terms and the reduction has nothing to prune: the expansion
    builds them directly and is faster, but stops above `max_edges` with
    `TooLarge`.  Under the parity and delta rules the reduction stays the
    default: it drops every branch whose weight vanishes, and it has no size
    guard, so `q` keeps its reach there.
    """
    method = method or q_default_method(r)
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
    of y^A r^(vertex count of the partial dual).  The reduction drops the z
    and w branches, so it is the two-term deletion-contraction."""
    p = q_by_reduction(g, RSequenceSpec.symbolic(), zero_kinds="ZW").poly
    p = _sub_per_edge(g, p, x=1)
    rvar = VarId("R")
    return p.rename({v: rvar for v in p.variables() if v.kind == "R" and v.label is not None})


def specialize_dimer(g: RibbonGraph) -> MultiPoly:
    """x=1, y=z=0 with the delta-at-one weight: the perfect-matching sum in w.
    The reduction drops the y and z branches and never dualises."""
    p = q_by_reduction(g, RSequenceSpec.delta_one(), zero_kinds="YZ").poly
    return _sub_per_edge(g, p, x=1)


def specialize_ising(g: RibbonGraph) -> MultiPoly:
    """y=z=0 with even-degree weight 2: the even-subgraph (Ising) sum in x, w.
    The reduction drops the y and z branches and never dualises."""
    p = q_by_reduction(g, RSequenceSpec.even_two_odd_zero(), zero_kinds="YZ").poly
    return _sub_per_edge(g, p, y=0, z=0)
