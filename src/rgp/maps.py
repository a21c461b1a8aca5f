"""Combinatorial maps with flags, and the ribbon graphs they carry.

A graph is stored as a triple of permutations (sigma0, theta, sigma1) acting
on an even set of integer "crosses" (quarter-edges), each a plain dict
cross -> cross:

  * theta is a fixed-point-free involution pairing the two crosses of each
    half-ribbon;
  * sigma1 is an involution commuting with theta; a theta-orbit fixed by
    sigma1 is a flag, the rest pair up four crosses at a time into edges;
  * sigma0 encodes the cyclic order around vertices; conjugation by theta
    inverts it, so its cycles come in conjugate pairs, one pair per vertex.

Vertices and faces are walked the same way: a face is a vertex of the dual,
the partial dual along every edge (`_dual_triple`, the one duality surgery),
so both are conjugate sigma0-cycle pairs (`_conjugate_pairs`).  The
canonical form searches only the edge crosses, with each corner's flags
folded into a count (`_fold`), and holds only what the reduction memo
reads: the key and the edge slots (Q has variables per edge and weights
per vertex, none per flag).

Everything downstream (duality, the polynomials, the CLI) works on the
RibbonGraph wrapper, which adds stable edge/flag labels and a count of bare
(cross-free) isolated vertices — those are invisible to the permutations but
deletion must keep them, and the polynomial weights see them as degree-0
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import (DanglingHalfEdge, DuplicateId, InvalidArgument, InvalidMap,
                     OddIncidence, UnknownEdge)


# ---------------------------------------------------------------------------
# permutations and maps
# ---------------------------------------------------------------------------

def _orbit(p: dict, x: int) -> list[int]:
    """The cycle of the permutation `p` through x, starting at x."""
    out = [x]
    y = p[x]
    while y != x:
        out.append(y)
        y = p[y]
    return out


def perm_from_cycles(domain: Iterable[int], cycles: Sequence[Sequence[int]]) -> dict:
    """The permutation of `domain` with the given cycles, fixing the rest."""
    mapping = {x: x for x in domain}
    seen: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if x not in mapping:
                raise InvalidMap(f"cycle element {x} outside domain")
            if x in seen:
                raise InvalidMap(f"element {x} appears in two cycles")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            mapping[a] = b
    return mapping


@dataclass(frozen=True)
class CombinatorialMap:
    """Crosses and three permutations of them, each a dict cross -> cross.

    A map's dicts are never edited after construction, so surgeries share
    the ones they do not change and copy a dict before they edit it.
    `validate_map` checks that each is a bijection on the crosses."""
    crosses: frozenset
    sigma0: dict
    theta: dict
    sigma1: dict

    def __hash__(self) -> int:
        return hash((self.crosses, frozenset(self.sigma0.items()),
                     frozenset(self.theta.items()), frozenset(self.sigma1.items())))


@dataclass(frozen=True)
class Violation:
    axiom: str
    witnesses: tuple
    message: str


def validate_map(m: CombinatorialMap) -> list[Violation]:
    """All axiom violations, each with witness crosses; empty iff valid."""
    out: list[Violation] = []
    X = set(m.crosses)
    for name, perm in (("sigma0", m.sigma0), ("theta", m.theta), ("sigma1", m.sigma1)):
        if perm.keys() != X:
            out.append(Violation("domain", (), f"{name} domain differs from cross set"))
        elif set(perm.values()) != X:
            out.append(Violation("domain", (), f"{name} is not a bijection on the crosses"))
    if out:
        return out  # pointwise checks below assume bijections on X
    if len(X) % 2:
        out.append(Violation("A.1", (), "odd number of crosses"))
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    s0_inv = {y: x for x, y in s0.items()}
    for x in sorted(X):
        if th[th[x]] != x:
            out.append(Violation("A.1", (x,), "theta is not an involution"))
        if s1[s1[x]] != x:
            out.append(Violation("A.1", (x,), "sigma1 is not an involution"))
        if th[s1[x]] != s1[th[x]]:
            out.append(Violation("A.1", (x,), "theta and sigma1 do not commute"))
        if th[x] == x:
            out.append(Violation("A.2", (x,), "theta has a fixed point"))
        if th[x] == s1[x]:
            out.append(Violation("A.2", (x,), "sigma1 equals theta at this cross"))
        if s0[th[x]] != th[s0_inv[x]]:
            out.append(Violation("A.3", (x,), "sigma0 not inverted by theta-conjugation"))
    if not any(v.axiom in ("A.1", "A.2", "A.3") for v in out):
        cycle_of: dict[int, int] = {}
        for x in X:
            if x not in cycle_of:
                cycle_of.update(dict.fromkeys(_orbit(s0, x), x))
        for x in sorted(X):
            if cycle_of[x] == cycle_of[th[x]]:
                out.append(Violation("A.4", (x, th[x]),
                                     "cross and its theta-partner share a sigma0-cycle"))
    return out


# ---------------------------------------------------------------------------
# ribbon graphs (map + labels + bare vertices)
# ---------------------------------------------------------------------------

class Vertex(NamedTuple):
    cycle: tuple        # sigma0-cycle containing the vertex's minimal cross
    partner: tuple      # its theta-conjugate
    crosses: frozenset


@dataclass(frozen=True)
class RibbonGraph:
    map: CombinatorialMap
    edge_labels: dict    # label -> frozenset of 4 crosses
    flag_labels: dict    # label -> frozenset of 2 crosses
    bare_vertices: int = 0

    def __hash__(self) -> int:
        # equal graphs have equal label tables; the map is left to __eq__
        return hash((frozenset(self.edge_labels.items()),
                     frozenset(self.flag_labels.items()), self.bare_vertices))

    def edge_crosses(self, label) -> frozenset:
        try:
            return self.edge_labels[label]
        except KeyError:
            raise UnknownEdge(f"no edge labelled {label!r}") from None

    def sorted_edges(self) -> list:
        return sorted(self.edge_labels, key=str)


def make_graph(m: CombinatorialMap,
               edge_labels: Optional[dict] = None,
               flag_labels: Optional[dict] = None,
               bare_vertices: int = 0,
               check: bool = True) -> RibbonGraph:
    """Wrap a valid map, deriving (or checking) the edge/flag label tables.

    Auto labels are e1,e2,... / f1,f2,... numbered by smallest cross.
    """
    if check:
        violations = validate_map(m)
        if violations:
            raise InvalidMap("; ".join(f"{v.axiom}: {v.message} {v.witnesses}" for v in violations))
    if edge_labels is None or flag_labels is None:
        flag_orbits, edge_orbits = _classify_orbits(m)
        if edge_labels is None:
            edge_labels = {f"e{i + 1}": orb for i, orb in enumerate(edge_orbits)}
        if flag_labels is None:
            flag_labels = {f"f{i + 1}": orb for i, orb in enumerate(flag_orbits)}
    _check_labels(m, edge_labels, flag_labels)
    return RibbonGraph(m, dict(edge_labels), dict(flag_labels), bare_vertices)


def _classify_orbits(m: CombinatorialMap):
    """(flag orbits, edge orbits), each sorted by smallest cross."""
    flags, edges = [], []
    seen: set[int] = set()
    for x in sorted(m.crosses):
        if x in seen:
            continue
        tx = m.theta[x]
        if m.sigma1[x] == x:
            orb = frozenset((x, tx))
            flags.append(orb)
        else:
            orb = frozenset((x, tx, m.sigma1[x], m.sigma1[tx]))
            if len(orb) != 4:
                raise InvalidMap(f"edge orbit at cross {x} does not have 4 crosses")
            edges.append(orb)
        seen.update(orb)
    return flags, edges


def _check_labels(m: CombinatorialMap, edge_labels: dict, flag_labels: dict):
    """Each edge label is one 4-cross <theta, sigma1> orbit with sigma1 != id,
    each flag label one sigma1-fixed theta pair, and the labels cover the
    crosses once: orbits are equal or disjoint, so distinct ones that add up
    to the cross count do."""
    th, s1 = m.theta, m.sigma1
    for lab, orb in edge_labels.items():
        x = next(iter(orb), None)
        if x not in s1 or s1[x] == x or len(orb) != 4 or orb != {x, th[x], s1[x], s1[th[x]]}:
            raise InvalidMap(f"edge label {lab!r} is not on an edge orbit")
    for lab, orb in flag_labels.items():
        x = next(iter(orb), None)
        if x not in s1 or s1[x] != x or orb != {x, th[x]}:
            raise InvalidMap(f"flag label {lab!r} is not on a flag orbit")
    n = len(edge_labels) + len(flag_labels)
    if (4 * len(edge_labels) + 2 * len(flag_labels) != len(m.crosses)
            or len({*edge_labels.values(), *flag_labels.values()}) != n):
        raise InvalidMap("the label tables do not cover every orbit exactly once")


def _conjugate_pairs(m: CombinatorialMap) -> list[tuple[tuple, tuple]]:
    """The sigma0-cycles in conjugate pairs (the cycle through the smallest
    unvisited cross, then its theta-conjugate), sorted by smallest cross."""
    seen: set[int] = set()
    out = []
    for x in sorted(m.crosses):
        if x in seen:
            continue
        cyc = tuple(_orbit(m.sigma0, x))
        partner = tuple(_orbit(m.sigma0, m.theta[x]))
        seen.update(cyc)
        seen.update(partner)
        out.append((cyc, partner))
    return out


def vertices_of(g: RibbonGraph) -> list[Vertex]:
    """Vertices as conjugate sigma0-cycle pairs, sorted by smallest cross.
    Bare vertices are not included (they have no crosses)."""
    out: list[Vertex] = []
    for cyc, partner in _conjugate_pairs(g.map):
        if set(cyc) & set(partner):
            raise InvalidMap(f"conjugate cycles overlap at cross {cyc[0]}")
        out.append(Vertex(cyc, partner, frozenset(cyc) | frozenset(partner)))
    return out


def _vertex_index(verts: list[Vertex]) -> dict:
    return {x: i for i, v in enumerate(verts) for x in v.crosses}


def _incidences(g: RibbonGraph):
    """Flags per vertex and, per edge label, its two endpoint vertex indices
    (a loop repeats its vertex).  Bare vertices are not included.  On the
    natural dual: flags per face, and the faces on each side of every edge."""
    verts = vertices_of(g)
    v_of = _vertex_index(verts)
    flags_at = [0] * len(verts)
    for orb in g.flag_labels.values():
        flags_at[v_of[min(orb)]] += 1
    ends = {}
    for lab, orb in g.edge_labels.items():
        x = min(orb)
        ends[lab] = (v_of[x], v_of[g.map.sigma1[x]])
    return flags_at, ends


class _UnionFind:
    """Disjoint sets over 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        self.parent[self.find(x)] = self.find(y)


def _subset_degrees(base: list, pairs: list):
    """Yield (mask, degrees) for every subset of the endpoint pairs: bit i of
    mask chooses pairs[i], which adds one to each of its two ends (two to a
    loop's vertex) on top of the base degrees.  The subsets come in Gray-code
    order, the empty one first: each step flips the one pair at the lowest
    set bit of the step count and changes its two ends in place, so the
    degrees list is one list, to be read before the next step."""
    deg = list(base)
    mask = 0
    yield mask, deg
    for step in range(1, 1 << len(pairs)):
        i = (step & -step).bit_length() - 1
        mask ^= 1 << i
        d = 1 if mask >> i & 1 else -1
        u, w = pairs[i]
        deg[u] += d
        deg[w] += d
        yield mask, deg


def _dual_triple(m: CombinatorialMap, edge_crosses: set[int]) -> CombinatorialMap:
    """The partial dual along the edges with crosses E', E'c the rest:
    (sigma0 theta_{E'} sigma1_{E'}, sigma1_{E'} theta_{E'c}, sigma1_{E'c} theta_{E'}),
    which moves only E': sigma0 theta sigma1, sigma1 and theta there.  Along
    every edge it is the natural dual; applied twice it is the identity."""
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    d0, dt, d1 = dict(s0), dict(th), dict(s1)
    for x in edge_crosses:
        d0[x] = s0[th[s1[x]]]
        dt[x] = s1[x]
        d1[x] = th[x]
    return CombinatorialMap(m.crosses, d0, dt, d1)


def _faces(g: RibbonGraph) -> list[tuple[tuple, tuple]]:
    """The faces as the natural dual's vertices: its conjugate sigma0-cycle
    pairs.  The surgery runs on the bare map, with no RibbonGraph built."""
    return _conjugate_pairs(_dual_triple(g.map, set().union(*g.edge_labels.values())))


def boundary_components(g: RibbonGraph) -> list[tuple]:
    """The faces, one cross-cycle per face (the conjugate partner is implied).
    Bare vertices contribute faces to the counts but no cycles here."""
    return [cyc for cyc, _partner in _faces(g)]


def face_count(g: RibbonGraph) -> int:
    return len(_faces(g)) + g.bare_vertices


def face_sets(g: RibbonGraph) -> list[frozenset]:
    """Per face, the union of its conjugate boundary-cycle cross sets
    (bare vertices excluded — they have no crosses)."""
    return [frozenset(cyc) | frozenset(partner) for cyc, partner in _faces(g)]


def _interlace(g: RibbonGraph) -> tuple[list, int, int]:
    """(rows, tree_mask, base_vertices): the GF(2) interlace matrix of the
    bouquet G^T, with rows and masks as int bitmasks over `sorted_edges()`.

    T (bits of tree_mask) is the spanning forest that takes each edge joining
    two components of the edges before it.  The partial dual G^T has one
    vertex per component and every edge is a loop there.  Bit j of rows[i]
    (j != i) is set iff the ends of loops i and j alternate in their vertex's
    rotation word; bit i iff loop i is twisted.  base_vertices is the vertex
    count of G^T plus the bare vertices.

    For every edge subset A, with X = A ^ tree_mask, the spanning subgraph on
    A has base_vertices + |X| - rank(rows of X, restricted to X) faces: the
    vertices of G^A (Bouchet's binary delta-matroid of the map).
    """
    edges = g.sorted_edges()
    flags_at, ends = _incidences(g)
    uf = _UnionFind(len(flags_at))
    tree_mask = 0
    tree_crosses: set[int] = set()
    for i, lab in enumerate(edges):
        u, w = (uf.find(v) for v in ends[lab])
        if u != w:
            uf.union(u, w)
            tree_mask |= 1 << i
            tree_crosses |= g.edge_labels[lab]
    bouquet = _dual_triple(g.map, tree_crosses)
    edge_of = {x: i for i, lab in enumerate(edges) for x in g.edge_labels[lab]}
    rows = [0] * len(edges)
    pairs = _conjugate_pairs(bouquet)
    for cyc, _partner in pairs:
        word = set(cyc)
        spans: dict = {}    # loop -> its two positions in the rotation word
        for p, x in enumerate(cyc):
            i = edge_of.get(x)
            if i is None:
                continue    # a flag
            if bouquet.sigma1[x] in word:     # both ends on this cycle: a twist
                rows[i] |= 1 << i
            spans.setdefault(i, []).append(p)
        for i, (p, q) in spans.items():
            for j, (r, s) in spans.items():
                if (p < r < q) != (p < s < q):
                    rows[i] |= 1 << j
    return rows, tree_mask, len(pairs) + g.bare_vertices


def component_count(g: RibbonGraph) -> int:
    """Connected components (orbits of the full group, plus bare vertices)."""
    return len(cross_components(g)) + g.bare_vertices


def cross_components(g: RibbonGraph) -> list[frozenset]:
    m = g.map
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    seen: set[int] = set()
    comps = []
    for x in sorted(m.crosses):
        if x in seen:
            continue
        comp = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for img in (s0[y], th[y], s1[y]):
                if img not in comp:
                    comp.add(img)
                    stack.append(img)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# orientability
# ---------------------------------------------------------------------------

class OrientationChoice(NamedTuple):
    orientable: bool
    chosen: frozenset  # one sigma0-cycle per vertex, as a set of crosses


def orientation_selection(g: RibbonGraph) -> OrientationChoice:
    """Try to pick one cycle of each conjugate pair so that sigma1 always
    couples a chosen cross to a non-chosen one.  Such a choice exists iff the
    surface is orientable.

    The returned selection is deterministic (each component is seeded from the
    cycle containing its minimal cross) and is produced even when the graph is
    non-orientable — callers that only need a reproducible side-picking
    convention (serialisation, the quadratic form) use it regardless.
    """
    m = g.map
    verts = vertices_of(g)
    v_of = _vertex_index(verts)
    choice: dict[int, tuple] = {}
    chosen_crosses: set[int] = set()
    orientable = True
    for i, v in enumerate(verts):
        if i in choice:
            continue
        # new component: seed with the cycle holding the minimal cross
        choice[i] = v.cycle
        chosen_crosses.update(v.cycle)
        queue = [i]
        while queue:
            j = queue.pop(0)
            for x in choice[j]:
                y = m.sigma1[x]
                if y == x:
                    continue  # flags impose nothing
                k = v_of[y]
                want = verts[k].partner if y in verts[k].cycle else verts[k].cycle
                if k not in choice:
                    choice[k] = want
                    chosen_crosses.update(want)
                    queue.append(k)
                elif choice[k] != want:
                    orientable = False
    return OrientationChoice(orientable, frozenset(chosen_crosses))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    v: int
    e: int
    f: int
    k: int
    faces: int
    euler_genus: int
    orientable: bool


def structure_report(g: RibbonGraph) -> StructureReport:
    v = len(vertices_of(g)) + g.bare_vertices
    e = len(g.edge_labels)
    f = len(g.flag_labels)
    k = component_count(g)
    faces = face_count(g)
    return StructureReport(
        v=v, e=e, f=f, k=k, faces=faces,
        euler_genus=2 * k - v + e - faces,
        orientable=orientation_selection(g).orientable,
    )


# ---------------------------------------------------------------------------
# rotation systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationSpec:
    """A vertex-rotation presentation: per vertex the counterclockwise list of
    incident items (half-edge or flag ids), plus edge declarations pairing two
    half-edge ids with an optional twist.  Items bound by no edge are flags;
    ids listed in `flags` are additionally required to be flags."""
    vertices: tuple      # ((vertex_label, (item, ...)), ...)
    edges: tuple         # ((edge_label, end1, end2, twist), ...)
    flags: tuple = ()    # optional explicit flag ids


def from_rotation_system(spec: RotationSpec) -> RibbonGraph:
    # --- id checks
    placed: dict = {}
    order: list = []
    for vlabel, items in spec.vertices:
        for it in items:
            if it in placed:
                raise DuplicateId(f"item {it!r} appears in two rotations")
            placed[it] = vlabel
            order.append(it)
    vlabels = [vl for vl, _ in spec.vertices]
    if len(vlabels) != len(set(vlabels)):
        raise DuplicateId("duplicate vertex label")

    bound: dict = {}
    elabels = set()
    for elabel, p, q, twist in spec.edges:
        if elabel in elabels:
            raise DuplicateId(f"duplicate edge label {elabel!r}")
        elabels.add(elabel)
        if p == q:
            raise OddIncidence(f"edge {elabel!r} must join two distinct half-edges")
        for end in (p, q):
            if end not in placed:
                raise DanglingHalfEdge(f"edge {elabel!r} references unplaced id {end!r}")
            if end in bound:
                raise DuplicateId(f"half-edge {end!r} bound by two edges")
            bound[end] = elabel
        if twist not in (0, 1):
            raise InvalidArgument(f"edge {elabel!r} twist must be 0 or 1")

    for fid in spec.flags:
        if fid in bound:
            raise DuplicateId(f"flag {fid!r} is also an edge end")
        if fid not in placed:
            raise DanglingHalfEdge(f"flag {fid!r} appears in no rotation")
    if len(spec.flags) != len(set(spec.flags)):
        raise DuplicateId("duplicate flag id")
    flag_ids = [it for it in order if it not in bound]

    # --- crosses: item r gets (2r, 2r+1)
    a = {it: 2 * r for r, it in enumerate(order)}
    b = {it: 2 * r + 1 for r, it in enumerate(order)}
    crosses = frozenset(range(2 * len(order)))

    s0 = {x: x for x in crosses}
    for _, items in spec.vertices:
        if not items:
            continue
        acyc = [a[it] for it in items]
        bcyc = [b[items[0]]] + [b[it] for it in reversed(items[1:])]
        for cyc in (acyc, bcyc):
            for u, w in zip(cyc, cyc[1:] + cyc[:1]):
                s0[u] = w
    th = {}
    for it in order:
        th[a[it]] = b[it]
        th[b[it]] = a[it]
    s1 = {x: x for x in crosses}
    for elabel, p, q, twist in spec.edges:
        if twist:
            pairs = ((a[p], a[q]), (b[p], b[q]))
        else:
            pairs = ((a[p], b[q]), (b[p], a[q]))
        for u, w in pairs:
            s1[u] = w
            s1[w] = u

    m = CombinatorialMap(crosses, s0, th, s1)
    edge_labels = {elabel: frozenset((a[p], b[p], a[q], b[q]))
                   for elabel, p, q, _ in spec.edges}
    flag_labels = {fid: frozenset((a[fid], b[fid])) for fid in flag_ids}
    bare = sum(1 for _, items in spec.vertices if not items)
    return make_graph(m, edge_labels, flag_labels, bare_vertices=bare)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

class CanonicalForm(NamedTuple):
    key: bytes
    edge_slots: dict   # edge label -> slot index, stable across isomorphs


def _fold(m: CombinatorialMap, fold: Optional[Callable[[int], int]] = None):
    """The map seen from its edge crosses, from one walk of each sigma0-cycle:
    per edge cross x, the next edge cross s0e(x) around its vertex and
    corner[x], the number of flag crosses passed on the way, through `fold`
    (the identity by default).  Also the flag counts of the vertices with
    only flags, through `fold`, sorted."""
    fold = fold or (lambda n: n)
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    nxt, corner = {}, {}
    flag_vertices = []
    seen: set[int] = set()
    for x in sorted(m.crosses):
        if x in seen:
            continue
        cyc = _orbit(s0, x)
        seen.update(cyc)
        at = [i for i, y in enumerate(cyc) if s1[y] != y]
        if not at:
            flag_vertices.append(fold(len(cyc)))
            seen.update(_orbit(s0, th[x]))
        for i, j in zip(at, at[1:] + at[:1]):
            nxt[cyc[i]] = cyc[j]
            corner[cyc[i]] = fold((j - i - 1) % len(cyc))
    flag_vertices.sort()
    return nxt, corner, flag_vertices


def _bfs_serial(nxt: dict, th: dict, s1: dict, corner: dict, start: int,
                best: Optional[tuple]):
    """The BFS relabeling of the edge crosses from `start` and its serial, one
    row (s0e, theta, sigma1, corner) per cross in visiting order, as (serial,
    visiting order), or None if the serial is not smaller than `best`.  A row
    is final once its cross is visited, so the walk stops at the first row
    above `best`'s."""
    relabel = {start: 0}
    seq = [start]
    rows = []
    smaller = best is None
    for x in seq:
        a, b, c = nxt[x], th[x], s1[x]
        for img in (a, b, c):
            if img not in relabel:
                relabel[img] = len(seq)
                seq.append(img)
        row = (relabel[a], relabel[b], relabel[c], corner[x])
        if not smaller:
            other = best[len(rows)]
            if row > other:
                return None
            smaller = row < other
        rows.append(row)
    if not smaller:
        return None
    return tuple(rows), seq


def canonical_form(g: RibbonGraph,
                   fold: Optional[Callable[[int], int]] = None) -> CanonicalForm:
    """Label-independent canonical key plus the induced edge slot map.

    The key is taken on the folded map (`_fold`): the edge crosses under
    (s0e, theta, sigma1), each with its corner's flag count.  Folding loses
    nothing: theta sigma0 theta = sigma0^-1 puts the theta partners of a
    corner's flags in the conjugate corner.  Per component, the serial is
    minimised over BFS relabelings from every edge cross (a start is dropped
    at the first row above the best so far; on a tie the earlier start
    wins).  The key holds the bare-vertex count, the sorted flag counts of
    the flag-only vertices and the sorted serials, so two graphs get equal
    keys iff they are isomorphic as labelled-forgetting maps.  A flagless
    map folds nothing, so its search costs what the unfolded one did.
    Edge slots follow first appearance in the winning relabelings, in
    component order: a memoised polynomial transports along any
    isomorphism.

    `fold`, if given, maps each corner's and each flag-only vertex's flag
    count to a class before the search, so the key identifies maps that are
    isomorphic up to those classes.  The four-term reduction passes its
    weight rule's fold (`RSequenceSpec.fold`).  That is exact: `delete`,
    `cut` and `partial_dual` split a vertex boundary only at edge ends, so
    the flags of one corner always end at one residual vertex, whose weight
    is fixed by the classes of its corners' counts when the fold is a
    congruence of (N, +) on whose classes the weight is constant.
    """
    th, s1 = g.map.theta, g.map.sigma1
    nxt, corner, flag_counts = _fold(g.map, fold)
    entries = []
    seen: set[int] = set()
    for first in sorted(nxt):
        if first in seen:
            continue
        best, best_seq = _bfs_serial(nxt, th, s1, corner, first, None)
        seen.update(best_seq)
        for start in sorted(best_seq)[1:]:
            found = _bfs_serial(nxt, th, s1, corner, start, best)
            if found is not None:
                best, best_seq = found
        entries.append((best, first, best_seq))
    entries.sort(key=lambda t: (t[0], t[1]))

    edge_of = {c: lab for lab, orb in g.edge_labels.items() for c in orb}
    edge_slots = {}
    for _serial, _first, seq in entries:
        for x in seq:
            edge_slots.setdefault(edge_of[x], len(edge_slots))

    payload = (g.bare_vertices, tuple(flag_counts), tuple(e[0] for e in entries))
    return CanonicalForm(repr(payload).encode(), edge_slots)


def isomorphic(g: RibbonGraph, h: RibbonGraph) -> bool:
    return canonical_form(g).key == canonical_form(h).key


def relabel_crosses(g: RibbonGraph, bijection: Mapping[int, int]) -> RibbonGraph:
    """Transport the graph along a cross bijection (test helper)."""
    m = g.map
    pi = dict(bijection)
    if set(pi) != set(m.crosses) or len(set(pi.values())) != len(pi):
        raise InvalidMap("bijection must cover exactly the crosses, injectively")

    def push(p: dict) -> dict:
        return {pi[x]: pi[y] for x, y in p.items()}

    m2 = CombinatorialMap(frozenset(pi[x] for x in m.crosses),
                          push(m.sigma0), push(m.theta), push(m.sigma1))
    e2 = {lab: frozenset(pi[c] for c in orb) for lab, orb in g.edge_labels.items()}
    f2 = {lab: frozenset(pi[c] for c in orb) for lab, orb in g.flag_labels.items()}
    return make_graph(m2, e2, f2, bare_vertices=g.bare_vertices)
