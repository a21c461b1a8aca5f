"""Brute-force reference enumerators shared by several test modules.

The subset sums walk every edge subset with nothing but vertex walks,
spanning subgraphs and face counts, so the engines under test can be
compared with a route that does not share their code.
`exhaustive_canonical_form` runs the folded canonical-form serial to the end
from every edge cross, with no pruning; `exhaustive_cross_serial_form` is the
older key over every cross, which must split graphs into the same classes.
The `reference_*` surgeries compose whole permutations and induce them on
the kept crosses, where `rgp.ops` edits only the crosses it touches.
`exhaustive_class_counts` walks every edge subset and every half-edge slot
subset, where `class_counts` uses a closed form.  `exhaustive_q` multiplies
the vertex weights of every (A, B) pair as polynomials, where
`q_by_expansion` multiplies ints and counts variables.  Both walk
`range(1 << n)` and sum each subset's vertex degrees afresh, on vertices
found as permutation orbits (`_reference_incidences`), and `exhaustive_q`
dualises with `reference_partial_dual`: none of them calls the engines'
subset walk, incidence table or partial dual.  The `reference_*`
writers repack every polynomial into key order with `_moved` and sort it on
a (degree, vector) tuple, where `MultiPoly` permutes fields and sorts one
int per term; `reference_to_json` encodes every variable with json.dumps.
`ALL_RULES` and `SIX_RULES` are the weight rules the Q sweeps run under.
Not a test module: pytest does not collect it.
"""

import functools
import json
import operator

from rgp.maps import CanonicalForm, cross_components, face_count, face_sets, vertices_of
from rgp.ops import ClassCounts, spanning_subgraph
from rgp.poly import _FIELD, MultiPoly, VarId, _fields, _moved, _struct, _var_key
from rgp.qpoly import QResult, RSequenceSpec

ALL_RULES = [
    RSequenceSpec.symbolic(),
    RSequenceSpec.even_two_odd_zero(),
    RSequenceSpec.odd_two_even_zero(),
    RSequenceSpec.delta_one(),
]
# the rules above and two constants: one that never vanishes, one that always does
SIX_RULES = ALL_RULES + [RSequenceSpec.constant(3), RSequenceSpec.constant(0)]


def _reference_incidences(s0, th, s1, edges, flags):
    """(flags per vertex, {edge: its two end vertices}) of a map given as
    permutations and (label, crosses) items, as every reference surgery
    gives them.  A vertex is an orbit of sigma0 and theta together: a sigma0
    cycle and its conjugate.  Bare vertices are not included."""
    v_of, nv = {}, 0
    for x in s0:
        if x in v_of:
            continue
        v_of[x], todo = nv, [x]
        while todo:
            y = todo.pop()
            for z in (s0[y], th[y]):
                if z not in v_of:
                    v_of[z] = nv
                    todo.append(z)
        nv += 1
    flags_at = [0] * nv
    for _lab, orb in flags:
        flags_at[v_of[min(orb)]] += 1
    return flags_at, {lab: (v_of[min(orb)], v_of[s1[min(orb)]]) for lab, orb in edges}


def _graph_incidences(g):
    m = g.map
    return _reference_incidences(m.sigma0, m.theta, m.sigma1, g.edge_labels.items(),
                                 g.flag_labels.items())


def _degrees(base, pairs, mask):
    """`base` plus one at both ends (two at a loop's vertex) of every pair
    that bit i of mask chooses."""
    deg = list(base)
    for i, (u, w) in enumerate(pairs):
        if mask >> i & 1:
            deg[u] += 1
            deg[w] += 1
    return deg


def spanning_tree_cotree_sum(g) -> MultiPoly:
    """Sum over spanning trees T of the product of a_e over the edges not in T."""
    flags_at, ends = _graph_incidences(g)
    nv = len(flags_at)
    edges = g.sorted_edges()
    total = MultiPoly.zero()
    for mask in range(1 << len(edges)):
        keep = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        if len(keep) != nv - 1:
            continue
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cycle_free = True
        for lab in keep:
            u, w = find(ends[lab][0]), find(ends[lab][1])
            if u == w:
                cycle_free = False
                break
            parent[u] = w
        if not cycle_free or len({find(v) for v in range(nv)}) != 1:
            continue
        term = MultiPoly.one()
        for lab in edges:
            if lab not in keep:
                term = term * MultiPoly.variable("ALPHA", lab)
        total = total + term
    return total


def quasi_tree_sets(g):
    """The edge sets of the one-face spanning subgraphs."""
    labs = g.sorted_edges()
    out = set()
    for mask in range(1 << len(labs)):
        keep = [lab for i, lab in enumerate(labs) if mask >> i & 1]
        if face_count(spanning_subgraph(g, keep)) == 1:
            out.add(frozenset(keep))
    return out


def two_boundary_sets(gh, stub, leaf):
    """The edge sets of the two-face spanning subgraphs that put the flags
    `stub` and `leaf` on different faces."""
    labs = gh.sorted_edges()
    out = set()
    for mask in range(1 << len(labs)):
        keep = [lab for i, lab in enumerate(labs) if mask >> i & 1]
        sub = spanning_subgraph(gh, keep)
        if face_count(sub) != 2:
            continue
        faces = face_sets(sub)
        where = {}
        for name in (stub, leaf):
            orb = sub.flag_labels[name]
            where[name] = next((i for i, fs in enumerate(faces) if orb <= fs), -1)
        if -1 not in where.values() and where[stub] != where[leaf]:
            out.add(frozenset(keep))
    return out


def exhaustive_canonical_form(g, fold=None) -> CanonicalForm:
    """`canonical_form` with a full serial from every edge cross, walked
    over edge crosses only: each row is (next edge cross around the vertex,
    theta, sigma1, flag crosses skipped on the way there), the last entry
    and the flag-only vertices' counts passed through `fold` if given."""
    fold = fold or (lambda n: n)
    m = g.map
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    nxt, corner = {}, {}
    for x in m.crosses:
        if s1[x] != x:
            y, skipped = s0[x], 0
            while s1[y] == y:
                y, skipped = s0[y], skipped + 1
            nxt[x], corner[x] = y, fold(skipped)
    entries = []
    flag_vertices = []
    for comp in cross_components(g):
        starts = sorted(x for x in comp if x in nxt)
        if not starts:
            flag_vertices.append(fold(len(comp) // 2))
            continue
        best = best_seq = None
        for start in starts:
            seq = [start]
            for x in seq:
                for img in (nxt[x], th[x], s1[x]):
                    if img not in seq:
                        seq.append(img)
            serial = tuple((seq.index(nxt[x]), seq.index(th[x]), seq.index(s1[x]), corner[x])
                           for x in seq)
            if best is None or serial < best:
                best, best_seq = serial, seq
        entries.append((best, starts[0], best_seq))
    entries.sort(key=lambda t: (t[0], t[1]))
    flag_vertices.sort()

    edge_of = {c: lab for lab, orb in g.edge_labels.items() for c in orb}
    edge_slots: dict = {}
    for _serial, _, seq in entries:
        for x in seq:
            edge_slots.setdefault(edge_of[x], len(edge_slots))

    payload = (g.bare_vertices, tuple(flag_vertices), tuple(e[0] for e in entries))
    return CanonicalForm(repr(payload).encode(), edge_slots)


def exhaustive_cross_serial_form(g) -> CanonicalForm:
    """The canonical form over every cross: per component, the smallest
    (sigma0, theta, sigma1) serial of a full BFS from each start cross."""
    s0, th, s1 = g.map.sigma0, g.map.theta, g.map.sigma1
    entries = []
    for comp in cross_components(g):
        best = best_relabel = None
        for start in sorted(comp):
            relabel = {start: 0}
            seq = [start]
            for x in seq:
                for img in (s0[x], th[x], s1[x]):
                    if img not in relabel:
                        relabel[img] = len(seq)
                        seq.append(img)
            serial = tuple((relabel[s0[x]], relabel[th[x]], relabel[s1[x]]) for x in seq)
            if best is None or serial < best:
                best, best_relabel = serial, relabel
        entries.append((best, min(comp), best_relabel))
    entries.sort(key=lambda t: (t[0], t[1]))

    edge_slots: dict = {}
    for _serial, _, relabel in entries:
        dom = set(relabel)
        local = [lab for lab, orb in g.edge_labels.items() if orb <= dom]
        local.sort(key=lambda lab: min(relabel[c] for c in g.edge_labels[lab]))
        for lab in local:
            edge_slots[lab] = len(edge_slots)

    payload = (g.bare_vertices, tuple(e[0] for e in entries))
    return CanonicalForm(repr(payload).encode(), edge_slots)


def _compose(p, q):
    """Right-to-left: x -> p[q[x]], on dict permutations."""
    return {x: p[y] for x, y in q.items()}


def _piecewise(p, subset):
    """p on `subset` (closed under p), the identity elsewhere."""
    return {x: (y if x in subset else x) for x, y in p.items()}


def _induced_on(p, kept):
    """x in `kept` -> its first iterate under p in `kept`."""
    out = {}
    for x in kept:
        y = p[x]
        while y not in kept:
            y = p[y]
        out[x] = y
    return out


def reference_dual_triple(m, edge_crosses):
    """The partial dual along the edges with crosses E', E'c the rest, as
    compositions of permutations: (sigma0 theta_E' sigma1_E',
    sigma1_E' theta_E'c, sigma1_E'c theta_E'), each a dict."""
    s0, th, s1 = m.sigma0, m.theta, m.sigma1
    rest = set(m.crosses) - set(edge_crosses)
    th_p, th_c = _piecewise(th, edge_crosses), _piecewise(th, rest)
    s1_p, s1_c = _piecewise(s1, edge_crosses), _piecewise(s1, rest)
    return (_compose(_compose(s0, th_p), s1_p), _compose(s1_p, th_c),
            _compose(s1_c, th_p))


def _surgery(s0, th, s1, edges, flags, bare):
    return s0, th, s1, list(edges.items()), list(flags.items()), bare


def reference_partial_dual(g, labels):
    """`ops.partial_dual` as (sigma0, theta, sigma1, edge table items, flag
    table items, bare vertices), the form of every reference surgery."""
    ep = set().union(*(g.edge_labels[lab] for lab in labels))
    return _surgery(*reference_dual_triple(g.map, ep), g.edge_labels,
                    g.flag_labels, g.bare_vertices)


def _reference_remove(g, removed, edges, flags):
    """Induce the permutations on the crosses outside `removed`; a vertex
    whose crosses all lie in `removed` becomes bare."""
    kept = set(g.map.crosses) - removed
    newly_bare = sum(1 for v in vertices_of(g) if v.crosses <= removed)
    return _surgery(*(_induced_on(p, kept)
                      for p in (g.map.sigma0, g.map.theta, g.map.sigma1)),
                    edges, flags, g.bare_vertices + newly_bare)


def reference_delete_edges(g, labels):
    removed = set().union(*(g.edge_labels[lab] for lab in labels))
    edges = {lab: orb for lab, orb in g.edge_labels.items() if lab not in labels}
    return _reference_remove(g, removed, edges, g.flag_labels)


def reference_delete_flag(g, flag):
    flags = {lab: orb for lab, orb in g.flag_labels.items() if lab != flag}
    return _reference_remove(g, set(g.flag_labels[flag]), g.edge_labels, flags)


def reference_cut(g, e):
    """sigma1 becomes the identity on the edge; its half-ribbon through the
    smallest cross is the flag <e>.1, the other <e>.2 (primed on a clash)."""
    orb = g.edge_labels[e]
    rest = set(g.map.crosses) - orb
    x = min(orb)
    first = frozenset((x, g.map.theta[x]))
    flags = dict(g.flag_labels)
    for suffix, half in ((1, first), (2, orb - first)):
        lab = f"{e}.{suffix}"
        while lab in flags:
            lab += "'"
        flags[lab] = half
    edges = {lab: o for lab, o in g.edge_labels.items() if lab != e}
    return _surgery(g.map.sigma0, g.map.theta, _piecewise(g.map.sigma1, rest),
                    edges, flags, g.bare_vertices)


def exhaustive_class_counts(g) -> ClassCounts:
    """Brute-force counts of the odd/even spanning subgraph classes.

    odd/even range over edge subsets with all flags kept; the 'f' variants
    range over subsets of half-edge slots (flags still forced), with a vertex
    degree = chosen slots + flags there.  Colored counts multiply by 2 per
    vertex.  Costs 2^e + 2^(2e) steps.
    """
    e = len(g.edge_labels)
    flags_at, ends = _graph_incidences(g)
    nv = len(flags_at)
    order = g.sorted_edges()
    bare = g.bare_vertices
    v_total = nv + bare

    odd = even = 0
    pairs = [ends[lab] for lab in order]
    for mask in range(1 << e):
        deg = _degrees(flags_at, pairs, mask)
        if all(d % 2 for d in deg) and bare == 0:
            odd += 1
        if all(d % 2 == 0 for d in deg):
            even += 1

    # half-edge slots: two per edge, each attached to one endpoint
    slot_vertex = []
    for lab in order:
        u, w = ends[lab]
        slot_vertex.append(u)
        slot_vertex.append(w)
    vmask = [0] * nv
    for s, v in enumerate(slot_vertex):
        vmask[v] |= 1 << s
    oddf = evf = 0
    for mask in range(1 << (2 * e)):
        ok_odd = bare == 0
        ok_even = True
        for v in range(nv):
            parity = (bin(mask & vmask[v]).count("1") + flags_at[v]) % 2
            if parity == 0:
                ok_odd = False
            else:
                ok_even = False
            if not (ok_odd or ok_even):
                break
        if ok_odd:
            oddf += 1
        if ok_even:
            evf += 1

    color = 1 << v_total
    return ClassCounts(odd=odd, even=even, codd=odd * color, cev=even * color,
                       oddf=oddf, evf=evf, coddf=oddf * color, cevf=evf * color)


def exhaustive_q(g, r=None) -> QResult:
    """Q by enumerating all (A, B) pairs, each weight a `MultiPoly` product
    of the vertex weights r_n."""
    r = r or RSequenceSpec.symbolic()
    edges = g.sorted_edges()
    ne = len(edges)

    # the class of edge i is "XWYZ"[2 [i in A] + [i in B]]
    edge_vars = [[VarId(kind, lab) for kind in "XWYZ"] for lab in edges]
    terms = []
    admissible = 0
    for amask in range(1 << ne):
        A = [edges[i] for i in range(ne) if amask >> i & 1]
        h = reference_partial_dual(g, A)
        flags_at, ends = _reference_incidences(*h[:5])
        pairs = [ends[lab] for lab in edges]
        r0_bare = r.weight(0) ** h[-1]
        for bmask in range(1 << ne):
            weight = r0_bare
            for n in _degrees(flags_at, pairs, bmask):
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


def _reference_canonical(p) -> tuple:
    """(variables, terms): the variables that occur, in descending
    `_var_key` order, and the terms repacked over them.  On this table
    comparing packed ints compares exponent vectors in ascending key
    order."""
    vars_ = p._vars
    used = [i for i, e in enumerate(p._used()) if e]
    used.sort(key=lambda i: _var_key(vars_[i]), reverse=True)
    pos = [None] * len(vars_)
    for j, i in enumerate(used):
        pos[i] = j
    return tuple(vars_[i] for i in used), _moved(p.terms, pos)


def reference_rows(p) -> tuple:
    """(variables in `_var_key` order, rows): the rows yield (exponents in
    that order, coefficient) by descending total degree, then by descending
    exponent vector."""
    vars_, terms = _reference_canonical(p)
    n = len(vars_)
    if sum(_fields(functools.reduce(operator.or_, terms, 0), n)) < _FIELD:
        order = sorted(terms, key=lambda m: (m % _FIELD, m), reverse=True)
    else:
        order = sorted(terms, key=lambda m: (sum(_fields(m, n)), m), reverse=True)
    unpack = _struct(n, "big").unpack
    rows = ((unpack(m.to_bytes(2 * n, "big")), terms[m]) for m in order)
    return vars_[::-1], rows


def reference_sorted_terms(p) -> list:
    vars_, rows = reference_rows(p)
    return [({v: e for v, e in zip(vars_, exps) if e}, c) for exps, c in rows]


def reference_to_string(p) -> str:
    if not p.terms:
        return "0"
    vars_, rows = reference_rows(p)
    names = [v.name() for v in vars_]
    chunks = []
    for i, (exps, c) in enumerate(rows):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = [f"{name}^{e}" if e > 1 else name
                   for name, e in zip(names, exps) if e]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def reference_to_json_obj(p) -> list:
    vars_, rows = reference_rows(p)
    return [{"coeff": str(c),
             "vars": [{"kind": v.kind, "label": v.label, "exp": e}
                      for v, e in zip(vars_, exps) if e]}
            for exps, c in rows]


def reference_to_json(p) -> str:
    """json.dumps(reference_to_json_obj(p)), one json.dumps per variable."""
    vars_, rows = reference_rows(p)
    return "[" + ", ".join(
        '{"coeff": "%d", "vars": [%s]}'
        % (c, ", ".join(json.dumps({"kind": v.kind, "label": v.label, "exp": e})
                        for v, e in zip(vars_, exps) if e))
        for exps, c in rows) + "]"
