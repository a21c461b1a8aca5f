"""Brute-force reference enumerators shared by several test modules.

The subset sums walk every edge subset with nothing but vertex walks,
spanning subgraphs and face counts, so the engines under test can be
compared with a route that does not share their code.
`exhaustive_canonical_form` runs the canonical-form BFS to the end from every
start cross, with no pruning.  `exhaustive_class_counts` walks every edge
subset and every half-edge slot subset, where `class_counts` uses a closed
form.  Not a test module: pytest does not collect it.
"""

from rgp.maps import (CanonicalForm, _incidences, _subset_degrees,
                      cross_components, face_count, face_sets, vertices_of)
from rgp.ops import ClassCounts, spanning_subgraph
from rgp.poly import MultiPoly


def _edge_ends(g):
    """Vertex indices of each edge's two endpoints."""
    idx = {}
    for i, v in enumerate(vertices_of(g)):
        for c in v.crosses:
            idx[c] = i
    ends = {}
    for lab, orb in g.edge_labels.items():
        x = min(orb)
        ends[lab] = (idx[x], idx[g.map.sigma1(x)])
    return len(vertices_of(g)), ends


def spanning_tree_cotree_sum(g) -> MultiPoly:
    """Sum over spanning trees T of the product of a_e over the edges not in T."""
    nv, ends = _edge_ends(g)
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


def exhaustive_canonical_form(g) -> CanonicalForm:
    """`canonical_form` with a full BFS serial from every start cross."""
    m = g.map
    entries = []
    for comp in cross_components(g):
        best = best_relabel = None
        for start in sorted(comp):
            relabel = {start: 0}
            seq = [start]
            for x in seq:
                for img in (m.sigma0(x), m.theta(x), m.sigma1(x)):
                    if img not in relabel:
                        relabel[img] = len(seq)
                        seq.append(img)
            serial = tuple((relabel[m.sigma0(x)], relabel[m.theta(x)], relabel[m.sigma1(x)])
                           for x in seq)
            if best is None or serial < best:
                best, best_relabel = serial, relabel
        entries.append((best, min(comp), best_relabel))
    entries.sort(key=lambda t: (t[0], t[1]))

    edge_slots: dict = {}
    flag_slots: dict = {}
    for _serial, _, relabel in entries:
        dom = set(relabel)
        for labels, slots in ((g.edge_labels, edge_slots), (g.flag_labels, flag_slots)):
            local = [lab for lab, orb in labels.items() if orb <= dom]
            local.sort(key=lambda lab: min(relabel[c] for c in labels[lab]))
            for lab in local:
                slots[lab] = len(slots)

    payload = (g.bare_vertices, tuple(e[0] for e in entries))
    return CanonicalForm(repr(payload).encode(), edge_slots, flag_slots)


def exhaustive_class_counts(g) -> ClassCounts:
    """Brute-force counts of the odd/even spanning subgraph classes.

    odd/even range over edge subsets with all flags kept; the 'f' variants
    range over subsets of half-edge slots (flags still forced), with a vertex
    degree = chosen slots + flags there.  Colored counts multiply by 2 per
    vertex.  Costs 2^e + 2^(2e) steps.
    """
    e = len(g.edge_labels)
    flags_at, ends = _incidences(g)
    nv = len(flags_at)
    order = g.sorted_edges()
    bare = g.bare_vertices
    v_total = nv + bare

    odd = even = 0
    for _mask, deg in _subset_degrees(flags_at, [ends[lab] for lab in order]):
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
