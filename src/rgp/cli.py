"""Command-line front end.

Reads ribbon-graph files (rotation form or raw permutation form), runs the
requested computation, and prints canonical text or JSON.  Exit codes: 0 on
success, 1 on domain errors (bad map, unknown edge, guards), 2 on usage
errors.  Domain errors go to stderr with a machine-readable prefix:
E-PARSE (unreadable input), E-MAP (invalid or unsuitable map), E-EDGE
(unknown edge label), E-SIZE (enumeration guard tripped).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from .errors import ParseError, RgpError, TooLarge, UnknownEdge
from .hyperbolic import (
    hu,
    hu_commutative_limit,
    hu_critical,
    hu_via_critical_algorithm,
    hv,
    symanzik_commutative_limit,
    symanzik_u,
)
from .maps import (
    CombinatorialMap,
    Permutation,
    RibbonGraph,
    RotationSpec,
    from_rotation_system,
    make_graph,
    structure_report,
    validate_map,
)
from .ops import (
    class_counts,
    contract,
    cut,
    delete_edges,
    natural_dual,
    partial_dual,
    to_rotation_spec,
)
from .poly import MultiPoly
from .qpoly import (
    RSequenceSpec,
    q_default_method,
    q_polynomial,
    specialize_br,
    specialize_dimer,
    specialize_ising,
)

# ---------------------------------------------------------------------------
# graph file reader
# ---------------------------------------------------------------------------

_CYCLES_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str, lineno: int) -> list:
    rest = _CYCLES_RE.sub("", text).strip()
    if rest:
        raise ParseError(f"stray text {rest!r} in permutation", line=lineno)
    cycles = []
    for body in _CYCLES_RE.findall(text):
        items = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        try:
            cycles.append(tuple(int(p) for p in items))
        except ValueError:
            raise ParseError(f"non-integer cross in cycle ({body})", line=lineno)
    return cycles


def _read_raw_map(entries: list) -> RibbonGraph:
    fields = {}
    for lineno, key, text in entries:
        if key in fields:
            raise ParseError(f"duplicate {key!r} line", line=lineno)
        fields[key] = (lineno, text)
    for key in ("crosses", "sigma0", "theta", "sigma1"):
        if key not in fields:
            raise ParseError(f"raw map form is missing a {key!r} line")
    lineno, text = fields["crosses"]
    try:
        n = int(text.strip())
    except ValueError:
        raise ParseError("crosses wants an integer count", line=lineno)
    if n <= 0 or n % 2:
        raise ParseError("cross count must be positive and even", line=lineno)
    domain = range(1, n + 1)
    perms = {}
    for key in ("sigma0", "theta", "sigma1"):
        lineno, text = fields[key]
        cycles = _parse_cycles(text, lineno)
        for cyc in cycles:
            for c in cyc:
                if not 1 <= c <= n:
                    raise ParseError(f"cross {c} outside 1..{n}", line=lineno)
        perms[key] = Permutation.from_cycles(domain, cycles)
    m = CombinatorialMap(frozenset(domain), perms["sigma0"], perms["theta"],
                         perms["sigma1"])
    return make_graph(m)


def _read_rotation_form(entries: list) -> RibbonGraph:
    vertices = []
    edges = []
    flags = []
    for lineno, key, text in entries:
        if key == "vertex":
            head, _, items = text.partition(":")
            vid = head.strip()
            if not vid:
                raise ParseError("vertex line wants an id", line=lineno)
            vertices.append((vid, tuple(items.split())))
        elif key == "edge":
            head, colon, body = text.partition(":")
            eid = head.strip()
            parts = body.split()
            if not colon or not eid or len(parts) not in (2, 3):
                raise ParseError(
                    "edge line wants `edge <id> : <end> <end> [twist=0|1]`",
                    line=lineno)
            twist = 0
            if len(parts) == 3:
                m = re.fullmatch(r"twist=([01])", parts[2])
                if not m:
                    raise ParseError(f"bad twist field {parts[2]!r}", line=lineno)
                twist = int(m.group(1))
            edges.append((eid, parts[0], parts[1], twist))
        elif key == "flag":
            fid = text.strip()
            if not fid:
                raise ParseError("flag line wants an id", line=lineno)
            flags.append(fid)
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
    if not vertices:
        raise ParseError("no vertex lines found")
    spec = RotationSpec(vertices=tuple(vertices), edges=tuple(edges),
                        flags=tuple(flags))
    return from_rotation_system(spec)


def read_graph_text(text: str) -> RibbonGraph:
    """Parse either file form into a graph (validation included)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"([A-Za-z_][\w-]*)\s*:?\s*(.*)$", line)
        if not m:
            raise ParseError(f"unreadable line {raw!r}", line=lineno)
        entries.append((lineno, m.group(1), m.group(2)))
    if not entries:
        raise ParseError("empty graph file")
    if any(key in ("crosses", "sigma0", "theta", "sigma1")
           for _, key, _ in entries):
        return _read_raw_map(entries)
    return _read_rotation_form(entries)


def read_graph_file(path: str) -> RibbonGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex.strerror or ex}")
    return read_graph_text(text)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def format_graph_file(g: RibbonGraph) -> str:
    spec = to_rotation_spec(g)
    lines = []
    for vlabel, items in spec.vertices:
        lines.append(f"vertex {vlabel} : {' '.join(str(i) for i in items)}".rstrip())
    for elabel, p, q, twist in spec.edges:
        tail = " twist=1" if twist else ""
        lines.append(f"edge {elabel} : {p} {q}{tail}")
    for fid in spec.flags:
        lines.append(f"flag {fid}")
    return "\n".join(lines) + "\n"


def format_dot(g: RibbonGraph) -> str:
    spec = to_rotation_spec(g)
    owner = {}
    for vlabel, items in spec.vertices:
        for it in items:
            owner[it] = vlabel
    out = ["graph rgp {"]
    for vlabel, _ in spec.vertices:
        out.append(f'  "{vlabel}";')
    for elabel, p, q, twist in spec.edges:
        label = f"{elabel} (twist)" if twist else elabel
        out.append(f'  "{owner[p]}" -- "{owner[q]}" [label="{label}"];')
    for fid in spec.flags:
        out.append(f'  "flag:{fid}" [shape=point];')
        out.append(f'  "{owner[fid]}" -- "flag:{fid}" [style=dashed, label="{fid}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def _emit_poly(p: MultiPoly, args) -> int:
    if args.format == "json":
        print(p.to_json())
    else:
        print(p.to_string())
    return 0


def _emit_graph(g: RibbonGraph, args) -> int:
    if getattr(args, "emit", "graph") == "dot":
        sys.stdout.write(format_dot(g))
    else:
        sys.stdout.write(format_graph_file(g))
    return 0


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _edge_list(g: RibbonGraph, args) -> list:
    labels = [piece for piece in args.edges.split(",") if piece]
    for lab in labels:
        if lab not in g.edge_labels:
            raise UnknownEdge(f"graph has no edge {lab!r}")
    return labels


def _cmd_validate(args) -> int:
    g = read_graph_file(args.input)
    bad = validate_map(g.map)
    if bad:
        raise RgpError("; ".join(v.message for v in bad))
    print("ok")
    return 0


def _cmd_info(args) -> int:
    g = read_graph_file(args.input)
    rep = structure_report(g)
    fields = [("v", rep.v), ("e", rep.e), ("f", rep.f), ("k", rep.k),
              ("faces", rep.faces), ("euler-genus", rep.euler_genus),
              ("orientable", rep.orientable),
              ("edges", g.sorted_edges()),
              ("flags", sorted(g.flag_labels, key=str)),
              ("bare-vertices", g.bare_vertices)]
    if args.format == "json":
        print(json.dumps(dict(fields), sort_keys=True))
    else:
        for name, value in fields:
            if isinstance(value, list):
                value = " ".join(str(x) for x in value)
            elif isinstance(value, bool):
                value = "yes" if value else "no"
            print(f"{name} {value}")
    return 0


def _cmd_dual(args) -> int:
    return _emit_graph(natural_dual(read_graph_file(args.input)), args)


def _cmd_pdual(args) -> int:
    g = read_graph_file(args.input)
    return _emit_graph(partial_dual(g, _edge_list(g, args)), args)


def _cmd_delete(args) -> int:
    g = read_graph_file(args.input)
    return _emit_graph(delete_edges(g, _edge_list(g, args)), args)


def _cmd_cut(args) -> int:
    g = read_graph_file(args.input)
    for lab in _edge_list(g, args):
        g = cut(g, lab)
    return _emit_graph(g, args)


def _cmd_contract(args) -> int:
    g = read_graph_file(args.input)
    for lab in _edge_list(g, args):
        g = contract(g, lab)
    return _emit_graph(g, args)


def _r_rule(text: str) -> RSequenceSpec:
    table = {
        "symbolic": RSequenceSpec.symbolic,
        "even2odd0": RSequenceSpec.even_two_odd_zero,
        "odd2even0": RSequenceSpec.odd_two_even_zero,
        "delta1": RSequenceSpec.delta_one,
    }
    if text in table:
        return table[text]()
    m = re.fullmatch(r"const:(-?\d+)", text)
    if m:
        return RSequenceSpec.constant(int(m.group(1)))
    raise argparse.ArgumentTypeError(
        f"unknown r-rule {text!r} (want symbolic, even2odd0, odd2even0, "
        "delta1, or const:<n>)")


def _agreed(results: dict, default: str) -> MultiPoly:
    """The default method's result, once every strategy gave the same
    polynomial."""
    if len({p.to_string() for p in results.values()}) != 1:
        raise RgpError("strategy disagreement: "
                       + "; ".join(f"{m}={p.to_string()}"
                                   for m, p in sorted(results.items())))
    return results[default]


def _cmd_q(args) -> int:
    g = read_graph_file(args.input)
    rule = args.r_rule
    if args.check_all:
        results = {m: q_polynomial(g, rule, method=m, max_edges=args.max_edges).poly
                   for m in ("expansion", "reduction")}
        return _emit_poly(_agreed(results, q_default_method(rule)), args)
    res = q_polynomial(g, rule, method=args.method, max_edges=args.max_edges)
    return _emit_poly(res.poly, args)


def _cmd_hu(args) -> int:
    g = read_graph_file(args.input)

    def compute(method: str) -> MultiPoly:
        if method == "critical":
            return hu_via_critical_algorithm(g)
        return hu(g, method=method, max_edges=args.max_edges)

    if args.check_all:
        methods = ["expansion", "reduction"]
        if structure_report(g).orientable:
            methods.append("critical")
        return _emit_poly(_agreed({m: compute(m) for m in methods},
                                  args.default_method), args)
    return _emit_poly(compute(args.method), args)


def _cmd_hv(args) -> int:
    g = read_graph_file(args.input)
    form = hv(g)
    if args.format == "json":
        payload = {
            "flags": list(form.flags),
            "diag": {str(i): form.diag[i].to_json_obj() for i in form.flags},
            "sym": {f"{i},{j}": p.to_json_obj() for (i, j), p in form.sym.items()},
            "antisym": {f"{i},{j}": p.to_json_obj()
                        for (i, j), p in form.antisym.items()},
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    for i in form.flags:
        print(f"diag[{i}] = {form.diag[i].to_string()}")
    for i, j in sorted(form.sym):
        print(f"sym[{i},{j}] = {form.sym[(i, j)].to_string()}")
    for i, j in sorted(form.antisym):
        print(f"antisym[{i},{j}] = {form.antisym[(i, j)].to_string()}")
    return 0


def _cmd_hu_critical(args) -> int:
    return _emit_poly(hu_critical(read_graph_file(args.input)), args)


def _cmd_symanzik(args) -> int:
    g = read_graph_file(args.input)
    if args.check_all:
        results = {m: symanzik_u(g, method=m, max_edges=args.max_edges)
                   for m in ("faces", "rank")}
        return _emit_poly(_agreed(results, args.default_method), args)
    return _emit_poly(symanzik_u(g, method=args.method, max_edges=args.max_edges),
                      args)


def _cmd_limit(args) -> int:
    g = read_graph_file(args.input)
    if args.heat_kernel and args.commutative:
        return _emit_poly(symanzik_commutative_limit(symanzik_u(g)), args)
    if args.heat_kernel:
        return _emit_poly(symanzik_u(g), args)
    return _emit_poly(hu_commutative_limit(g), args)


def _cmd_specialize(args) -> int:
    g = read_graph_file(args.input)
    fn = {"br": specialize_br, "dimer": specialize_dimer,
          "ising": specialize_ising}[args.to]
    return _emit_poly(fn(g), args)


def _cmd_counts(args) -> int:
    g = read_graph_file(args.input)
    counts = class_counts(g)
    fields = [(name, getattr(counts, name))
              for name in ("odd", "even", "codd", "cev",
                           "oddf", "evf", "coddf", "cevf")]
    if args.format == "json":
        print(json.dumps(dict(fields), sort_keys=True))
    else:
        for name, value in fields:
            print(f"{name} {value}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgp",
        description="Exact polynomial invariants of ribbon graphs with flags.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name: str, func, help_text: str, *, edges=False, emit=False,
            method=None, default=None, max_edges=None, fmt=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("input", help="ribbon-graph file")
        if edges:
            p.add_argument("-e", "--edges", required=True,
                           help="comma-separated edge labels")
        if emit:
            p.add_argument("--emit", choices=("graph", "dot"), default="graph",
                           help="output form (default: graph file)")
        if method:
            p.set_defaults(default_method=default)
            p.add_argument("--method", choices=method, default=default,
                           help="computation strategy (default: "
                                + (default or "by --r-rule, see above") + ")")
            p.add_argument("--check-all", action="store_true",
                           help="run every strategy and fail on disagreement")
            p.add_argument("--max-edges", type=int, default=max_edges,
                           help="enumeration guard override (default: %(default)s)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text",
                           help="polynomial/report encoding (default: text)")
        return p

    add("validate", _cmd_validate, "check a graph file and its map axioms",
        fmt=False)
    add("info", _cmd_info, "structure report (v, e, f, genus, ...)")
    add("dual", _cmd_dual, "natural (full) dual", emit=True, fmt=False)
    add("pdual", _cmd_pdual, "partial dual with respect to -e", edges=True,
        emit=True, fmt=False)
    add("delete", _cmd_delete, "delete the edges in -e", edges=True, emit=True,
        fmt=False)
    add("cut", _cmd_cut, "cut the edges in -e (leaves flag stubs)", edges=True,
        emit=True, fmt=False)
    add("contract", _cmd_contract, "contract the edges in -e", edges=True,
        emit=True, fmt=False)

    qp = add("q", _cmd_q, "topological polynomial Q",
             method=("expansion", "reduction"), max_edges=10)
    qp.description = ("Q by subset expansion when no vertex weight can be zero "
                      "(symbolic, const:<n> with n != 0), else by the "
                      "four-term reduction.  The expansion stops above "
                      "--max-edges with E-SIZE; --method reduction has no "
                      "edge guard.")
    qp.add_argument("--r-rule", type=_r_rule, default=RSequenceSpec.symbolic(),
                    help="vertex-weight rule: symbolic, even2odd0, odd2even0, "
                         "delta1, const:<n> (default: symbolic)")
    add("hu", _cmd_hu, "first hyperbolic polynomial",
        method=("expansion", "reduction", "critical"), default="reduction",
        max_edges=10)
    add("hv", _cmd_hv, "second hyperbolic polynomial (quadratic form in flags)")
    add("hu-critical", _cmd_hu_critical, "face-factorized value at Omega=1")
    add("symanzik-u", _cmd_symanzik, "heat-kernel (quasi-tree) polynomial U",
        method=("faces", "rank"), default="rank", max_edges=20)
    lim = add("limit", _cmd_limit,
              "limits: --commutative for the Mehler limit of hu, "
              "--heat-kernel for U; both together give the spanning-tree "
              "limit of U")
    lim.add_argument("--commutative", action="store_true")
    lim.add_argument("--heat-kernel", action="store_true")
    sp = add("specialize", _cmd_specialize, "classical specializations of Q")
    sp.add_argument("--to", choices=("br", "dimer", "ising"), required=True,
                    help="br: one-variable Bollobas-Riordan slice; dimer: "
                         "perfect-matching generator; ising: high-temperature "
                         "edge weights")
    add("counts", _cmd_counts, "spanning/cutting subgraph class counts")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as ex:
        code = ex.code
        return 2 if code not in (0, None) else int(code or 0)
    if args.verb == "limit" and not (args.commutative or args.heat_kernel):
        print("rgp limit: one of --commutative / --heat-kernel is required",
              file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as ex:
        print(f"E-PARSE {ex}", file=sys.stderr)
        return 1
    except UnknownEdge as ex:
        print(f"E-EDGE {ex}", file=sys.stderr)
        return 1
    except TooLarge as ex:
        print(f"E-SIZE {ex}", file=sys.stderr)
        return 1
    except RgpError as ex:
        print(f"E-MAP {ex}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
