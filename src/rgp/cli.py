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
    SYMANZIK_MAX_EDGES,
    hu,
    hu_commutative_limit,
    hu_critical,
    hv,
    symanzik_commutative_limit,
    symanzik_u,
)
from .maps import (
    CombinatorialMap,
    RibbonGraph,
    RotationSpec,
    from_rotation_system,
    make_graph,
    perm_from_cycles,
    structure_report,
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
    EXPANSION_MAX_EDGES,
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


_RAW_KEYS = ("crosses", "sigma0", "theta", "sigma1")


def _read_raw_map(entries: list) -> RibbonGraph:
    fields = {}
    for lineno, key, text in entries:
        if key not in _RAW_KEYS:
            raise ParseError(f"unknown directive {key!r}", line=lineno)
        if key in fields:
            raise ParseError(f"duplicate {key!r} line", line=lineno)
        fields[key] = (lineno, text)
    for key in _RAW_KEYS:
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
        perms[key] = perm_from_cycles(domain, cycles)
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
    if any(key in _RAW_KEYS for _, key, _ in entries):
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


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _edge_list(g: RibbonGraph, args) -> list:
    labels = list(dict.fromkeys(piece for piece in args.edges.split(",") if piece))
    for lab in labels:
        if lab not in g.edge_labels:
            raise UnknownEdge(f"graph has no edge {lab!r}")
    return labels


def _cmd_validate(args) -> int:
    read_graph_file(args.input)
    print("ok")
    return 0


def _emit_fields(fields: list, args) -> int:
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


def _cmd_info(args) -> int:
    g = read_graph_file(args.input)
    rep = structure_report(g)
    return _emit_fields([("v", rep.v), ("e", rep.e), ("f", rep.f), ("k", rep.k),
                         ("faces", rep.faces), ("euler-genus", rep.euler_genus),
                         ("orientable", rep.orientable),
                         ("edges", g.sorted_edges()),
                         ("flags", sorted(g.flag_labels, key=str)),
                         ("bare-vertices", g.bare_vertices)], args)


def _cmd_counts(args) -> int:
    counts = class_counts(read_graph_file(args.input))
    return _emit_fields([(name, getattr(counts, name))
                         for name in ("odd", "even", "codd", "cev",
                                      "oddf", "evf", "coddf", "cevf")], args)


# Each graph verb, as a function of the graph and its -e edges.  The entries
# look their library functions up when called, so a replaced module
# attribute (a tracer, a test double) is the one that runs.
_GRAPH_VERBS = {
    "dual": lambda g, edges: natural_dual(g),
    "pdual": lambda g, edges: partial_dual(g, edges),
    "delete": lambda g, edges: delete_edges(g, edges),
    "cut": lambda g, edges: functools.reduce(cut, edges, g),
    "contract": lambda g, edges: functools.reduce(contract, edges, g),
}


def _cmd_graph(args) -> int:
    g = read_graph_file(args.input)
    edges = _edge_list(g, args) if "edges" in args else []
    g = _GRAPH_VERBS[args.verb](g, edges)
    sys.stdout.write(format_dot(g) if args.emit == "dot" else format_graph_file(g))
    return 0


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


def _agreed(results: dict, default: str, text=MultiPoly.to_string):
    """The default method's result, once every strategy gave the same one;
    `text` writes a result into the disagreement message."""
    agreed = results[default]
    if any(p != agreed for p in results.values()):
        raise RgpError("strategy disagreement: "
                       + "; ".join(f"{m}={text(p)}" for m, p in sorted(results.items())))
    return agreed


def _limit(g: RibbonGraph, args, method) -> MultiPoly:
    if args.heat_kernel and args.commutative:
        return symanzik_commutative_limit(symanzik_u(g))
    if args.heat_kernel:
        return symanzik_u(g)
    return hu_commutative_limit(g)


# Each polynomial verb, as a function of the graph, the parsed arguments and
# the --method route (None where the verb has no --method).  Looked up when
# called, like _GRAPH_VERBS.
_POLY_VERBS = {
    "q": lambda g, args, method: q_polynomial(
        g, args.r_rule, method=method, max_edges=args.max_edges).poly,
    "hu": lambda g, args, method: hu(g, method=method, max_edges=args.max_edges),
    "symanzik-u": lambda g, args, method: symanzik_u(
        g, method=method, max_edges=args.max_edges),
    "hu-critical": lambda g, args, method: hu_critical(g),
    "limit": _limit,
    "specialize": lambda g, args, method: {
        "br": specialize_br, "dimer": specialize_dimer,
        "ising": specialize_ising}[args.to](g),
}


def _cmd_poly(args) -> int:
    g = read_graph_file(args.input)
    compute = functools.partial(_POLY_VERBS[args.verb], g, args)
    if getattr(args, "check_all", False):
        # every --method choice; the critical route needs an orientable map
        methods = [m for m in args.methods
                   if m != "critical" or structure_report(g).orientable]
        default = args.default_method or q_default_method(args.r_rule)
        p = _agreed({m: compute(m) for m in methods}, default)
    else:
        p = compute(getattr(args, "method", None))
    if args.format == "json":
        p.to_json(sys.stdout)
        sys.stdout.write("\n")
    else:
        print(p.to_string())
    return 0


def _write_hv_json(form) -> None:
    """Write what json.dumps(payload, sort_keys=True) writes for hv's
    payload of flags and diag, sym and antisym tables, streaming each
    polynomial with `MultiPoly.to_json` instead of building a tree and
    encoding it again."""
    out = sys.stdout

    def table(polys: dict) -> None:
        out.write("{")
        for n, (key, p) in enumerate(sorted(polys.items())):
            out.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            p.to_json(out, sort_keys=True)
        out.write("}")

    out.write('{"antisym": ')
    table({f"{i},{j}": p for (i, j), p in form.antisym.items()})
    out.write(', "diag": ')
    table({str(i): form.diag[i] for i in form.flags})
    out.write(f', "flags": {json.dumps(list(form.flags))}, "sym": ')
    table({f"{i},{j}": p for (i, j), p in form.sym.items()})
    out.write("}\n")


def _hv_lines(form) -> list:
    """The text lines of `rgp hv`."""
    return ([f"diag[{i}] = {form.diag[i].to_string()}" for i in form.flags]
            + [f"sym[{i},{j}] = {form.sym[(i, j)].to_string()}" for i, j in sorted(form.sym)]
            + [f"antisym[{i},{j}] = {form.antisym[(i, j)].to_string()}"
               for i, j in sorted(form.antisym)])


def _cmd_hv(args) -> int:
    g = read_graph_file(args.input)
    if args.check_all:
        form = _agreed({m: hv(g, method=m) for m in ("loops", "surgery")}, "loops",
                       text=lambda f: ", ".join(_hv_lines(f)))
    else:
        form = hv(g)
    if args.format == "json":
        _write_hv_json(form)
    else:
        print("\n".join(_hv_lines(form)))
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
            p.set_defaults(default_method=default, methods=method)
            p.add_argument("--method", choices=method, default=default,
                           help="computation strategy (default: "
                                + (default or "by --r-rule, see above") + ")")
            p.add_argument("--check-all", action="store_true",
                           help="run every strategy and fail on disagreement")
        if max_edges is not None:
            p.add_argument("--max-edges", type=int, default=max_edges,
                           help="enumeration guard override (default: %(default)s)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text",
                           help="polynomial/report encoding (default: text)")
        return p

    add("validate", _cmd_validate, "check a graph file and its map axioms",
        fmt=False)
    add("info", _cmd_info, "structure report (v, e, f, genus, ...)")
    add("dual", _cmd_graph, "natural (full) dual", emit=True, fmt=False)
    add("pdual", _cmd_graph, "partial dual with respect to -e", edges=True,
        emit=True, fmt=False)
    add("delete", _cmd_graph, "delete the edges in -e", edges=True, emit=True,
        fmt=False)
    add("cut", _cmd_graph, "cut the edges in -e (leaves flag stubs)", edges=True,
        emit=True, fmt=False)
    add("contract", _cmd_graph, "contract the edges in -e", edges=True,
        emit=True, fmt=False)

    qp = add("q", _cmd_poly, "topological polynomial Q",
             method=("expansion", "reduction"), max_edges=EXPANSION_MAX_EDGES)
    qp.description = ("Q by subset expansion when no vertex weight can be zero "
                      "(symbolic, const:<n> with n != 0), else by the "
                      "four-term reduction.  The expansion stops above "
                      "--max-edges with E-SIZE; --method reduction has no "
                      "edge guard.")
    qp.add_argument("--r-rule", type=_r_rule, default=RSequenceSpec.symbolic(),
                    help="vertex-weight rule: symbolic, even2odd0, odd2even0, "
                         "delta1, const:<n> (default: symbolic)")
    add("hu", _cmd_poly, "first hyperbolic polynomial",
        method=("expansion", "reduction", "loops", "critical"), default="reduction",
        max_edges=EXPANSION_MAX_EDGES)
    hvp = add("hv", _cmd_hv, "second hyperbolic polynomial (quadratic form in flags)")
    hvp.add_argument("--check-all", action="store_true",
                     help="recompute the off-diagonal entries by surgery and fail "
                          "on disagreement")
    add("hu-critical", _cmd_poly, "face-factorized value at Omega=1")
    add("symanzik-u", _cmd_poly, "heat-kernel (quasi-tree) polynomial U",
        method=("faces", "rank"), default="rank", max_edges=SYMANZIK_MAX_EDGES)
    lim = add("limit", _cmd_poly,
              "limits: --commutative for the Mehler limit of hu, "
              "--heat-kernel for U; both together give the spanning-tree "
              "limit of U")
    lim.add_argument("--commutative", action="store_true")
    lim.add_argument("--heat-kernel", action="store_true")
    sp = add("specialize", _cmd_poly, "classical specializations of Q")
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
