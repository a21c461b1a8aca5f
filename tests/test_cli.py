import dataclasses
import inspect
import json
import random
import re
from pathlib import Path

import pytest

from rgp import cli
from rgp.cli import (
    format_dot,
    format_graph_file,
    main,
    read_graph_file,
    read_graph_text,
)
from rgp.corpus import (
    acceptance_corpus,
    banana,
    double_tadpole,
    dumbbell,
    fig_two_vertex,
    random_rotation_graph,
    sunset,
    twisted_loop,
    two_cycle,
)
from rgp.errors import RgpError
from rgp.hyperbolic import (hu, hu_commutative_limit, hu_critical, hv,
                            symanzik_commutative_limit, symanzik_u)
from rgp.maps import isomorphic
from rgp.ops import contract, cut, delete, natural_dual, partial_dual
from rgp.poly import MultiPoly, parse
from rgp.qpoly import (RSequenceSpec, q_by_expansion, q_polynomial, specialize_br,
                       specialize_dimer, specialize_ising)
from reference_enumerators import reference_to_json, reference_to_json_obj

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hu_two_cycle(capsys):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "two_cycle.rg"))
    assert code == 0 and err == ""
    assert out == ("4*t_e1^2*O_e1*O_e2 + 4*t_e1*t_e2*O_e1^2"
                   " + 4*t_e1*t_e2*O_e2^2 + 4*t_e2^2*O_e1*O_e2\n")


def test_pdual_emits_double_tadpole(capsys):
    code, out, err = run(capsys, "pdual", "-e", "e1",
                         str(EXAMPLES / "two_cycle.rg"), "--emit", "graph")
    assert code == 0 and err == ""
    assert out == ("vertex v1 : e1.1 e2.2 e1.2 e2.1\n"
                   "edge e1 : e1.1 e1.2\n"
                   "edge e2 : e2.1 e2.2\n")
    assert isomorphic(read_graph_text(out), double_tadpole())


def test_validate_ok_and_garbage(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(EXAMPLES / "two_vertex_map.rg"))
    assert (code, out, err) == (0, "ok\n", "")
    # "( )" is an empty cycle: sigma1 is the identity, and both theta-orbits are flags
    raw = tmp_path / "empty_cycle.rg"
    raw.write_text("crosses: 4\nsigma0: (1 2)(3 4)\ntheta: (1 3)(2 4)\nsigma1: ( )\n")
    assert run(capsys, "validate", str(raw)) == (0, "ok\n", "")
    bad = tmp_path / "garbage.rg"
    bad.write_text("this is not ; a graph\n???\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("E-PARSE") or err.startswith("E-MAP")


@pytest.mark.parametrize("key, extra", [("sigma2", ": (1 2)"), ("vertex", " v9 : a b"),
                                        ("edge", " e7 : a b")], ids=["sigma2", "vertex", "edge"])
def test_raw_form_rejects_unknown_directives(tmp_path, capsys, key, extra):
    raw = tmp_path / "extra.rg"
    raw.write_text(f"crosses: 4\nsigma0: (1 2)(3 4)\ntheta: (1 3)(2 4)\nsigma1: ( )\n{key}{extra}\n")
    assert run(capsys, "info", str(raw)) == (
        1, "", f"E-PARSE unknown directive {key!r} (line 5)\n")


RAW = "crosses: 4\nsigma0: (1 2)(3 4)\ntheta: (1 3)(2 4)\nsigma1: ( )\n"


@pytest.mark.parametrize("text, err", [
    (RAW.replace("( )", "( ) junk"), "E-PARSE stray text 'junk' in permutation (line 4)"),
    (RAW.replace("(1 2)", "(1 a)"), "E-PARSE non-integer cross in cycle (1 a) (line 2)"),
    (RAW + "theta: (1 3)(2 4)\n", "E-PARSE duplicate 'theta' line (line 5)"),
    (RAW.replace("sigma1: ( )\n", ""), "E-PARSE raw map form is missing a 'sigma1' line"),
    (RAW.replace("4", "four", 1), "E-PARSE crosses wants an integer count (line 1)"),
    (RAW.replace("4", "3", 1), "E-PARSE cross count must be positive and even (line 1)"),
    (RAW.replace("(3 4)", "(3 5)"), "E-PARSE cross 5 outside 1..4 (line 2)"),
    ("vertex :: a b\n", "E-PARSE vertex line wants an id (line 1)"),
    ("vertex v : a b\nedge e1 a b\n",
     "E-PARSE edge line wants `edge <id> : <end> <end> [twist=0|1]` (line 2)"),
    ("vertex v : a b\nedge e1 : a b twist=2\n", "E-PARSE bad twist field 'twist=2' (line 2)"),
    ("vertex v : a\nflag\n", "E-PARSE flag line wants an id (line 2)"),
    ("vertex v : a\nface : a\n", "E-PARSE unknown directive 'face' (line 2)"),
    ("flag a\n", "E-PARSE no vertex lines found"),
    ("# nothing here\n\n", "E-PARSE empty graph file"),
    ("vertex v : a\nvertex v : b\n", "E-MAP duplicate vertex label"),
    ("vertex v : a b c d\nedge e1 : a b\nedge e1 : c d\n", "E-MAP duplicate edge label 'e1'"),
    ("vertex v : a b\nedge e1 : a b\nflag a\n", "E-MAP flag 'a' is also an edge end"),
    ("vertex v : a\nflag z\n", "E-MAP flag 'z' appears in no rotation"),
], ids=["stray-text", "non-integer-cross", "duplicate-line", "missing-line",
        "non-integer-count", "odd-count", "cross-out-of-range", "vertex-without-id",
        "malformed-edge", "twist-2", "flag-without-id", "unknown-directive",
        "no-vertex-line", "empty-file", "duplicate-vertex", "duplicate-edge",
        "flag-is-edge-end", "flag-in-no-rotation"])
def test_validate_refuses_malformed_graph_files(tmp_path, capsys, text, err):
    path = tmp_path / "bad.rg"
    path.write_text(text)
    assert run(capsys, "validate", str(path)) == (1, "", err + "\n")


def test_validate_refuses_an_unreadable_path(tmp_path, capsys):
    missing = tmp_path / "missing.rg"
    assert run(capsys, "validate", str(missing)) == (
        1, "", f"E-PARSE cannot read {missing}: No such file or directory\n")


def test_validate_broken_permutations(tmp_path, capsys):
    bad = tmp_path / "broken.rg"
    # theta fails to be a fixed-point-free involution pairing sigma0 cycles
    bad.write_text("crosses: 4\nsigma0: (1,2)(3,4)\ntheta: (1,2,3)\nsigma1:\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("E-MAP")


def test_json_round_trip(capsys):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "sunset.rg"),
                         "--format", "json")
    assert code == 0
    assert MultiPoly.from_json(out) == hu(sunset())


def test_info_json_fields(capsys):
    code, out, err = run(capsys, "info", str(EXAMPLES / "two_vertex_map.rg"),
                         "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["v"] == 2 and rep["e"] == 2 and rep["faces"] == 1
    assert rep["euler-genus"] == 1 and rep["orientable"] is False
    assert rep["flags"] == ["f1", "f2"]


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "hv", str(EXAMPLES / "sunset.rg"))
    second = run(capsys, "hv", str(EXAMPLES / "sunset.rg"))
    assert first == second
    assert first[0] == 0
    assert first[1].startswith("diag[s1] = ")


# The sign of every nonzero antisym entry `rgp hv` prints for the flagged
# acceptance graphs, as "<i>,<j><sign>" in print order.  Acceptance check 2
# compares antisym only up to one global sign per graph; this pins the sign,
# which splicing the marker flag before i instead of after it would flip.
HV_ANTISYM_SIGNS = {
    "bridge_02": "v1,v2+",
    "loop_02": "q1,q2+",
    "bridge_12": "u1,v1- u1,v2+ v1,v2+",
    "loop_12": "p1,q1- p1,q2+ q1,q2+",
    "bridge_20": "u1,u2+",
    "loop_20": "p1,p2+",
    "bridge_21": "u1,u2+ u1,v1+ u2,v1-",
    "loop_21": "p1,p2+ p1,q1+ p2,q1-",
    "bridge_22": "u1,u2+ v1,v2+",
    "loop_22": "p1,p2+ q1,q2+",
    "triangle_flags": "g1,g2- g1,g3- g2,g3-",
    "sunset": "s1,s2-",
    "star3_flags": "f1,f2+ f1,f3- f2,f3+",
    "fig_two_vertex": "f1,f2+",
}


def test_hv_prints_pinned_antisym_signs(capsys, tmp_path):
    got = {}
    for name, g in acceptance_corpus().items():
        if not g.flag_labels:
            continue
        path = tmp_path / f"{name}.rg"
        path.write_text(format_graph_file(g))
        code, out, err = run(capsys, "hv", str(path))
        assert code == 0 and err == "", name
        signs = [f"{m[1]}{'-' if m[2] else '+'}"
                 for m in re.finditer(r"^antisym\[(.*)\] = (-)?(?!0$)", out, re.M)]
        if signs:
            got[name] = " ".join(signs)
    assert got == HV_ANTISYM_SIGNS


def test_unknown_edge(capsys):
    code, out, err = run(capsys, "pdual", "-e", "zap",
                         str(EXAMPLES / "two_cycle.rg"))
    assert code == 1 and err.startswith("E-EDGE")


def test_size_guard(capsys, tmp_path):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "dumbbell.rg"),
                         "--method", "expansion", "--max-edges", "1")
    assert code == 1 and err.startswith("E-SIZE")
    path = tmp_path / "banana3.rg"
    path.write_text(format_graph_file(banana(3)))
    for method in ("rank", "faces"):
        code, out, err = run(capsys, "symanzik-u", "--method", method,
                             "--max-edges", "2", str(path))
        assert (code, out) == (1, "") and err.startswith("E-SIZE")
    # symbolic q enumerates by default, so it stops at 10 edges: 4^11 terms
    path = tmp_path / "banana11.rg"
    path.write_text(format_graph_file(banana(11)))
    code, out, err = run(capsys, "q", str(path))
    assert (code, out) == (1, "") and err.startswith("E-SIZE")
    # on a small map: --method reduction has no edge guard
    path = tmp_path / "banana3.rg"
    code, out, err = run(capsys, "q", "--max-edges", "2", str(path))
    assert (code, out) == (1, "") and err.startswith("E-SIZE")
    code, out, err = run(capsys, "q", "--method", "reduction", "--max-edges", "2",
                         str(path))
    assert (code, err) == (0, "")
    assert out == run(capsys, "q", "--max-edges", "3", str(path))[1]
    # counts is a closed form: no guard, even at 2e+f = 26
    path = tmp_path / "banana13.rg"
    path.write_text(format_graph_file(banana(13)))
    code, out, err = run(capsys, "limit", "--commutative", str(path))
    assert (code, out) == (1, "") and err.startswith("E-SIZE")
    code, out, err = run(capsys, "counts", "--format", "json", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {"odd": 2 ** 12, "even": 2 ** 12,
                               "codd": 2 ** 14, "cev": 2 ** 14,
                               "oddf": 2 ** 24, "evf": 2 ** 24,
                               "coddf": 2 ** 26, "cevf": 2 ** 26}


def test_max_edges_defaults_are_the_library_bounds():
    guarded = {"q": [q_by_expansion, q_polynomial], "hu": [hu], "symanzik-u": [symanzik_u]}
    for verb, functions in guarded.items():
        default = cli.build_parser().parse_args([verb, "graph.rg"]).max_edges
        assert {inspect.signature(f).parameters["max_edges"].default
                for f in functions} == {default}, verb


def test_parser_built_once(monkeypatch, capsys):
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "info", str(EXAMPLES / "two_cycle.rg"))[0] == 0
        assert run(capsys, "frobnicate", "x.rg")[0] == 2
        assert run(capsys, "info", str(EXAMPLES / "two_cycle.rg"))[0] == 0
    finally:
        cli._parser.cache_clear()
    assert calls == [1]


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate", "x.rg")[0] == 2
    assert run(capsys, "limit", str(EXAMPLES / "dumbbell.rg"))[0] == 2
    assert run(capsys, "hu")[0] == 2


def test_bare_value_error_propagates(monkeypatch):
    # only RgpError is a domain error; anything else is a bug and must crash
    def broken(*args, **kwargs):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "hu", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        main(["hu", str(EXAMPLES / "two_cycle.rg")])


def test_critical_method_rejects_nonorientable(capsys):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "twisted_loop.rg"),
                         "--method", "critical")
    assert code == 1 and err.startswith("E-MAP")


def test_check_all(capsys):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "dumbbell.rg"),
                         "--check-all")
    assert code == 0 and err == ""
    from rgp.corpus import dumbbell
    assert parse(out.strip()) == hu(dumbbell())
    code2, out2, _ = run(capsys, "q", str(EXAMPLES / "two_cycle.rg"),
                         "--check-all", "--r-rule", "delta1")
    assert code2 == 0
    want = symanzik_u(banana(3, planar=False)).to_string() + "\n"
    for flags in (["--check-all"], ["--method", "faces"], []):
        got = run(capsys, "symanzik-u", *flags, str(EXAMPLES / "banana3_nonplanar.rg"))
        assert got == (0, want, ""), flags


@pytest.mark.parametrize("name", ["twisted_loop.rg", "two_vertex_map.rg"])
def test_check_all_skips_critical_on_nonorientable(capsys, name):
    # both maps are non-orientable, so --check-all compares the two Q routes only
    want = run(capsys, "hu", str(EXAMPLES / name))
    assert want[0] == 0
    assert run(capsys, "hu", "--check-all", str(EXAMPLES / name)) == want


@pytest.mark.parametrize("verb, op", [("cut", cut), ("contract", contract)])
def test_edge_list_applies_one_edge_at_a_time(capsys, verb, op):
    g = read_graph_file(str(EXAMPLES / "dumbbell.rg"))
    want = format_graph_file(op(op(g, "e1"), "e2"))
    assert run(capsys, verb, "-e", "e1,e2", str(EXAMPLES / "dumbbell.rg")) == (0, want, "")


@pytest.mark.parametrize("verb", ["pdual", "delete", "cut", "contract"])
def test_edge_list_takes_a_repeated_edge_once(capsys, verb):
    path = str(EXAMPLES / "sunset.rg")
    want = run(capsys, verb, "-e", "e1", path)
    assert want[0] == 0
    assert run(capsys, verb, "-e", "e1,e1", path) == want


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.rg")), ids=lambda p: p.name)
def test_hu_and_hv_routes_agree_on_the_examples(capsys, path):
    # hu's loop route and hv --check-all print the default's bytes, or fail
    # with its error (hv on a flagless map)
    routes = {"hu": [["--method", "loops"]], "hv": [["--check-all"]]}
    for verb, flag_sets in routes.items():
        for fmt in ([], ["--format", "json"]):
            want = run(capsys, verb, *fmt, str(path))
            for flags in flag_sets:
                assert run(capsys, verb, *flags, *fmt, str(path)) == want, (verb, flags, fmt)
    assert (want[0] == 0) == (path.name in ("sunset.rg", "two_vertex_map.rg"))


def test_hv_check_all_reports_disagreement(monkeypatch, capsys):
    real = cli.hv

    def wrong_hv(g, method="loops"):
        form = real(g, method=method)
        if method == "loops":
            return form
        return dataclasses.replace(form, sym={**form.sym, ("s1", "s2"): form.sym[("s1", "s2")]
                                              + MultiPoly.one()})

    monkeypatch.setattr(cli, "hv", wrong_hv)
    path = str(EXAMPLES / "sunset.rg")
    assert run(capsys, "hv", path)[0] == 0
    code, out, err = run(capsys, "hv", "--check-all", path)
    assert (code, out) == (1, "")
    assert err.startswith("E-MAP strategy disagreement: loops=diag[s1] = ")
    assert "; surgery=diag[s1] = " in err


def test_loop_width_guard_is_a_size_error(capsys, tmp_path, wide_map):
    path = tmp_path / "wide.rg"
    path.write_text(format_graph_file(wide_map))
    code, out, err = run(capsys, "hu", "--method", "loops", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("E-SIZE the loop order holds 48 sigma0 arcs open, above 24; "
                          "the reduction route has no such bound")


def test_check_all_reports_disagreement(monkeypatch, capsys):
    # one strategy off by one: --check-all must refuse, not pick a winner
    real_q, real_hu, real_u = cli.q_polynomial, cli.hu, cli.symanzik_u

    def wrong_q(g, rule, method, max_edges):
        res = real_q(g, rule, method=method, max_edges=max_edges)
        if method == "reduction":
            return res
        return dataclasses.replace(res, poly=res.poly + MultiPoly.one())

    def wrong_hu(g, method, max_edges):
        p = real_hu(g, method=method, max_edges=max_edges)
        return p if method == "reduction" else p + MultiPoly.one()

    def wrong_u(g, method, max_edges):
        p = real_u(g, method=method, max_edges=max_edges)
        return p if method == "rank" else p + MultiPoly.one()

    monkeypatch.setattr(cli, "q_polynomial", wrong_q)
    monkeypatch.setattr(cli, "hu", wrong_hu)
    monkeypatch.setattr(cli, "symanzik_u", wrong_u)
    for verb in ("q", "hu", "symanzik-u"):
        code, out, err = run(capsys, verb, str(EXAMPLES / "two_cycle.rg"), "--check-all")
        assert (code, out) == (1, "")
        assert err.startswith("E-MAP strategy disagreement: ")


def test_q_r_rules(capsys):
    code, out, err = run(capsys, "q", str(EXAMPLES / "two_cycle.rg"),
                         "--r-rule", "even2odd0")
    assert code == 0
    assert out == ("4*x_e1*x_e2 + 2*x_e1*y_e2 + 2*x_e1*z_e2 + 2*x_e2*y_e1"
                   " + 2*x_e2*z_e1 + 4*y_e1*y_e2 + 2*y_e1*w_e2 + 2*y_e2*w_e1"
                   " + 4*z_e1*z_e2 + 2*z_e1*w_e2 + 2*z_e2*w_e1"
                   " + 4*w_e1*w_e2\n")
    code, out, err = run(capsys, "q", str(EXAMPLES / "two_cycle.rg"),
                         "--r-rule", "const:1")
    assert code == 0
    code, out, err = run(capsys, "q", str(EXAMPLES / "two_cycle.rg"),
                         "--r-rule", "bogus")
    assert (code, out) == (2, "")
    assert ("unknown r-rule 'bogus' (want symbolic, even2odd0, odd2even0, delta1, "
            "or const:<n>)") in err


def test_specialize_ising(capsys):
    code, out, err = run(capsys, "specialize", "--to", "ising",
                         str(EXAMPLES / "two_cycle.rg"))
    assert (code, out) == (0, "4*x_e1*x_e2 + 4*w_e1*w_e2\n")


def test_structural_verbs_match_library(capsys, tmp_path):
    g = two_cycle()
    for verb, ref in (("dual", natural_dual(g)), ("delete", delete(g, "e1")),
                      ("cut", cut(g, "e1")), ("contract", contract(g, "e1"))):
        argv = [verb, str(EXAMPLES / "two_cycle.rg")]
        if verb != "dual":
            argv[1:1] = ["-e", "e1"]
        code, out, err = run(capsys, *argv)
        assert code == 0, (verb, err)
        assert isomorphic(read_graph_text(out), ref), verb


def _graph_verb_reads_back(capsys, path, verb, edges, ref):
    """Run the graph verb on the file, in both output forms, and check that
    the graph it writes reads back isomorphic to `ref`, with its labels."""
    argv = [verb, *(["-e", ",".join(edges)] if edges else []), str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), argv
    h = read_graph_text(out)
    assert isomorphic(h, ref), argv
    assert (set(h.edge_labels), set(h.flag_labels)) == \
        (set(ref.edge_labels), set(ref.flag_labels)), argv
    code, out, err = run(capsys, *argv, "--emit", "dot")
    assert (code, err) == (0, "") and out.startswith("graph rgp {"), argv


def test_writers_take_flags_named_like_half_ribbons(capsys, tmp_path):
    # the flag e1.1 takes the name the writers give e1's first half-ribbon,
    # so that half-ribbon is written as e1.1'
    path = tmp_path / "named_flag.rg"
    path.write_text("vertex u : a b e1.1\nvertex v : c d\n"
                    "edge e1 : a c\nedge e2 : b d\nflag e1.1\n")
    g = read_graph_file(str(path))
    assert run(capsys, "hu", str(path))[0] == 0
    for verb, edges, ref in (("dual", [], natural_dual(g)),
                             ("pdual", ["e1"], partial_dual(g, ["e1"])),
                             ("cut", ["e2"], cut(g, "e2"))):
        _graph_verb_reads_back(capsys, path, verb, edges, ref)
    assert run(capsys, "cut", "-e", "e2", str(path))[1] == (
        "vertex v1 : e1.1' e2.1 e1.1\n"
        "vertex v2 : e1.2 e2.2\n"
        "edge e1 : e1.1' e1.2\n"
        "flag e1.1\n"
        "flag e2.1\n"
        "flag e2.2\n")


def _half_ribbon_named_map(rng: random.Random, path: Path) -> None:
    """Write a random map of 1-3 edges whose half-edge ids are h0, h1, ...
    and whose flags are named from <e>.1, <e>.2, <e>.1', <e>, v1 and v2."""
    n_e, n_f = rng.randint(1, 3), rng.randint(1, 3)
    names = [f"e{i}{s}" for i in range(1, n_e + 1) for s in (".1", ".2", ".1'", "")]
    items = [f"h{i}" for i in range(2 * n_e)] + rng.sample(names + ["v1", "v2"], n_f)
    flags = items[2 * n_e:]
    rng.shuffle(items)
    n_v = rng.randint(1, len(items))
    buckets: list[list] = [[] for _ in range(n_v)]
    for it in items:
        buckets[rng.randrange(n_v)].append(it)
    halves = [f"h{i}" for i in range(2 * n_e)]
    rng.shuffle(halves)
    lines = [f"vertex u{i} : {' '.join(b)}" for i, b in enumerate(buckets)]
    lines += [f"edge e{i + 1} : {halves[2 * i]} {halves[2 * i + 1]} twist={rng.randint(0, 1)}"
              for i in range(n_e)]
    lines += [f"flag {f}" for f in flags]
    path.write_text("\n".join(lines) + "\n")


def test_graph_verbs_take_flags_named_like_half_ribbons(capsys, tmp_path):
    rng = random.Random(30)
    path = tmp_path / "named_flags.rg"
    for _ in range(40):
        _half_ribbon_named_map(rng, path)
        g = read_graph_file(str(path))
        _graph_verb_reads_back(capsys, path, "dual", [], natural_dual(g))
        for e in g.edge_labels:
            for verb, ref in (("pdual", partial_dual(g, [e])), ("delete", delete(g, e)),
                              ("cut", cut(g, e)), ("contract", contract(g, e))):
                _graph_verb_reads_back(capsys, path, verb, [e], ref)


def test_limit_modes(capsys):
    from rgp.corpus import banana, dumbbell
    code, out, _ = run(capsys, "limit", "--commutative",
                       str(EXAMPLES / "dumbbell.rg"))
    assert code == 0
    assert parse(out.strip()) == hu_commutative_limit(dumbbell())
    code, out, _ = run(capsys, "limit", "--heat-kernel",
                       str(EXAMPLES / "banana3_nonplanar.rg"))
    assert code == 0
    assert parse(out.strip()) == symanzik_u(banana(3, planar=False))
    code, out, _ = run(capsys, "limit", "--heat-kernel", "--commutative",
                       str(EXAMPLES / "banana3_nonplanar.rg"))
    assert code == 0
    assert out == "a_e1*a_e2 + a_e1*a_e3 + a_e2*a_e3\n"


def test_dot_export(capsys):
    code, out, err = run(capsys, "pdual", "-e", "e1",
                         str(EXAMPLES / "two_cycle.rg"), "--emit", "dot")
    assert code == 0
    assert out.startswith("graph rgp {")
    assert '[label="e1"]' in out
    code, out, err = run(capsys, "dual", str(EXAMPLES / "twisted_loop.rg"),
                         "--emit", "dot")
    assert code == 0 and "(twist)" in out
    dot = format_dot(sunset())
    assert '"flag:s1" [shape=point];' in dot


def test_raw_map_round_trip(capsys):
    code, out, err = run(capsys, "hu", str(EXAMPLES / "two_vertex_map.rg"))
    assert code == 0
    from rgp.corpus import fig_two_vertex
    assert parse(out.strip()) == hu(fig_two_vertex())


def test_examples_match_corpus():
    sources = {"two_cycle.rg": two_cycle(), "sunset.rg": sunset(),
               "dumbbell.rg": dumbbell(), "twisted_loop.rg": twisted_loop(),
               "banana3_nonplanar.rg": banana(3, planar=False)}
    assert sorted(p.name for p in EXAMPLES.glob("*.rg")) == sorted(
        [*sources, "two_vertex_map.rg"])
    for name, want in sources.items():
        path = EXAMPLES / name
        got = read_graph_file(str(path))
        assert isomorphic(got, want), name
        # same labels, rotations and twists, not just the same shape
        assert path.read_text() == format_graph_file(want), name
    raw = read_graph_file(str(EXAMPLES / "two_vertex_map.rg"))
    want = fig_two_vertex()
    assert raw.map == want.map
    assert (raw.edge_labels, raw.flag_labels) == (want.edge_labels, want.flag_labels)


# Every verb that prints polynomials, with the library call it prints.
_POLY_VERBS = [
    (["q"], lambda g: q_polynomial(g, RSequenceSpec.symbolic()).poly),
    (["q", "--r-rule", "even2odd0"],
     lambda g: q_polynomial(g, RSequenceSpec.even_two_odd_zero()).poly),
    (["hu"], hu),
    (["hu-critical"], hu_critical),
    (["symanzik-u"], symanzik_u),
    (["limit", "--commutative"], hu_commutative_limit),
    (["limit", "--heat-kernel"], symanzik_u),
    (["limit", "--commutative", "--heat-kernel"],
     lambda g: symanzik_commutative_limit(symanzik_u(g))),
    (["specialize", "--to", "br"], specialize_br),
    (["specialize", "--to", "dimer"], specialize_dimer),
    (["specialize", "--to", "ising"], specialize_ising),
]


def _reference_hv_json(form) -> str:
    """What the CLI printed when it encoded the whole hv payload at once."""
    payload = {
        "flags": list(form.flags),
        "diag": {str(i): reference_to_json_obj(form.diag[i]) for i in form.flags},
        "sym": {f"{i},{j}": reference_to_json_obj(p) for (i, j), p in form.sym.items()},
        "antisym": {f"{i},{j}": reference_to_json_obj(p)
                    for (i, j), p in form.antisym.items()},
    }
    return json.dumps(payload, sort_keys=True) + "\n"


@pytest.fixture
def writer_calls(monkeypatch):
    """Counts calls of MultiPoly.to_json and MultiPoly.to_json_obj."""
    calls = []
    for name in ("to_json", "to_json_obj"):
        real = getattr(MultiPoly, name)

        def counted(self, *args, _real=real, **kwargs):
            calls.append(1)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(MultiPoly, name, counted)
    return calls


def _json_run(capsys, writer_calls, argv):
    writer_calls.clear()
    code, out, err = run(capsys, *argv, "--format", "json")
    if code == 0:
        assert err == "" and writer_calls, argv
    return code, out, err


def test_json_verbs_print_the_reference_writer_bytes(capsys, writer_calls):
    for path in sorted(EXAMPLES.glob("*.rg")):
        g = read_graph_file(str(path))
        for argv, compute in _POLY_VERBS + [(["hv"], hv)]:
            try:
                value = compute(g)
            except RgpError:
                code, out, err = _json_run(capsys, writer_calls, [*argv, str(path)])
                assert (code, out) == (1, ""), (path.name, argv)
                continue
            want = (_reference_hv_json(value) if argv == ["hv"]
                    else reference_to_json(value) + "\n")
            got = _json_run(capsys, writer_calls, [*argv, str(path)])
            assert got == (0, want, ""), (path.name, argv)


def test_hv_json_sorts_keys_as_strings(capsys, writer_calls, tmp_path):
    g = random_rotation_graph(random.Random(90), max_edges=3, max_flags=12, min_edges=2)
    form = hv(g)
    keys = [f"{i},{j}" for i, j in form.sym]
    assert len(form.flags) >= 10 and any(form.sym.values())

    def numeric(key):
        return [int(x) for x in re.findall(r"\d+", key)]

    assert sorted(keys) != sorted(keys, key=numeric)
    path = tmp_path / "flags.rg"
    path.write_text(format_graph_file(g))
    got = _json_run(capsys, writer_calls, ["hv", str(path)])
    assert got == (0, _reference_hv_json(form), "")
