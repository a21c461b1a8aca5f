import dataclasses
import json
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
    banana,
    double_tadpole,
    dumbbell,
    fig_two_vertex,
    sunset,
    twisted_loop,
    two_cycle,
)
from rgp.hyperbolic import hu, hu_commutative_limit, symanzik_u
from rgp.maps import isomorphic
from rgp.ops import contract, cut, delete, natural_dual
from rgp.poly import MultiPoly, parse

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
    bad = tmp_path / "garbage.rg"
    bad.write_text("this is not ; a graph\n???\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("E-PARSE") or err.startswith("E-MAP")


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
    code, out, err = run(capsys, "counts", "--format", "json", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {"odd": 2 ** 12, "even": 2 ** 12,
                               "codd": 2 ** 14, "cev": 2 ** 14,
                               "oddf": 2 ** 24, "evf": 2 ** 24,
                               "coddf": 2 ** 26, "cevf": 2 ** 26}


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
