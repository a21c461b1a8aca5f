"""Ring axioms, canonical strings, JSON and text round-trips for MultiPoly."""

import functools
import io
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_enumerators import (reference_sorted_terms, reference_to_json,
                                   reference_to_json_obj, reference_to_string)
from rgp.corpus import banana, cycle_graph, path_tree
from rgp.hyperbolic import (hu, hu_commutative_limit, hu_critical, hu_cycle, hu_tree,
                            symanzik_u)
from rgp.qpoly import q_by_expansion
from rgp.poly import _BATCH, KINDS, MAX_EXPONENT, MultiPoly, VarId, parse
from rgp.errors import InvalidArgument, MissingVariable, ParseError


def V(kind, label=None, exp=1):
    return MultiPoly.variable(kind, label, exp)


# --- hypothesis strategy: small random polynomials ------------------------

_VAR_LIST = [
    VarId("X", "e1"), VarId("X", "e2"), VarId("Y", "e1"), VarId("Z", "e2"),
    VarId("W", "e1"), VarId("T", "e1"), VarId("OMEGA", "e2"),
    VarId("ALPHA", "e3"), VarId("BETA"), VarId("R", 0), VarId("R", 3),
]
_vars = st.sampled_from(_VAR_LIST)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 5))
    p = MultiPoly.zero()
    for _ in range(n_terms):
        coeff = draw(st.integers(-9, 9))
        term = MultiPoly.const(coeff)
        for _ in range(draw(st.integers(0, 3))):
            v = draw(_vars)
            term = term * V(v.kind, v.label, draw(st.integers(1, 3)))
        p = p + term
    return p


@settings(max_examples=400, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.one() == a
    assert a * MultiPoly.zero() == MultiPoly.zero()
    assert a - a == MultiPoly.zero()


@settings(max_examples=200, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert parse(p.to_string()) == p


@settings(max_examples=200, deadline=None)
@given(polys())
def test_json_round_trip(p):
    assert MultiPoly.from_json(p.to_json()) == p


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_eval_is_homomorphism(a, b):
    point = {v: Fraction(i - 4, 3) for i, v in enumerate(
        sorted(a.variables() | b.variables(), key=lambda v: v.sort_key()))}
    assert (a * b).eval_rational(point) == a.eval_rational(point) * b.eval_rational(point)
    assert (a + b).eval_rational(point) == a.eval_rational(point) + b.eval_rational(point)


# --- the monomial boundary: monomials / from_monomials / rename -------------

def _as_substitution(mapping):
    return {v: MultiPoly.variable(w.kind, w.label) for v, w in mapping.items()}


@settings(max_examples=200, deadline=None)
@given(polys())
def test_monomials_round_trip(p):
    assert MultiPoly.from_monomials(p.monomials()) == p
    # Rebuilt in the other order, the variable table differs, not the value.
    q = MultiPoly.from_monomials(reversed(list(p.monomials())))
    assert q == p and hash(q) == hash(p)
    assert q.to_json() == p.to_json() and q.to_string() == p.to_string()


@settings(max_examples=200, deadline=None)
@given(polys(), st.permutations(_VAR_LIST))
def test_rename_injective_matches_substitute(p, images):
    mapping = dict(zip(_VAR_LIST, images))
    assert p.rename(mapping) == p.substitute(_as_substitution(mapping))


@settings(max_examples=200, deadline=None)
@given(polys(), st.dictionaries(_vars, _vars, max_size=6))
def test_rename_merging_matches_substitute(p, mapping):
    assert p.rename(mapping) == p.substitute(_as_substitution(mapping))


@settings(max_examples=200, deadline=None)
@given(polys(), _vars, _vars)
def test_swap_twice_is_identity(p, a, b):
    swap = {a: b, b: a}
    assert p.rename(swap).rename(swap) == p


def test_rename_merges_and_uses_the_mapping_objects():
    r = VarId("R")
    p = V("R", 1) * V("R", 2, 3) + V("R", 4) ** 4 + V("X", "e1")
    q = p.rename({VarId("R", n): r for n in (1, 2, 4)})
    assert q == MultiPoly.const(2) * V("R", exp=4) + V("X", "e1")
    assert all(v is r for v in q.variables() if v.kind == "R")


def test_rename_keeps_the_mapping_objects_over_cached_equal_pairs():
    earlier, r = VarId("R"), VarId("R")
    assert earlier == r and earlier is not r
    MultiPoly.from_monomials([({earlier: 1}, 1), ({earlier: 4}, 1), ({earlier: 5}, 1)])
    p = V("R", 1) * V("R", 2, 3) + V("R", 4) ** 4 + V("R", 5)
    q = p.rename({VarId("R", n): r for n in (1, 2, 4, 5)})
    assert q == MultiPoly.const(2) * V("R", exp=4) + V("R")
    assert all(v is r for mono, _ in q.monomials() for v in mono)
    again = MultiPoly.from_monomials([({earlier: 4}, 1)])
    assert all(v is earlier for mono, _ in again.monomials() for v in mono)


def test_from_monomials_merges_and_rejects_negative_exponents():
    x = VarId("X", "e1")
    assert MultiPoly.from_monomials([({x: 1}, 2), ({x: 1, VarId("BETA"): 0}, 3),
                                     ({}, 0)]) == MultiPoly.const(5) * V("X", "e1")
    with pytest.raises(InvalidArgument):
        MultiPoly.from_monomials([({x: -1}, 1)])


# --- substitute, the monomial product and the term order ---------------------

def _substitute_by_sum(p, mapping):
    """Substitution one term at a time, summed with `+`."""
    total = MultiPoly.zero()
    for exps, c in p.monomials():
        term = MultiPoly.const(c)
        for v, e in exps.items():
            term = term * (mapping[v] ** e if v in mapping else V(v.kind, v.label, e))
        total = total + term
    return total


@settings(max_examples=300, deadline=None)
@given(polys(), st.dictionaries(_vars, polys(), max_size=6))
def test_substitute_matches_term_by_term_sum(p, mapping):
    got = p.substitute(mapping)
    assert got == _substitute_by_sum(p, mapping)
    assert 0 not in got.terms.values()


def _monomial_poly(coeff, factors):
    term = MultiPoly.const(coeff)
    for v, e in factors:
        term = term * V(v.kind, v.label, e)
    return term


_T, _OMEGA = V("T", "e1"), V("OMEGA", "e2")
_one_term_images = st.one_of(
    st.sampled_from([3 * _T, -2, 0, _OMEGA * _T ** 2, MultiPoly.zero(), -_OMEGA]),
    st.integers(-3, 3),
    st.builds(_monomial_poly, st.integers(-3, 3),
              st.lists(st.tuples(_vars, st.integers(1, 3)), max_size=3)),
)


@settings(max_examples=300, deadline=None)
@given(polys(), st.dictionaries(_vars, st.one_of(_one_term_images, polys()), max_size=8))
def test_substitute_one_term_images_match_term_by_term_sum(p, mapping):
    # The images use the polynomial's own variables, so a variable can pass
    # through a term that also receives it from an image.
    got = p.substitute(mapping)
    assert got == _substitute_by_sum(p, mapping)
    assert 0 not in got.terms.values()


def test_substitute_cancelling_images_leave_no_zero_terms():
    x, y = VarId("X", "e1"), VarId("Y", "e1")
    p = V("X", "e1") * V("T", "e2") + V("Y", "e1") * V("T", "e2") + V("BETA")
    got = p.substitute({x: V("OMEGA", "e2"), y: -V("OMEGA", "e2")})
    assert list(got.monomials()) == [({VarId("BETA"): 1}, 1)]
    assert list(p.substitute({x: 1, y: -1, VarId("BETA"): 0}).monomials()) == []


def test_substitute_lays_out_its_table_in_key_order():
    # descending key order is the one the writers read without permuting
    x, t = VarId("X", "e1"), VarId("T", "e1")
    p = V("X", "e1") * V("BETA") + V("R", 3)
    for got in (hu(cycle_graph(4)), p.substitute({x: V("OMEGA", "e2") + V("T", "e1")}),
                (V("T", "e2") * V("X", "e1")).substitute({t: 2})):
        keys = [v.sort_key() for v in got._vars]
        assert keys == sorted(keys, reverse=True)


def _in_key_order(p: MultiPoly) -> bool:
    keys = [v.sort_key() for v in p._vars]
    return keys == sorted(keys, reverse=True)


def test_subset_sums_lay_out_their_tables_in_key_order():
    # the writers read these without permuting a term
    mono = {VarId("X", "e2"): 1, VarId("X", "e10"): 2, VarId("R", 3): 1}
    results = {
        "q_by_expansion": q_by_expansion(cycle_graph(3)).poly,
        "hu_critical": hu_critical(cycle_graph(4)),
        "hu_commutative_limit": hu_commutative_limit(cycle_graph(4)),
        "hu_tree": hu_tree(path_tree(3)),
        "hu_cycle": hu_cycle(cycle_graph(4)),
        "symanzik_u": symanzik_u(banana(4, planar=False)),
        "from_monomials": MultiPoly.from_monomials([(mono, 1), ({VarId("T", "e1"): 1}, 2)]),
        "sum": MultiPoly.sum([V("X", "e1") * V("R", 3), V("T", "e2") + V("BETA"),
                              V("ALPHA", "e1") * V("X", "e2")]),
    }
    assert [name for name, p in results.items() if not _in_key_order(p)] == []
    assert all(not p.is_zero() for p in results.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(polys(), max_size=6))
def test_sum_matches_repeated_add(ps):
    # each addend comes with its own table, in the order it met its variables
    got = MultiPoly.sum(ps)
    assert got == functools.reduce(operator.add, ps, MultiPoly.zero())
    assert _in_key_order(got)
    assert 0 not in got.terms.values()


def test_sum_of_nothing_is_zero():
    assert MultiPoly.sum([]).is_zero()
    assert MultiPoly.sum(iter([])) == 0


def test_sum_cancelling_terms_leave_no_zero_coefficient():
    p = V("X", "e1") * V("T", "e2") + 3 * V("BETA")
    q = V("R", 2) + V("X", "e1")
    got = MultiPoly.sum([p, q, -p])
    assert got == q
    assert sorted(got.monomials(), key=str) == sorted(q.monomials(), key=str)
    assert 0 not in got.terms.values()


def test_basis_products_and_constants_stay_on_its_table():
    x, t = VarId("X", "e1"), VarId("T", "e2")
    var = MultiPoly.basis([t, x, t])
    assert list(var) == [t, x] and _in_key_order(var[x])
    got = (MultiPoly.one() + var[x] * var[t]) * 3 - MultiPoly.const(2) * var[t]
    assert got._vars is var[x]._vars
    assert MultiPoly.sum([got, var[x], 1 * var[t]])._vars is var[x]._vars
    assert got == parse("3 + 3*x_e1*t_e2 - 2*t_e2")


def test_basis_product_past_max_exponent_raises():
    x = VarId("X", "e1")
    var = MultiPoly.basis([x, VarId("T", "e1")])
    top = var[x] ** MAX_EXPONENT
    assert list(top.monomials()) == [({x: MAX_EXPONENT}, 1)]
    with pytest.raises(InvalidArgument):
        top * var[x]
    with pytest.raises(InvalidArgument):
        var[x] ** (MAX_EXPONENT + 1)


@settings(max_examples=300, deadline=None)
@given(polys(), polys())
def test_mono_mul_matches_dict_route(a, b):
    for ma, _ in a.monomials():
        for mb, _ in b.monomials():
            exps = dict(ma)
            for v, e in mb.items():
                exps[v] = exps.get(v, 0) + e
            product = MultiPoly.from_monomials([(ma, 1)]) * MultiPoly.from_monomials([(mb, 1)])
            assert list(product.monomials()) == [(exps, 1)]
            assert product == MultiPoly.from_monomials([(exps, 1)])


@settings(max_examples=300, deadline=None)
@given(polys())
def test_sorted_terms_match_sort_key_order(p):
    def order(term):
        exps = term[0]
        return (-sum(exps.values()),
                tuple((v.sort_key(), -exps[v]) for v in sorted(exps, key=VarId.sort_key)))

    assert p.sorted_terms() == sorted(p.monomials(), key=order)
    for mono, _ in p.sorted_terms():
        assert [v.sort_key() for v in mono] == sorted(v.sort_key() for v in mono)


# --- packed exponents and per-polynomial variable tables ---------------------

def test_exponent_fields_hold_max_exponent_and_refuse_more():
    x, y = VarId("X", "e1"), VarId("Y", "e1")
    assert MAX_EXPONENT == 32767
    top = V("X", "e1", MAX_EXPONENT) * V("Y", "e1")
    assert MultiPoly.from_json(top.to_json()) == top
    assert list(MultiPoly.from_json(top.to_json()).monomials()) == [({x: 32767, y: 1}, 1)]
    assert parse(top.to_string()) == top
    with pytest.raises(InvalidArgument):
        MultiPoly.variable("X", "e1", 32768)
    with pytest.raises(InvalidArgument):
        MultiPoly.from_monomials([({x: 32768}, 1)])
    with pytest.raises(InvalidArgument):
        parse("x_e1^32768")
    # y sits in the field just above x, where a carry out of x would land.
    p = MultiPoly.from_monomials([({x: 20000}, 1), ({x: 20000, y: 1}, 1)])
    with pytest.raises(InvalidArgument):
        p * V("X", "e1", 20000)
    with pytest.raises(InvalidArgument):
        V("X", "e1", 20000) * V("X", "e1", 20000)
    assert sorted(((m.get(x), m.get(y, 0)), c) for m, c in (p * V("X", "e1", 12767)).monomials()) \
        == [((32767, 0), 1), ((32767, 1), 1)]


def test_renames_and_substitutions_that_overflow_raise():
    x, y, t = VarId("X", "e1"), VarId("Y", "e1"), VarId("T", "e1")
    with pytest.raises(InvalidArgument):
        (V("X", "e1", 20000) * V("Y", "e1", 20000)).rename({y: x})
    with pytest.raises(InvalidArgument):
        V("X", "e1", 20000).substitute({x: V("T", "e1", 2)})
    with pytest.raises(InvalidArgument):
        (V("X", "e1", 20000) * V("T", "e1", 20000)).substitute({x: V("T", "e1")})
    # Exponents that only look wide together still substitute exactly.
    wide = V("X", "e1", 30000) + V("Y", "e1", 30000)
    assert wide.rename({y: x}) == 2 * V("X", "e1", 30000)
    assert wide.substitute({x: V("T", "e1")}) == V("T", "e1", 30000) + V("Y", "e1", 30000)
    assert wide.substitute({x: -3 * V("T", "e1")}) == \
        (-3) ** 30000 * V("T", "e1", 30000) + V("Y", "e1", 30000)
    assert wide.substitute({t: 5}) == wide


def test_equality_and_hash_do_not_depend_on_the_variable_table():
    x, y, t = VarId("X", "e1"), VarId("Y", "e2"), VarId("T", "e3")
    p = MultiPoly.from_monomials([({x: 1, y: 1}, 2), ({t: 2}, -1), ({}, 4)])
    q = MultiPoly.from_monomials([({t: 2}, -1), ({}, 4), ({y: 1, x: 1}, 2)])
    assert p == q and hash(p) == hash(q)
    assert p.to_json() == q.to_json() and p.to_string() == q.to_string()
    assert {p: "found"}[q] == "found"
    left = (V("X", "e1") + V("Y", "e2")) - V("Y", "e2")
    assert left == V("X", "e1") and hash(left) == hash(V("X", "e1"))
    assert left.variables() == {x}
    assert left.to_json() == V("X", "e1").to_json()
    assert left != V("X", "e1") + V("Y", "e2")


# --- pinned formatting ------------------------------------------------------

def test_canonical_string_example():
    p = MultiPoly.const(4) * V("T", "e1") * V("OMEGA", "e1", 2)
    assert p.to_string() == "4*t_e1*O_e1^2"
    assert parse("4*t_e1*O_e1^2") == p


def test_zero_prints_as_zero():
    assert MultiPoly.zero().to_string() == "0"
    assert parse("0") == MultiPoly.zero()


def test_kind_order_in_monomials():
    p = V("OMEGA", "a") * V("X", "b") * V("T", "c")
    assert p.to_string() == "x_b*t_c*O_a"


def test_term_order_graded():
    p = V("X", "e1", 2) + V("X", "e1") * V("Y", "e1") + MultiPoly.const(7)
    assert p.to_string() == "x_e1^2 + x_e1*y_e1 + 7"


def test_negative_coefficients():
    p = V("T", "e1") - MultiPoly.const(2) * V("OMEGA", "e1")
    assert p.to_string() == "t_e1 - 2*O_e1"
    assert parse("t_e1 - 2*O_e1") == p
    assert parse("-t_e1") == -V("T", "e1")


def test_const_and_scale_take_int_coefficients_only():
    # int(0.5) would store a zero coefficient, and scale(0.5) a float one
    for c in (0.5, 2.5, Fraction(1, 2), "2"):
        with pytest.raises(InvalidArgument):
            MultiPoly.const(c)
        with pytest.raises(InvalidArgument):
            V("T", "e1").scale(c)


def test_unlabeled_variables_print_bare():
    assert V("BETA").to_string() == "b"
    assert V("R", 0).to_string() == "r_0"
    assert V("R").to_string() == "r"
    assert parse("b*r_2") == V("BETA") * V("R", 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x_e1 +")
    with pytest.raises(ParseError) as err:
        parse("4*t_e1*?")
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse("q_e1")  # no such kind prefix
    with pytest.raises(ParseError):
        parse("r_xyz")  # r-index must be numeric


def test_substitute():
    p = V("X", "e1") * V("Y", "e2") + V("X", "e1", 2)
    q = p.substitute({VarId("X", "e1"): MultiPoly.const(1)})
    assert q == V("Y", "e2") + MultiPoly.const(1)
    r = p.substitute({VarId("X", "e1"): V("T", "u") + MultiPoly.const(1)})
    assert r.substitute({VarId("T", "u"): 0}) == q


def test_substitute_to_zero_kills_terms():
    p = V("Z", "e1") * V("W", "e1") + V("X", "e1")
    assert p.substitute({VarId("Z", "e1"): 0}) == V("X", "e1")


def test_eval_rational_missing_variable():
    p = V("X", "e1")
    with pytest.raises(MissingVariable):
        p.eval_rational({})
    assert p.eval_rational({VarId("X", "e1"): Fraction(1, 2)}) == Fraction(1, 2)


@settings(max_examples=100, deadline=None)
@given(polys())
def test_power(q):
    p = (V("X", "e1") + MultiPoly.const(1)) ** 3
    coeffs = {frozenset(mono.items()): c for mono, c in p.monomials()}
    assert coeffs[frozenset()] == 1
    assert coeffs[frozenset({(VarId("X", "e1"), 2)})] == 3
    for base in (q, MultiPoly.zero()):
        product = MultiPoly.one()
        for n in range(7):
            assert base ** n == product
            product = product * base
    with pytest.raises(InvalidArgument):
        q ** -1


def test_coefficient_of_kind_degree():
    p = V("BETA", exp=2) * V("T", "e1") + V("BETA") * V("T", "e2") + V("T", "e3")
    assert p.coefficient_of_kind_degree("BETA", 2) == V("T", "e1")
    assert p.coefficient_of_kind_degree("BETA", 1) == V("T", "e2")
    assert p.coefficient_of_kind_degree("BETA", 0) == V("T", "e3")


_json_labels = st.one_of(
    st.none(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from(['"', "\\", 'a"b\\c', "é", "ω_1", "\u2603", "\n", ""]),
    st.text(max_size=4),
)


@st.composite
def labelled_polys(draw):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        exps = {}
        for _ in range(draw(st.integers(0, 3))):
            v = VarId(draw(st.sampled_from(KINDS)), draw(_json_labels))
            exps[v] = exps.get(v, 0) + draw(st.integers(1, 300))
        terms.append((exps, draw(st.integers(-(2 ** 80), 2 ** 80))))
    return MultiPoly.from_monomials(terms)


class _Pieces:
    """A text stream that keeps each write."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


def _assert_writers_match_reference(p):
    text = reference_to_json(p)
    assert p.to_json() == text
    assert json.dumps(p.to_json_obj()) == text
    stream = _Pieces()
    assert p.to_json(stream) is None
    assert "".join(stream.pieces) == text
    # No write holds more than one batch of terms.
    assert max(piece.count('{"coeff": ') for piece in stream.pieces) <= _BATCH
    stream = io.StringIO()
    assert p.to_json(stream, sort_keys=True) is None
    assert stream.getvalue() == json.dumps(reference_to_json_obj(p), sort_keys=True)
    assert p.to_string() == reference_to_string(p)
    assert [(list(m.items()), c) for m, c in p.sorted_terms()] == \
        [(list(m.items()), c) for m, c in reference_sorted_terms(p)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(polys(), labelled_polys()))
def test_to_json_writes_what_json_dumps_writes(p):
    text = p.to_json()
    assert text == json.dumps(reference_to_json_obj(p))
    assert MultiPoly.from_json(text) == p
    _assert_writers_match_reference(p)


_WIDE_VARS = ([VarId(kind, f"e{i}") for kind in ("X", "Y", "Z", "W", "T", "OMEGA", "ALPHA")
               for i in range(12)]
              + [VarId("R", n) for n in range(12)]
              + [VarId("BETA"), VarId("LAMBDA"), VarId("MU"), VarId("R")]
              + [VarId("T", label) for label in ('"', "\\", "é", "\u2603", "e 1")])


@st.composite
def wide_polys(draw):
    """40-70 variables in a shuffled table, some of them in no term, and up
    to two batches of terms and more; built over that table by `from_rows`,
    or by `from_monomials` with a term in every variable added and taken
    away again."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    table = rng.sample(_WIDE_VARS, draw(st.integers(40, 70)))
    idle = set(rng.sample(range(len(table)), rng.randint(1, 8)))
    live = [i for i in range(len(table)) if i not in idle]
    rows = []
    for _ in range(draw(st.sampled_from([1, _BATCH - 1, 2 * _BATCH + 7]))):
        exps = [0] * len(table)
        for i in rng.sample(live, rng.randint(0, 6)):
            exps[i] = rng.choice([1, 1, 2, 3, 300])
        rows.append((exps, rng.choice([1, -1, 7, -(2 ** 70), 2 ** 64 + 1])))
    if draw(st.booleans()):
        return MultiPoly.from_rows(table, rows)
    monos = [({table[i]: e for i, e in enumerate(exps) if e}, c) for exps, c in rows]
    # A term in every variable puts the whole table in first-use order.
    ghost = (dict.fromkeys(table, 1), 1)
    monos.insert(rng.randrange(len(monos) + 1), ghost)
    return MultiPoly.from_monomials(monos) - MultiPoly.from_monomials([ghost])


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_polys())
def test_wide_polynomials_write_what_the_reference_writes(p):
    assert len(p._vars) >= 40
    _assert_writers_match_reference(p)


_X1, _Y1, _Z2 = VarId("X", "e1"), VarId("Y", "e1"), VarId("Z", "e2")
# Total degrees of 65535 and more, where the degree no longer fits one field.
_HIGH = [({_X1: 32767, _Y1: 32767, _Z2: 1}, 1), ({_X1: 32767, _Y1: 32767}, 2),
         ({_Z2: 32767, _X1: 1}, 3), ({_Y1: 32767, _Z2: 32767, _X1: 2}, -1), ({_Y1: 1}, 4)]


@pytest.mark.parametrize("p", [
    MultiPoly.zero(),
    MultiPoly.const(5),
    MultiPoly.const(-(2 ** 70)),
    MultiPoly.from_monomials([({}, 2 ** 64), ({_X1: 3}, -(2 ** 65) - 1)]),
    MultiPoly.from_monomials(_HIGH),
    MultiPoly.from_rows([_Z2, _Y1, _X1],
                        [([m.get(_Z2, 0), m.get(_Y1, 0), m.get(_X1, 0)], c) for m, c in _HIGH]),
], ids=["zero", "const", "big-const", "beyond-2^64", "degree-65535", "degree-65535-rows"])
def test_edge_cases_write_what_the_reference_writes(p):
    _assert_writers_match_reference(p)


@settings(max_examples=200, deadline=None)
@given(polys(), st.randoms(use_true_random=False))
def test_from_rows_matches_from_monomials(p, rng):
    table = list(p.variables()) + [VarId("MU")]
    rng.shuffle(table)
    # The first term twice: rows with equal exponents merge.
    monos = list(p.monomials())
    monos += monos[:1]
    q = MultiPoly.from_rows(table, [([m.get(v, 0) for v in table], c) for m, c in monos])
    assert q == MultiPoly.from_monomials(monos)
    assert 0 not in q.terms.values()


def test_from_rows_rejects_bad_tables_and_exponents():
    x, y = VarId("X", "e1"), VarId("Y", "e1")
    assert MultiPoly.from_rows([y, x], [([MAX_EXPONENT, 1], 1)]) == \
        V("Y", "e1", MAX_EXPONENT) * V("X", "e1")
    for exps in ([MAX_EXPONENT + 1, 0], [0, 65536], [-1, 0]):
        with pytest.raises(InvalidArgument):
            MultiPoly.from_rows([x, y], [(exps, 1)])
    with pytest.raises(InvalidArgument):
        MultiPoly.from_rows([x, x], [([1, 0], 1)])


def test_to_json_tells_bool_labels_from_int_labels():
    for label in (1, True, 1, 0, False):
        p = MultiPoly.from_monomials([({VarId("X", label): 1}, -(2 ** 65))])
        assert p.to_json() == reference_to_json(p)


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        MultiPoly.from_json("{")
    with pytest.raises(ParseError):
        MultiPoly.from_json('{"not": "a list"}')
    with pytest.raises(ParseError):
        MultiPoly.from_json('[{"coeff": "1", "vars": [{"kind": "NOPE", "label": null, "exp": 1}]}]')
    with pytest.raises(ParseError, match=r"^exponents must be positive$"):
        MultiPoly.from_json_obj([{"coeff": 1, "vars": [{"kind": "X", "label": "e1", "exp": 0}]}])
    with pytest.raises(ParseError, match=r"^malformed polynomial JSON term: 'vars'$"):
        MultiPoly.from_json_obj([{"coeff": 1}])


def test_variable_refuses_unknown_kinds_and_negative_exponents():
    with pytest.raises(InvalidArgument, match=r"^unknown variable kind 'NOPE'$"):
        V("NOPE", "e1")
    with pytest.raises(InvalidArgument, match=r"^negative exponent$"):
        V("X", "e1", -1)


@pytest.mark.parametrize("text, message", [
    ("b_1", "variable 'b_1' does not take a label (at position 0)"),
    ("q_1", "unknown variable 'q_1' (at position 0)"),
    ("q", "unknown variable 'q' (at position 0)"),
    ("*", "expected a number or variable, got '*' (at position 0)"),
    ("x_e1^y", "exponent must be an integer (at position 4)"),
    ("x_e1 y_e1", "expected '+', '-' or end, got 'y_e1' (at position 5)"),
])
def test_parse_refusals_name_the_position(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_all_kinds_round_trip():
    for kind in KINDS:
        label = 5 if kind == "R" else (None if kind in ("BETA", "LAMBDA", "MU") else "e9")
        p = MultiPoly.variable(kind, label)
        assert parse(p.to_string()) == p
        assert MultiPoly.from_json(p.to_json()) == p
