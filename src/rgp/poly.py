"""Exact multivariate polynomials with integer coefficients.

The polynomial ring used everywhere else in the package.  Variables are typed
by *kind* (one kind per family of indeterminates: the four edge variables of
the subset-expansion polynomial, the two hyperbolic families, Schwinger
parameters, the loop-counting weight, the degree-weight sequence r_n, and two
reserved scaling variables) plus a label.

A polynomial keeps its own variable table and maps each packed monomial to
its nonzero coefficient: variable i holds its exponent in bits [16i, 16i + 16)
of one int.  Bit 15 of every field is a guard, so an exponent is at most
MAX_EXPONENT and adding two exponents never carries into the next variable; a
result that sets a guard bit raises InvalidArgument.  Operands on one table
(or a constant, whose table is empty) are combined as they stand; otherwise a
sum or product takes the table of the operand with more terms, extends it by
appending the other's variables, and repacks only the smaller operand.  Equal
polynomials may have different tables: equality, hashing and output compare
values, and the canonical string and JSON list the terms by descending total
degree, then by exponent vector in variable order (kind, then label) — all
goldens in the test suite compare byte-exact strings.

Every writer orders the terms through `_order`.  A table whose occurring
variables sit in descending key order already compares that way as packed
ints.  `from_rows`, `from_monomials`, `substitute`, `sum` and `basis` build
their tables so, and products and sums of `basis` variables and constants stay
on the one table; any other table is permuted with one struct unpack,
itemgetter and pack per term.  The terms are then
sorted on one int each, the total degree above the packed vector.  The JSON
writer streams its text to a file _BATCH terms at a time, and joins each
term's variable list from the cached texts of _CHUNK-variable chunks of its
packed vector, so it never holds the whole output.

Only this module knows how a monomial is stored.  Elsewhere a monomial is a
{VarId: exponent} dict: `monomials()` reads terms, `from_monomials()` builds
them, `from_rows()` builds them from rows of exponents over one fixed table,
and `rename()` relabels variables; `substitute` is for images that are
general polynomials.  A subset sum adds its terms with `MultiPoly.sum`, into
one dict, rather than with `+`, which copies its larger operand.

Coefficients are Python ints (arbitrary precision); rational evaluation goes
through fractions.Fraction.
"""

from __future__ import annotations

import functools
import json
import operator
import re
import struct
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, TextIO, Union

from .errors import InvalidArgument, MissingVariable, ParseError

# Kind order is part of the canonical monomial order.  LAMBDA/MU exist only so
# scaling identities can be asserted as honest polynomial identities in fresh
# variables; they sort after everything else.
KINDS = ("X", "Y", "Z", "W", "T", "OMEGA", "ALPHA", "BETA", "R", "LAMBDA", "MU")
_KIND_INDEX = {k: i for i, k in enumerate(KINDS)}

# Print prefixes.  BETA, LAMBDA, MU and the bare symbolic r carry no label.
_PREFIX = {"X": "x", "Y": "y", "Z": "z", "W": "w", "T": "t",
           "OMEGA": "O", "ALPHA": "a", "BETA": "b", "R": "r",
           "LAMBDA": "l", "MU": "m"}
_PREFIX_TO_KIND = {v: k for k, v in _PREFIX.items()}

Label = Union[str, int, None]


class VarId(NamedTuple):
    kind: str
    label: Label = None

    def sort_key(self):
        # Labels are homogeneous within a kind (str for edge labels, int for
        # r-indices), but guard against mixing anyway.
        label = self.label
        if label is None:
            tag, val = 0, ""
        elif isinstance(label, int):
            tag, val = 1, label
        else:
            tag, val = 2, str(label)
        return (_KIND_INDEX[self.kind], tag, val)

    def name(self) -> str:
        prefix = _PREFIX[self.kind]
        if self.label is None:
            return prefix
        return f"{prefix}_{self.label}"


# A packed monomial gives each variable of its polynomial's table one field
# of _BITS bits.  The top bit of a field is a guard: two exponents of at most
# MAX_EXPONENT add up to less than 2**_BITS, so a product never carries into
# the next field, and a set guard bit shows the overflow.  _guard and
# _struct read the fields as 16-bit words.
_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1

# VarId.sort_key, computed once per variable.  The key is injective on
# str | int | None labels, so comparing keys orders variables exactly as
# comparing sort_key() does.
_var_key = functools.lru_cache(maxsize=1 << 12)(VarId.sort_key)


def _descends(vars_: tuple) -> bool:
    """Whether the table `vars_` sits in descending key order."""
    keys = [_var_key(v) for v in vars_]
    return all(a > b for a, b in zip(keys, keys[1:]))


@functools.lru_cache(maxsize=1 << 8)
def _guard(n: int) -> int:
    """The guard bits of n fields."""
    return int.from_bytes(b"\x00\x80" * n, "little")


@functools.lru_cache(maxsize=1 << 9)
def _struct(n: int, order: str = "little") -> struct.Struct:
    return struct.Struct(("<" if order == "little" else ">") + "H" * n)


def _fields(m: int, n: int) -> tuple:
    """The n exponents of a packed monomial, variable 0 first."""
    return _struct(n).unpack(m.to_bytes(2 * n, "little"))


def _moved(terms: dict, pos: list) -> dict:
    """`terms` with the field of variable i moved to field pos[i]; pos is
    one-to-one, and None marks a variable that occurs in no term.  Fields
    that move by the same distance move together."""
    masks: dict[int, int] = {}
    for i, p in enumerate(pos):
        if p is not None:
            masks[p - i] = masks.get(p - i, 0) | _FIELD << (_BITS * i)
    if not masks or list(masks) == [0]:
        return terms
    if len(masks) == 1:
        (shift,) = masks
        if shift > 0:
            return {m << (_BITS * shift): c for m, c in terms.items()}
        return {m >> (-_BITS * shift): c for m, c in terms.items()}
    up = [(mask, _BITS * d) for d, mask in masks.items() if d >= 0]
    down = [(mask, -_BITS * d) for d, mask in masks.items() if d < 0]
    out = {}
    for m, c in terms.items():
        k = 0
        for mask, shift in up:
            k |= (m & mask) << shift
        for mask, shift in down:
            k |= (m & mask) >> shift
        out[k] = c
    return out


def _new(terms: dict, vars_: tuple, index: dict) -> "MultiPoly":
    """The polynomial of packed `terms` (no zero coefficients) over the table
    `vars_`, whose index is {variable: position}.  Takes the objects as given:
    tables and term dicts are shared between polynomials, never changed."""
    p = object.__new__(MultiPoly)
    p.terms, p._vars, p._index = terms, vars_, index
    return p


def _onto(vars_: tuple, index: dict, p: "MultiPoly") -> tuple:
    """(table, index, p's terms over it): the table `vars_` extended by the
    variables of p it lacks, so terms over `vars_` stay valid."""
    pos = []
    grown = False
    for v in p._vars:
        i = index.get(v)
        if i is None:
            if not grown:
                vars_, index, grown = list(vars_), dict(index), True
            i = index[v] = len(vars_)
            vars_.append(v)
        pos.append(i)
    return (tuple(vars_) if grown else vars_), index, _moved(p.terms, pos)


def _common(a: "MultiPoly", b: "MultiPoly") -> tuple:
    """(table, index, a's terms, b's terms) over one table: a constant's
    empty table fits any table, else the table of the operand with more
    terms, extended by the other's variables, so only the smaller operand is
    repacked."""
    if a._vars is b._vars or not b._vars:
        return a._vars, a._index, a.terms, b.terms
    if not a._vars:
        return b._vars, b._index, a.terms, b.terms
    if len(a.terms) < len(b.terms):
        vars_, index, ta = _onto(b._vars, b._index, a)
        return vars_, index, ta, b.terms
    vars_, index, tb = _onto(a._vars, a._index, b)
    return vars_, index, a.terms, tb


def _var_poly(v: VarId, exp: int) -> "MultiPoly":
    if exp < 0:
        raise InvalidArgument("negative exponent")
    if exp > MAX_EXPONENT:
        raise InvalidArgument(f"exponent {exp} above {MAX_EXPONENT}")
    if exp == 0:
        return MultiPoly.one()
    return _new({exp: 1}, (v,), {v: 0})


# Terms per piece of streamed JSON, and variables per cached chunk text.
_BATCH = 2048
_CHUNK = 4


class _Fragments(dict):
    """Exponent -> json.dumps of {"kind", "label", "exp"} for `var` at that
    exponent, one entry of a term's "vars" list; each made on first use."""

    __slots__ = ("var", "sort_keys")

    def __init__(self, var: VarId, sort_keys: bool):
        super().__init__()
        self.var, self.sort_keys = var, sort_keys

    def __missing__(self, exp: int) -> str:
        text = self[exp] = json.dumps({"kind": self.var.kind, "label": self.var.label,
                                       "exp": exp}, sort_keys=self.sort_keys)
        return text


class _Chunks(dict):
    """Big-endian exponent fields of `vars_` -> the ", "-joined JSON of the
    variables with a nonzero exponent; each made on first use."""

    __slots__ = ("fragments", "unpack")

    def __init__(self, vars_: tuple, sort_keys: bool):
        super().__init__()
        self.fragments = [_Fragments(v, sort_keys) for v in vars_]
        self.unpack = _struct(len(vars_), "big").unpack

    def __missing__(self, fields: bytes) -> str:
        text = self[fields] = ", ".join([f[e] for f, e in zip(self.fragments,
                                                              self.unpack(fields)) if e])
        return text


@functools.lru_cache(maxsize=1 << 8)
def _splitter(whole: int, rest: int) -> struct.Struct:
    """Splits the bytes of `whole` chunks of _CHUNK fields and one of `rest`."""
    return struct.Struct(f"{2 * _CHUNK}s" * whole + (f"{2 * rest}s" if rest else ""))


class MultiPoly:
    """Immutable-by-convention sparse polynomial: {packed monomial: nonzero
    int} over the variable table `_vars`."""

    __slots__ = ("terms", "_vars", "_index")

    def __init__(self):
        """The zero polynomial; the others come from the constructors below
        and the ring operations."""
        self.terms: dict[int, int] = {}
        self._vars: tuple = ()
        self._index: dict = {}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c: int) -> "MultiPoly":
        if not isinstance(c, int):
            raise InvalidArgument(f"coefficient {c!r} is not an int")
        return _new({0: int(c)} if c else {}, (), {})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.const(1)

    @staticmethod
    def variable(kind: str, label: Label = None, exp: int = 1) -> "MultiPoly":
        if kind not in _KIND_INDEX:
            raise InvalidArgument(f"unknown variable kind {kind!r}")
        return _var_poly(VarId(kind, label), exp)

    @staticmethod
    def basis(variables: Iterable[VarId]) -> dict:
        """{v: the polynomial v} for the given variables, all over one shared
        table in descending key order.  Their sums and products, and those
        with constants, stay on that table: no operand is moved, and
        `MultiPoly.sum` adds them as they stand."""
        vars_ = tuple(sorted(set(variables), key=_var_key, reverse=True))
        index = {v: i for i, v in enumerate(vars_)}
        return {v: _new({1 << (_BITS * i): 1}, vars_, index) for v, i in index.items()}

    @staticmethod
    def sum(polys: Iterable["MultiPoly"]) -> "MultiPoly":
        """The sum of `polys`, added into one dict over one table in
        descending key order.  Each addend is moved onto the table at most
        once, and not at all when it is that table (as `basis` builds it); the
        first addend's table is taken as it stands when it descends, and the
        table, and the sum so far with it, is laid out again only when an
        addend brings variables it lacks."""
        vars_: tuple = ()
        index: dict = {}
        out: dict[int, int] = {}
        for p in polys:
            terms = p.terms
            if p._vars is not vars_ and p._vars:
                if not index and _descends(p._vars):
                    vars_, index = p._vars, p._index
                elif not p._index.keys() <= index.keys():
                    grown = sorted(index.keys() | p._index.keys(), key=_var_key, reverse=True)
                    if grown == list(p._vars):
                        table, where = p._vars, p._index
                    else:
                        table = tuple(grown)
                        where = {v: i for i, v in enumerate(table)}
                    out = _moved(out, [where[v] for v in vars_])
                    vars_, index = table, where
                if p._vars is not vars_:
                    terms = _moved(terms, [index[v] for v in p._vars])
            get = out.get
            for m, c in terms.items():
                s = get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _new(out, vars_, index)

    @staticmethod
    def from_monomials(pairs: Iterable[tuple[Mapping[VarId, int], int]]) -> "MultiPoly":
        """Sum ({VarId: exponent}, coefficient) pairs; zero exponents are
        dropped and like terms merge.  The table is laid out in descending
        key order once, after the last pair."""
        vars_: list[VarId] = []
        index: dict[VarId, int] = {}
        terms: dict[int, int] = {}
        for exps, c in pairs:
            m = 0
            for v, e in exps.items():
                if not e:
                    continue
                if e < 0:
                    raise InvalidArgument("negative exponent")
                if e > MAX_EXPONENT:
                    raise InvalidArgument(f"exponent {e} above {MAX_EXPONENT}")
                i = index.get(v)
                if i is None:
                    i = index[v] = len(vars_)
                    vars_.append(v)
                m += e << (_BITS * i)
            terms[m] = terms.get(m, 0) + c
        table = tuple(sorted(vars_, key=_var_key, reverse=True))
        where = {v: i for i, v in enumerate(table)}
        return _new(_moved({m: c for m, c in terms.items() if c}, [where[v] for v in vars_]),
                    table, where)

    @staticmethod
    def from_rows(table: Sequence[VarId],
                  rows: Iterable[tuple[Sequence[int], int]]) -> "MultiPoly":
        """Sum (exponents, coefficient) rows over one table of distinct
        variables: the i-th exponent of a row is that of table[i].  Like
        terms merge.  A table in `VarId.sort_key` order is packed as it
        stands, in the order the writers read; any other is permuted per
        row.  Each row is packed before the next is drawn, so the rows may
        be one list that the caller changes in place."""
        n = len(table)
        if len(set(table)) < n:
            raise InvalidArgument("a variable occurs twice in the table")
        order = sorted(range(n), key=lambda i: _var_key(table[i]))
        pick = operator.itemgetter(*order) if order != list(range(n)) else None
        pack = _struct(n, "big").pack
        terms: dict[int, int] = {}
        try:
            for exps, c in rows:
                m = int.from_bytes(pack(*(pick(exps) if pick else exps)), "big")
                terms[m] = terms.get(m, 0) + c
        except struct.error as exc:
            raise InvalidArgument(f"exponent outside 0..{MAX_EXPONENT}: {exc}") from exc
        if functools.reduce(operator.or_, terms, 0) & _guard(n):
            raise InvalidArgument(f"exponent above {MAX_EXPONENT}")
        vars_ = tuple(table[i] for i in reversed(order))
        return _new({m: c for m, c in terms.items() if c}, vars_,
                    {v: i for i, v in enumerate(vars_)})

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars_, index, ta, tb = _common(self, other)
        if len(ta) < len(tb):
            ta, tb = tb, ta
        out = dict(ta)
        for m, c in tb.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return _new(out, vars_, index)

    def __neg__(self) -> "MultiPoly":
        return _new({m: -c for m, c in self.terms.items()}, self._vars, self._index)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars_, index, ta, tb = _common(self, other)
        if len(ta) < len(tb):
            ta, tb = tb, ta
        if not tb:
            return MultiPoly()
        # Multiplying by one term never merges terms, so the products with
        # the smaller factor's first term are built at once.
        items = iter(tb.items())
        mb, cb = next(items)
        if cb == 1:
            out = {m + mb: c for m, c in ta.items()}
        else:
            out = {m + mb: c * cb for m, c in ta.items()}
        get = out.get
        for mb, cb in items:
            for ma, ca in ta.items():
                m = ma + mb
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        if out and functools.reduce(operator.or_, out) & _guard(len(vars_)):
            raise InvalidArgument(f"exponent above {MAX_EXPONENT}")
        return _new(out, vars_, index)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise InvalidArgument("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.one() if result is None else result

    def scale(self, c: int) -> "MultiPoly":
        if not isinstance(c, int):
            raise InvalidArgument(f"coefficient {c!r} is not an int")
        if c == 0:
            return MultiPoly.zero()
        return _new({m: c * k for m, k in self.terms.items()}, self._vars, self._index)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        _, _, ta, tb = _common(self, other)
        return ta == tb

    def __hash__(self):
        return hash(tuple((tuple(mono.items()), c) for mono, c in self.sorted_terms()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ----------------------------------------------------------

    def _used(self) -> tuple:
        """The exponents of the OR of all terms: nonzero exactly for the
        variables that occur."""
        return _fields(functools.reduce(operator.or_, self.terms, 0), len(self._vars))

    def variables(self) -> set[VarId]:
        return {v for v, e in zip(self._vars, self._used()) if e}

    def monomials(self) -> Iterable[tuple[dict[VarId, int], int]]:
        """Yield every term as ({VarId: exponent}, coefficient); each dict is
        fresh, so the caller may change it."""
        vars_, n = self._vars, len(self._vars)
        for m, c in self.terms.items():
            yield {v: e for v, e in zip(vars_, _fields(m, n)) if e}, c

    def coefficient_of_kind_degree(self, kind: str, degree: int) -> "MultiPoly":
        """Collect terms whose total degree in `kind` equals `degree`,
        with those variables removed from the monomials."""
        n = len(self._vars)
        idx = [i for i, v in enumerate(self._vars) if v.kind == kind]
        mask = sum(_FIELD << (_BITS * i) for i in idx)
        out: dict[int, int] = {}
        for m, c in self.terms.items():
            fields = _fields(m, n)
            if sum(fields[i] for i in idx) != degree:
                continue
            rest = m & ~mask
            out[rest] = out.get(rest, 0) + c
        return _new({m: c for m, c in out.items() if c}, self._vars, self._index)

    # -- relabelling / substitution / evaluation ----------------------------

    def rename(self, mapping: Mapping[VarId, VarId]) -> "MultiPoly":
        """Replace each mapped variable by its image; unmapped variables pass
        through.  Variables sent to one image add their exponents and like
        terms merge.  The images are the mapping's own VarId objects.  A
        mapping that is one-to-one on the table only relabels the table."""
        images = [mapping.get(v, v) for v in self._vars]
        index = {v: i for i, v in enumerate(images)}
        if len(index) < len(images):
            return self.substitute({v: _var_poly(w, 1) for v, w in mapping.items()
                                    if v in self._index})
        return _new(self.terms, tuple(images), index)

    def substitute(self, mapping: Mapping[VarId, "MultiPoly | int"]) -> "MultiPoly":
        """Replace each mapped variable by a polynomial (or int); unmapped
        variables pass through.  An image with at most one term acts on
        coefficients and exponents alone; images with several terms are
        multiplied out."""
        n = len(self._vars)
        images = {v: p if isinstance(p, MultiPoly) else MultiPoly.const(p)
                  for v, p in mapping.items() if v in self._index}
        # The result's table: the unmapped variables and the images', in
        # descending key order, so the writers read it without a permutation.
        used = {v for v in self._vars if v not in images}
        used.update(w for p in images.values() for w in p._vars)
        vars_ = tuple(sorted(used, key=_var_key, reverse=True))
        index = {v: i for i, v in enumerate(vars_)}
        images = {v: _moved(p.terms, [index[w] for w in p._vars])
                  for v, p in images.items()}
        # Per variable of this table, (packed image, coefficient) when the
        # image has at most one term, else (image polynomial, None).
        acts = []
        for v in self._vars:
            terms = images.get(v)
            if terms is None:
                acts.append((1 << (_BITS * index[v]), 1))
            elif len(terms) > 1:
                acts.append((_new(terms, vars_, index), None))
            else:
                acts.append(next(iter(terms.items()), (0, 0)))
        # A term's exponents add up to at most `degree`, and each lands in
        # fields no larger than `widest`; past MAX_EXPONENT a field could
        # carry, so the one-term images are multiplied out as well.
        degree = sum(self._used())
        widest = max([max(_fields(im, len(vars_)), default=1)
                      for im, k in acts if k is not None], default=1)
        if degree * widest > MAX_EXPONENT:
            acts = [(_new({im: k} if k else {}, vars_, index), None) if k is not None
                    else (im, k) for im, k in acts]
        out: dict[int, int] = {}
        for m, c in self.terms.items():
            mono = 0
            factors = []
            for e, (im, k) in zip(_fields(m, n), acts):
                if not e:
                    continue
                if k is None:
                    factors.append(im ** e)
                    continue
                mono += im * e
                if k != 1:
                    c *= k ** e
                    if not c:
                        break
            if not c:
                continue
            if not factors:
                out[mono] = out.get(mono, 0) + c
                continue
            term = _new({mono: c}, vars_, index)
            for f in factors:
                term = term * f
            for mono, ct in term.terms.items():
                out[mono] = out.get(mono, 0) + ct
        return _new({m: c for m, c in out.items() if c}, vars_, index)

    def eval_rational(self, assignment: Mapping[VarId, "Fraction | int"]) -> Fraction:
        n = len(self._vars)
        values = [Fraction(assignment[v]) if v in assignment else None for v in self._vars]
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v, x, e in zip(self._vars, values, _fields(m, n)):
                if e:
                    if x is None:
                        raise MissingVariable(f"no value for {v.name()}")
                    val *= x ** e
            total += val
        return total

    # -- canonical order and text ------------------------------------------

    def _order(self) -> tuple:
        """(variables, n, order, terms): `terms` maps packed ints of n fields
        to coefficients, and the big-endian 16-bit words of each int are its
        exponents of `variables` (in `_var_key` order; a variable that occurs
        in no term may sit among them, with exponent 0 everywhere).  `order`
        lists the packed ints in the canonical term order: by descending
        total degree, then by descending exponent vector.

        A table whose occurring variables sit in descending key order already
        packs that way; any other is permuted field by field, one struct
        unpack, itemgetter and pack per term."""
        vars_, terms = self._vars, self.terms
        used_fields = self._used()
        used = [i for i, e in enumerate(used_fields) if e]
        keys = [_var_key(vars_[i]) for i in used]
        if any(a < b for a, b in zip(keys, keys[1:])):
            used.sort(key=lambda i: _var_key(vars_[i]), reverse=True)
            width = 2 * len(vars_)
            unpack, pick = _struct(len(vars_)).unpack, operator.itemgetter(*used)
            pack = _struct(len(used)).pack
            terms = {int.from_bytes(pack(*pick(unpack(m.to_bytes(width, "little")))), "little"): c
                     for m, c in terms.items()}
            vars_ = tuple(vars_[i] for i in used)
        else:
            vars_ = vars_[:used[-1] + 1] if used else ()
        n = len(vars_)
        shift = _BITS * n
        if sum(used_fields) < _FIELD:
            # 2**16 = 1 mod 2**16 - 1, so m % _FIELD is the total degree.
            order = [(m % _FIELD) << shift | m for m in terms]
        else:
            order = [sum(_fields(m, n)) << shift | m for m in terms]
        order.sort(reverse=True)
        mask = (1 << shift) - 1
        return vars_[::-1], n, [k & mask for k in order], terms

    def _rows(self) -> tuple:
        """(variables in `_var_key` order, rows): the rows yield (exponents
        in that order, coefficient) in the canonical term order."""
        vars_, n, order, terms = self._order()
        unpack = _struct(n, "big").unpack
        return vars_, ((unpack(m.to_bytes(2 * n, "big")), terms[m]) for m in order)

    def sorted_terms(self) -> list[tuple[dict[VarId, int], int]]:
        """Every term as ({VarId: exponent}, coefficient), in the canonical
        term order; each dict lists its variables in `VarId.sort_key`
        order."""
        vars_, rows = self._rows()
        return [({v: e for v, e in zip(vars_, exps) if e}, c) for exps, c in rows]

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        vars_, rows = self._rows()
        names = [v.name() for v in vars_]
        chunks: list[str] = []
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

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"

    # -- JSON --------------------------------------------------------------

    def to_json_obj(self) -> list:
        return json.loads(self.to_json())

    def to_json(self, out: Optional[TextIO] = None, sort_keys: bool = False) -> Optional[str]:
        """The JSON list of the terms in the canonical term order, each
        {"coeff": decimal string, "vars": [{"kind", "label", "exp"} per
        variable with a nonzero exponent, in `_var_key` order]}, with
        json.dumps's separators.  With a text stream `out`, the text is
        written to it _BATCH terms at a time and None is returned; without
        one, the text is returned.  A term's "vars" list is joined from the
        cached texts of the _CHUNK-variable chunks of its packed vector."""
        vars_, n, order, terms = self._order()
        pieces: list[str] = []
        write = pieces.append if out is None else out.write
        width = 2 * n
        split = _splitter(*divmod(n, _CHUNK)).unpack
        texts = [_Chunks(vars_[i:i + _CHUNK], sort_keys) for i in range(0, n, _CHUNK)]
        getitem, join = operator.getitem, ", ".join
        write("[")
        for start in range(0, len(order), _BATCH):
            if start:
                write(", ")
            write(join([
                '{"coeff": "%d", "vars": [%s]}'
                % (terms[m], join(filter(None, map(getitem, texts,
                                                   split(m.to_bytes(width, "big"))))))
                for m in order[start:start + _BATCH]]))
        write("]")
        return "".join(pieces) if out is None else None

    @staticmethod
    def from_json_obj(obj) -> "MultiPoly":
        if not isinstance(obj, list):
            raise ParseError("polynomial JSON must be a list of terms")
        pairs = []
        for entry in obj:
            try:
                coeff = int(entry["coeff"])
                mono: dict[VarId, int] = {}
                for rec in entry["vars"]:
                    kind, label, exp = rec["kind"], rec["label"], int(rec["exp"])
                    if kind not in _KIND_INDEX:
                        raise ParseError(f"unknown kind {kind!r}")
                    if exp <= 0:
                        raise ParseError("exponents must be positive")
                    v = VarId(kind, label)
                    mono[v] = mono.get(v, 0) + exp
            except (KeyError, TypeError, ValueError) as exc:
                if isinstance(exc, ParseError):
                    raise
                raise ParseError(f"malformed polynomial JSON term: {exc}") from exc
            pairs.append((mono, coeff))
        return MultiPoly.from_monomials(pairs)

    @staticmethod
    def from_json(text: str) -> "MultiPoly":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", position=exc.pos) from exc
        return MultiPoly.from_json_obj(obj)


# --- parsing -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_.:\-]*)|(?P<op>[-+*^()]))")


def _name_to_var(name: str, pos: int) -> VarId:
    if name in ("b", "l", "m", "r"):
        return VarId({"b": "BETA", "l": "LAMBDA", "m": "MU", "r": "R"}[name], None)
    if "_" in name:
        prefix, label = name.split("_", 1)
        kind = _PREFIX_TO_KIND.get(prefix)
        if kind is None or not label:
            raise ParseError(f"unknown variable {name!r}", position=pos)
        if kind == "R":
            if not label.isdigit():
                raise ParseError(f"r-index must be an integer in {name!r}", position=pos)
            return VarId("R", int(label))
        if kind in ("BETA", "LAMBDA", "MU"):
            raise ParseError(f"variable {name!r} does not take a label", position=pos)
        return VarId(kind, label)
    raise ParseError(f"unknown variable {name!r}", position=pos)


def parse(text: str) -> MultiPoly:
    """Parse the canonical textual form (sums of '*'-joined factors with '^'
    powers).  Inverse of MultiPoly.to_string on its image."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            # Whitespace-only tail is fine; anything else is an error.
            if text[pos:].strip():
                bad = len(text) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", position=bad)
            break
        for group in ("int", "name", "op"):
            if m.group(group) is not None:
                tokens.append((group, m.group(group), m.start(group)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", position=0)

    result = MultiPoly.zero()
    i = 0
    n = len(tokens)

    def parse_factor(j: int) -> tuple[MultiPoly, int]:
        kind, value, at = tokens[j]
        if kind == "int":
            base = MultiPoly.const(int(value))
        elif kind == "name":
            base = _var_poly(_name_to_var(value, at), 1)
        else:
            raise ParseError(f"expected a number or variable, got {value!r}", position=at)
        j += 1
        if j < n and tokens[j][:2] == ("op", "^"):
            j += 1
            if j >= n or tokens[j][0] != "int":
                raise ParseError("exponent must be an integer",
                                 position=tokens[j - 1][2])
            base = base ** int(tokens[j][1])
            j += 1
        return base, j

    while i < n:
        # sign
        sign = 1
        while i < n and tokens[i][:2] in (("op", "+"), ("op", "-")):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign", position=tokens[-1][2])
        term, i = parse_factor(i)
        while i < n and tokens[i][:2] == ("op", "*"):
            factor, i = parse_factor(i + 1)
            term = term * factor
        result = result + term.scale(sign)
        if i < n and tokens[i][:2] not in (("op", "+"), ("op", "-")):
            raise ParseError(f"expected '+', '-' or end, got {tokens[i][1]!r}",
                             position=tokens[i][2])
    return result
