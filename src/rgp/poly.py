"""Exact multivariate polynomials with integer coefficients.

The polynomial ring used everywhere else in the package.  Variables are typed
by *kind* (one kind per family of indeterminates: the four edge variables of
the subset-expansion polynomial, the two hyperbolic families, Schwinger
parameters, the loop-counting weight, the degree-weight sequence r_n, and two
reserved scaling variables) plus a label.  Monomials are canonically sorted,
so equal polynomials have equal dicts, equal canonical strings, and equal
JSON payloads — all goldens in the test suite compare byte-exact strings.

Only this module knows how a monomial is stored.  Elsewhere a monomial is a
{VarId: exponent} dict: `monomials()` reads terms, `from_monomials()` builds
them, and `rename()` relabels variables; `substitute` is for images that are
general polynomials.

Coefficients are Python ints (arbitrary precision); rational evaluation goes
through fractions.Fraction.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

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


# A monomial is a tuple of (VarId, exponent>0) sorted by VarId.sort_key.
Monomial = tuple

_ONE_MONO: Monomial = ()


# VarId.sort_key, computed once per variable.  The key is injective on
# str | int | None labels, so comparing keys orders variables exactly as
# comparing sort_key() does.
_var_key = functools.lru_cache(maxsize=1 << 12)(VarId.sort_key)


# The (variable, exponent) pairs of monomials built from dicts, shared
# process-wide the way `_mono_mul` products share their factors' pairs.  A
# pair holding an equal but other VarId object is replaced, never handed out:
# a monomial keeps the very variables it was given.  Oldest entries go first.
_PAIRS: dict[tuple, tuple] = {}
_PAIRS_MAXSIZE = 1 << 14


def _mono(exps: Mapping[VarId, int]) -> Monomial:
    """The monomial of {variable: exponent}, zero exponents dropped.  The one
    place the monomial sort rule is written."""
    out = []
    for v in sorted(exps, key=_var_key):
        e = exps[v]
        if e:
            pair = (v, e)
            cached = _PAIRS.get(pair)
            if cached is None or cached[0] is not v:
                if cached is None and len(_PAIRS) >= _PAIRS_MAXSIZE:
                    del _PAIRS[next(iter(_PAIRS))]
                _PAIRS[pair] = cached = pair
            out.append(cached)
    return tuple(out)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: a merge of their sorted variables."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    ka, kb = _var_key(a[0][0]), _var_key(b[0][0])
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == len(a):
                break
            ka = _var_key(a[i][0])
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == len(b):
                break
            kb = _var_key(b[j][0])
        else:
            v, e = a[i]
            out.append((v, e + b[j][1]))
            i += 1
            j += 1
            if i == len(a) or j == len(b):
                break
            ka, kb = _var_key(a[i][0]), _var_key(b[j][0])
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


@functools.lru_cache(maxsize=1 << 14)
def _pair_order_key(pair: tuple) -> tuple:
    v, e = pair
    return (_var_key(v), -e)


def _mono_order_key(m: Monomial):
    # Graded order, highest total degree first; ties broken by the variable
    # sequence (earlier kinds/labels first, higher exponents first).
    return (-sum([e for _, e in m]), tuple(map(_pair_order_key, m)))


@functools.lru_cache(maxsize=1 << 14, typed=True)
def _json_var(kind: str, label: Label, exp: int) -> str:
    """The JSON of one monomial variable, as json.dumps writes it in
    MultiPoly.to_json_obj; typed, so a bool label never stands for an int."""
    return json.dumps({"kind": kind, "label": label, "exp": exp})


class MultiPoly:
    """Immutable-by-convention sparse polynomial: {monomial: nonzero int}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly({_ONE_MONO: int(c)} if c else {})

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
        if exp < 0:
            raise InvalidArgument("negative exponent")
        if exp == 0:
            return MultiPoly.one()
        return MultiPoly({((VarId(kind, label), exp),): 1})

    @staticmethod
    def from_monomials(pairs: Iterable[tuple[Mapping[VarId, int], int]]) -> "MultiPoly":
        """Sum ({VarId: exponent}, coefficient) pairs; zero exponents are
        dropped and like terms merge."""
        terms: dict[Monomial, int] = {}
        for exps, c in pairs:
            if any(e < 0 for e in exps.values()):
                raise InvalidArgument("negative exponent")
            m = _mono(exps)
            terms[m] = terms.get(m, 0) + c
        return MultiPoly(terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(out)

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
        if c == 0:
            return MultiPoly.zero()
        return MultiPoly({m: c * k for m, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == MultiPoly.const(other).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ----------------------------------------------------------

    def variables(self) -> set[VarId]:
        return {v for m in self.terms for v, _ in m}

    def monomials(self) -> Iterable[tuple[dict[VarId, int], int]]:
        """Yield every term as ({VarId: exponent}, coefficient); each dict is
        fresh, so the caller may change it."""
        for m, c in self.terms.items():
            yield dict(m), c

    def coefficient_of_kind_degree(self, kind: str, degree: int) -> "MultiPoly":
        """Collect terms whose total degree in `kind` equals `degree`,
        with those variables removed from the monomials."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            if sum(e for v, e in m if v.kind == kind) != degree:
                continue
            rest = tuple((v, e) for v, e in m if v.kind != kind)
            out[rest] = out.get(rest, 0) + c
        return MultiPoly(out)

    # -- relabelling / substitution / evaluation ----------------------------

    def rename(self, mapping: Mapping[VarId, VarId]) -> "MultiPoly":
        """Replace each mapped variable by its image; unmapped variables pass
        through.  Variables sent to one image add their exponents and like
        terms merge.  The images are the mapping's own VarId objects."""
        terms: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exps: dict[VarId, int] = {}
            for v, e in m:
                v = mapping.get(v, v)
                exps[v] = exps.get(v, 0) + e
            key = _mono(exps)
            terms[key] = terms.get(key, 0) + c
        return MultiPoly(terms)

    def substitute(self, mapping: Mapping[VarId, "MultiPoly | int"]) -> "MultiPoly":
        """Replace each mapped variable by a polynomial (or int); unmapped
        variables pass through.  An image with at most one term acts on
        coefficients and exponents alone; images with several terms are
        multiplied out."""
        single: dict[VarId, tuple[Monomial, int]] = {}
        multi: dict[VarId, MultiPoly] = {}
        for v, p in mapping.items():
            if not isinstance(p, MultiPoly):
                p = MultiPoly.const(p)
            if len(p.terms) > 1:
                multi[v] = p
            else:
                single[v] = next(iter(p.terms.items()), (_ONE_MONO, 0))
        terms: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exps: dict[VarId, int] = {}
            factors: list[MultiPoly] = []
            for v, e in m:
                image = single.get(v)
                if image is not None:
                    im, k = image
                    if k != 1:
                        c *= k ** e
                        if not c:
                            break
                    for w, f in im:
                        exps[w] = exps.get(w, 0) + f * e
                elif v in multi:
                    factors.append(multi[v] ** e)
                else:
                    exps[v] = exps.get(v, 0) + e
            if not c:
                continue
            term = {_mono(exps): c}
            for f in factors:
                term = (MultiPoly(term) * f).terms
            for mono, k in term.items():
                terms[mono] = terms.get(mono, 0) + k
        return MultiPoly(terms)

    def eval_rational(self, assignment: Mapping[VarId, "Fraction | int"]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            val = Fraction(c)
            for v, e in m:
                if v not in assignment:
                    raise MissingVariable(f"no value for {v.name()}")
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    # -- canonical text ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=_mono_order_key)]

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = [f"{v.name()}^{e}" if e > 1 else v.name() for v, e in m]
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
        return [
            {"coeff": str(c),
             "vars": [{"kind": v.kind, "label": v.label, "exp": e} for v, e in m]}
            for m, c in self.sorted_terms()
        ]

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj()), joined from cached fragments."""
        return "[" + ", ".join(
            '{"coeff": "%d", "vars": [%s]}'
            % (c, ", ".join([_json_var(v.kind, v.label, e) for v, e in m]))
            for m, c in self.sorted_terms()) + "]"

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
            base = MultiPoly({((_name_to_var(value, at), 1),): 1})
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
