"""Exact polynomial and finite-field arithmetic.

Everything downstream (Witt vector structure polynomials, chart rings,
point counts) reduces to sparse multivariate polynomials whose
coefficients are either arbitrary-precision integers or elements of a
prime field F_p.  Coefficients are stored as plain Python ints together
with an optional modulus; there is no floating point anywhere.

Moduli are the primes below MAX_PRIME = 2^16, and a field GF(q) has
q below it too: every field carries exp and log tables of q entries.

``FpScalar`` is a residue label with no arithmetic: it names an element
of F_p inside a Witt vector over F_p.  F_p and GF(q) arithmetic runs on
plain ints in ``FiniteField``.

``json_document`` is the one parser of JSON input documents, and
``json_field`` the one checked reader of their fields (surface models
and glue specs).

``Record`` and ``FrozenRecord`` give the package's small value classes
== and repr over their fields, and the frozen ones a hash.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from typing import Optional, Tuple

MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_supported_prime(p: int) -> bool:
    """Whether p is a prime the package takes: one below MAX_PRIME."""
    return 2 <= p < MAX_PRIME and is_prime(p)


# every FpScalar and MultiPoly mod p checks its modulus; only valid primes are cached
@functools.lru_cache(maxsize=None)
def _check_modulus(p: int) -> None:
    if not is_supported_prime(p):
        raise ValueError(f"modulus must be a prime below 2^16, got {_cut(p)}")


class Record:
    """A small class of named fields, compared and printed by them.

    A subclass lists its fields in ``__slots__`` (and ``__dict__`` after
    them when it caches properties), fills them in its own ``__init__``,
    and names the fields == compares in ``_key``, an attrgetter.  The
    repr, Name(field=value, ...), names every field in slot order.  A
    Record is not hashable.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n != "__dict__")
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable Record, hashed on its _key: __init__ sets the fields once, with _fill."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._key(self))


class FpScalar:
    """An element of the prime field F_p as its residue label: immutable, equal to its residue.

    It has no arithmetic: F_p and GF(q) arithmetic runs on ints in
    FiniteField, and W_n(F_p) arithmetic on the index of a WittVec.
    """

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        _check_modulus(p)
        if type(value) is not int:
            raise ValueError(f"residue {_cut(repr(value))} of F_{p} is not an int")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", value % p)

    def __setattr__(self, name, value):
        raise AttributeError("FpScalar is immutable")

    def __eq__(self, other):
        if type(other) is FpScalar:
            return self.value == other.value and self.p == other.p
        # an int is equal only when it is the residue itself, so hashes agree
        return isinstance(other, int) and self.value == other

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpScalar({self.p}, {self.value})"

    def __str__(self):
        return str(self.value)


class SparseTerms:
    """A finite sum of monomials stored as {exponent key: coefficient}.

    The one home of the term-dict arithmetic of polynomials and chart
    elements: coercion, sums, negation, differences, powers, equality,
    hashing, zero and one, term order and printing.  It reads two hooks:
    ``_parent``, the ring (elements combine and compare only when their
    parents are the same object or equal), and ``modulus``, the prime p
    the coefficients are reduced by, or None over Z.  A subclass stores
    ``terms`` and supplies a validating ``__init__`` for input from
    outside, ``_raw`` (a like element from nonzero reduced coefficients,
    not checked again: the results of ring operations), ``_one_key``
    (the exponent key of 1), ``_names`` (one name per exponent slot) and
    its own ``__mul__``.
    """

    __slots__ = ()

    def _coerce(self, other):
        """other as an element of this parent: a peer, or an int as a constant; NotImplemented otherwise."""
        if isinstance(other, SparseTerms):
            mine, theirs = self._parent, other._parent
            if mine is not theirs and mine != theirs:
                raise ValueError(f"incompatible parents: {mine} vs {theirs}")
            return other
        if isinstance(other, int):
            return self._like({self._one_key: other})
        return NotImplemented

    def _like(self, terms):
        """An element from the terms of a ring operation: keys in range, coefficients reduced here."""
        p = self.modulus
        if p is None:
            return self._raw({key: c for key, c in terms.items() if c})
        return self._raw({key: r for key, c in terms.items() if (r := c % p)})

    def _merged(self, base: dict, terms: dict, sign: int):
        """base + sign * terms: a copy of base, with only the keys of terms reduced again."""
        p = self.modulus
        out = dict(base)
        for key, c in terms.items():
            r = out.get(key, 0) + sign * c
            if p is not None:
                r %= p
            if r:
                out[key] = r
            else:
                del out[key]
        return self._raw(out)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        return self._merged(a, b, 1) if len(a) >= len(b) else self._merged(b, a, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merged(self.terms, other.terms, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative power {e} of a {type(self).__name__}")
        # square-and-multiply from the lowest set bit: no product by one
        base, result = self, None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self.ring_one() if result is None else result

    def ring_zero(self):
        return self._raw({})

    def ring_one(self):
        return self._raw({self._one_key: 1})

    def __eq__(self, other):
        if not isinstance(other, SparseTerms):
            return False
        mine, theirs = self._parent, other._parent
        return (mine is theirs or mine == theirs) and self.terms == other.terms

    def __hash__(self):
        return hash((self._parent, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        # graded lexicographic, largest first: total degree, then lex on exponents
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self._names
        parts = [_format_term(names, e, c) for e, c in self.sorted_terms()]
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class MultiPoly(SparseTerms):
    """Sparse multivariate polynomial over Z or F_p.

    terms maps exponent tuples to nonzero coefficients; the tuple length
    equals len(variables).  modulus is None for integer coefficients,
    otherwise a prime p and coefficients live in [1, p).
    """

    __slots__ = ("variables", "modulus", "terms")

    def __init__(self, variables, terms=None, modulus: Optional[int] = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        if modulus is not None:
            _check_modulus(modulus)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(f"exponent tuple {exps} does not match {variables}")
            if any(type(e) is not int for e in exps):
                raise ValueError(f"exponent tuple {exps} has an entry that is not an int")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if type(c) is not int:
                raise ValueError(f"coefficient {_cut(repr(c))} of term {exps} is not an int")
            clean[exps] = clean.get(exps, 0) + c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "modulus", modulus)
        # reduced mod p and cleared of zeros as a ring operation's result is
        object.__setattr__(self, "terms", self._like(clean).terms)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables, modulus=None) -> "MultiPoly":
        return cls(variables, {}, modulus)

    @classmethod
    def gen(cls, variables, name: str, modulus=None) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if k == i else 0 for k in range(len(variables)))
        return cls(variables, {exps: 1}, modulus)

    # -- ring structure ----------------------------------------------

    def _raw(self, terms) -> "MultiPoly":
        """A polynomial in these variables and modulus from nonzero coefficients already reduced."""
        poly = object.__new__(MultiPoly)
        object.__setattr__(poly, "variables", self.variables)
        object.__setattr__(poly, "modulus", self.modulus)
        object.__setattr__(poly, "terms", terms)
        return poly

    @property
    def _parent(self) -> tuple:
        return self.variables, self.modulus

    @property
    def _one_key(self) -> tuple:
        return (0,) * len(self.variables)

    @property
    def _names(self) -> tuple:
        return self.variables

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return self._like(terms)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------

    def coefficient_of(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, weights: Optional[dict] = None) -> bool:
        """True if every term has the same weighted total degree."""
        if not self.terms:
            return True
        if weights is None:
            w = [1] * len(self.variables)
        else:
            w = [weights[v] for v in self.variables]
        degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}
        return len(degs) == 1

    def weighted_degree(self, weights: dict) -> int:
        w = [weights[v] for v in self.variables]
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms)

    # -- maps --------------------------------------------------------

    def exact_div_by_int(self, d: int) -> "MultiPoly":
        """Divide every coefficient by d, failing loudly on remainders.

        Only meaningful over Z.  The Witt structure polynomial recursion
        divides by p^N at each level; a non-divisible term means the
        ghost algebra went wrong, so the error names the offender.
        """
        if self.modulus is not None:
            raise ValueError("exact integer division needs integer coefficients")
        if d == 0:
            raise ZeroDivisionError("division by zero")
        terms = {}
        for exps, c in self.terms.items():
            q, r = divmod(c, d)
            if r:
                mono = _format_term(self.variables, exps, c)
                raise ArithmeticError(f"coefficient of {mono} is not divisible by {d}")
            terms[exps] = q
        return self._raw(terms)

    def reduce_mod(self, p: int) -> "MultiPoly":
        if self.modulus is not None:
            raise ValueError("already reduced")
        return MultiPoly(self.variables, dict(self.terms), p)

    def evaluate(self, env: dict, zero=None):
        """Evaluate in any commutative ring.

        env maps variable names to ring elements supporting +, ** with
        nonnegative int exponents, and * with both ring elements and
        plain int scalars.
        """
        if zero is None:
            if not env:
                raise ValueError("need a zero element for a variable-free evaluation")
            zero = next(iter(env.values())).ring_zero()
        acc = zero
        one = zero.ring_one()
        # per-variable power cache keeps repeated exponents cheap
        cache: dict = {}

        def power(name, e):
            key = (name, e)
            if key not in cache:
                cache[key] = env[name] ** e
            return cache[key]

        for exps, c in self.terms.items():
            mono = one
            for name, e in zip(self.variables, exps):
                if e:
                    mono = mono * power(name, e)
            acc = acc + mono * c
        return acc


def _format_term(variables, exps, c) -> str:
    factors = []
    for v, e in zip(variables, exps):
        if e == 1:
            factors.append(v)
        elif e:
            factors.append(f"{v}^{e}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


def _parse_terms(text: str) -> Tuple[list, set]:
    """(terms as (coefficient, {name: exponent}), the set of names) of a polynomial literal.

    Its work is linear in the text, whatever the number of names.
    """
    # a "-" right after "^" stays, so "x^-1" reaches the negative-exponent check
    raw = re.split(r"\+|(?<!\^)(?=-)", text)
    pieces = [t.strip() for t in raw if t.strip()]
    if not pieces:
        raise ValueError(f"empty polynomial literal: {_cut(repr(text))}")
    parsed = []
    seen = set()
    for piece in pieces:
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:].strip()
        coeff = sign
        exps: dict = {}
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {_cut(repr(piece))}")
            if factor.lstrip("-").isdecimal():
                coeff *= int_literal(factor, f"coefficient in term {_cut(repr(piece))}")
                continue
            if "^" in factor:
                name, _, etext = factor.partition("^")
                name = name.strip()
                etext = etext.strip()
                try:
                    e = int(etext)
                except ValueError:
                    raise ValueError(f"bad exponent {_cut(repr(etext))} in {_cut(repr(piece))}") from None
            else:
                name, e = factor, 1
            if not name.isidentifier():
                raise ValueError(f"bad variable name {_cut(repr(name))} in {_cut(repr(piece))}")
            if e < 0:
                raise ValueError(f"negative exponent in {_cut(repr(piece))}")
            exps[name] = exps.get(name, 0) + e
            seen.add(name)
        parsed.append((coeff, exps))
    return parsed, seen


def parse_poly(text: str, variables=None, modulus: Optional[int] = None) -> MultiPoly:
    """Parse the CLI polynomial literal syntax.

    Terms are joined by + or -, each term a product of an optional
    integer coefficient and factors x^e.  Exponents must be nonnegative
    (Laurent monomials live in chartring, not here).  If variables is
    None the variable set is inferred and sorted by name.
    """
    parsed, seen = _parse_terms(text)
    if variables is None:
        variables = tuple(sorted(seen))
    else:
        variables = tuple(variables)
        for i, v in enumerate(variables):
            if v in variables[:i]:
                raise ValueError(f"variable {v!r} is listed twice in {list(variables)}")
        missing = sorted(seen - set(variables))
        if missing:
            more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
            raise ValueError(f"unknown variables {_cut(repr(missing[:3]))}{more} in {_cut(repr(text))}")
    terms: dict = {}
    for coeff, exps in parsed:
        key = tuple(exps.get(v, 0) for v in variables)
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(variables, terms, modulus)


# Checks on fields of JSON input documents, by the kind named in messages.
_JSON_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


def json_document(text: str, what: str):
    """text parsed as JSON, read from an input called what.

    json.loads recurses once per level of nesting, so a deep enough
    [[[...]]] raises RecursionError; that is refused as a ValueError
    naming the input, as an integer too long for int() is.
    """
    try:
        return json.loads(text, parse_int=lambda digits: int_literal(digits, f"an integer in {what}"))
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to read") from None


# Longest JSON text an error message echoes whole.
_ECHO_LIMIT = 80


def _cut(text) -> str:
    """text, or an int written out, for an error message: one longer than _ECHO_LIMIT is cut, with its length.

    An int of 14,000 bits or more, near Python's 4,300-digit limit of
    str(), is named by its bit length instead.
    """
    if isinstance(text, int):
        text = str(text) if text.bit_length() < 14_000 else f"<an integer of {text.bit_length()} bits>"
    return text if len(text) <= _ECHO_LIMIT else f"{text[:_ECHO_LIMIT]}… ({len(text)} characters)"


def int_literal(text: str, what: str) -> int:
    """int(text) for a string of decimal digits, maybe signed, read from an input called what.

    Python refuses int() of more digits than its limit (4,300 by default)
    with a message that names no input; here that is a ValueError naming
    what, with text cut as _cut cuts it.
    """
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} has too many digits: {_cut(text)}") from None


def json_echo(value) -> str:
    """value as JSON for an error message, cut as _cut cuts it."""
    return _cut(json.dumps(value))


def json_field(doc, name: str, kind: str, what: str):
    """doc[name] from a JSON document called what, checked against _JSON_KINDS[kind].

    Floats and booleans are not integers here.  A missing field, a value
    of the wrong kind, or a doc that is not an object raises ValueError
    naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json_echo(doc)}")
    if name not in doc:
        raise ValueError(f"{what} needs a {name!r} field")
    value = doc[name]
    if not _JSON_KINDS[kind](value):
        raise ValueError(f"{what} field {name!r} must be {kind}, got {json_echo(value)}")
    return value


class FiniteField:
    """GF(q) for a prime power q = p^k, with log-table multiplication.

    Elements are encoded as ints in [0, q): the base-p digits of the
    code are the coefficients of the polynomial representative modulo
    a primitive monic f of degree k, so sums are digit sums (xor for
    p = 2) and the codes below p are the prime field.  exp and log
    tables of the powers of x, built eagerly for every q, prime q
    included, make each product and power one lookup, and each sum or
    negation in odd characteristic with k > 1 too.
    """

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        self._exp, self._log = _primitive_tables(p, k)
        # Tr is F_p-linear, so its values on the basis p^i give it all
        traces = [self._frobenius_sum(p**i) for i in range(k)]
        self._trace_basis = traces
        self._trace_mask = sum(t << i for i, t in enumerate(traces)) if p == 2 else 0

    def elements(self) -> range:
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            # base-2 digits add without carries
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        # a + b = a (1 + c) for c = b/a, and 1 + c changes only the lowest digit of c
        p, log, order = self.p, self._log, self.q - 1
        c = self._exp[(log[b] - log[a]) % order]
        c = c - p + 1 if c % p == p - 1 else c + 1
        return c and self._exp[(log[a] + log[c]) % order]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2 or a == 0:
            return a
        # -1 = x^((q-1)/2) for odd q
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def _frobenius_sum(self, a: int) -> int:
        acc = 0
        for _ in range(self.k):
            acc = self.add(acc, a)
            a = self.pow(a, self.p)
        return acc

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(k-1)), an element of F_p.

        Read off the base-p digits of a and the traces of the basis.
        """
        if self.p == 2:
            return (a & self._trace_mask).bit_count() & 1
        digits = _digits(a, self.p, self.k)
        return sum(d * t for d, t in zip(digits, self._trace_basis)) % self.p

    def quadratic_character(self, a: int) -> int:
        """chi(a) in odd characteristic: 0 at 0, 1 on nonzero squares, -1 otherwise."""
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == 1 else -1

    def from_int(self, c: int) -> int:
        """Image of the integer c under Z -> F_p in GF(q)."""
        return c % self.p

    def evaluate_poly(self, poly: MultiPoly, point) -> int:
        if poly.modulus != self.p:
            raise ValueError(f"polynomial modulus {poly.modulus} is not {self.p}")
        names = poly.variables
        vals = dict(zip(names, point))
        acc = 0
        for exps, c in poly.terms.items():
            t = self.from_int(c)
            for name, e in zip(names, exps):
                if e:
                    t = self.mul(t, self.pow(vals[name], e))
            acc = self.add(acc, t)
        return acc

    def grid(self, polys) -> list:
        """Each polynomial's values at every point of GF(q)^m, in itertools.product order.

        The polynomials share their m variables; the values are their
        slabs one after another.  Agrees with evaluate_poly everywhere.
        """
        return self._grid(*self._term_dicts(polys))

    def slabs(self, polys):
        """For each a in GF(q) in order, each polynomial's values at (a, rest), rest as in grid.

        Horner on the first variable x: P = sum_e x^e P_e(rest), so a slab
        is sum_e a^e grid(P_e), summed by map(xor) for p = 2.  a^e = 1 gives
        the column itself, another nonzero a^e one log lookup per value; a^e
        is one pow, so exponents cost nothing.  A yielded column may be the
        same list in several slabs, as the zero column is: never mutate one.
        """
        term_dicts, m = self._term_dicts(polys)
        if m == 0:
            raise ValueError("slabs need a first variable; the polynomials have none")
        return self._slabs(term_dicts, m)

    def _term_dicts(self, polys):
        polys = list(polys)
        for poly in polys:
            if poly.modulus != self.p:
                raise ValueError(f"polynomial modulus {poly.modulus} is not {self.p}")
            if poly.variables != polys[0].variables:
                raise ValueError(f"polynomials in different variables: {polys[0].variables} and {poly.variables}")
        return [poly.terms for poly in polys], len(polys[0].variables) if polys else 1

    def _grid(self, term_dicts, m: int) -> list:
        if m == 0:
            return [[terms.get((), 0)] for terms in term_dicts]
        return [list(itertools.chain.from_iterable(col)) for col in zip(*self._slabs(term_dicts, m))]

    def _slabs(self, term_dicts, m: int):
        p, q = self.p, self.q
        parts, plans = [], []
        for terms in term_dicts:
            split: dict = {}
            for exps, c in terms.items():
                split.setdefault(exps[0], {})[exps[1:]] = c
            plans.append([(e, len(parts) + j) for j, e in enumerate(split)])
            parts += split.values()
        grids = self._grid(parts, m - 1)
        # exp twice, then zeros for the log of 0: a product is one lookup
        order = q - 1
        table = self._exp * 2 + [0] * order
        logs = [None] * len(grids)  # a part's log column, built when first scaled past 1

        def scaled(a, e, j):  # a^e times the grid of part j, None when a^e = 0
            s = self.pow(a, e)
            if s <= 1:
                return grids[j] if s else None
            if logs[j] is None:
                logs[j] = [self._log[g] if g else 2 * order for g in grids[j]]
            ls = self._log[s]
            return [table[l + ls] for l in logs[j]]

        add = operator.xor if p == 2 else self.add
        zero = [0] * q ** (m - 1)
        for a in range(q):
            slab = []
            for plan in plans:
                acc = zero
                for e, j in plan:
                    term = scaled(a, e, j)
                    if term is not None:
                        acc = term if acc is zero else list(map(add, acc, term))
                slab.append(acc)
            yield slab


def _prime_power(q: int):
    # the size bound first: the search below takes up to q steps
    if q >= MAX_PRIME:
        raise ValueError(f"field too large: {_cut(q)}")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, k
    raise ValueError(f"not a prime power: {q}")


def _digits(a: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _primitive_tables(p: int, k: int) -> Tuple[list, list]:
    """(exp, log) of the powers of x in F_p[x]/(f), on base-p codes, for the first primitive f.

    f = x^k - r(x), r = sum r_j x^j, is primitive iff x has order
    q - 1 = p^k - 1 mod f, and then its norm (-1)^(k+1) r_0 is a
    primitive root mod p (Lidl-Niederreiter, Finite Fields, Thms 3.16
    and 3.18): each r_0 that fails is skipped unwalked.  The walk steps
    acc -> acc x mod f, writing exp and log, until acc is 1 again; the
    first f it takes q - 1 steps on is the modulus.  For k = 1, f = x - g
    and the walk is the powers of g.
    """
    q = p**k
    for r0 in range(1, p):
        norm = (-1) ** (k + 1) * r0 % p
        if any(pow(norm, e, p) == 1 for e in range(1, p - 1)):
            continue
        for rest in itertools.product(range(p), repeat=k - 1):
            r = (r0,) + rest
            # step[acc] = acc x mod f: the digits move up one place, and the
            # top one, lead, comes back as lead * r
            step = []
            for lead in range(p):
                col = [lead * r0 % p]
                for j in range(1, k):
                    d, place = lead * r[j] % p, p**j
                    col = [c + (y + d) % p * place for y in range(p) for c in col]
                step += col
            exp, log, acc = [1], [0] * q, step[1]
            while acc != 1:
                log[acc] = len(exp)
                exp.append(acc)
                acc = step[acc]
            if len(exp) == q - 1:
                return exp, log
