"""Chart rings for rational double point singularities.

A chart ring is a localized coordinate ring

    A = F_p[u^{±1}, v^{±1}] . {1, w, ..., w^{d-1}},
    w^d = P(u, v) + Q(u, v) * w

free of rank d over Laurent polynomials in two variables.  The RDP
equations z^2 + ... = 0 from the classification of non-taut rational
double points in small characteristic all fit with d = 2 (solve for
z^2); the cyclic quotient singularity z^p = x*y needs d = p and a
monomial right side.  Elements are finite sums of monomials
u^i * v^j * w^c with i, j in Z and 0 <= c < d.  In characteristic p the
p-th power is additive, so ChartElem.frobenius computes it term by term
from the powers (w^c)^p each ring keeps.

The catalog covers:

  char 2:  D_N^r (N >= 4, 0 <= r <= floor(N/2)-1, two equations at
           r = 0), E_6^r (r <= 1), E_7^r (r <= 3), E_8^r (r <= 4)
  char 3:  E_6^r, E_7^r (r <= 1), E_8^r (r <= 2)
  char 5:  E_8^r (r <= 1)
  char p:  A_{p-1} as z^p = x*y (p <= 7)

plus the chart data of the five quotient-map cases (mu_p and alpha_p
actions) with their ring maps.  In characteristic 3 and 5 the catalog
stores w^2 = (sign)*(remaining terms), with the sign noted where the
equation is built, matching the convention under which the Frobenius
computations are stated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from .ffpoly import MultiPoly, SparseTerms, _check_modulus, _cut, parse_poly


def rmax(p: int, family: str, N: int) -> int:
    """Maximal coindex of a rational double point of type (family, N).

    Zero means the singularity is taut in characteristic p: its formal
    isomorphism class is determined by the resolution graph.
    """
    _validate_symbol(family, N)
    if family == "A":
        return 0
    if family == "D":
        return N // 2 - 1 if p == 2 else 0
    if p == 2:
        return {6: 1, 7: 3, 8: 4}[N]
    if p == 3:
        return {6: 1, 7: 1, 8: 2}[N]
    if p == 5:
        return 1 if N == 8 else 0
    return 0


def _validate_symbol(family: str, N: int) -> None:
    if family == "A":
        if N < 1:
            raise ValueError(f"A_{N} is not a rational double point")
    elif family == "D":
        if N < 4:
            raise ValueError(f"D_{N} is not a rational double point")
    elif family == "E":
        if N not in (6, 7, 8):
            raise ValueError(f"E_{N} is not a rational double point")
    else:
        raise ValueError(f"unknown family {family!r}")


def parse_symbol(text: str) -> tuple:
    """\"D12\" -> (\"D\", 12)."""
    family = text[:1].upper()
    try:
        N = int(text[1:])
    except ValueError:
        raise ValueError(f"bad singularity symbol {_cut(repr(text))}") from None
    _validate_symbol(family, N)
    return family, N


@dataclass(frozen=True)
class RdpSpec:
    """A rational double point with coindex: S_N^r in characteristic p."""

    p: int
    family: str
    N: int
    r: int = 0

    def __post_init__(self):
        _check_modulus(self.p)
        bound = rmax(self.p, self.family, self.N)
        if not (0 <= self.r <= bound):
            raise ValueError(
                f"coindex {self.r} out of range 0..{bound} for "
                f"{self.family}_{self.N} in characteristic {self.p}"
            )

    @property
    def symbol(self) -> str:
        return f"{self.family}{self.N}"

    def __str__(self):
        return f"{self.p}:{self.family}{self.N}:{self.r}"


def parse_rdp_key(key: str) -> RdpSpec:
    """\"2:D12:3\" -> RdpSpec(2, \"D\", 12, 3); the coindex may be omitted."""
    parts = key.split(":")
    if len(parts) == 2:
        parts.append("0")
    if len(parts) != 3:
        raise ValueError(f"bad catalog key {_cut(repr(key))}; expected p:SN:r")
    p = _key_int(key, "prime", parts[0])
    family, N = parse_symbol(parts[1])
    return RdpSpec(p, family, N, _key_int(key, "coindex", parts[2]))


def _key_int(key: str, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad catalog key {_cut(repr(key))}: {name} {_cut(repr(text))} is not an integer") from None


class ChartRing:
    """Rank-d free module over Laurent F_p[u, v] with a w-relation."""

    __slots__ = ("p", "wdeg", "rel_p", "rel_q", "_rel_terms", "_frob_w", "labels", "key")

    def __init__(self, p, wdeg, rel_p=None, rel_q=None, labels=("x", "y", "z"),
                 key=""):
        _check_modulus(p)
        if wdeg < 1:
            raise ValueError("wdeg must be >= 1")
        if wdeg not in (1, 2) and wdeg != p:
            raise ValueError(f"wdeg {wdeg} must be 1, 2 or p={p}")
        labels = tuple(labels)
        if len(labels) != (2 if wdeg == 1 else 3):
            raise ValueError(f"need {'2' if wdeg == 1 else '3'} labels, got {labels}")
        uv = labels[:2]
        if wdeg == 1:
            if rel_p is not None or rel_q is not None:
                raise ValueError("rank-1 chart takes no relation")
            rel_terms = []
        else:
            if rel_p is None:
                rel_p = MultiPoly.zero(uv, p)
            if rel_q is None:
                rel_q = MultiPoly.zero(uv, p)
            if rel_p.variables != uv or rel_p.modulus != p:
                raise ValueError("relation P must be a mod-p polynomial in (u, v)")
            if rel_q.variables != uv or rel_q.modulus != p:
                raise ValueError("relation Q must be a mod-p polynomial in (u, v)")
            if wdeg != 2 and not rel_q.is_zero():
                raise ValueError("w^p relations must have a w-free right side")
            if wdeg != 2 and len(rel_p.terms) != 1:
                raise ValueError("w^p relations must have a monomial right side")
            rel_terms = [((i, j, 0), c) for (i, j), c in rel_p.terms.items()]
            rel_terms += [((i, j, 1), c) for (i, j), c in rel_q.terms.items()]
        self.p = p
        self.wdeg = wdeg
        self.rel_p = rel_p
        self.rel_q = rel_q
        self._rel_terms = tuple(rel_terms)
        self.labels = labels
        self.key = key
        # the terms of (w^c)^p for 0 <= c < wdeg, read by ChartElem.frobenius
        self._frob_w = ((((0, 0, 0), 1),),) + tuple(
            tuple((self.monomial(1, 0, 0, c) ** p).terms.items())
            for c in range(1, wdeg)
        )

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ChartRing)
            and self.p == other.p
            and self.wdeg == other.wdeg
            and self.rel_p == other.rel_p
            and self.rel_q == other.rel_q
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.p, self.wdeg, self.rel_p, self.rel_q, self.labels))

    # -- element constructors -----------------------------------------

    def zero(self) -> "ChartElem":
        return ChartElem(self, {})

    def one(self) -> "ChartElem":
        return ChartElem(self, {(0, 0, 0): 1})

    def monomial(self, coeff: int, i: int, j: int, c: int = 0) -> "ChartElem":
        if not (0 <= c < max(self.wdeg, 1)):
            raise ValueError(f"w-exponent {c} out of range for wdeg {self.wdeg}")
        return ChartElem(self, {(i, j, c): coeff})

    def designated(self) -> dict:
        """The coordinate images x, y (and z when present) as elements."""
        out = {
            self.labels[0]: self.monomial(1, 1, 0),
            self.labels[1]: self.monomial(1, 0, 1),
        }
        if self.wdeg >= 2:
            out[self.labels[2]] = self.monomial(1, 0, 0, 1)
        return out

    def relation_str(self) -> str:
        if self.wdeg == 1:
            return "(free)"
        w = self.labels[2]
        out = f"{w}^{self.wdeg} = {self.rel_p}"
        if not self.rel_q.is_zero():
            out += f" + ({self.rel_q})*{w}"
        return out

    def __repr__(self):
        tag = self.key or self.relation_str()
        return f"ChartRing({tag})"


class ChartElem(SparseTerms):
    """Sum of monomials u^i v^j w^c with coefficients in F_p."""

    __slots__ = ("ring", "terms")
    _one_key = (0, 0, 0)

    def __init__(self, ring: ChartRing, terms):
        clean = {}
        p = ring.p
        wmax = max(ring.wdeg, 1)
        for key, c in terms.items():
            i, j, cc = key
            if not (type(i) is int and type(j) is int and type(cc) is int):
                raise ValueError(f"monomial key {key} has an exponent that is not an int")
            if not (0 <= cc < wmax):
                raise ValueError(f"w-exponent {cc} out of range")
            c %= p
            if c:
                clean[key] = c
        self.ring = ring
        self.terms = clean

    def _raw(self, terms) -> "ChartElem":
        """An element of this ring from nonzero coefficients already reduced mod p."""
        elem = object.__new__(ChartElem)
        elem.ring = self.ring
        elem.terms = terms
        return elem

    @property
    def modulus(self) -> int:
        return self.ring.p

    @property
    def _names(self) -> tuple:
        return self.ring.labels

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self._raw({})
        ring = self.ring
        d = ring.wdeg
        terms: dict = {}
        for (i1, j1, c1), k1 in self.terms.items():
            for (i2, j2, c2), k2 in other.terms.items():
                coeff = k1 * k2
                i, j, c = i1 + i2, j1 + j2, c1 + c2
                if c < d or d == 1:
                    key = (i, j, c)
                    terms[key] = terms.get(key, 0) + coeff
                else:
                    # one rewrite suffices: the relation right side has
                    # w-degree <= 1 and c - d + 1 < d
                    for (di, dj, dc), rc in ring._rel_terms:
                        key = (i + di, j + dj, c - d + dc)
                        terms[key] = terms.get(key, 0) + coeff * rc
        return self._like(terms)

    __rmul__ = __mul__

    def frobenius(self) -> "ChartElem":
        """self ** p as the linear map it is in characteristic p, with no product.

        (sum k u^i v^j w^c)^p = sum k u^(pi) v^(pj) (w^c)^p, since k^p = k
        in F_p; each (w^c)^p is taken once per ring (ChartRing._frob_w).
        """
        ring = self.ring
        p, frob_w = ring.p, ring._frob_w
        terms: dict = {}
        for (i, j, c), k in self.terms.items():
            i, j = p * i, p * j
            for (di, dj, dc), rc in frob_w[c]:
                key = (i + di, j + dj, dc)
                terms[key] = terms.get(key, 0) + k * rc
        return self._like(terms)

    def split(self) -> tuple:
        """Cech decomposition (xi, eta, rho) of this element.

        xi collects the terms lying in A[1/x] (those with j >= 0, ties
        with i >= 0 included), eta the remaining terms in A[1/y]
        (i >= 0, j < 0), rho the residual terms (i < 0 and j < 0).
        The three parts sum back to the element.
        """
        xi, eta, rho = {}, {}, {}
        for key, c in self.terms.items():
            i, j, _ = key
            if j >= 0:
                xi[key] = c
            elif i >= 0:
                eta[key] = c
            else:
                rho[key] = c
        return self._raw(xi), self._raw(eta), self._raw(rho)

    def is_residual(self) -> bool:
        return all(i < 0 and j < 0 for (i, j, _) in self.terms)

    def has_nonnegative_exponents(self) -> bool:
        return all(i >= 0 and j >= 0 for (i, j, _) in self.terms)


# The SparseTerms parent hook is the ring slot itself, read with no property call.
ChartElem._parent = ChartElem.ring


class RingMap:
    """A ring homomorphism between chart rings.

    u and v must map to unit monomials of the target (single term,
    coefficient 1, nonnegative exponents, not both zero) so that Laurent
    monomials stay Laurent.  w maps to an arbitrary element; the image
    must satisfy the source relation, checked at construction.
    """

    __slots__ = ("source", "target", "image_u", "image_v", "image_w")

    def __init__(self, source: ChartRing, target: ChartRing,
                 image_u: tuple, image_v: tuple,
                 image_w: Optional[ChartElem] = None):
        if source.p != target.p:
            raise ValueError("characteristic mismatch")
        for name, (a, b) in (("u", image_u), ("v", image_v)):
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError(
                    f"image of {name} must be a unit monomial with nonnegative "
                    f"exponents, not both zero; got exponents {(a, b)}"
                )
        if source.wdeg >= 2:
            if image_w is None:
                raise ValueError("w needs an image")
            if image_w.ring != target:
                raise ValueError("image of w lives in the wrong ring")
        elif image_w is not None:
            raise ValueError("rank-1 source has no w")
        self.source = source
        self.target = target
        self.image_u = tuple(image_u)
        self.image_v = tuple(image_v)
        self.image_w = image_w
        if source.wdeg >= 2:
            uv = (target.monomial(1, *image_u), target.monomial(1, *image_v))
            env, zero = dict(zip(source.labels, uv)), target.zero()
            rhs = source.rel_p.evaluate(env, zero) + source.rel_q.evaluate(env, zero) * image_w
            if image_w ** source.wdeg != rhs:
                raise ValueError(
                    "not a ring map: the image of w violates the source relation"
                )

    def apply(self, elem: ChartElem) -> ChartElem:
        if elem.ring != self.source:
            raise ValueError("element lives in the wrong ring")
        au, bu = self.image_u
        av, bv = self.image_v
        target = self.target
        wpow_cache: dict = {}
        out = target.zero()
        for (i, j, c), k in elem.terms.items():
            mono = target.monomial(k, au * i + av * j, bu * i + bv * j)
            if c:
                if c not in wpow_cache:
                    wpow_cache[c] = self.image_w**c
                mono = mono * wpow_cache[c]
            out = out + mono
        return out

    def __repr__(self):
        return f"RingMap({self.source!r} -> {self.target!r})"


# -- the catalog ----------------------------------------------------------


def _poly(p, uv, text):
    return parse_poly(text, variables=uv, modulus=p)


def rdp_chart(spec: RdpSpec, unified: bool = False) -> ChartRing:
    """The catalog chart ring of a non-taut RDP (or Kleinian A_{p-1}).

    For D_N^0 two equations are in use: the default drops the z*x*y^m
    (resp. z*y^m-companion) term, unified=True keeps the r = 0
    specialization of the general-coindex equation.  For r >= 1 the two
    agree and the flag is ignored.  Recent charts are shared, not built
    again, so their relations are parsed once and ring comparisons are
    identity tests.
    """
    return _rdp_chart(spec, unified and spec.r == 0)


# A reproduce asks for 677 charts, 150 distinct; keeping the last 32
# builds 156 of them and holds about 50 KB, keeping all 150 builds 150.
@functools.lru_cache(maxsize=32)
def _rdp_chart(spec: RdpSpec, unified: bool) -> ChartRing:
    p, family, N, r = spec.p, spec.family, spec.N, spec.r
    uv = ("x", "y")
    key = str(spec)

    if family == "A":
        if N != p - 1:
            raise ValueError(
                f"A_{N} in characteristic {p}: only A_{{p-1}} is needed here"
            )
        return ChartRing(p, p if p > 2 else 2, _poly(p, uv, "x*y"), None,
                         ("x", "y", "z"), key)

    if rmax(p, family, N) == 0:
        raise ValueError(f"{family}_{N} is taut in characteristic {p}; no chart here")

    if family == "D":
        m = N // 2
        Q: MultiPoly
        if N % 2 == 0:
            P = _poly(p, uv, f"x^2*y + x*y^{m}")
            if r >= 1:
                Q = _poly(p, uv, f"x*y^{m - r}")
            elif unified:
                Q = _poly(p, uv, f"x*y^{m}")
            else:
                Q = MultiPoly.zero(uv, p)
        else:
            P = _poly(p, uv, "x^2*y")
            if r >= 1:
                Q = _poly(p, uv, f"y^{m} + x*y^{m - r}")
            elif unified:
                Q = _poly(p, uv, f"y^{m} + x*y^{m}")
            else:
                Q = _poly(p, uv, f"y^{m}")
        return ChartRing(p, 2, P, Q, ("x", "y", "z"), key)

    if p == 2:
        if N == 6:
            P = _poly(p, uv, "x^3")
            Q = _poly(p, uv, "y^2 + x*y") if r == 1 else _poly(p, uv, "y^2")
        elif N == 7:
            P = _poly(p, uv, "x^3 + x*y^3")
            beta = {3: "x*y", 2: "y^3", 1: "x^2*y"}.get(r)
            Q = _poly(p, uv, beta) if beta else MultiPoly.zero(uv, p)
        else:
            P = _poly(p, uv, "x^3 + y^5")
            beta = {4: "x*y", 3: "y^3", 2: "x*y^2", 1: "x*y^3"}.get(r)
            Q = _poly(p, uv, beta) if beta else MultiPoly.zero(uv, p)
        return ChartRing(p, 2, P, Q, ("x", "y", "z"), key)

    if p == 3:
        # sign -1: the stored relation solves -z^2 + f = 0 for z^2
        if N == 6:
            body = "x^3 + y^4" + (" + x^2*y^2" if r == 1 else "")
        elif N == 7:
            body = "x^3 + x*y^3" + (" + x^2*y^2" if r == 1 else "")
        else:
            lam = {2: " + x^2*y^2", 1: " + x^2*y^3"}.get(r, "")
            body = "x^3 + y^5" + lam
        return ChartRing(p, 2, _poly(p, uv, body), None, ("x", "y", "z"), key)

    # p == 5, E_8
    # sign -1: z^2 = -(x^3 + y^5 + (b/2) x y^4)
    body = "4*x^3 + 4*y^5" + (" + 4*x*y^4" if r == 1 else "")
    return ChartRing(p, 2, _poly(p, uv, body), None, ("x", "y", "z"), key)


def catalog_coindexes(p: int, family: str, N: int) -> list:
    """All coindexes r admitting a catalog equation: 0..rmax."""
    return list(range(rmax(p, family, N) + 1))


@dataclass(frozen=True)
class QuotientCase:
    """Chart data of one quotient map pi: Spec A -> Spec A^(ideal).

    source carries the singularity downstairs, target the (smooth or
    smaller) cover chart; rmap sends source coordinates into the target.
    n_expected is the Witt length at which the pullback of the torsion
    generator becomes V^(n-1) of a generator.
    """

    case_id: int
    p: int
    group: str
    symbol: str
    source: ChartRing = field(compare=False)
    target: ChartRing = field(compare=False)
    rmap: RingMap = field(compare=False)
    n_expected: int
    eps: ChartElem = field(compare=False)
    predicted_gen: ChartElem = field(compare=False)


def quotient_case(p: int, group: str, symbol: str) -> QuotientCase:
    """Instantiate one of the five quotient-map chart computations.

    (p, mu, A{p-1})        z^p = xy, x -> U^p, y -> V^p, z -> UV
    (2, alpha, D{2^n})     n >= 2, x -> U^2, y -> V^2, z -> U^2 V + U V^(2^(n-1))
    (3, alpha, E6)         x -> u, y -> v^3, z -> w (u + v^4)
    (2, alpha, E8)         x -> U^2, y -> V^2, z -> U^3 + V^5
    (5, alpha, E8)         x -> u^5, y -> v, z -> w (v - u^3)^2
    """
    family, N = parse_symbol(symbol)
    key = f"quot:{p}:{group}:{symbol}"

    if group == "mu":
        if family != "A" or N != p - 1:
            raise ValueError(f"mu_{p} quotient chart needs A_{p-1}, got {symbol}")
        source = rdp_chart(RdpSpec(p, "A", p - 1, 0))
        target = ChartRing(p, 1, labels=("X", "Y"), key=key + ":cover")
        iw = target.monomial(1, 1, 1)
        rmap = RingMap(source, target, (p, 0), (0, p), iw)
        eps = source.monomial(1, -1, -1, p - 1)
        predicted = target.monomial(1, -1, -1)
        return QuotientCase(1, p, group, symbol, source, target, rmap, 1, eps, predicted)

    if group != "alpha":
        raise ValueError(f"unknown group {_cut(repr(group))}; use mu or alpha")

    if p == 2 and family == "D":
        n = N.bit_length() - 1
        if N != 1 << n or n < 2:
            raise ValueError(f"alpha_2 quotient chart needs D_(2^n), got {symbol}")
        source = rdp_chart(RdpSpec(2, "D", N, 0))
        target = ChartRing(2, 1, labels=("X", "Y"), key=key + ":cover")
        iw = ChartElem(target, {(2, 1, 0): 1, (1, 1 << (n - 1), 0): 1})
        rmap = RingMap(source, target, (2, 0), (0, 2), iw)
        eps = source.monomial(1, -1, -1, 1)
        predicted = target.monomial(1, -1, -1)
        return QuotientCase(2, p, group, symbol, source, target, rmap, n, eps, predicted)

    if p == 2 and (family, N) == ("E", 8):
        source = rdp_chart(RdpSpec(2, "E", 8, 0))
        target = ChartRing(2, 1, labels=("X", "Y"), key=key + ":cover")
        iw = ChartElem(target, {(3, 0, 0): 1, (0, 5, 0): 1})
        rmap = RingMap(source, target, (2, 0), (0, 2), iw)
        eps = source.monomial(1, -1, -1, 1)
        predicted = target.monomial(1, -1, -1)
        return QuotientCase(4, p, group, symbol, source, target, rmap, 4, eps, predicted)

    if p == 3 and (family, N) == ("E", 6):
        source = rdp_chart(RdpSpec(3, "E", 6, 0))
        uvt = ("x", "Y")
        target = ChartRing(3, 2, _poly(3, uvt, "x + Y^4"), None,
                           ("x", "Y", "Z"), key + ":cover")
        iw = ChartElem(target, {(1, 0, 1): 1, (0, 4, 1): 1})  # w*(u + v^4)
        rmap = RingMap(source, target, (1, 0), (0, 3), iw)
        eps = source.monomial(1, -1, -1, 1)
        predicted = target.monomial(-1, -1, -1, 1)
        return QuotientCase(3, p, group, symbol, source, target, rmap, 2, eps, predicted)

    if p == 5 and (family, N) == ("E", 8):
        # proof coordinates use z^2 = y^5 - x^3, not the catalog sign
        uvs = ("x", "y")
        source = ChartRing(5, 2, _poly(5, uvs, "y^5 + 4*x^3"), None,
                           ("x", "y", "z"), key + ":base")
        uvt = ("X", "y")
        target = ChartRing(5, 2, _poly(5, uvt, "y + 4*X^3"), None,
                           ("X", "y", "Z"), key + ":cover")
        # w*(v - u^3)^2 = w*(v^2 - 2 u^3 v + u^6)
        iw = ChartElem(target, {(0, 2, 1): 1, (3, 1, 1): 3, (6, 0, 1): 1})
        rmap = RingMap(source, target, (5, 0), (0, 1), iw)
        eps = source.monomial(1, -1, -1, 1)
        predicted = target.monomial(-1, -1, -1, 1)
        return QuotientCase(5, p, group, symbol, source, target, rmap, 2, eps, predicted)

    raise ValueError(f"no quotient chart for (p={p}, {group}, {symbol})")


ALL_QUOTIENT_KEYS = (
    "quot:2:mu:A1",
    "quot:3:mu:A2",
    "quot:5:mu:A4",
    "quot:7:mu:A6",
    "quot:2:alpha:D4",
    "quot:2:alpha:D8",
    "quot:2:alpha:D16",
    "quot:3:alpha:E6",
    "quot:2:alpha:E8",
    "quot:5:alpha:E8",
)


def quotient_case_from_key(key: str) -> QuotientCase:
    parts = key.split(":")
    if len(parts) != 4 or parts[0] != "quot":
        raise ValueError(f"bad quotient key {_cut(repr(key))}; expected quot:p:group:SN")
    return quotient_case(_key_int(key, "prime", parts[1]), parts[2], parts[3])


def chart_from_key(key: str, unified: bool = False) -> ChartRing:
    """Resolve a catalog key like 2:D12:3 or quot:2:alpha:D4 (source chart)."""
    if key.startswith("quot:"):
        return quotient_case_from_key(key).source
    return rdp_chart(parse_rdp_key(key), unified=unified)
