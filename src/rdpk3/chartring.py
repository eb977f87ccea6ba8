"""Chart rings for rational double point singularities.

A chart ring is a localized coordinate ring

    A = F_p[u^{±1}, v^{±1}] . {1, w, ..., w^{d-1}},
    w^d = P(u, v) + Q(u, v) * w

free of rank d over Laurent polynomials in two variables.  The RDP
equations z^2 + ... = 0 from the classification of non-taut rational
double points in small characteristic all fit with d = 2 (solve for
z^2); the cyclic quotient singularity z^p = x*y needs d = p and a
monomial right side.  Elements are finite sums of monomials
u^i * v^j * w^c with i, j in Z and 0 <= c < d.  Every ring map of
charts is its images: exponent pairs for u and v and the image of each
w^c, c < d.  One term loop applies them: the Frobenius (the p-th power)
in ChartElem.frobenius and the quotient maps in RingMap.apply.

The catalog covers D_N^r in characteristic 2 (N >= 4, 0 <= r <=
floor(N/2)-1, two equations at r = 0), the E_N^r of _E_CHARTS (its
rows are the non-taut E types of characteristic 2, 3 and 5, and each
row lists the coindexes it covers) and A_{p-1} as z^p = x*y (p <= 7),
plus the chart data of the five quotient-map cases (mu_p and alpha_p
actions) with their ring maps.  In characteristic 3 and 5 the catalog
stores w^2 = (sign)*(remaining terms), with the sign noted in the
table, matching the convention under which the Frobenius computations
are stated.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import Optional

from .ffpoly import FrozenRecord, MultiPoly, SparseTerms, _check_modulus, _cut


# The E_N^r equations w^2 = P + Q*w (Artin's normal forms), keyed by (p, N):
# the sign c of every term, the exponents (i, j) of x^i y^j in P and in Q at
# r = 0, and for r = 1, 2, ... the one term that r adds, to Q at p = 2 and to
# P at p = 3 and 5.  A row lists each coindex of its type; a (p, E_N) with
# no row is taut.  At p = 3 the relation solves -z^2 + f = 0 for z^2, at
# p = 5 it is z^2 = -(x^3 + y^5 + (b/2)*x*y^4).
_E_CHARTS = {
    (2, 6): (1, ((3, 0),), ((0, 2),), ((1, 1),)),
    (2, 7): (1, ((3, 0), (1, 3)), (), ((2, 1), (0, 3), (1, 1))),
    (2, 8): (1, ((3, 0), (0, 5)), (), ((1, 3), (1, 2), (0, 3), (1, 1))),
    (3, 6): (1, ((3, 0), (0, 4)), (), ((2, 2),)),
    (3, 7): (1, ((3, 0), (1, 3)), (), ((2, 2),)),
    (3, 8): (1, ((3, 0), (0, 5)), (), ((2, 3), (2, 2))),
    (5, 8): (-1, ((3, 0), (0, 5)), (), ((1, 4),)),
}


def rmax(p: int, family: str, N: int) -> int:
    """Maximal coindex of a rational double point of type (family, N).

    Zero means the singularity is taut in characteristic p: its formal
    isomorphism class is determined by the resolution graph.  D_N has
    floor(N/2) - 1 in characteristic 2; E_N has as many as its _E_CHARTS
    row lists.
    """
    _validate_symbol(family, N)
    if family == "D":
        return N // 2 - 1 if p == 2 else 0
    return len(_E_CHARTS[p, N][3]) if family == "E" and (p, N) in _E_CHARTS else 0


def _validate_symbol(family: str, N: int) -> None:
    if family == "A":
        ok = N >= 1
    elif family == "D":
        ok = N >= 4
    elif family == "E":
        ok = N in (6, 7, 8)
    else:
        raise ValueError(f"unknown family {_cut(repr(family))}")
    if not ok:
        raise ValueError(f"{family}_{_cut(N)} is not a rational double point")


def parse_symbol(text: str) -> tuple:
    """\"D12\" -> (\"D\", 12)."""
    family = text[:1].upper()
    try:
        N = int(text[1:])
    except ValueError:
        raise ValueError(f"bad singularity symbol {_cut(repr(text))}") from None
    _validate_symbol(family, N)
    return family, N


class RdpSpec(FrozenRecord):
    """A rational double point with coindex: S_N^r in characteristic p."""

    __slots__ = ("p", "family", "N", "r")
    _key = attrgetter(*__slots__)

    def __init__(self, p: int, family: str, N: int, r: int = 0):
        _check_modulus(p)
        bound = rmax(p, family, N)
        if not (0 <= r <= bound):
            raise ValueError(
                f"coindex {_cut(r)} out of range 0..{_cut(bound)} for "
                f"{family}_{_cut(N)} in characteristic {p}"
            )
        self._fill(p, family, N, r)

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
        # the images of the w-powers under w -> w^p, read by ChartElem.frobenius
        self._frob_w = _w_powers(self.monomial(1, 0, 0, 1) ** p if wdeg >= 2 else None, wdeg)

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
        elem = object.__new__(ChartElem)
        elem.ring = self
        elem.terms = {}
        return elem

    def one(self) -> "ChartElem":
        return ChartElem(self, {(0, 0, 0): 1})

    def monomial(self, coeff: int, i: int, j: int, c: int = 0) -> "ChartElem":
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
                raise ValueError(f"w-exponent {cc} out of range for wdeg {ring.wdeg}")
            if type(c) is not int:
                raise ValueError(f"coefficient {_cut(repr(c))} of monomial {key} is not an int")
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
        high: dict = {}  # u^i v^j w^(c-d) -> coefficient of the pairs reaching w^d
        for (i1, j1, c1), k1 in self.terms.items():
            for (i2, j2, c2), k2 in other.terms.items():
                c = c1 + c2
                if c < d:
                    key = (i1 + i2, j1 + j2, c)
                    terms[key] = terms.get(key, 0) + k1 * k2
                else:
                    key = (i1 + i2, j1 + j2, c - d)
                    high[key] = high.get(key, 0) + k1 * k2
        # w^d is folded through the relation once per collected monomial;
        # one rewrite suffices: its right side has w-degree <= 1 and
        # c - d + 1 < d, as c <= 2d - 2
        for (i, j, c), coeff in high.items():
            for (di, dj, dc), rc in ring._rel_terms:
                key = (i + di, j + dj, c + dc)
                terms[key] = terms.get(key, 0) + coeff * rc
        return self._like(terms)

    __rmul__ = __mul__

    def frobenius(self) -> "ChartElem":
        """self ** p as the ring map it is in characteristic p, with no product.

        (sum k u^i v^j w^c)^p = sum k u^(pi) v^(pj) (w^p)^c, since k^p = k
        in F_p: the one substitution loop at u -> u^p, v -> v^p, with the
        powers (w^p)^c each ring keeps (ChartRing._frob_w).
        """
        p = self.ring.p
        return _substitute(self, self.ring, (p, 0), (0, p), self.ring._frob_w)

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


def _w_powers(image_w: Optional[ChartElem], wdeg: int) -> tuple:
    """The terms of image_w^c for 0 <= c < wdeg: the images of the w-powers under w -> image_w."""
    powers, power = [(((0, 0, 0), 1),)], image_w
    for c in range(1, wdeg):
        if c > 1:
            power = power * image_w
        powers.append(tuple(power.terms.items()))
    return tuple(powers)


def _substitute(elem: ChartElem, target: ChartRing, image_u: tuple, image_v: tuple,
                w_powers: tuple) -> ChartElem:
    """The image in target of elem under u -> U^a_u V^b_u, v -> U^a_v V^b_v, w^c -> w_powers[c].

    The one loop of every chart-ring map: k u^i v^j w^c goes to
    k U^(a_u i + a_v j) V^(b_u i + b_v j) times the terms of w_powers[c],
    collected in one dict and reduced once.
    """
    (au, bu), (av, bv) = image_u, image_v
    terms: dict = {}
    for (i, j, c), k in elem.terms.items():
        i, j = au * i + av * j, bu * i + bv * j
        for (di, dj, dc), rc in w_powers[c]:
            key = (i + di, j + dj, dc)
            terms[key] = terms.get(key, 0) + k * rc
    return target.zero()._like(terms)


class RingMap:
    """A ring homomorphism between chart rings, given by its images.

    u and v must map to unit monomials of the target (single term,
    coefficient 1, nonnegative int exponents, not both zero) so that
    Laurent monomials stay Laurent.  w maps to an arbitrary element,
    whose powers below the source's w-degree are taken once, here.  The
    map checks the source relation on itself: it must send P + Q*w to
    image_w^d.  apply runs the loop of ChartElem.frobenius.
    """

    __slots__ = ("source", "target", "image_u", "image_v", "image_w", "_w_images")

    def __init__(self, source: ChartRing, target: ChartRing,
                 image_u: tuple, image_v: tuple,
                 image_w: Optional[ChartElem] = None):
        if source.p != target.p:
            raise ValueError("characteristic mismatch")
        for name, (a, b) in (("u", image_u), ("v", image_v)):
            if type(a) is not int or type(b) is not int or a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError(
                    f"image of {name} must be a unit monomial with nonnegative int "
                    f"exponents, not both zero; got exponents {_cut(repr((a, b)))}"
                )
        if source.wdeg >= 2:
            if image_w is None:
                raise ValueError("w needs an image")
            if image_w.ring != target:
                raise ValueError("image of w lives in the wrong ring")
        elif image_w is not None:
            raise ValueError("rank-1 source has no w")
        self.source, self.target, self.image_w = source, target, image_w
        self.image_u, self.image_v = tuple(image_u), tuple(image_v)
        self._w_images = _w_powers(image_w, source.wdeg)
        if source.wdeg >= 2:
            rhs = ChartElem(source, dict(source._rel_terms))
            if self.apply(rhs) != image_w ** source.wdeg:
                raise ValueError("not a ring map: the image of w violates the source relation")

    def apply(self, elem: ChartElem) -> ChartElem:
        """The image of elem, by the substitution loop of ChartElem.frobenius."""
        if elem.ring != self.source:
            raise ValueError("element lives in the wrong ring")
        return _substitute(elem, self.target, self.image_u, self.image_v, self._w_images)

    def __repr__(self):
        return f"RingMap({self.source!r} -> {self.target!r})"


# -- the catalog ----------------------------------------------------------


def rdp_chart(spec: RdpSpec, unified: bool = False) -> ChartRing:
    """The catalog chart ring of a non-taut RDP (or Kleinian A_{p-1}).

    For D_N^0 two equations are in use: the default drops the z*x*y^m
    (resp. z*y^m-companion) term, unified=True keeps the r = 0
    specialization of the general-coindex equation.  For r >= 1 the two
    agree and the flag is ignored.  The relations are built from their
    exponents, with no text to parse: D_N by one rule in N, r and the
    flag, E_N from its _E_CHARTS row.  Recent charts are shared, not
    built again, so ring comparisons are identity tests.
    """
    return _rdp_chart(spec, unified and spec.r == 0)


# A reproduce asks for 429 charts, 150 distinct; keeping the last 32
# builds 156 of them and holds about 58 KB (tracemalloc), keeping all
# 150 builds 150.
@functools.lru_cache(maxsize=32)
def _rdp_chart(spec: RdpSpec, unified: bool) -> ChartRing:
    p, family, N, r = spec.p, spec.family, spec.N, spec.r
    key = str(spec)

    def xy(terms):
        """The mod-p polynomial in (x, y) with terms {(i, j): coeff} for coeff * x^i y^j."""
        return MultiPoly(("x", "y"), terms, p)

    if family == "A":
        if N != p - 1:
            raise ValueError(f"A_{_cut(N)} in characteristic {p}: only A_{{p-1}} is needed here")
        return ChartRing(p, p if p > 2 else 2, xy({(1, 1): 1}), None, ("x", "y", "z"), key)

    if rmax(p, family, N) == 0:
        raise ValueError(f"{family}_{_cut(N)} is taut in characteristic {p}; no chart here")

    if family == "D":
        # P = x^2*y (+ x*y^m for even N), Q = (y^m for odd N) + x*y^(m-r) when r >= 1 or unified
        m = N // 2
        P = {(2, 1): 1, (1, m): 1} if N % 2 == 0 else {(2, 1): 1}
        Q = {} if N % 2 == 0 else {(0, m): 1}
        if r or unified:
            Q[1, m - r] = 1
        return ChartRing(p, 2, xy(P), xy(Q), ("x", "y", "z"), key)

    c, P, Q, added = _E_CHARTS[p, N]
    extra = (added[r - 1],) if r else ()  # a coindex the row does not list raises here
    P, Q = (P, Q + extra) if p == 2 else (P + extra, Q)
    return ChartRing(p, 2, xy(dict.fromkeys(P, c)), xy(dict.fromkeys(Q, c)), ("x", "y", "z"), key)


def catalog_coindexes(p: int, family: str, N: int) -> list:
    """All coindexes r admitting a catalog equation: 0..rmax."""
    return list(range(rmax(p, family, N) + 1))


class QuotientCase(FrozenRecord):
    """Chart data of one quotient map pi: Spec A -> Spec A^(ideal).

    source carries the singularity downstairs, target the (smooth or
    smaller) cover chart; rmap sends source coordinates into the target.
    n_expected is the Witt length at which the pullback of the torsion
    generator becomes V^(n-1) of a generator.  Two cases are equal when
    their case_id, p, group, symbol and n_expected are.
    """

    __slots__ = ("case_id", "p", "group", "symbol", "source", "target", "rmap",
                 "n_expected", "eps", "predicted_gen")
    _key = attrgetter("case_id", "p", "group", "symbol", "n_expected")

    def __init__(self, case_id: int, p: int, group: str, symbol: str, source: ChartRing,
                 target: ChartRing, rmap: RingMap, n_expected: int, eps: ChartElem,
                 predicted_gen: ChartElem):
        self._fill(case_id, p, group, symbol, source, target, rmap, n_expected, eps,
                   predicted_gen)


def quotient_case(p: int, group: str, symbol: str) -> QuotientCase:
    """Instantiate one of the five quotient-map chart computations.

    (p, mu, A{p-1})        z^p = xy, x -> U^p, y -> V^p, z -> UV
    (2, alpha, D{2^n})     n >= 2, x -> U^2, y -> V^2, z -> U^2 V + U V^(2^(n-1))
    (3, alpha, E6)         x -> u, y -> v^3, z -> w (u + v^4)
    (2, alpha, E8)         x -> U^2, y -> V^2, z -> U^3 + V^5
    (5, alpha, E8)         x -> u^5, y -> v, z -> w (v - u^3)^2

    Each case states its charts, the images of x, y, z, n and the coefficient
    of its generator; the map, eps = [x^-1 y^-1 z^(d-1)] and the predicted
    generator c * U^-1 V^-1 W^(e-1) upstairs are built from them.
    """
    family, N = parse_symbol(symbol)
    key = f"quot:{p}:{group}:{symbol}"

    def cover():  # the rank-1 cover F_p[X^(+-1), Y^(+-1)]
        return ChartRing(p, 1, labels=("X", "Y"), key=key + ":cover")

    coeff = 1
    if group == "mu":
        if family != "A" or N != p - 1:
            raise ValueError(_cut(f"mu_{p} quotient chart needs A_{p-1}, got {symbol}"))
        case_id, n = 1, 1
        source, target = rdp_chart(RdpSpec(p, "A", p - 1, 0)), cover()
        images = (p, 0), (0, p), {(1, 1, 0): 1}
    elif group != "alpha":
        raise ValueError(f"unknown group {_cut(repr(group))}; use mu or alpha")
    elif p == 2 and family == "D":
        n = N.bit_length() - 1
        if N != 1 << n or n < 2:
            raise ValueError(f"alpha_2 quotient chart needs D_(2^n), got {_cut(symbol)}")
        case_id = 2
        source, target = rdp_chart(RdpSpec(2, "D", N, 0)), cover()
        images = (2, 0), (0, 2), {(2, 1, 0): 1, (1, 1 << (n - 1), 0): 1}
    elif p == 2 and (family, N) == ("E", 8):
        case_id, n = 4, 4
        source, target = rdp_chart(RdpSpec(2, "E", 8, 0)), cover()
        images = (2, 0), (0, 2), {(3, 0, 0): 1, (0, 5, 0): 1}
    elif p == 3 and (family, N) == ("E", 6):
        case_id, n, coeff = 3, 2, -1
        source = rdp_chart(RdpSpec(3, "E", 6, 0))
        # Z^2 = x + Y^4
        target = ChartRing(3, 2, MultiPoly(("x", "Y"), {(1, 0): 1, (0, 4): 1}, 3), None,
                           ("x", "Y", "Z"), key + ":cover")
        images = (1, 0), (0, 3), {(1, 0, 1): 1, (0, 4, 1): 1}  # w*(u + v^4)
    elif p == 5 and (family, N) == ("E", 8):
        case_id, n, coeff = 5, 2, -1
        # proof coordinates use z^2 = y^5 - x^3 = y^5 + 4*x^3, not the catalog sign;
        # the cover is Z^2 = y + 4*X^3
        source = ChartRing(5, 2, MultiPoly(("x", "y"), {(0, 5): 1, (3, 0): 4}, 5), None,
                           ("x", "y", "z"), key + ":base")
        target = ChartRing(5, 2, MultiPoly(("X", "y"), {(0, 1): 1, (3, 0): 4}, 5), None,
                           ("X", "y", "Z"), key + ":cover")
        # w*(v - u^3)^2 = w*(v^2 - 2 u^3 v + u^6)
        images = (5, 0), (0, 1), {(0, 2, 1): 1, (3, 1, 1): 3, (6, 0, 1): 1}
    else:
        raise ValueError(_cut(f"no quotient chart for (p={p}, {group}, {symbol})"))

    image_x, image_y, image_z = images
    rmap = RingMap(source, target, image_x, image_y, ChartElem(target, image_z))
    eps = source.monomial(1, -1, -1, source.wdeg - 1)
    predicted = target.monomial(coeff, -1, -1, target.wdeg - 1)
    return QuotientCase(case_id, p, group, symbol, source, target, rmap, n, eps, predicted)


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
