"""Canonical forms in Witt-vector-valued local cohomology of chart rings.

For a chart ring A with coordinates (u, v, w), the degree-2 local
cohomology of W_n(A) supported at the origin is presented by the Cech
complex of the covering by u != 0 and v != 0:

    H^2 = W_n(A[1/(uv)]) / (W_n(A[1/u]) + W_n(A[1/v])).

Every class has a unique representative all of whose components are
residual, i.e. sums of monomials u^i v^j w^c with i < 0 and j < 0: the
monomials with j >= 0 lie in A[1/u], those with i >= 0 and j < 0 lie in
A[1/v], and peeling components from the bottom (the 0-th component of a
Witt sum determines the summands' 0-th components additively) shows a
residual vector lying in the denominator subgroup must vanish.  reduce
computes that representative by tail subtraction of a Teichmuller lift:
x - V^i[t] changes only positions >= i, as (x_i, ..., x_{n-1}) - [t] in
W_{n-i}.  That difference y is one straight-line program per (p, m), a
triangular solve of x = y + [t] (witt._teich_sub): y_0 = x_0 - t, and
each y_k is x_k minus a carry polynomial in y_0, ..., y_{k-1}, t in
Horner form; at the last position (m = 1) it is plain x - t, so no call
is made there.  An empty component is skipped, and a part that is the
whole component (found by counting terms) just zeroes it.  The last
component is carried only by its residual part: it enters every tail
op linearly, no carry reads it, and reduce keeps only its residual part,
which is additive.  So the products that reach it only through + and -
multiply just the factor terms that can reach a residual monomial; the
w-relation has nonnegative u and v exponents, so folding w^d never makes
a non-residual monomial residual.
The class operations (Frobenius, pullback along suitable ring maps,
scalar multiplication, V and R) act on representatives and re-reduce;
Frobenius goes through the linear map ChartElem.frobenius.  R keeps the
first components and commutes with the others, so torsion_length reads
the torsion test at every shorter length off one class.
"""

from __future__ import annotations

from typing import Sequence

from .chartring import ChartElem, ChartRing, RingMap
from .ffpoly import _cut
from .witt import WittVec, _teich_sub, check_supported


class IdealSpec:
    """A finitely generated ideal given by chart elements.

    Generators must have nonnegative exponents (honest ring elements).
    """

    __slots__ = ("ring", "generators")

    def __init__(self, generators: Sequence[ChartElem]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("ideal needs at least one generator")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise ValueError("generators live in different rings")
            if not g.has_nonnegative_exponents():
                raise ValueError(f"generator {g} has negative exponents")
        self.ring = ring
        self.generators = gens

    @classmethod
    def maximal(cls, ring: ChartRing) -> "IdealSpec":
        """The ideal generated by all designated coordinates."""
        return cls(tuple(ring.designated().values()))

    @classmethod
    def coordinate_power(cls, ring: ChartRing, j: int) -> "IdealSpec":
        """(u, v^j, w): the ideal attached to the index-j torsion classes."""
        if j < 1:
            raise ValueError("power index must be >= 1")
        if ring.wdeg < 2:
            raise ValueError("this ideal shape needs a chart with w")
        return cls((
            ring.monomial(1, 1, 0),
            ring.monomial(1, 0, j),
            ring.monomial(1, 0, 0, 1),
        ))

    def __repr__(self):
        return "IdealSpec(" + ", ".join(str(g) for g in self.generators) + ")"


class CohClass:
    """A local cohomology class in canonical (residual) form."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: ChartRing, components: Sequence[ChartElem]):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        check_supported(ring.p, len(comps))
        for c in comps:
            if c.ring != ring:
                raise ValueError("component lives in the wrong ring")
            if not c.is_residual():
                raise ValueError(
                    f"component {c} is not residual; classes must be reduced"
                )
        self.ring = ring
        self.components = comps

    @property
    def n(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, CohClass)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.components))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self):
        return f"CohClass{self}"


_ORDERS = (("xi", "eta"), ("eta", "xi"))


def class_of(elem: ChartElem, n: int = 1) -> CohClass:
    """The class of (elem, 0, ..., 0) in length-n cohomology, for a supported length n."""
    ring = elem.ring
    if type(n) is not int:
        raise ValueError(f"length n={_cut(repr(n))} is not an int")
    check_supported(ring.p, n)
    vec = [elem] + [ring.zero()] * (n - 1)
    return reduce(vec)


def reduce(components, order=("xi", "eta")) -> CohClass:
    """Canonical residual representative of a Witt vector of elements.

    Walks the components bottom up; at position i the non-residual parts
    xi (in A[1/u]) and eta (in A[1/v]) are removed by tail subtraction
    of a Teichmuller lift: x - V^i[t] keeps x_0, ..., x_{i-1} and
    replaces the tail by (x_i, ..., x_{n-1}) - [t] in W_{n-i}, solved
    level by level from x = y + [t].  That changes position i by exactly
    -t and touches only positions >= i, so each pass leaves the residual
    part rho at position i.  No tail op is made at the last position,
    where rho is put in, nor for a part that is all of x_i, as x = [x_i]
    + V(x_{i+1}, ...) makes x - V^i[x_i] just x with x_i zero.  A part's
    terms are a subset of x_i's, so it is all of x_i when the two have
    equally many terms.  An empty component is skipped: it has no part
    to remove and stays empty, at the last position too.  Only the
    residual part of the last component is kept, and each tail op
    changes it by a signed sum of products that no carry reads, so those
    products are made by _residual_mul, which keeps only the terms of
    their factors that can reach a residual monomial; the last component
    is exact up to non-residual terms until its final split.  The
    result is independent of the subtraction order within a position;
    order is exposed for the cross-check tests.  The input is checked up
    front, so the class is built without CohClass()'s checks.
    """
    comps = list(components.components if isinstance(components, WittVec) else components)
    if not isinstance(order, (tuple, list)) or tuple(order) not in _ORDERS:
        raise ValueError(f"order {order!r} is not a permutation of ('xi', 'eta')")
    if not comps:
        raise ValueError("need at least one component")
    ring = comps[0].ring if isinstance(comps[0], ChartElem) else None
    for i, c in enumerate(comps):
        if not isinstance(c, ChartElem) or (c.ring is not ring and c.ring != ring):
            where = "a chart ring" if ring is None else repr(ring)
            raise ValueError(f"component {i} ({c!r}) is not an element of {where}")
    p = ring.p
    n = len(comps)
    check_supported(p, n)
    xi_first = order[0] == "xi"
    for i in range(n - 1):
        if not comps[i].terms:
            continue
        xi, eta, _rho = comps[i].split()
        for part in (xi, eta) if xi_first else (eta, xi):
            if len(part.terms) == len(comps[i].terms):
                comps[i] = ring.zero()  # x - V^i[x_i] = (..., x_{i-1}, 0, x_{i+1}, ...)
            elif part.terms:
                comps[i:] = _teich_sub(p, n - i)(*comps[i:], part, _last_mul=_residual_mul)
    if comps[-1].terms:
        comps[-1] = comps[-1].split()[2]
    return _wrap(ring, tuple(comps))


def _residual_mul(a, b):
    """A product with the residual part of a * b, made from the terms that can reach it.

    A factor is a chart element or an int constant.  The w-relation has
    nonnegative u and v exponents, so a pair of terms whose u (or v)
    exponents sum to >= 0 gives only non-residual monomials.  Hence a
    factor's terms with i >= -min_i(other) or j >= -min_j(other) are
    dropped: a's against b, then b's against what is left of a, whose
    bounds may be higher.  The rest is multiplied by the ordinary *, and
    a factor left empty gives zero with no product.
    """
    if not isinstance(a, ChartElem):
        if not isinstance(b, ChartElem):
            return a * b
        a = b._coerce(a)
    elif not isinstance(b, ChartElem):
        b = a._coerce(b)
    a = _reaching(a, b)
    b = _reaching(b, a)
    return a * b if a.terms and b.terms else a._raw({})


def _reaching(x: ChartElem, y: ChartElem) -> ChartElem:
    """The terms of x whose product with some term of y can be residual; y itself if it is empty."""
    if not y.terms:
        return y
    bound_i = -min([i for i, _j, _c in y.terms])
    bound_j = -min([j for _i, j, _c in y.terms])
    kept = {key: c for key, c in x.terms.items() if key[0] < bound_i and key[1] < bound_j}
    return x if len(kept) == len(x.terms) else x._raw(kept)


def _wrap(ring: ChartRing, components: tuple) -> CohClass:
    """The class of residual components of ring, not checked again."""
    e = object.__new__(CohClass)
    e.ring = ring
    e.components = components
    return e


def frobenius_class(e: CohClass) -> CohClass:
    """The class of the componentwise p-th power: the Witt Frobenius over F_p.

    On a chart ring c^p is c at u^p, v^p, w^p (Serre, Local Fields, II 6),
    a linear map term by term (ChartElem.frobenius), so no product is made.
    """
    return reduce([c.frobenius() for c in e.components])


def pullback_class(rmap: RingMap, e: CohClass) -> CohClass:
    """Pull a class back along a ring map with split coordinate images.

    Well-definedness on classes needs the map to send the two Cech
    coordinates to powers of the respective target coordinates (so each
    localization maps into the matching one); enforced here.
    """
    if e.ring != rmap.source:
        raise ValueError("class lives in the wrong ring")
    if rmap.image_u[1] != 0 or rmap.image_v[0] != 0:
        raise ValueError(
            "pullback needs u -> U-power and v -> V-power images; "
            f"got {rmap.image_u} and {rmap.image_v}"
        )
    return reduce([rmap.apply(c) for c in e.components])


def scalar_mul_class(g: ChartElem, e: CohClass) -> CohClass:
    """Multiply by the constant Witt lift (g, 0, ..., 0).

    The lift acts componentwise through its p-power twists:
    (g, 0, ...) * (e_0, ..., e_{n-1}) = (g e_0, g^p e_1, ..., g^{p^i} e_i),
    an identity of the ghost coordinates.  Zero components stay zero, so
    g^{p^i} = F^i(g) (ChartElem.frobenius) is taken only up to the last
    nonzero one.
    """
    if g.ring != e.ring:
        raise ValueError("scalar lives in the wrong ring")
    if not g.has_nonnegative_exponents():
        raise ValueError("scalar must have nonnegative exponents")
    comps = e.components
    out = list(comps)
    power = g
    last = max((i for i, c in enumerate(comps) if c.terms), default=-1)
    for i in range(last + 1):
        if i:
            power = power.frobenius()
        if comps[i].terms:
            out[i] = power * comps[i]
    return reduce(out)


def r_class(e: CohClass, n: int | None = None) -> CohClass:
    """Restrict to length n, by default e.n - 1, by keeping the first n components.

    R is a ring map that commutes with reduce, F and the products by Witt
    lifts, so the restriction of any of those is read off, not recomputed.
    """
    n = e.n - 1 if n is None else n
    if not 1 <= n <= e.n:
        raise ValueError(f"cannot restrict a class of length {e.n} to length {n}")
    return _wrap(e.ring, e.components[:n])


def is_torsion(e: CohClass, ideal: IdealSpec) -> bool:
    """Annihilation test for a class against an ideal.

    Checks that every generator's constant lift kills the class and, in
    length >= 2, that the Frobenius of the restriction vanishes; the
    latter makes all V-shifted multipliers act by zero (projection
    formula), so together these cover the whole ideal's Witt lifts.
    """
    if ideal.ring != e.ring:
        raise ValueError("ideal lives in the wrong ring")
    for g in ideal.generators:
        if not scalar_mul_class(g, e).is_zero():
            return False
    if e.n >= 2 and not frobenius_class(r_class(e)).is_zero():
        return False
    return True


def torsion_length(e: CohClass, ideal: IdealSpec, fe: CohClass) -> int:
    """The largest k <= e.n for which is_torsion(R^(e.n - k) e, ideal) holds.

    fe is frobenius_class(e), which every caller also reads records off.
    Torsion is read off the full length by R: a generator's lift kills
    R^(n-k) e when its product with e has k leading zero components, and
    F(R^(n-k+1) e) vanishes when F(e) has k - 1.
    """
    if ideal.ring != e.ring:
        raise ValueError("ideal lives in the wrong ring")

    def zeros(c: CohClass) -> int:
        return next((i for i, x in enumerate(c.components) if x.terms), c.n)

    return min([zeros(scalar_mul_class(g, e)) for g in ideal.generators] + [zeros(fe) + 1])
