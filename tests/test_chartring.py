import random
import re

import pytest

from rdpk3.chartring import (
    ALL_QUOTIENT_KEYS,
    ChartElem,
    ChartRing,
    RdpSpec,
    RingMap,
    catalog_coindexes,
    chart_from_key,
    parse_rdp_key,
    quotient_case,
    quotient_case_from_key,
    rdp_chart,
    rmax,
)
from rdpk3.ffpoly import MultiPoly, parse_poly
from rdpk3.localcoh import frobenius_class, reduce
from rdpk3.witt import SUPPORTED_RANGES

COINDEXED = [
    (2, "D", 4), (2, "D", 5), (2, "D", 12), (2, "D", 13),
    (2, "E", 6), (2, "E", 7), (2, "E", 8),
    (3, "E", 6), (3, "E", 7), (3, "E", 8), (5, "E", 8),
]


def frobenius_map(ring):
    """The oracle: the absolute Frobenius u -> u^p, v -> v^p, w -> w^p as a ring map.

    RingMap checks at construction that w^p satisfies the relation.
    """
    p = ring.p
    iw = ring.monomial(1, 0, 0, 1) ** p if ring.wdeg >= 2 else None
    return RingMap(ring, ring, (p, 0), (0, p), iw)


def catalog_charts():
    """Every catalog chart: both D_N^0 equations, A_{p-1}, quotient sources and covers."""
    rings = []
    for p, fam, N in COINDEXED:
        for r in catalog_coindexes(p, fam, N):
            rings.append(rdp_chart(RdpSpec(p, fam, N, r)))
            if r == 0:
                rings.append(rdp_chart(RdpSpec(p, fam, N, 0), unified=True))
    rings += [chart_from_key(f"{p}:A{p - 1}") for p in (2, 3, 5, 7)]
    for key in ALL_QUOTIENT_KEYS:
        case = quotient_case_from_key(key)
        rings += [case.source, case.target]
    return rings


def random_elem(ring, rng):
    terms = {
        (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(ring.wdeg)):
            rng.randrange(1, ring.p)
        for _ in range(rng.randrange(5))
    }
    return ChartElem(ring, terms)


def test_coindex_bounds():
    assert rmax(2, "D", 12) == 5
    assert rmax(2, "D", 13) == 5
    assert rmax(3, "D", 12) == 0
    assert rmax(2, "A", 20) == 0
    # every E type in characteristic 2, 3, 5 and 7 (Artin's normal forms)
    assert {(p, N): rmax(p, "E", N) for p in (2, 3, 5, 7) for N in (6, 7, 8)} == {
        (2, 6): 1, (2, 7): 3, (2, 8): 4,
        (3, 6): 1, (3, 7): 1, (3, 8): 2,
        (5, 6): 0, (5, 7): 0, (5, 8): 1,
        (7, 6): 0, (7, 7): 0, (7, 8): 0,
    }


def test_a_coindex_the_catalog_does_not_list_raises():
    """A coindex past rmax, on a spec made without RdpSpec's check, is refused, not built as r = 0."""
    for p, N in ((2, 7), (2, 8), (3, 8), (5, 8)):
        spec = object.__new__(RdpSpec)
        spec._fill(p, "E", N, rmax(p, "E", N) + 1)
        with pytest.raises(IndexError):
            rdp_chart(spec)


def test_catalog_coindexes_match_bound():
    for p, fam, N in COINDEXED:
        idx = catalog_coindexes(p, fam, N)
        assert idx == list(range(rmax(p, fam, N) + 1)), (p, fam, N)


def test_every_catalog_chart_constructs():
    """Each listed chart builds, and its relation survives the map check."""
    for ring in catalog_charts():
        frobenius_map(ring)


def test_catalog_charts_are_built_once_and_shared():
    spec = RdpSpec(2, "D", 12, 3)
    assert rdp_chart(spec) is rdp_chart(RdpSpec(2, "D", 12, 3))
    # the flag changes the equation only at r = 0
    assert rdp_chart(spec, unified=True) is rdp_chart(spec)
    d0 = RdpSpec(2, "D", 12, 0)
    assert rdp_chart(d0, unified=True) is not rdp_chart(d0)
    assert rdp_chart(d0, unified=True) != rdp_chart(d0)
    assert chart_from_key("2:D12:0", unified=True) is rdp_chart(d0, unified=True)


def _text_relations(spec, unified):
    """The oracle: (wdeg, P, Q) of a catalog chart as the text relations the catalog once parsed."""
    p, family, N, r = spec.p, spec.family, spec.N, spec.r
    if family == "A":
        return (p if p > 2 else 2), "x*y", "0"
    if family == "D":
        m = N // 2
        if N % 2 == 0:
            q = f"x*y^{m - r}" if r >= 1 else f"x*y^{m}" if unified else "0"
            return 2, f"x^2*y + x*y^{m}", q
        q = f"y^{m} + x*y^{m - r}" if r >= 1 else f"y^{m} + x*y^{m}" if unified else f"y^{m}"
        return 2, "x^2*y", q
    if p == 2:
        if N == 6:
            return 2, "x^3", "y^2 + x*y" if r == 1 else "y^2"
        if N == 7:
            return 2, "x^3 + x*y^3", {3: "x*y", 2: "y^3", 1: "x^2*y"}.get(r, "0")
        return 2, "x^3 + y^5", {4: "x*y", 3: "y^3", 2: "x*y^2", 1: "x*y^3"}.get(r, "0")
    if p == 3:
        if N == 6:
            return 2, "x^3 + y^4" + (" + x^2*y^2" if r == 1 else ""), "0"
        if N == 7:
            return 2, "x^3 + x*y^3" + (" + x^2*y^2" if r == 1 else ""), "0"
        return 2, "x^3 + y^5" + {2: " + x^2*y^2", 1: " + x^2*y^3"}.get(r, ""), "0"
    return 2, "4*x^3 + 4*y^5" + (" + 4*x*y^4" if r == 1 else ""), "0"


def _text_catalog():
    """(spec, unified) of every chart the text oracle covers."""
    specs = [(RdpSpec(p, "A", p - 1, 0), False) for p in (2, 3, 5, 7)]
    for p, family, Ns in ((2, "D", range(4, 41)), (2, "E", (6, 7, 8)), (3, "E", (6, 7, 8)),
                          (5, "E", (8,))):
        for N in Ns:
            for r in catalog_coindexes(p, family, N):
                specs.append((RdpSpec(p, family, N, r), False))
                if family == "D" and r == 0:
                    specs.append((RdpSpec(p, family, N, r), True))
    return specs


def test_catalog_relations_built_from_exponents_equal_the_text_relations():
    """Every catalog chart reads as its text relations would, term order included."""
    specs = _text_catalog()
    # A; D_4..D_40 with floor(N/2) coindexes each and a second r = 0 equation; E in char 2, 3, 5
    assert len(specs) == 4 + (398 + 37) + 11 + 7 + 2
    for spec, unified in specs:
        ring = rdp_chart(spec, unified=unified)
        wdeg, p_text, q_text = _text_relations(spec, unified)
        want_p = parse_poly(p_text, variables=("x", "y"), modulus=spec.p)
        want_q = parse_poly(q_text, variables=("x", "y"), modulus=spec.p)
        want = ChartRing(spec.p, wdeg, want_p, want_q, ("x", "y", "z"), str(spec))
        got = (ring.rel_p, ring.rel_q, ring.wdeg, ring.labels, ring.key, ring.relation_str())
        assert got == (want.rel_p, want.rel_q, want.wdeg, want.labels, want.key,
                       want.relation_str()), (spec, unified)
        assert list(ring.rel_p.terms.items()) == list(want_p.terms.items()), (spec, unified)
        assert list(ring.rel_q.terms.items()) == list(want_q.terms.items()), (spec, unified)


@pytest.mark.parametrize("key, which, text", [
    ("quot:3:alpha:E6", "target", "x + Y^4"),
    ("quot:5:alpha:E8", "source", "y^5 + 4*x^3"),
    ("quot:5:alpha:E8", "target", "y + 4*X^3"),
])
def test_quotient_relations_built_from_exponents_equal_the_text_relations(key, which, text):
    ring = getattr(quotient_case_from_key(key), which)
    want = parse_poly(text, variables=ring.labels[:2], modulus=ring.p)
    assert list(ring.rel_p.terms.items()) == list(want.terms.items())
    assert ring.rel_q.is_zero()


def test_relation_rewriting():
    ring = chart_from_key("2:D12:3")
    d = ring.designated()
    x, y, z = d["x"], d["y"], d["z"]
    assert z * z == x * x * y + x * y**6 + x * y**3 * z
    assert ring.relation_str() == "z^2 = x*y^6 + x^2*y + (x*y^3)*z"


def test_power_rewriting_cubic_relation():
    ring = chart_from_key("3:A2:0")
    d = ring.designated()
    x, y, z = d["x"], d["y"], d["z"]
    assert z**3 == x * y
    assert z**4 == x * y * z
    assert z**7 == x**2 * y**2 * z


def test_split_into_regions():
    ring = chart_from_key("2:D12:3")
    e = ChartElem(ring, {(-1, -2, 1): 1, (3, -1, 0): 1, (2, 5, 1): 1, (-4, 0, 0): 1})
    xi, eta, rho = e.split()
    assert xi + eta + rho == e
    assert set(xi.terms) == {(2, 5, 1), (-4, 0, 0)}
    assert set(eta.terms) == {(3, -1, 0)}
    assert set(rho.terms) == {(-1, -2, 1)}


def test_split_parts_are_disjoint():
    ring = chart_from_key("2:E8:0")
    for terms in ({(0, -1, 0): 1}, {(-2, 3, 1): 1}, {(0, 0, 0): 1}):
        e = ChartElem(ring, terms)
        parts = e.split()
        nonzero = [p for p in parts if not p.is_zero()]
        assert len(nonzero) == 1
        assert nonzero[0] == e


def test_ring_operation_results_pass_the_public_constructor():
    """Results built without the w-exponent check would pass it, reduced and without zeros."""
    rng = random.Random(16)
    for ring in catalog_charts():
        p = ring.p
        for _ in range(3):
            a, b = random_elem(ring, rng), random_elem(ring, rng)
            for r in (a + b, a - b, b - a, -a, a * b, a**p, a.frobenius(), *a.split()):
                assert r.ring is ring
                assert ChartElem(r.ring, r.terms).terms == r.terms, ring
                assert all(1 <= c < p for c in r.terms.values()), ring
        # the range is checked on every key, also where the coefficient is 0 mod p
        for c in (-1, max(ring.wdeg, 1)):
            for coeff in (1, 0, p):
                with pytest.raises(ValueError, match=f"w-exponent {c} out of range"):
                    ChartElem(ring, {(0, 0, c): coeff})


@pytest.mark.parametrize("key", [(0.5, 1, 0), (1, 2.0, 0), (0, 0, 0.0), (True, 0, 0)])
@pytest.mark.parametrize("coeff", [1, 0])
def test_chart_elem_refuses_exponents_that_are_not_ints(key, coeff):
    ring = chart_from_key("2:D12:3")
    with pytest.raises(ValueError, match="has an exponent that is not an int"):
        ChartElem(ring, {key: coeff})


@pytest.mark.parametrize("coeff", [1.5, 2.0, 0.0, True, False, "1", None])
def test_chart_elem_refuses_coefficients_that_are_not_ints(coeff):
    ring = chart_from_key("2:D12:3")
    message = f"coefficient {coeff!r} of monomial (0, 1, 1) is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChartElem(ring, {(0, 1, 1): coeff})
    message = f"coefficient {coeff!r} of monomial (1, 1, 0) is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ring.monomial(coeff, 1, 1)


def test_monomial_checks_its_w_exponent_in_the_constructor():
    ring = chart_from_key("3:A2")
    for c in (-1, 3):
        with pytest.raises(ValueError, match=f"^w-exponent {c} out of range for wdeg 3$"):
            ring.monomial(1, 0, 0, c)


def per_pair_mul(a, b):
    """The oracle: every term pair reaching w^d rewritten through the relation on its own."""
    ring = a.ring
    d = ring.wdeg
    terms = {}
    for (i1, j1, c1), k1 in a.terms.items():
        for (i2, j2, c2), k2 in b.terms.items():
            i, j, c = i1 + i2, j1 + j2, c1 + c2
            if c < d:
                terms[i, j, c] = terms.get((i, j, c), 0) + k1 * k2
            else:
                for (di, dj, dc), rc in ring._rel_terms:
                    key = (i + di, j + dj, c - d + dc)
                    terms[key] = terms.get(key, 0) + k1 * k2 * rc
    return ChartElem(ring, terms)


@pytest.mark.parametrize("key", ["2:D9:2", "2:D12:0", "3:E6:1", "2:E8:3", "quot:3:mu:A2:cover", "3:A2", "5:A4"])
def test_product_folding_the_relation_once_agrees_with_the_per_pair_rewrite(key):
    """D, E, the rank-1 cover of a mu quotient and A_{p-1} (w^p = xy), with products reaching w^(2d-2)."""
    rng = random.Random(f"mul-fold-{key}")
    if key.endswith(":cover"):
        ring = quotient_case_from_key(key.removesuffix(":cover")).target
    else:
        ring = chart_from_key(key)
    d = ring.wdeg

    def draw(top):
        # small exponent boxes, so term pairs collide and coefficients cancel
        terms = {(rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(d)): rng.randrange(1, ring.p)
                 for _ in range(rng.randrange(1, 7))}
        if top:
            terms[rng.randrange(-2, 3), rng.randrange(-2, 3), d - 1] = rng.randrange(1, ring.p)
        return ChartElem(ring, terms)

    for t in range(150):
        a, b = draw(t % 2 == 0), draw(t % 3 != 2)
        got = a * b
        assert got == per_pair_mul(a, b), (a, b)
        assert got.ring is ring
        assert all(0 <= c < d and k % ring.p == k != 0 for (_i, _j, c), k in got.terms.items())
    assert ring.zero() == ChartElem(ring, {}) and ring.zero().ring is ring


def test_frobenius_on_elements():
    ring = chart_from_key("2:D12:3")
    d = ring.designated()
    x, y, z = d["x"], d["y"], d["z"]
    fr = frobenius_map(ring)
    assert fr.apply(x + y) == x**2 + y**2
    assert fr.apply(z) == z * z
    assert fr.apply(ring.monomial(1, -1, -1, 0)) == ring.monomial(1, -2, -2, 0)


def test_p_th_power_is_the_frobenius_ring_map():
    rng = random.Random(1301)
    for ring in catalog_charts():
        fr = frobenius_map(ring)
        for _ in range(8):
            c = random_elem(ring, rng)
            assert c ** ring.p == fr.apply(c), ring


def every_chart():
    """Each (p, family, N, r) with a chart (D_N up to N = 21), A_{p-1} and the quotient covers."""
    rings = catalog_charts()
    for N in range(4, 22):
        for r in catalog_coindexes(2, "D", N):
            rings += [rdp_chart(RdpSpec(2, "D", N, r)), rdp_chart(RdpSpec(2, "D", N, r), unified=True)]
    return rings


def test_frobenius_is_the_p_th_power():
    """The term-by-term map equals c ** p, on every w-degree and negative exponents."""
    rng = random.Random(1901)
    for ring in every_chart():
        p, d = ring.p, ring.wdeg
        samples = [ring.zero(), ring.one(), -ring.one()]
        samples += [ring.monomial(k, i, j, c) for c in range(d) for i, j, k in
                    ((-3, -2, 1), (2, -5, p - 1), (0, 4, 1))]
        samples += [random_elem(ring, rng) for _ in range(10)]
        # one term at every w-degree, so products of w-powers meet the relation
        samples += [sum((ring.monomial(rng.randrange(1, p), rng.randrange(-4, 5), rng.randrange(-4, 5), c)
                         for c in range(d)), ring.zero()) for _ in range(4)]
        for c in samples:
            assert c.frobenius() == c ** p, (ring, str(c))


def test_frobenius_makes_no_products(monkeypatch):
    ring = chart_from_key("2:E8:3")
    x = ChartElem(ring, {(1, -1, 0): 1, (0, 2, 1): 1, (-1, 0, 1): 1})
    want = x ** 2

    def no_mul(a, b):
        raise AssertionError("a product in frobenius()")

    monkeypatch.setattr(ChartElem, "__mul__", no_mul)
    assert x.frobenius() == want


def test_frobenius_class_is_the_class_of_the_ring_map_images():
    rng = random.Random(1302)
    for ring in catalog_charts():
        if ring.wdeg == 1:
            continue
        fr = frobenius_map(ring)
        for n in range(1, SUPPORTED_RANGES[ring.p] + 1):
            for _ in range(3):
                e = reduce([random_elem(ring, rng) for _ in range(n)])
                assert frobenius_class(e) == reduce([fr.apply(c) for c in e.components]), (ring, n)


@pytest.mark.parametrize("key", ["2:D12:3", "3:A2"])
def test_powers_make_only_square_and_multiply_products(monkeypatch, key):
    ring = chart_from_key(key)
    x = ChartElem(ring, {(1, -1, 0): 1, (0, 2, 1): 1, (-1, 0, 1): 1})
    repeated = [x]
    for _ in range(15):
        repeated.append(repeated[-1] * x)
    products = []
    mul = ChartElem.__mul__

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(ChartElem, "__mul__", counting_mul)
    for e in range(1, 17):
        products.clear()
        assert x ** e == repeated[e - 1], e
        assert len(products) == e.bit_length() + bin(e).count("1") - 2, e


def test_zeroth_power_is_one():
    ring = chart_from_key("2:D12:3")
    assert ring.zero() ** 0 == ring.zero().ring_one() == ring.one()
    assert ring.monomial(1, -1, 2, 1) ** 0 == ring.one()
    f = MultiPoly.gen(("x", "y"), "x", 3) + MultiPoly.gen(("x", "y"), "y", 3)
    assert f ** 0 == f.ring_one() == MultiPoly(("x", "y"), {(0, 0): 1}, 3)
    assert MultiPoly.zero(("x",), None) ** 0 == MultiPoly(("x",), {(0,): 1}, None)
    with pytest.raises(ValueError, match="negative power -1 of a ChartElem"):
        ring.one() ** -1


def test_frobenius_is_multiplicative():
    ring = chart_from_key("3:E7:1")
    fr = frobenius_map(ring)
    a = ring.monomial(1, -1, 2, 1)
    b = ring.monomial(2, 1, -1, 0)
    assert fr.apply(a * b) == fr.apply(a) * fr.apply(b)
    assert fr.apply(a + b) == fr.apply(a) + fr.apply(b)


def test_quotient_cases_construct():
    assert len(ALL_QUOTIENT_KEYS) == 10
    assert len({quotient_case_from_key(k).case_id for k in ALL_QUOTIENT_KEYS}) == 5
    for key in ALL_QUOTIENT_KEYS:
        case = quotient_case_from_key(key)
        assert case.n_expected >= 1
        # the pullback of the designated class lands in the target
        pe = case.rmap.apply(case.eps)
        assert pe.ring is case.target


def test_quotient_pullback_pinned_values():
    c = quotient_case_from_key("quot:2:alpha:D8")
    assert c.rmap.apply(c.eps) == ChartElem(c.target, {(0, -1, 0): 1, (-1, 2, 0): 1})
    c = quotient_case_from_key("quot:2:alpha:E8")
    assert c.rmap.apply(c.eps) == ChartElem(c.target, {(1, -2, 0): 1, (-2, 3, 0): 1})
    c = quotient_case_from_key("quot:3:alpha:E6")
    assert c.rmap.apply(c.eps) == ChartElem(c.target, {(0, -3, 1): 1, (-1, 1, 1): 1})
    c = quotient_case_from_key("quot:5:alpha:E8")
    assert c.rmap.apply(c.eps) == ChartElem(
        c.target, {(-5, 1, 1): 1, (-2, 0, 1): 3, (1, -1, 1): 1}
    )
    c = quotient_case_from_key("quot:3:mu:A2")
    assert c.rmap.apply(c.eps) == ChartElem(c.target, {(-1, -1, 0): 1})


def per_monomial_apply(rmap, elem):
    """The oracle: one checked target monomial per term, times image_w^c, summed by +."""
    au, bu = rmap.image_u
    av, bv = rmap.image_v
    target = rmap.target
    out = target.zero()
    for (i, j, c), k in elem.terms.items():
        mono = target.monomial(k, au * i + av * j, bu * i + bv * j)
        if c:
            mono = mono * rmap.image_w ** c
        out = out + mono
    return out


def non_diagonal_maps():
    """Maps whose image matrix is not diagonal, so a transposed one sends some monomial elsewhere.

    u -> UV, v -> V and a full matrix on rank-1 charts, a rank-1 chart
    into 2:D12:3, and z^d = xy (d = 2, 3) onto a rank-1 cover by
    x -> X^d Y^d, y -> Y^d, z -> X Y^2, which keeps the relation.
    """
    maps = []
    for p in (2, 3, 5):
        cover = ChartRing(p, 1, labels=("X", "Y"))
        maps += [RingMap(cover, cover, (1, 1), (0, 1)), RingMap(cover, cover, (2, 1), (3, 5))]
    d12 = chart_from_key("2:D12:3")
    maps.append(RingMap(ChartRing(2, 1, labels=("s", "t")), d12, (1, 1), (0, 1)))
    for key in ("2:A1", "3:A2"):
        source = chart_from_key(key)
        d = source.wdeg
        cover = ChartRing(source.p, 1, labels=("X", "Y"))
        maps.append(RingMap(source, cover, (d, d), (0, d), cover.monomial(1, 1, 2)))
    return maps


def test_apply_and_frobenius_equal_the_per_monomial_apply():
    """Every quotient map, the Frobenius of every catalog chart and non-diagonal maps."""
    rng = random.Random(3801)
    maps = [quotient_case_from_key(key).rmap for key in ALL_QUOTIENT_KEYS]
    maps += [frobenius_map(ring) for ring in catalog_charts()]
    maps += non_diagonal_maps()
    for rmap in maps:
        for _ in range(12):
            e = random_elem(rmap.source, rng)
            got = rmap.apply(e)
            assert got == per_monomial_apply(rmap, e), (rmap, str(e))
            assert got.ring is rmap.target
            assert ChartElem(got.ring, got.terms).terms == got.terms
    for ring in catalog_charts():
        fr = frobenius_map(ring)
        for _ in range(12):
            e = random_elem(ring, rng)
            assert e.frobenius() == per_monomial_apply(fr, e), (ring, str(e))


def test_a_non_diagonal_map_sends_each_exponent_by_its_column():
    cover = ChartRing(2, 1, labels=("X", "Y"))
    rmap = RingMap(cover, cover, (1, 1), (0, 1))  # u -> UV, v -> V
    assert rmap.apply(cover.monomial(1, 2, -3)) == cover.monomial(1, 2, -1)
    a1 = chart_from_key("2:A1")
    rmap = RingMap(a1, cover, (2, 2), (0, 2), cover.monomial(1, 1, 2))
    assert rmap.apply(a1.monomial(1, -1, -1, 1)) == cover.monomial(1, -1, -2)


def test_ring_map_refusals():
    d12 = chart_from_key("2:D12:3")
    cover2, cover3 = ChartRing(2, 1, labels=("X", "Y")), ChartRing(3, 1, labels=("X", "Y"))
    w2 = d12.monomial(1, 0, 0, 1) ** 2
    RingMap(d12, d12, (2, 0), (0, 2), w2)  # the Frobenius is a ring map
    with pytest.raises(ValueError, match="^characteristic mismatch$"):
        RingMap(cover2, cover3, (1, 0), (0, 1))
    bad_images = [(-1, 0), (0, 0), (0, -2), (2.0, 0), (0, 1.0), (True, 0), (1, False), ("2", 0), (None, 1)]
    for bad in bad_images:
        for name, images in (("u", (bad, (0, 1))), ("v", ((1, 0), bad))):
            message = (f"image of {name} must be a unit monomial with nonnegative int exponents, "
                       f"not both zero; got exponents {bad!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RingMap(cover2, cover2, *images)
    # a float exponent is refused also where no relation is checked, on a w-free source
    with pytest.raises(ValueError, match="int exponents"):
        RingMap(cover2, d12, (2.0, 0), (0, 1))
    with pytest.raises(ValueError, match="^w needs an image$"):
        RingMap(d12, d12, (2, 0), (0, 2))
    with pytest.raises(ValueError, match="^rank-1 source has no w$"):
        RingMap(cover2, cover2, (1, 0), (0, 1), cover2.one())
    with pytest.raises(ValueError, match="^image of w lives in the wrong ring$"):
        RingMap(d12, d12, (2, 0), (0, 2), chart_from_key("2:D12:2").monomial(1, 0, 0, 1) ** 2)
    violated = [
        d12.monomial(1, 0, 0, 1),  # w -> w under u, v -> u^2, v^2
        w2 + d12.one(),  # (w^2 + 1)^2 = w^4 + 1
        d12.zero(),
    ]
    for image_w in violated:
        with pytest.raises(ValueError, match="^not a ring map: the image of w violates the source relation$"):
            RingMap(d12, d12, (2, 0), (0, 2), image_w)
    # z^3 = xy: the mu_3 quotient map, and the same with z -> XY^2
    a2 = chart_from_key("3:A2")
    RingMap(a2, cover3, (3, 0), (0, 3), cover3.monomial(1, 1, 1))
    with pytest.raises(ValueError, match="^not a ring map"):
        RingMap(a2, cover3, (3, 0), (0, 3), cover3.monomial(1, 1, 2))
    with pytest.raises(ValueError, match="^element lives in the wrong ring$"):
        frobenius_map(d12).apply(cover2.one())
    with pytest.raises(ValueError, match="^element lives in the wrong ring$"):
        frobenius_map(d12).apply(chart_from_key("2:D12:2").one())


@pytest.mark.parametrize("key, case_id, n, image_u, image_v, image_w, eps, gen", [
    ("quot:2:mu:A1", 1, 1, (2, 0), (0, 2), "X*Y", "x^-1*y^-1*z", "X^-1*Y^-1"),
    ("quot:3:mu:A2", 1, 1, (3, 0), (0, 3), "X*Y", "x^-1*y^-1*z^2", "X^-1*Y^-1"),
    ("quot:5:mu:A4", 1, 1, (5, 0), (0, 5), "X*Y", "x^-1*y^-1*z^4", "X^-1*Y^-1"),
    ("quot:7:mu:A6", 1, 1, (7, 0), (0, 7), "X*Y", "x^-1*y^-1*z^6", "X^-1*Y^-1"),
    ("quot:2:alpha:D4", 2, 2, (2, 0), (0, 2), "X^2*Y + X*Y^2", "x^-1*y^-1*z", "X^-1*Y^-1"),
    ("quot:2:alpha:D8", 2, 3, (2, 0), (0, 2), "X*Y^4 + X^2*Y", "x^-1*y^-1*z", "X^-1*Y^-1"),
    ("quot:2:alpha:D16", 2, 4, (2, 0), (0, 2), "X*Y^8 + X^2*Y", "x^-1*y^-1*z", "X^-1*Y^-1"),
    ("quot:3:alpha:E6", 3, 2, (1, 0), (0, 3), "Y^4*Z + x*Z", "x^-1*y^-1*z", "2*x^-1*Y^-1*Z"),
    ("quot:2:alpha:E8", 4, 4, (2, 0), (0, 2), "Y^5 + X^3", "x^-1*y^-1*z", "X^-1*Y^-1"),
    ("quot:5:alpha:E8", 5, 2, (5, 0), (0, 1), "X^6*Z + 3*X^3*y*Z + y^2*Z", "x^-1*y^-1*z",
     "4*X^-1*y^-1*Z"),
])
def test_quotient_cases_are_built_from_their_images(key, case_id, n, image_u, image_v, image_w, eps,
                                                    gen):
    case = quotient_case_from_key(key)
    rmap = case.rmap
    assert (case.case_id, case.n_expected, rmap.image_u, rmap.image_v) == (case_id, n, image_u, image_v)
    assert (str(rmap.image_w), str(case.eps), str(case.predicted_gen)) == (image_w, eps, gen)
    assert (rmap.source, rmap.target) == (case.source, case.target)
    assert case.eps.ring is case.source and case.predicted_gen.ring is case.target


@pytest.mark.parametrize("args, message", [
    ((4, "beta", "A3"), "unknown group 'beta'; use mu or alpha"),
    ((2, "gamma", "A1"), "unknown group 'gamma'; use mu or alpha"),
    ((65537, "mu", "A1"), "mu_65537 quotient chart needs A_65536, got A1"),
    ((3, "mu", "A1"), "mu_3 quotient chart needs A_2, got A1"),
    ((3, "mu", "D4"), "mu_3 quotient chart needs A_2, got D4"),
    ((4, "mu", "A3"), "modulus must be a prime below 2^16, got 4"),
    ((2, "alpha", "D9"), "alpha_2 quotient chart needs D_(2^n), got D9"),
    ((2, "alpha", "D2"), "D_2 is not a rational double point"),
    ((2, "gamma", "Z1"), "unknown family 'Z'"),
    ((7, "alpha", "E8"), "no quotient chart for (p=7, alpha, E8)"),
    ((3, "alpha", "E7"), "no quotient chart for (p=3, alpha, E7)"),
    ((2, "alpha", "E6"), "no quotient chart for (p=2, alpha, E6)"),
    ((5, "alpha", "E6"), "no quotient chart for (p=5, alpha, E6)"),
])
def test_quotient_case_refusals_name_the_first_bad_field(args, message):
    with pytest.raises(ValueError) as info:
        quotient_case(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("key, message", [
    ("quot:2:mu", "bad quotient key 'quot:2:mu'; expected quot:p:group:SN"),
    ("quot:2:alpha:D4:0", "bad quotient key 'quot:2:alpha:D4:0'; expected quot:p:group:SN"),
    ("foo:2:mu:A1", "bad quotient key 'foo:2:mu:A1'; expected quot:p:group:SN"),
    ("quot:x:mu:A1", "bad catalog key 'quot:x:mu:A1': prime 'x' is not an integer"),
    ("quot:4:beta:A3", "unknown group 'beta'; use mu or alpha"),
])
def test_bad_quotient_keys_are_refused(key, message):
    with pytest.raises(ValueError) as info:
        quotient_case_from_key(key)
    assert str(info.value) == message


def test_quotient_case_lookup():
    case = quotient_case(2, "alpha", "D8")
    assert (case.p, case.group, case.symbol) == (2, "alpha", "D8")
    assert case == quotient_case_from_key("quot:2:alpha:D8")
    with pytest.raises(ValueError):
        quotient_case(2, "alpha", "D9")
    with pytest.raises(ValueError):
        quotient_case_from_key("quot:7:alpha:E8")


def test_rdp_key_round_trip():
    spec = parse_rdp_key("2:D12:3")
    assert (spec.p, spec.family, spec.N, spec.r) == (2, "D", 12, 3)
    assert str(spec) == "2:D12:3"
    assert spec.symbol == "D12"
    assert parse_rdp_key("5:E8:1") == RdpSpec(5, "E", 8, 1)


def test_rdp_key_validation():
    # omitted coindex defaults to zero
    assert parse_rdp_key("2:D12") == RdpSpec(2, "D", 12, 0)
    with pytest.raises(ValueError):
        parse_rdp_key("2:D12:6")
    with pytest.raises(ValueError):
        parse_rdp_key("2:F4:0")
    with pytest.raises(ValueError):
        RdpSpec(2, "D", 3, 0)
    with pytest.raises(ValueError):
        RdpSpec(2, "E", 9, 0)


def test_charts_without_listed_form_are_refused():
    with pytest.raises(ValueError):
        rdp_chart(RdpSpec(3, "D", 12, 0))
    with pytest.raises(ValueError):
        chart_from_key("2:A20:0")


def test_monomial_arithmetic():
    ring = chart_from_key("2:E8:0")
    a = ring.monomial(1, 2, 3, 0)
    b = ring.monomial(1, -1, -1, 0)
    assert a * b == ring.monomial(1, 1, 2, 0)
    assert a + a == ring.zero()
    assert (a - a).is_zero()
    assert a * ring.one() == a
    assert a * ring.zero() == ring.zero()


def test_chart_element_equality_and_str():
    ring = chart_from_key("2:E8:0")
    e = ring.monomial(1, -1, -1, 1)
    assert e == ChartElem(ring, {(-1, -1, 1): 1})
    other = chart_from_key("2:E8:1").monomial(1, -1, -1, 1)
    assert e != other
