import random

import pytest

from rdpk3.chartring import (
    ALL_QUOTIENT_KEYS,
    ChartElem,
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
from rdpk3.ffpoly import MultiPoly
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
    assert rmax(2, "E", 8) == 4
    assert rmax(2, "E", 7) == 3
    assert rmax(2, "E", 6) == 1
    assert rmax(3, "E", 8) == 2
    assert rmax(5, "E", 8) == 1
    assert rmax(3, "D", 12) == 0
    assert rmax(7, "E", 8) == 0
    assert rmax(2, "A", 20) == 0


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
