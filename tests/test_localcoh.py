import random
import re

import pytest

from rdpk3.chartring import (
    ALL_QUOTIENT_KEYS,
    ChartElem,
    RdpSpec,
    chart_from_key,
    parse_rdp_key,
    quotient_case_from_key,
    rdp_chart,
    rmax,
)
from rdpk3 import localcoh
from rdpk3.ffpoly import FpScalar
from rdpk3.localcoh import (
    CohClass,
    IdealSpec,
    class_of,
    frobenius_class,
    is_torsion,
    pullback_class,
    r_class,
    reduce,
    scalar_mul_class,
    torsion_length,
)
from rdpk3.reproduce import (
    CANONICITY_CHART_KEYS,
    PLUMBING,
    HypothesisError,
    _class_record,
    _random_elem,
    c_one,
    d_frobenius_sweep,
    e8_pair_sweep,
    e_frobenius_sweep,
    frobenius_check,
    quotient_pullback_check,
    reproduce_all,
)
from rdpk3.witt import SUPPORTED_RANGES, WittVec, _teich_sub, verschiebung, witt_add, witt_sub


def test_class_construction():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    e = class_of(eps, 3)
    assert e.n == 3
    assert e.components == (eps, ring.zero(), ring.zero())
    assert CohClass(ring, (ring.zero(),) * 2).is_zero()
    assert not e.is_zero()


def test_reduce_keeps_residual_part():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    e = reduce([eps, ring.zero()])
    assert e.components == (eps, ring.zero())


def test_reduce_drops_nonresidual_and_carries():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    e = reduce([ring.monomial(1, 0, -1) + eps, ring.zero()])
    assert e.components[0] == eps
    assert e.components[1] == ring.monomial(1, -1, -2, 1)


def test_reduce_order_independent():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    comps = [ring.monomial(1, 0, -1) + eps, ring.zero()]
    assert reduce(comps) == reduce(comps, order=("eta", "xi"))


def test_reduce_idempotent_on_random_inputs():
    """Canonical forms are fixed points, whatever the subtraction order."""
    rng = random.Random(31)
    ring = chart_from_key("2:D9:2")
    for _ in range(40):
        comps = []
        for _k in range(2):
            terms = {}
            for _t in range(rng.randrange(1, 4)):
                key = (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(ring.wdeg))
                terms[key] = rng.randrange(1, ring.p)
            comps.append(sum((ring.monomial(c, *k) for k, c in terms.items()), ring.zero()))
        e = reduce(comps)
        assert reduce(list(e.components)) == e
        assert reduce(comps, order=("eta", "xi")) == e


def full_vector_reduce(components, order=("xi", "eta")):
    """The oracle: reduce by witt_sub of a whole W_n vector zero off position i."""
    comps = list(components)
    ring = comps[0].ring
    p, n = ring.p, len(comps)
    zero = ring.zero()
    for i in range(n):
        xi, eta, _rho = comps[i].split()
        parts = {"xi": xi, "eta": eta}
        for name in order:
            part = parts[name]
            if part.is_zero():
                continue
            vec = [zero] * n
            vec[i] = part
            comps = list(witt_sub(WittVec(p, comps), WittVec(p, vec)).components)
    return CohClass(ring, comps)


ORACLE_CHARTS = (
    "2:D9:2", "2:D12:0", "2:E7:3", "2:E8:0", "2:A1",
    "3:E6:1", "3:E8:2", "3:A2", "5:E8:1", "5:A4", "7:A6",
)


@pytest.mark.parametrize("key", ORACLE_CHARTS)
def test_reduce_agrees_with_the_full_vector_reduce(key):
    """Tail subtraction of a Teichmuller lift gives the full-vector result."""
    rng = random.Random(f"reduce-oracle-{key}")
    ring = chart_from_key(key)
    for n in range(1, SUPPORTED_RANGES[ring.p] + 1):
        for _ in range(10):
            comps = []
            for _k in range(n):
                terms = {
                    (rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(ring.wdeg)):
                        rng.randrange(1, ring.p)
                    for _t in range(rng.randrange(0, 4))
                }
                comps.append(sum((ring.monomial(c, *k) for k, c in terms.items()), ring.zero()))
            for order in (("xi", "eta"), ("eta", "xi")):
                assert reduce(comps, order=order) == full_vector_reduce(comps, order), (n, order)


def tail_op_reduce(components, order=("xi", "eta")):
    """The oracle: the tail op at every position, the last one too, and a checked CohClass."""
    comps = list(components)
    ring = comps[0].ring
    p, n = ring.p, len(comps)
    for i in range(n):
        xi, eta, _rho = comps[i].split()
        parts = {"xi": xi, "eta": eta}
        for name in order:
            if not parts[name].is_zero():
                comps[i:] = _teich_sub(p, n - i)(*comps[i:], parts[name])
    return CohClass(ring, comps)


@pytest.mark.parametrize("key", CANONICITY_CHART_KEYS)
def test_reduce_agrees_with_the_tail_op_at_every_position(key):
    """Putting rho at the last position, unchecked, gives the old checked class.

    The vectors are those of the canonicity trials: random elements,
    and the same plus one vector from each localized subring.
    """
    rng = random.Random(f"reduce-last-position-{key}")
    ring = rdp_chart(parse_rdp_key(key))
    for n in range(1, SUPPORTED_RANGES[ring.p] + 1):
        for _ in range(6):
            comps = [_random_elem(ring, rng) for _ in range(n)]
            shifted = WittVec(ring.p, tuple(comps))
            for region in ("xi", "eta"):
                extra = [_random_elem(ring, rng, region) for _ in range(n)]
                shifted = witt_add(shifted, WittVec(ring.p, tuple(extra)))
            for vec, plain in ((comps, comps), (shifted, list(shifted.components))):
                for order in (("xi", "eta"), ("eta", "xi")):
                    got = reduce(vec, order)
                    assert got == tail_op_reduce(plain, order), (n, order)
                    assert got.ring is ring and type(got.components) is tuple


def test_reduce_makes_no_tail_op_for_a_part_that_is_a_whole_component(monkeypatch):
    """x = [x_0] + V(x_1, ...), so x - [x_0] is x with x_0 zero: no W_n op is needed."""
    rng = random.Random("reduce-whole-part")
    ring = rdp_chart(parse_rdp_key(CANONICITY_CHART_KEYS[0]))
    n = min(3, SUPPORTED_RANGES[ring.p])
    lengths = []

    def recorded(p, m):
        lengths.append(m)
        return _teich_sub(p, m)

    monkeypatch.setattr(localcoh, "_teich_sub", recorded)
    for region in ("xi", "eta"):
        for order in (("xi", "eta"), ("eta", "xi")):
            comps = [_random_elem(ring, rng, region)] + [_random_elem(ring, rng) for _ in range(n - 1)]
            lengths.clear()
            assert reduce(comps, order) == tail_op_reduce(comps, order), (region, order)
            assert n not in lengths, (region, order)


def split_every_position_reduce(components, order):
    """The oracle: the loop that splits every position, the empty ones too, and compares parts by ==."""
    comps = list(components)
    ring = comps[0].ring
    p, n = ring.p, len(comps)
    for i in range(n - 1):
        xi, eta, _rho = comps[i].split()
        for part in (xi, eta) if order[0] == "xi" else (eta, xi):
            if part == comps[i]:
                comps[i] = ring.zero()
            elif part.terms:
                comps[i:] = _teich_sub(p, n - i)(*comps[i:], part)
    comps[-1] = comps[-1].split()[2]
    return CohClass(ring, comps)


def ring_of(key):
    """A catalog chart, or the rank-1 cover of a quotient case for a key ending in :cover."""
    if key.endswith(":cover"):
        return quotient_case_from_key(key.removesuffix(":cover")).target
    return chart_from_key(key)


@pytest.mark.parametrize("key", ["quot:2:mu:A1:cover", "quot:3:mu:A2:cover", "2:D9:2", "2:E8:0",
                                 "3:E6:1", "5:E8:1", "3:A2", "5:A4"])
def test_reduce_skipping_empty_components_agrees_with_the_split_every_position_loop(key):
    """Empty components at random positions, whole-part components, both orders."""
    rng = random.Random(f"reduce-empty-{key}")
    ring = ring_of(key)
    regions = ("empty", "empty", "any", "xi", "eta", "xi+eta")
    for n in range(1, SUPPORTED_RANGES[ring.p] + 1):
        for _ in range(25):
            comps = []
            for _k in range(n):
                region = rng.choice(regions)
                if region == "empty":
                    comps.append(ring.zero())
                elif region == "xi+eta":
                    comps.append(_random_elem(ring, rng, "xi") + _random_elem(ring, rng, "eta"))
                else:
                    comps.append(_random_elem(ring, rng, region))
            for order in (("xi", "eta"), ("eta", "xi")):
                got = reduce(comps, order)
                assert got == split_every_position_reduce(comps, order), (n, order, comps)
                assert got.ring is ring and type(got.components) is tuple


# D and E charts at p = 2 (up to n = 4), E8 at p = 3 and 5, A_{p-1} with
# w^p = xy, and the rank-1 covers of two quotient cases
RESIDUAL_CARRY_KEYS = ("2:D4:1", "2:D9:2", "2:D12:0", "2:E6:1", "2:E7:3", "2:E8:0", "2:E8:4",
                       "3:E8:2", "5:E8:1", "2:A1", "3:A2", "5:A4",
                       "quot:2:mu:A1:cover", "quot:3:mu:A2:cover")


def mixed_elem(ring, rng):
    """A random element with terms in A[1/u], in A[1/v] and anywhere."""
    return _random_elem(ring, rng, "xi") + _random_elem(ring, rng, "eta") + _random_elem(ring, rng)


@pytest.mark.parametrize("key", RESIDUAL_CARRY_KEYS)
def test_reduce_carrying_the_last_component_by_its_residual_part_agrees_with_the_whole_carry(key, monkeypatch):
    """The oracles call _teich_sub with no hook, so they carry the whole last component.

    The last component of every vector has non-residual terms, and the
    others are drawn from every region.  Some residual products must
    drop terms, or the comparison shows nothing.
    """
    rng = random.Random(f"residual-carry-{key}")
    ring = ring_of(key)
    trimmed, made = [], localcoh._residual_mul

    def residual_mul(a, b):
        got = made(a, b)
        trimmed.append(got != a * b)
        return got

    monkeypatch.setattr(localcoh, "_residual_mul", residual_mul)
    regions = ("any", "xi", "eta", "mixed")
    for n in range(2, SUPPORTED_RANGES[ring.p] + 1):
        for _ in range(20):
            comps = [mixed_elem(ring, rng) if region == "mixed" else _random_elem(ring, rng, region)
                     for region in (rng.choice(regions) for _ in range(n - 1))]
            comps.append(mixed_elem(ring, rng))
            for order in (("xi", "eta"), ("eta", "xi")):
                got = reduce(comps, order)
                assert got == split_every_position_reduce(comps, order), (n, order, comps)
                assert got == tail_op_reduce(comps, order), (n, order, comps)
    assert any(trimmed)


@pytest.mark.parametrize("key", RESIDUAL_CARRY_KEYS)
def test_the_residual_product_has_the_residual_part_of_the_full_product(key):
    """Chart elements of every region, int constants and the empty element, in both orders."""
    rng = random.Random(f"residual-mul-{key}")
    ring = ring_of(key)
    factors = [ring.zero(), 1, ring.p - 1, ring.one(), ring.monomial(1, 1, 1)]
    factors += [_random_elem(ring, rng, region) for region in ("any", "any", "xi", "eta") * 3]
    factors += [mixed_elem(ring, rng) for _ in range(6)]
    fewer = 0
    for a in factors:
        for b in factors:
            full = a * b
            got = localcoh._residual_mul(a, b)
            if isinstance(full, int):
                assert got == full
                continue
            assert isinstance(got, ChartElem) and got.ring is ring, (a, b)
            assert got.split()[2] == full.split()[2], (str(a), str(b))
            fewer += len(got.terms) < len(full.terms)
    assert fewer


@pytest.mark.parametrize("n", [0, -2, 5, 1.0, 2.5, "2", True, None])
def test_class_of_refuses_a_length_outside_the_supported_range(n):
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    named = f"W_{n} at p=2" if type(n) is int else f"n={n!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        class_of(eps, n)
    assert class_of(eps, 4).n == 4


def test_class_of_checks_the_length_against_the_prime():
    ring = chart_from_key("3:E8:2")
    eps = ring.monomial(1, -1, -1, 1)
    assert class_of(eps, 2).n == 2
    with pytest.raises(ValueError, match=re.escape("W_3 at p=3 out of supported range 1..2")):
        class_of(eps, 3)


@pytest.mark.parametrize("order", [("foo",), ("xi",), (), ("xi", "xi"), ("xi", "eta", "xi"),
                                   "xieta", None])
def test_reduce_refuses_a_bad_order(order):
    ring = chart_from_key("2:E8:0")
    with pytest.raises(ValueError, match="is not a permutation of"):
        reduce([ring.monomial(1, 0, -1)], order)


def test_reduce_takes_an_order_list():
    ring = chart_from_key("2:E8:0")
    comps = [ring.monomial(1, 0, -1) + ring.monomial(1, -1, -1, 1), ring.zero()]
    assert reduce(comps, ["eta", "xi"]) == reduce(comps, ("eta", "xi"))


def test_reduce_refuses_components_outside_the_first_ring():
    ring = chart_from_key("2:E8:0")
    other = chart_from_key("2:E8:1")
    x = ring.monomial(1, -1, -1, 1)
    with pytest.raises(ValueError, match=r"component 0 \(3\) is not an element of a chart ring"):
        reduce([3, x])
    with pytest.raises(ValueError, match=r"component 1 \(3\) is not an element of ChartRing\(2:E8:0\)"):
        reduce([x, 3])
    with pytest.raises(ValueError, match=r"component 1 .* is not an element of ChartRing\(2:E8:0\)"):
        reduce([x, other.monomial(1, -1, -1, 1)])
    with pytest.raises(ValueError, match="component 0 .* is not an element of a chart ring"):
        reduce(WittVec(2, (FpScalar(2, 1), FpScalar(2, 0))))


def scalar_mul_oracle(g, e):
    """The old loop: every power g^(p^i) by **, every component multiplied."""
    out, power = [], g
    for i, comp in enumerate(e.components):
        if i:
            power = power ** e.ring.p
        out.append(power * comp)
    return reduce(out)


@pytest.mark.parametrize("key", ["2:D12:3", "2:E8:0", "3:E6:1", "5:E8:1", "3:A2"])
def test_scalar_mul_class_agrees_with_the_full_loop(key):
    """Classes with zero components, where the powers stop at the last nonzero one."""
    rng = random.Random(f"scalar-mul-{key}")
    ring = chart_from_key(key)
    nmax = SUPPORTED_RANGES[ring.p]
    eps = ring.monomial(1, -1, -1, ring.wdeg - 1)
    gens = list(IdealSpec.maximal(ring).generators) + [ring.one(), ring.zero()]
    gens += [ring.monomial(1, 1, 1) + ring.monomial(1, 0, 2, ring.wdeg - 1)]
    for n in range(1, nmax + 1):
        shapes = [[eps if k == i else ring.zero() for k in range(n)] for i in range(n)]
        shapes.append([ring.zero()] * n)
        shapes.append([eps] + [ring.zero()] * (n - 2) + [eps] if n >= 2 else [eps])
        for _ in range(4):
            shapes.append([_random_elem(ring, rng) if rng.random() < 0.5 else ring.zero()
                           for _ in range(n)])
        for comps in shapes:
            e = reduce(comps)
            for g in gens:
                assert scalar_mul_class(g, e) == scalar_mul_oracle(g, e), (n, str(g), str(e))


# computed strings of the 22 admissible frobenius_check(f"2:D{N}:{r}", 4, 1), N = 18..21,
# as the full-vector reduce gave them; the reproduce report stops at n = 3
D_FAMILY_N4_COMPUTED = {
    (18, 0): "(0, 0, 0, 0)",
    (18, 1): "(0, 0, 0, x^-1*y^-1*z)",
    (18, 2): "(0, 0, 0, x^-1*y^-2*z)",
    (18, 3): "(0, 0, 0, x^-1*y^-3*z)",
    (18, 4): "(0, 0, 0, x^-1*y^-4*z)",
    (19, 0): "(0, 0, 0, 0)",
    (19, 1): "(0, 0, 0, x^-1*y^-1*z)",
    (19, 2): "(0, 0, 0, x^-1*y^-2*z)",
    (19, 3): "(0, 0, 0, x^-1*y^-3*z)",
    (19, 4): "(0, 0, 0, x^-1*y^-4*z)",
    (20, 0): "(0, 0, 0, 0)",
    (20, 1): "(0, 0, 0, 0)",
    (20, 2): "(0, 0, 0, x^-1*y^-1*z)",
    (20, 3): "(0, 0, 0, x^-1*y^-2*z)",
    (20, 4): "(0, 0, 0, x^-1*y^-3*z)",
    (20, 5): "(0, 0, 0, x^-1*y^-4*z)",
    (21, 0): "(0, 0, 0, 0)",
    (21, 1): "(0, 0, 0, 0)",
    (21, 2): "(0, 0, 0, x^-1*y^-1*z)",
    (21, 3): "(0, 0, 0, x^-1*y^-2*z)",
    (21, 4): "(0, 0, 0, x^-1*y^-3*z)",
    (21, 5): "(0, 0, 0, x^-1*y^-4*z)",
}


def test_d_family_at_length_four_is_pinned():
    computed = {}
    for N in range(18, 22):
        for r in range(rmax(2, "D", N) + 1):
            try:
                rec = frobenius_check(f"2:D{N}:{r}", 4, 1)
            except HypothesisError:
                continue
            assert rec.status == "pass", rec.line()
            computed[N, r] = rec.computed
    assert computed == D_FAMILY_N4_COMPUTED


def test_e8_frobenius_at_length_four_is_pinned():
    """A characterization of the engine at (2, E8, n = 4, r = 0), not a claim of the paper.

    The n <= 3 closed form predicts 0 here; the engine gives V^3[x^-1 y^-1].
    """
    ring = chart_from_key("2:E8:0")
    e = class_of(ring.monomial(1, -1, -1, 1), 4)
    assert str(frobenius_class(e)) == "(0, 0, 0, x^-1*y^-1)"


def test_frobenius_kills_designated_class_e8_char2():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    assert frobenius_class(class_of(eps, 3)).is_zero()


def test_torsion_class_multipliers():
    """y^t keeps the class alive below the torsion index, y^j kills it."""
    ring = chart_from_key("2:D12:3")
    j = 3
    epsj = ring.monomial(1, -1, -j, 1)
    x = ring.monomial(1, 1, 0)
    y = ring.monomial(1, 0, 1)
    z = ring.monomial(1, 0, 0, 1)
    c = class_of(epsj, 1)
    for t in range(j):
        assert not scalar_mul_class(y**t, c).is_zero()
    assert scalar_mul_class(y**j, c).is_zero()
    assert scalar_mul_class(x, c).is_zero()
    assert scalar_mul_class(z, c).is_zero()
    assert is_torsion(c, IdealSpec.coordinate_power(ring, j))
    assert not is_torsion(c, IdealSpec.coordinate_power(ring, j - 1))


def test_shift_and_truncate_commute():
    ring = chart_from_key("2:D12:3")
    epsj = ring.monomial(1, -1, -3, 1)
    c = class_of(epsj, 1)

    def shift(e):
        return CohClass(ring, (ring.zero(),) + e.components)

    assert r_class(shift(c)) == CohClass(ring, (ring.zero(),))
    w2 = CohClass(ring, (epsj, ring.monomial(1, -2, -1, 0)))
    assert r_class(shift(w2)) == shift(r_class(w2))


def test_reduce_is_additive_and_commutes_with_f_r_and_v():
    """The W_n-module maps on seeded vectors over every canonicity chart, n <= 3:
    reduce(x + y) = reduce(reduce(x) + reduce(y)), F(reduce(x)) = reduce(F x),
    R(reduce(x)) = reduce(R x) and reduce(V x) = reduce(V reduce(x))."""
    rng = random.Random(9)
    for t in range(200):
        ring = chart_from_key(CANONICITY_CHART_KEYS[t % len(CANONICITY_CHART_KEYS)])
        p, top = ring.p, SUPPORTED_RANGES[ring.p]
        n = rng.randint(1, min(3, top))
        x = tuple(_random_elem(ring, rng) for _ in range(n))
        y = tuple(_random_elem(ring, rng) for _ in range(n))
        rx, ry = reduce(x), reduce(y)
        assert reduce(witt_add(WittVec(p, x), WittVec(p, y))) == reduce(
            witt_add(WittVec(p, rx.components), WittVec(p, ry.components))
        ), (t, x, y)
        assert frobenius_class(rx) == reduce([c.frobenius() for c in x]), (t, x)
        if n >= 2:
            assert r_class(rx) == reduce(x[:-1]), (t, x)
        if n < top:
            assert reduce(verschiebung(WittVec(p, x))) == reduce(
                verschiebung(WittVec(p, rx.components))
            ), (t, x)


def test_fv_and_vf_are_p_and_scalars_are_frobenius_semilinear():
    """On classes over every canonicity chart, n <= 3: FV = VF = p, where V of a class is
    verschiebung of its components, reduced, and p.e the p-fold Witt sum, reduced; and
    F(g.e) = g^p.F(e) for a scalar g with nonnegative exponents."""
    rng = random.Random(29)
    nonzero = {"p.e": 0, "F(g.e)": 0}

    def v_class(e):
        return reduce(verschiebung(WittVec(e.ring.p, e.components)))

    for t in range(200):
        ring = chart_from_key(CANONICITY_CHART_KEYS[t % len(CANONICITY_CHART_KEYS)])
        p = ring.p
        n = rng.randint(2, min(3, SUPPORTED_RANGES[p]))
        e = reduce([_random_elem(ring, rng) for _ in range(n)])
        x = total = WittVec(p, e.components)
        for _ in range(p - 1):
            total = witt_add(total, x)
        times_p = reduce(total)
        nonzero["p.e"] += not times_p.is_zero()
        # V lengthens by one, so both composites start from the restriction R e
        assert v_class(frobenius_class(r_class(e))) == times_p, (t, e)
        assert frobenius_class(v_class(r_class(e))) == times_p, (t, e)
        g = ring.zero()
        for _ in range(rng.randint(1, 3)):
            g += ring.monomial(rng.randrange(1, p), rng.randint(0, 2), rng.randint(0, 2), rng.randrange(ring.wdeg))
        lhs = frobenius_class(scalar_mul_class(g, e))
        assert lhs == scalar_mul_class(g**p, frobenius_class(e)), (t, g, e)
        nonzero["F(g.e)"] += not lhs.is_zero()
    # the identities are not only met by zero classes
    assert min(nonzero.values()) >= 20, nonzero


def test_class_record_matches_up_to_a_unit():
    ring = chart_from_key("5:E8:1")
    eps = ring.monomial(1, -1, -1, 1)
    zero, pred, pred3 = (class_of(eps * c, 1) for c in (0, 1, 3))

    def check(got, gen, problems=(), tail=()):
        rec = _class_record("id", got, got.n, gen, PLUMBING, list(problems), tail)
        z = got.ring.zero()
        assert rec.expected == str(CohClass(got.ring, (z,) * (got.n - 1) + (z if gen is None else gen,)))
        return rec.status, rec.note

    assert check(zero, None) == ("pass", "")
    assert check(pred, None) == ("fail", "")
    assert check(pred3, eps) == ("pass", "unit 3")
    assert check(pred, eps * 3) == ("pass", "unit 2")  # 2 * 3 = 6 = 1 mod 5
    assert check(zero, eps) == ("fail", "")
    assert check(pred3, eps, ["e not torsion"], ("a=-1",)) == (
        "fail", "unit 3; e not torsion; a=-1"
    )
    # longer classes: the earlier components must vanish, not only the last match
    assert check(reduce([eps, eps * 3]), eps) == ("fail", "")
    assert check(reduce([ring.zero(), eps * 3]), eps) == ("pass", "unit 3")
    assert check(class_of(chart_from_key("2:E8:0").zero(), 3), None) == ("pass", "")
    assert _class_record("id", pred, 2, eps, PLUMBING, []).status == "fail"  # a class of the wrong length


def test_ideal_spec_validation():
    ring = chart_from_key("2:E8:0")
    with pytest.raises(ValueError):
        IdealSpec(())
    with pytest.raises(ValueError):
        IdealSpec((ring.monomial(1, -1, 0),))
    with pytest.raises(ValueError):
        IdealSpec.coordinate_power(ring, 0)
    ideal = IdealSpec.maximal(ring)
    assert len(ideal.generators) == 3


def test_exponent_threshold():
    assert c_one(1, 1) == 2
    assert c_one(2, 1) == 3
    assert c_one(2, 2) == 7
    assert c_one(3, 4) == 29


def test_d_family_check_vanishing_case():
    # N = 12, r = 0, n = 1, j = 1: a = 6 - 0 - 2 = 4 >= 0, so F(e) = 0
    res = frobenius_check("2:D12:0", 1, 1)
    assert res.status == "pass"
    assert "a=4" in res.note


def test_d_family_check_shifted_case():
    # N = 4, r = 1, n = 1, j = 1: a = 2 - 1 - 2 = -1 < 0
    res = frobenius_check("2:D4:1", 1, 1)
    assert res.status == "pass"
    assert "a=-1" in res.note


def test_d_family_check_unified_chart_agrees():
    plain = frobenius_check("2:D8:0", 2, 1)
    uni = frobenius_check("2:D8:0", 2, 1, unified=True)
    assert plain.status == uni.status == "pass"


def test_d_family_hypothesis_guard():
    with pytest.raises(HypothesisError):
        frobenius_check("2:D12:3", 2, 2)  # floor(12/2) = 6 < C1(2,2) = 7
    with pytest.raises(HypothesisError):
        frobenius_check("2:D4:0", 1, 2)  # 2 < C1(1,2) = 4
    with pytest.raises(HypothesisError):
        frobenius_check("2:D14:6", 2, 1)  # 7 - 6 = 1 < C1(1,1) = 2
    # boundary instance right at the second inequality still runs
    res = frobenius_check("2:D14:5", 2, 1)
    assert res.status == "pass"


def test_e8_pair_both_coindexes():
    for r in (0, 1):
        res = frobenius_check(f"2:E8:{r}", 1, 2)
        assert res.status == "pass", res.line()


def test_e_family_rows():
    assert frobenius_check("2:E7:0", 1).status == "pass"
    assert frobenius_check("3:E8:1", 2).status == "pass"
    assert frobenius_check("5:E8:1", 1).status == "pass"
    with pytest.raises(ValueError):
        frobenius_check("2:E7:0", 4)  # length above the table entry


def test_quotient_pullback_single_case():
    res = quotient_pullback_check("quot:3:mu:A2")
    assert res.status == "pass"
    case = quotient_case_from_key("quot:3:mu:A2")
    e = class_of(case.eps, case.n_expected)
    pe = pullback_class(case.rmap, e)
    assert pe.n == case.n_expected
    # everything below the top component vanishes
    assert all(c.is_zero() for c in pe.components[: case.n_expected - 1])


def test_pullback_commutes_with_reduce_and_frobenius():
    """On seeded vectors x over the source chart of every quotient case, n <= 3: the pullback
    of reduce(x) is the reduced pullback of x, and F(pullback(e)) = pullback(F(e))."""
    rng = random.Random(31)
    cases = [quotient_case_from_key(key) for key in ALL_QUOTIENT_KEYS]
    nonzero = 0
    for t in range(200):
        case = cases[t % len(cases)]
        ring, rmap = case.source, case.rmap
        n = rng.randint(1, min(3, SUPPORTED_RANGES[ring.p]))
        x = [_random_elem(ring, rng) for _ in range(n)]
        e = reduce(x)
        pe = pullback_class(rmap, e)
        assert pe == reduce([rmap.apply(c) for c in x]), (t, x)
        assert frobenius_class(pe) == pullback_class(rmap, frobenius_class(e)), (t, x)
        nonzero += not pe.is_zero()
    # the identities are not only met by zero classes
    assert nonzero >= 50, nonzero


def test_verify_family_tokens():
    rep = reproduce_all(only="4.3")
    assert len(rep.records) == 2 and rep.ok
    rep = reproduce_all(only="4.6")
    assert len(rep.records) == 10 and rep.ok
    with pytest.raises(ValueError):
        reproduce_all(only="9.9")


def test_check_result_line_format():
    res = frobenius_check("2:E8:1", 1, 2)
    line = res.line()
    assert line.startswith("[ok  ]")
    assert "frobenius" in line


def test_d_family_rejects_zero_length():
    with pytest.raises(HypothesisError, match="length 0"):
        frobenius_check("2:D12:3", 0, 1)


def _admitted(grid):
    """frobenius_check(*args) for each args of grid that its hypotheses admit, by record id."""
    recs = {}
    for args in grid:
        try:
            rec = frobenius_check(*args)
        except HypothesisError:
            continue
        recs[rec.check_id] = rec
    return recs


def test_sweeps_read_by_restriction_equal_the_single_record_checks():
    """Each sweep computes one class per chart and ideal at its longest admissible
    length and reads the shorter lengths off it by R; every record it yields is the
    single-record check run at that length, which reads nothing, and the sweep
    yields every record of its grid that the check admits."""
    d_grid = (
        (f"2:D{N}:{r}", n, j, unified)
        for N in range(4, 22)
        for n in range(1, 4)
        for j in range(1, 5)
        for r in range(rmax(2, "D", N) + 1)
        for unified in ((False, True) if r == 0 else (False,))
    )
    e8_grid = ((f"2:E8:{r}", n, 2) for n in range(1, 4) for r in range(rmax(2, "E", 8) + 1))
    e_grid = (
        (f"{p}:E{N}:{r}", n)
        for p, N in ((2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8), (5, 8))
        for n in range(1, 4)
        for r in range(rmax(p, "E", N) + 1)
    )
    sweeps = (d_frobenius_sweep(), e8_pair_sweep(), e_frobenius_sweep())
    for sweep, grid in zip(sweeps, (d_grid, e8_grid, e_grid)):
        want = _admitted(grid)
        assert sorted(rec.check_id for rec in sweep) == sorted(want)
        for got in sweep:
            assert got == want[got.check_id], (got.line(), want[got.check_id].line())
    assert [len(sweep) for sweep in sweeps] == [622, 2, 34]


def test_torsion_length_reads_is_torsion_off_every_restriction():
    """torsion_length(e, I) >= k exactly when is_torsion(R^(n-k) e, I), on seeded
    classes of the canonicity charts and on the D-family classes, for the coordinate
    ideal and (x, y^j, z), j <= 4, which do not all kill them."""
    rng = random.Random(33)
    cases = []
    for key in CANONICITY_CHART_KEYS:
        ring = chart_from_key(key)
        n = min(3, SUPPORTED_RANGES[ring.p])
        for _ in range(12):
            e = reduce([
                ring.zero() if rng.random() < 0.4
                else ring.monomial(rng.randrange(1, ring.p), -1, -rng.randint(1, 4), rng.randrange(ring.wdeg))
                for _ in range(n)
            ])
            cases += [(e, IdealSpec.maximal(ring))]
            cases += [(e, IdealSpec.coordinate_power(ring, j)) for j in range(1, 5)]
    for key, j in (("2:D4:1", 1), ("2:D12:3", 2), ("2:D16:2", 2), ("2:D21:0", 3)):
        ring = chart_from_key(key)
        e = class_of(ring.monomial(1, -1, -j, 1), 3)
        cases += [(e, IdealSpec.coordinate_power(ring, i)) for i in range(max(1, j - 1), j + 1)]
    seen = set()
    for e, ideal in cases:
        fe = frobenius_class(e)
        t = torsion_length(e, ideal, fe)
        for k in range(1, e.n + 1):
            assert (k <= t) == is_torsion(r_class(e, k), ideal), (e, ideal, k)
        f_bound = next((i for i, c in enumerate(fe.components) if c.terms), e.n) + 1
        seen.add("none" if t == 0 else "all" if t == e.n else "F" if t == f_bound else "product")
    # classes killed at no length, at every length, and at some lengths only, by F(R e) or a product
    assert seen == {"none", "all", "F", "product"}, seen
    with pytest.raises(ValueError, match="length 4"):
        r_class(class_of(ring.monomial(1, -1, -1, 1), 3), 4)
