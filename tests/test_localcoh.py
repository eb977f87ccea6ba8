import random

import pytest

from rdpk3.chartring import RdpSpec, chart_from_key, quotient_case_from_key, rdp_chart
from rdpk3.localcoh import (
    CohClass,
    IdealSpec,
    class_of,
    frobenius_class,
    int_scalar_class,
    is_torsion,
    pullback_class,
    r_class,
    reduce,
    scalar_mul_class,
    scalar_multiple_of,
    v_class,
    zero_class,
)
from rdpk3.reproduce import (
    HypothesisError,
    c_one,
    d_frobenius_check,
    e8_pair_check,
    e_frobenius_check,
    quotient_pullback_check,
    reproduce_all,
)


def test_class_construction():
    ring = chart_from_key("2:E8:0")
    eps = ring.monomial(1, -1, -1, 1)
    e = class_of(eps, 3)
    assert e.n == 3
    assert e.components == (eps, ring.zero(), ring.zero())
    assert zero_class(ring, 2).is_zero()
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
    vc = v_class(c)
    assert vc.components == (ring.zero(), epsj)
    assert r_class(vc) == zero_class(ring, 1)
    w2 = CohClass(ring, (epsj, ring.monomial(1, -2, -1, 0)))
    assert r_class(v_class(w2)) == v_class(r_class(w2))


def test_int_scalar_and_multiple_detection():
    ring = chart_from_key("5:E8:1")
    eps = ring.monomial(1, -1, -1, 1)
    c = class_of(eps, 1)
    c3 = int_scalar_class(3, c)
    assert c3 == class_of(ring.monomial(3, -1, -1, 1), 1)
    assert scalar_multiple_of(c3, c) == 3
    assert scalar_multiple_of(c, c3) == 2  # 2 * 3 = 6 = 1 mod 5
    assert scalar_multiple_of(zero_class(ring, 1), c) is None
    assert int_scalar_class(0, c).is_zero()


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
    powered = ideal.pth_power()
    assert powered.generators[0] == ring.monomial(1, 2, 0)


def test_exponent_threshold():
    assert c_one(1, 1) == 2
    assert c_one(2, 1) == 3
    assert c_one(2, 2) == 7
    assert c_one(3, 4) == 29


def test_d_family_check_vanishing_case():
    # N = 12, r = 0, n = 1, j = 1: a = 6 - 0 - 2 = 4 >= 0, so F(e) = 0
    res = d_frobenius_check(12, 0, 1, 1)
    assert res.status == "pass"
    assert "a=4" in res.note


def test_d_family_check_shifted_case():
    # N = 4, r = 1, n = 1, j = 1: a = 2 - 1 - 2 = -1 < 0
    res = d_frobenius_check(4, 1, 1, 1)
    assert res.status == "pass"
    assert "a=-1" in res.note


def test_d_family_check_unified_chart_agrees():
    plain = d_frobenius_check(8, 0, 2, 1)
    uni = d_frobenius_check(8, 0, 2, 1, unified=True)
    assert plain.status == uni.status == "pass"


def test_d_family_hypothesis_guard():
    with pytest.raises(HypothesisError):
        d_frobenius_check(12, 3, 2, 2)  # floor(12/2) = 6 < C1(2,2) = 7
    with pytest.raises(HypothesisError):
        d_frobenius_check(4, 0, 1, 2)  # 2 < C1(1,2) = 4
    with pytest.raises(HypothesisError):
        d_frobenius_check(14, 6, 2, 1)  # 7 - 6 = 1 < C1(1,1) = 2
    # boundary instance right at the second inequality still runs
    res = d_frobenius_check(14, 5, 2, 1)
    assert res.status == "pass"


def test_e8_pair_both_coindexes():
    for r in (0, 1):
        res = e8_pair_check(r)
        assert res.status == "pass", res.line()


def test_e_family_rows():
    assert e_frobenius_check(2, 7, 1, 0).status == "pass"
    assert e_frobenius_check(3, 8, 2, 1).status == "pass"
    assert e_frobenius_check(5, 8, 1, 1).status == "pass"
    with pytest.raises(ValueError):
        e_frobenius_check(2, 7, 4, 0)  # length above the table entry


def test_quotient_pullback_single_case():
    res = quotient_pullback_check("quot:3:mu:A2")
    assert res.status == "pass"
    case = quotient_case_from_key("quot:3:mu:A2")
    e = class_of(case.eps, case.n_expected)
    pe = pullback_class(case.rmap, e)
    assert pe.n == case.n_expected
    # everything below the top component vanishes
    assert all(c.is_zero() for c in pe.components[: case.n_expected - 1])


def test_verify_family_tokens():
    rep = reproduce_all(only="4.3")
    assert len(rep.records) == 2 and rep.ok
    rep = reproduce_all(only="4.6")
    assert len(rep.records) == 10 and rep.ok
    with pytest.raises(ValueError):
        reproduce_all(only="9.9")


def test_check_result_line_format():
    res = e8_pair_check(1)
    line = res.line()
    assert line.startswith("[ok  ]")
    assert "frobenius" in line


def test_d_family_rejects_zero_length():
    with pytest.raises(HypothesisError, match="length 0"):
        d_frobenius_check(12, 3, 0, 1)
