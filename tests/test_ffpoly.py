import itertools
import operator
import random
import re
from fractions import Fraction

import pytest

from rdpk3.chartring import ChartElem, ChartRing, parse_rdp_key, rdp_chart
from rdpk3.ffpoly import (
    FiniteField,
    FpScalar,
    MultiPoly,
    is_prime,
    parse_poly,
)
from rdpk3.reproduce import CANONICITY_CHART_KEYS
from rdpk3.witt import WittVec


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_fp_scalar_basic():
    """An FpScalar is an immutable residue label."""
    a = FpScalar(5, 7)
    assert a.value == 2 and a.p == 5
    assert bool(a)
    assert not bool(FpScalar(5, 0))
    assert a != FpScalar(7, 2)
    assert repr(a) == "FpScalar(5, 2)" and str(a) == "2"
    with pytest.raises(AttributeError, match="FpScalar is immutable"):
        a.value = 3
    # no arithmetic of its own: F_p arithmetic runs on ints in FiniteField
    for op in ("__add__", "__sub__", "__mul__", "__pow__", "__neg__", "inverse", "ring_zero", "ring_one"):
        assert not hasattr(a, op), op
    with pytest.raises(TypeError):
        a + 1


def test_fp_scalar_equals_only_its_residue():
    a = FpScalar(3, 4)
    assert a == 1 and hash(a) == hash(1)
    assert a != 4 and a != -2
    assert FpScalar(5, 0) == 0 and hash(FpScalar(5, 0)) == hash(0)
    assert {FpScalar(7, 3): "x"}[3] == "x"
    assert len({FpScalar(3, 1), 1}) == 1


def test_fp_scalar_mismatched_primes():
    # scalars of two primes never meet in arithmetic: a Witt vector refuses the mix
    assert FpScalar(5, 1) != FpScalar(7, 1)
    with pytest.raises(ValueError, match="Witt component FpScalar.7, 1. has characteristic 7, not 5"):
        WittVec(5, (FpScalar(5, 1), FpScalar(7, 1)))


def test_fp_scalar_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FpScalar(6, 1)


@pytest.mark.parametrize("value", [1.5, 2.0, True, False, "1", None, Fraction(1, 1)])
def test_fp_scalar_refuses_a_residue_that_is_not_an_int(value):
    message = f"residue {value!r} of F_3 is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FpScalar(3, value)


def test_modulus_check_remembers_only_primes():
    assert FpScalar(5, 2) == FpScalar(5, 7)
    for bad in (9, 9, 25):
        with pytest.raises(ValueError):
            FpScalar(bad, 1)


def test_multipoly_construction_and_equality():
    x = MultiPoly.gen(("x", "y"), "x")
    y = MultiPoly.gen(("x", "y"), "y")
    p = (x + y) ** 2
    assert p == x**2 + 2 * x * y + y**2
    assert p.coefficient_of((1, 1)) == 2
    assert p.coefficient_of((2, 0)) == 1
    assert p.coefficient_of((5, 0)) == 0
    assert p.total_degree() == 2
    z = MultiPoly.zero(("x", "y"))
    assert (p - p) == z
    assert p != z
    assert z.is_zero()
    assert not p.is_zero()


def test_multipoly_mod_p_collapse():
    """Coefficients reduce mod p, and multiples of p vanish."""
    x = MultiPoly.gen(("x",), "x", 3)
    assert x + x + x == MultiPoly.zero(("x",), 3)
    assert (x + 1) ** 3 == x**3 + 1


def test_multipoly_reduces_keys_that_become_the_same_tuple():
    """Coefficients of keys equal only as tuples are summed before they are reduced mod p."""
    f = MultiPoly(("x",), {(1,): 2, range(1, 2): 2}, 3)
    assert f.terms == {(1,): 1} and f == MultiPoly.gen(("x",), "x", 3)
    assert MultiPoly(("x",), {(1,): 2, range(1, 2): 1}, 3).is_zero()


def test_multipoly_frobenius_binomial():
    for p in (2, 3, 5, 7):
        x = MultiPoly.gen(("x", "y"), "x", p)
        y = MultiPoly.gen(("x", "y"), "y", p)
        assert (x + y) ** p == x**p + y**p


def test_multipoly_homogeneity():
    x = MultiPoly.gen(("x", "y"), "x")
    y = MultiPoly.gen(("x", "y"), "y")
    assert (x**3 + x * y**2).is_homogeneous()
    assert not (x**3 + y).is_homogeneous()
    # weighted: y counts double
    assert (x**2 + y).is_homogeneous(weights={"x": 1, "y": 2})


def test_multipoly_exact_div():
    x = MultiPoly.gen(("x",), "x")
    assert (4 * x**2 + 8).exact_div_by_int(4) == x**2 + 2
    with pytest.raises(ArithmeticError):
        (4 * x**2 + 2).exact_div_by_int(4)
    with pytest.raises(ValueError):
        MultiPoly.gen(("x",), "x", 5).exact_div_by_int(2)


def test_multipoly_evaluate_into_polys():
    """Substitution of polynomials for variables is ring evaluation."""
    p = parse_poly("u^2 + v", ("u", "v"))
    x = MultiPoly.gen(("x",), "x")
    out = p.evaluate({"u": x + 1, "v": x})
    assert out == x**2 + 3 * x + 1


def test_parse_poly_round_trip():
    p = parse_poly("x^2*y - 3*y + 4", ("x", "y"))
    assert p.coefficient_of((2, 1)) == 1
    assert p.coefficient_of((0, 1)) == -3
    assert p.coefficient_of((0, 0)) == 4
    again = parse_poly(str(p), ("x", "y"))
    assert again == p


def test_parse_poly_inferred_variables():
    p = parse_poly("b*a + c^2")
    assert p.variables == ("a", "b", "c")


def test_parse_poly_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("x^-2", ("x",))
    with pytest.raises(ValueError):
        parse_poly("x + y", ("x",))
    with pytest.raises(ValueError):
        parse_poly("x^a", ("x", "a"))


def test_parse_poly_names_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent in 'x\\^-1'"):
        parse_poly("x^-1")
    with pytest.raises(ValueError, match="negative exponent"):
        parse_poly("y - 2*x^-3*y", ("x", "y"))


@pytest.mark.parametrize("exps", [(0.5, 1, 0), (1, 2.0, 0), (0, 0, True)])
@pytest.mark.parametrize("modulus", [None, 5])
def test_multipoly_refuses_exponents_that_are_not_ints(exps, modulus):
    with pytest.raises(ValueError, match="has an entry that is not an int"):
        MultiPoly(("x", "y", "z"), {exps: 1}, modulus)


@pytest.mark.parametrize("coeff", [1.5, 2.0, 0.0, True, False, "1", None, Fraction(1, 2)])
@pytest.mark.parametrize("modulus", [None, 3])
def test_multipoly_refuses_coefficients_that_are_not_ints(coeff, modulus):
    message = f"coefficient {coeff!r} of term (1,) is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiPoly(("x",), {(1,): coeff}, modulus)
    # the check names the term of each coefficient, also one that sums to an int
    message = f"coefficient {coeff!r} of term (0, 2) is not an int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiPoly(("x", "y"), {(1, 0): 1, (0, 2): coeff}, modulus)


def test_finite_field_prime():
    f = FiniteField(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.pow(3, 6) == 1
    assert f.neg(2) == 5


def test_finite_field_extension_axioms():
    rng = random.Random(42)
    for q in (4, 8, 9, 25, 27):
        f = FiniteField(q)
        els = list(f.elements())
        assert len(els) == q
        for _ in range(60):
            a = rng.choice(els)
            b = rng.choice(els)
            c = rng.choice(els)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
        # multiplicative group has order q - 1
        for a in els:
            if a:
                assert f.pow(a, q - 1) == 1
            assert f.pow(a, q) == a


def test_finite_field_frobenius_additive():
    for q in (4, 8, 9):
        f = FiniteField(q)
        for a in f.elements():
            for b in f.elements():
                lhs = f.pow(f.add(a, b), f.p)
                rhs = f.add(f.pow(a, f.p), f.pow(b, f.p))
                assert lhs == rhs


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_characteristic_two_addition_is_the_digit_sum(q):
    f = FiniteField(q)

    def digit_sum(a, b):
        out, place = 0, 1
        while a or b:
            out += (a % 2 + b % 2) % 2 * place
            a, b, place = a // 2, b // 2, place * 2
        return out

    for a in f.elements():
        assert f.neg(a) == a
        for b in f.elements():
            assert f.add(a, b) == digit_sum(a, b)


ODD_EXTENSION_FIELDS = [
    p**k for p in (3, 5, 7, 11, 13, 17, 19, 23) for k in range(2, 7) if p**k <= 729
]


@pytest.mark.parametrize("q", ODD_EXTENSION_FIELDS)
def test_odd_addition_and_negation_are_the_digit_rule(q):
    """add and neg on log tables agree with digit-wise arithmetic mod p on every pair."""
    f = FiniteField(q)
    p, k = f.p, f.k

    def digit_row(a):  # a + b for every b in order, digit by digit; the lowest digit varies fastest
        places = [[(a // p**i + x) % p * p**i for x in range(p)] for i in reversed(range(k))]
        return list(map(sum, itertools.product(*places)))

    for a in f.elements():
        row = digit_row(a)
        assert list(map(f.add, itertools.repeat(a, q), f.elements())) == row, (q, a)
        assert f.neg(a) == row.index(0), (q, a)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 3, 7, 9, 25, 27])
def test_trace_is_an_onto_f_p_linear_map_fixed_by_frobenius(q):
    f = FiniteField(q)
    traces = [f.trace(a) for a in f.elements()]
    # onto F_p, each value on exactly q/p elements
    assert sorted(traces) == sorted(list(range(f.p)) * (q // f.p))
    for a in f.elements():
        assert f.trace(f.pow(a, f.p)) == traces[a]
        for b in f.elements():
            assert f.trace(f.add(a, b)) == (traces[a] + traces[b]) % f.p
    # on the prime field Tr(c) = k c
    assert [traces[c] for c in range(f.p)] == [f.k * c % f.p for c in range(f.p)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_quadratic_character_marks_the_squares(q):
    f = FiniteField(q)
    squares = {f.mul(a, a) for a in f.elements() if a}
    assert len(squares) == (q - 1) // 2
    assert f.quadratic_character(0) == 0
    for a in range(1, q):
        assert f.quadratic_character(a) == (1 if a in squares else -1)


def test_finite_field_evaluate_poly():
    f = FiniteField(4)
    p = parse_poly("x^2 + x", ("x",), modulus=2)
    # x^2 + x vanishes exactly on the prime field inside F_4
    roots = [a for a in f.elements() if f.evaluate_poly(p, (a,)) == 0]
    assert len(roots) == 2
    assert 0 in roots


def test_every_field_up_to_1024_is_built_from_a_primitive_modulus():
    """exp and log of every GF(q), q <= 1024, the largest field the count guard admits for a
    non-constant model (chart1 has three variables, so q^2 <= 2^20)."""
    rng = random.Random(1024)
    for q in range(2, 1025):
        if len([p for p in range(2, q + 1) if q % p == 0 and is_prime(p)]) != 1:
            continue
        f = FiniteField(q)
        assert sorted(f._exp) == list(range(1, q)), q
        assert [f._log[a] for a in f._exp] == list(range(q - 1)), q
        if f.k > 1:
            assert f._exp[1] == f.p, q
        for _ in range(30):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c)), (q, a, b, c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c)), (q, a, b, c)
        assert all(f.pow(a, q) == a for a in f.elements()), q


def test_finite_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(1)
    # refused before any search for its prime, which would take 2^61 steps
    with pytest.raises(ValueError, match="field too large"):
        FiniteField(2**61 - 1)


EVALUATOR_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]


def random_polys(rng, p, q, m, count):
    """Seeded polynomials in m variables: constant terms, coefficients that are
    0 mod p or negative, and exponents at and above q."""
    names = tuple(f"x{i}" for i in range(m))
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randrange(6)):
            exps = tuple(rng.choice([0, 0, 1, 2, 3, q - 1, q, q + 1, 2 * q + 3]) for _ in range(m))
            terms[exps] = rng.choice([0, p, -p, 1, -1, rng.randrange(-3 * p, 3 * p)])
        terms[(0,) * m] = rng.randrange(-p, 2 * p)
        polys.append(MultiPoly(names, terms, p))
    return polys


@pytest.mark.parametrize("q", EVALUATOR_FIELDS)
def test_evaluator_agrees_with_evaluate_poly_at_every_point(q):
    """The grid evaluator, and each of its slabs, against evaluate_poly."""
    f = FiniteField(q)
    rng = random.Random(q)
    for m in (0, 1, 2, 3):
        polys = random_polys(rng, f.p, q, m, 4)
        points = list(itertools.product(f.elements(), repeat=m))
        want = [[f.evaluate_poly(poly, point) for point in points] for poly in polys]
        assert f.grid(polys) == want, (q, m)
        if m:
            slabs = list(f.slabs(polys))
            assert len(slabs) == q
            assert [sum((slab[i] for slab in slabs), []) for i in range(len(polys))] == want


def test_evaluator_of_no_polynomials_and_of_zero():
    f = FiniteField(8)
    assert f.grid([]) == []
    zero = MultiPoly(("x", "y"), {(2, 1): 2, (0, 0): 4}, 2)
    assert f.grid([zero]) == [[0] * 64]
    assert [slab for slab in f.slabs([zero])] == [[[0] * 8]] * 8
    with pytest.raises(ValueError, match="modulus 3 is not 2"):
        f.grid([MultiPoly(("x",), {(1,): 1}, 3)])


def test_evaluator_refuses_polynomials_in_other_variables():
    """The variables of the first polynomial are not taken for the others'."""
    f = FiniteField(4)
    x = MultiPoly.gen(("x",), "x", 2)
    xy = MultiPoly.gen(("x", "y"), "x", 2)
    yx = MultiPoly.gen(("y", "x"), "x", 2)
    for first, other in ((x, xy), (xy, x), (xy, yx)):
        both = re.escape(f"{first.variables} and {other.variables}")
        with pytest.raises(ValueError, match=both):
            list(f.slabs([first, other]))
        with pytest.raises(ValueError, match=both):
            f.grid([first, other])


def test_slabs_refuse_polynomials_in_no_variables():
    f = FiniteField(4)
    c = MultiPoly((), {(): 1}, 2)
    with pytest.raises(ValueError, match="slabs need a first variable"):
        list(f.slabs([c]))
    assert f.grid([c]) == [[1]]


@pytest.mark.parametrize("q", EVALUATOR_FIELDS)
def test_trace_is_the_sum_of_the_frobenius_conjugates(q):
    f = FiniteField(q)
    for a in f.elements():
        acc = 0
        for i in range(f.k):
            acc = f.add(acc, f.pow(a, f.p**i))
        assert f.trace(a) == acc, (q, a)


# -- the sparse-term kernel that polynomials and chart elements share ------

KERNEL_NAMES = ("x", "y", "z")
KERNEL_PARENTS = ("Z", "F_2", "F_3", "F_5", "F_7") + CANONICITY_CHART_KEYS


def _kernel_elements(parent, rng, count):
    """count random elements of a parent, built by the validating constructors from raw terms."""
    out = []
    for _ in range(count):
        size = rng.randint(0, 4)
        if parent.startswith(("Z", "F_")):
            modulus = None if parent == "Z" else int(parent[2:])
            keys = [tuple(rng.randint(0, 2) for _ in KERNEL_NAMES) for _ in range(size)]
            out.append(MultiPoly(KERNEL_NAMES, {k: rng.randint(-9, 9) for k in keys}, modulus))
        else:
            ring = rdp_chart(parse_rdp_key(parent))
            keys = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(ring.wdeg)) for _ in range(size)]
            out.append(ChartElem(ring, {k: rng.randint(-9, 9) for k in keys}))
    return out


def _validated(elem, terms):
    """The element of elem's parent that the validating constructor builds from terms."""
    if isinstance(elem, MultiPoly):
        return MultiPoly(elem.variables, terms, elem.modulus)
    return ChartElem(elem.ring, terms)


def _combined(a, b_terms, sign):
    """a + sign * b as a term dict, neither reduced nor cleared of zeros."""
    out = dict(a.terms)
    for k, c in b_terms.items():
        out[k] = out.get(k, 0) + sign * c
    return out


def _assert_normal(result, like):
    """result is in like's parent, in the form its validating constructor gives, and hashes so."""
    assert type(result) is type(like)
    rebuilt = _validated(like, result.terms)
    assert result.terms == rebuilt.terms
    assert result == rebuilt and rebuilt == result
    assert hash(result) == hash(rebuilt)
    assert all(result.terms.values())
    if result.modulus is not None:
        assert all(0 < c < result.modulus for c in result.terms.values())


@pytest.mark.parametrize("parent", KERNEL_PARENTS)
def test_kernel_results_equal_their_validated_construction(parent):
    """+, -, unary -, *, ** and int operands on both sides: right, reduced, no zeros, equal hashes."""
    rng = random.Random(f"kernel:{parent}")
    elems = _kernel_elements(parent, rng, 6)
    for a, b in itertools.product(elems, repeat=2):
        cases = [
            (a + b, _combined(a, b.terms, 1)),
            (a - b, _combined(a, b.terms, -1)),
            (-a, {key: -c for key, c in a.terms.items()}),
        ]
        for k in (-7, -1, 0, 1, 2, 10):
            const = {a._one_key: k}
            cases += [
                (a + k, _combined(a, const, 1)),
                (k + a, _combined(a, const, 1)),
                (a - k, _combined(a, const, -1)),
                (k - a, {key: -c for key, c in _combined(a, const, -1).items()}),
                (a * k, {key: c * k for key, c in a.terms.items()}),
                (k * a, {key: c * k for key, c in a.terms.items()}),
            ]
        for result, terms in cases:
            _assert_normal(result, a)
            assert result == _validated(a, terms)
        if isinstance(a, MultiPoly):
            product = {}
            for (e1, c1), (e2, c2) in itertools.product(a.terms.items(), b.terms.items()):
                e = tuple(map(operator.add, e1, e2))
                product[e] = product.get(e, 0) + c1 * c2
            assert a * b == _validated(a, product)
        for result in (a * b, b * a, a**0, a**1, a**3, (a + b) ** 2):
            _assert_normal(result, a)
        assert a * b == b * a
        assert a**3 == a * a * a
        assert (a + b) ** 2 == a * a + a * b + b * a + b * b
        assert (a - a).is_zero() and a - a == a.ring_zero()
        assert (a == b) == (a.terms == b.terms)


def test_operands_of_different_parents_raise_naming_both():
    x = MultiPoly.gen(("x", "y"), "x", 3)
    e8 = rdp_chart(parse_rdp_key("2:E8:0")).one()
    cases = (
        (x, MultiPoly.gen(("x", "z"), "x", 3), "(('x', 'y'), 3)", "(('x', 'z'), 3)"),
        (x, MultiPoly.gen(("x", "y"), "x", 5), "(('x', 'y'), 3)", "(('x', 'y'), 5)"),
        (x, MultiPoly.gen(("x", "y"), "x"), "(('x', 'y'), 3)", "(('x', 'y'), None)"),
        (e8, rdp_chart(parse_rdp_key("2:E8:1")).one(), "ChartRing(2:E8:0)", "ChartRing(2:E8:1)"),
        (e8, x, "ChartRing(2:E8:0)", "(('x', 'y'), 3)"),
    )
    for a, b, named_a, named_b in cases:
        for op in (operator.add, operator.sub, operator.mul):
            for u, v, first, second in ((a, b, named_a, named_b), (b, a, named_b, named_a)):
                with pytest.raises(ValueError) as err:
                    op(u, v)
                assert str(err.value) == f"incompatible parents: {first} vs {second}"
        assert a != b and b != a


def test_equal_but_distinct_chart_rings_still_add():
    def build():
        rel = parse_poly("x^3 + y^5", ("x", "y"), 2)
        return ChartRing(2, 2, rel, None, ("x", "y", "z"), "E8 copy")

    first, second = build(), build()
    assert first is not second and first == second
    u, v = first.monomial(1, -1, 2, 1), second.monomial(1, 3, 0, 1)
    for result, terms in ((u + v, {(-1, 2, 1): 1, (3, 0, 1): 1}), (u - v, {(-1, 2, 1): 1, (3, 0, 1): 1})):
        assert result == ChartElem(first, terms) == ChartElem(second, terms)
        assert hash(result) == hash(ChartElem(second, terms))
    assert u * v == v * u
    assert first.monomial(1, 2, 2) == second.monomial(1, 2, 2)


def test_multipoly_ring_operations_build_no_validated_polynomial(monkeypatch):
    rng = random.Random(22)
    groups = [_kernel_elements(parent, rng, 3) for parent in ("Z", "F_2", "F_3", "F_5", "F_7")]
    built = 0
    init = MultiPoly.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "__init__", counted)
    for elems in groups:
        for a, b in itertools.product(elems, repeat=2):
            for k in (-2, 0, 3):
                a + k, k + a, a - k, k - a, a * k, k * a
            a + b, a - b, -a, a * b, a**0, a**2, a**5, a.ring_zero(), a.ring_one()
            assert (a == b) == (a.terms == b.terms) and hash(a) == hash(a + 0)
    assert built == 0
