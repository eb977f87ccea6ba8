import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from rdpk3.chartring import RdpSpec, parse_rdp_key
from rdpk3 import height as height_module
from rdpk3.ffpoly import FiniteField, MultiPoly, parse_poly
from rdpk3.height import (
    ALPHA_QUOTIENT_TABLE,
    ETALE_QUOTIENT_TABLE,
    INFINITE,
    NonOccurrenceError,
    TwoChart,
    WeightedHypersurface,
    count_points,
    etale_quotient_height,
    finite,
    greater_than,
    height_from_counts,
    height_from_rdp,
    height_gt_test,
    height_sequence,
    load_model,
    newton_elementary,
    ordinary_test,
    parse_sing_config,
    picard_bound_ok,
    power_sums_from_counts,
    quotient_height,
    rdp_realizable_on_k3,
    taut_realizable,
)
from rdpk3.height import _affine_count
from rdpk3.reproduce import ordinarity_examples

MODEL_PATH = pathlib.Path(__file__).resolve().parent.parent / "models" / "ex71.json"


def test_height_sequences_d_family():
    assert height_sequence(2, "D", 4) == (1,)
    assert height_sequence(2, "D", 5) == (1,)
    assert height_sequence(2, "D", 6) == (2, 1)
    assert height_sequence(2, "D", 7) == (2, 1)
    assert height_sequence(2, "D", 8) == (3, 2)
    assert height_sequence(2, "D", 9) == (3, 2)
    assert height_sequence(2, "D", 10) == (4, 3, 1)
    assert height_sequence(2, "D", 12) == (5, 4, 2)
    assert height_sequence(2, "D", 21) == (9, 8, 6)


def test_height_sequences_e_family():
    assert height_sequence(2, "E", 6) == (1,)
    assert height_sequence(2, "E", 7) == (3, 2, 1)
    assert height_sequence(2, "E", 8) == (4, 3, 2)
    assert height_sequence(3, "E", 6) == (1,)
    assert height_sequence(3, "E", 7) == (1,)
    assert height_sequence(3, "E", 8) == (2, 1)
    assert height_sequence(5, "E", 8) == (1,)


def test_height_sequences_empty_off_table():
    assert height_sequence(3, "D", 10) == ()
    assert height_sequence(2, "A", 7) == ()
    assert height_sequence(7, "E", 8) == ()


def test_height_sequences_strictly_decreasing():
    for p in (2, 3, 5, 7):
        for N in range(4, 22):
            seq = height_sequence(p, "D", N)
            assert all(a > b for a, b in zip(seq, seq[1:]))
        for N in (6, 7, 8):
            seq = height_sequence(p, "E", N)
            assert all(a > b for a, b in zip(seq, seq[1:]))


def test_height_from_coindex():
    assert height_from_rdp(parse_rdp_key("2:D10:3")) == finite(2)
    assert height_from_rdp(parse_rdp_key("2:D10:4")) == finite(1)
    assert height_from_rdp(parse_rdp_key("2:D10:1")) == finite(3)
    assert height_from_rdp(parse_rdp_key("2:E8:2")) == finite(3)
    # coindex zero only bounds the height from below
    assert height_from_rdp(parse_rdp_key("3:E6:0")) == greater_than(1)
    assert height_from_rdp(parse_rdp_key("2:D12:0")) == greater_than(3)


def test_height_non_occurrence():
    with pytest.raises(NonOccurrenceError):
        height_from_rdp(parse_rdp_key("2:E8:1"))
    with pytest.raises(NonOccurrenceError):
        height_from_rdp(parse_rdp_key("2:D10:2"))


def test_realizability_rank_bound():
    assert rdp_realizable_on_k3(parse_rdp_key("2:D18:8")).ok
    assert not rdp_realizable_on_k3(parse_rdp_key("2:D19:8")).ok
    assert rdp_realizable_on_k3(parse_rdp_key("5:E8:1")).ok
    assert not rdp_realizable_on_k3(parse_rdp_key("2:E8:1")).ok
    assert not rdp_realizable_on_k3(parse_rdp_key("2:D20:9")).ok
    assert rdp_realizable_on_k3(parse_rdp_key("2:D21:0")).ok
    assert not rdp_realizable_on_k3(RdpSpec(2, "D", 22, 0)).ok
    bad = rdp_realizable_on_k3(parse_rdp_key("2:D19:8"))
    assert bad.reason


def test_realizability_delegates_to_taut_list():
    assert rdp_realizable_on_k3(RdpSpec(13, "A", 20)).ok
    assert not rdp_realizable_on_k3(RdpSpec(5, "A", 20)).ok


def test_taut_list():
    assert taut_realizable(13, "A", 20) is True
    assert taut_realizable(5, "A", 20) is False
    assert taut_realizable(2, "A", 20) is True
    assert taut_realizable(3, "A", 20) is True
    assert taut_realizable(7, "A", 20) is True
    assert taut_realizable(11, "A", 21) is True
    assert taut_realizable(2, "A", 21) is False
    assert taut_realizable(3, "D", 20) is False
    assert taut_realizable(5, "D", 22) is False
    assert taut_realizable(7, "E", 8) is True
    assert taut_realizable(3, "A", 19) is True
    with pytest.raises(ValueError):
        taut_realizable(2, "D", 20)


def test_parse_sing_config():
    assert parse_sing_config("2D4:0 + A2") == (("A", 2, 0), ("D", 4, 0), ("D", 4, 0))
    assert parse_sing_config("8A1") == (("A", 1, 0),) * 8
    assert parse_sing_config("D8:2") == (("D", 8, 2),)
    assert parse_sing_config("2 x E8:1, A2") == (("A", 2, 0), ("E", 8, 1), ("E", 8, 1))
    assert parse_sing_config("20xA1 + A2") == (("A", 1, 0),) * 20 + (("A", 2, 0),)
    with pytest.raises(ValueError, match="token 'A2' takes the configuration over 21 points"):
        parse_sing_config("21xA1 + A2")


def test_picard_rank_bound():
    assert picard_bound_ok(finite(3), "D15")
    assert picard_bound_ok(INFINITE, "D21")
    assert not picard_bound_ok(finite(1), "D21")
    assert not picard_bound_ok(finite(7), "E8")
    assert not picard_bound_ok(finite(3), "2E8")
    assert picard_bound_ok(finite(6), "E8")
    assert picard_bound_ok(greater_than(2), "D21")


def test_quotient_height_tables():
    assert quotient_height("mu", 3, "6A2") == finite(1)
    assert quotient_height("mu", 2, "8A1") == finite(1)
    assert quotient_height("mu", 7, "3A6") == finite(1)
    assert quotient_height("alpha", 2, "D8:0") == finite(3)
    assert quotient_height("alpha", 2, "E8:0") == finite(4)
    assert quotient_height("alpha", 2, "2D4:0") == finite(2)
    assert quotient_height("alpha", 3, "2E6:0") == finite(2)
    assert quotient_height("alpha", 5, "2E8:0") == finite(2)
    with pytest.raises(ValueError):
        quotient_height("mu", 3, "8A2")
    with pytest.raises(ValueError):
        quotient_height("alpha", 2, "D4:0")


def test_etale_quotient_heights():
    assert etale_quotient_height(2, "D8:2") == finite(2)
    assert etale_quotient_height(5, "2E8:1") == finite(1)
    assert etale_quotient_height(2, "E8:2") == finite(3)
    assert etale_quotient_height(2, "2D4:1") == finite(1)
    assert etale_quotient_height(3, "2E6:1") == finite(1)
    # every table row passes its own internal cross-check
    for p, cfg in ETALE_QUOTIENT_TABLE:
        etale_quotient_height(p, cfg)
    for (p, cfg), h in ALPHA_QUOTIENT_TABLE.items():
        assert quotient_height("alpha", p, cfg) == finite(h)


def test_dual_composition_exclusions():
    """The rank bound fails exactly on the (E8, E8) composition.

    A composite of quotient maps of heights h1 and h2 has height h1 + h2 - 1.
    """
    table = {"2D4:0": 2, "D8:0": 3, "E8:0": 4}
    failures = []
    for c1, h1 in table.items():
        for c2, h2 in table.items():
            h = finite(h1 + h2 - 1)
            back = parse_sing_config(c2.replace(":0", ""))
            if not picard_bound_ok(h, back):
                failures.append((c1, c2))
    assert failures == [("E8:0", "E8:0")]
    assert not picard_bound_ok(finite(3), "2E8")
    assert picard_bound_ok(finite(3), "2E6")


def test_two_chart_point_counts():
    model = load_model(MODEL_PATH)
    assert [count_points(model, q) for q in (2, 4, 8)] == [9, 25, 45]


def test_two_chart_point_counts_up_to_q32():
    model = load_model(MODEL_PATH)
    assert [count_points(model, q) for q in (2, 4, 8, 16, 32)] == [9, 25, 45, 289, 1089]


def test_newton_identity_pipeline():
    counts = [9, 25, 45]
    a = power_sums_from_counts(counts, 2)
    assert a == [Fraction(2), Fraction(2), Fraction(-5, 2)]
    s = newton_elementary(a)
    assert s == [Fraction(2), Fraction(1), Fraction(-3, 2)]
    verdicts, _ = height_gt_test(counts, 2)
    assert verdicts == [True, True, False]
    assert height_from_counts(counts, 2) == finite(3)
    assert height_from_counts([9], 2) == greater_than(1)


def test_power_sum_round_trip():
    """Counts built from known elementary functions give them back."""
    es = [Fraction(x) for x in (3, -2, 5, 0, -1)]
    ps = []  # the forward Newton recursion
    for j in range(1, len(es) + 1):
        acc = (-1) ** (j - 1) * j * es[j - 1]
        for i in range(1, j):
            acc += (-1) ** (i - 1) * es[i - 1] * ps[j - i - 1]
        ps.append(acc)
    counts = [1 + 3 ** (2 * m) + ps[m - 1] * 3**m for m in range(1, len(ps) + 1)]
    assert all(c.denominator == 1 for c in counts)
    back = power_sums_from_counts([int(c) for c in counts], 3)
    assert back == ps
    assert newton_elementary(back) == es


def test_weighted_count_matches_cone_count():
    """Straight-weight counting agrees with a cone count divided by units."""
    fermat = WeightedHypersurface(
        5,
        (1, 1, 1, 1),
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", ("x0", "x1", "x2", "x3"), modulus=5),
    )
    fld = FiniteField(5)
    cone = 0
    for pt in itertools.product(range(5), repeat=4):
        if any(pt) and fld.evaluate_poly(fermat.polynomial, pt) == 0:
            cone += 1
    assert count_points(fermat, 5) == cone // 4


def test_weighted_count_line_in_p112():
    """x0 = 0 in P(1,1,2) is a P^1 even where the weight 2 divides q - 1."""
    for p, q, want in ((3, 3, 4), (3, 9, 10), (5, 5, 6), (2, 4, 5)):
        line = WeightedHypersurface(
            p, (1, 1, 2), parse_poly("x0", ("x0", "x1", "x2"), modulus=p)
        )
        assert count_points(line, q) == want, q


def test_genuinely_weighted_count_runs():
    wmodel = WeightedHypersurface(
        2,
        (1, 1, 1, 3),
        parse_poly(
            "x0^6 + x1^6 + x2^6 + x3^2 + x0*x1*x2*x3",
            ("x0", "x1", "x2", "x3"),
            modulus=2,
        ),
    )
    assert count_points(wmodel, 2) > 0
    assert count_points(wmodel, 4) > 0


# ---------------------------------------------------------------------------
# fibre-by-fibre counting against a brute-force loop over GF(q)^n


def brute_zeros(field, poly):
    n = len(poly.variables)
    return sum(
        field.evaluate_poly(poly, point) == 0
        for point in itertools.product(field.elements(), repeat=n)
    )


def two_chart(chart1, chart2):
    return TwoChart(
        2,
        parse_poly(chart1, ("x", "y", "t"), modulus=2),
        parse_poly(chart2, ("x", "y"), modulus=2),
    )


# y^2 + B*y = C over F_2, B with a factor that vanishes on whole fibres, and B = 0
TWO_CHART_SHAPES = {
    "B-divisible-by-t": two_chart(
        "y^2 + y*x*t + y*t^3 + x^3 + x*t^2 + t^5 + 1", "y^2 + y*x + x^3 + x"
    ),
    "B-divisible-by-t^2+t": two_chart(
        "y^2 + y*x*t^2 + y*x*t + y*t^2 + y*t + x^3 + x^2*t + t^4 + t", "y^2 + y + x^3 + 1"
    ),
    "B-zero": two_chart("y^2 + x^3 + x*t^3 + t^5 + t", "y^2 + x^3 + x^2"),
}


@pytest.mark.parametrize("shape", ["ex71"] + sorted(TWO_CHART_SHAPES))
def test_fibre_count_matches_brute_force_on_two_chart_models(shape):
    model = load_model(MODEL_PATH) if shape == "ex71" else TWO_CHART_SHAPES[shape]
    for q in (2, 4, 8, 16, 32):
        field = FiniteField(q)
        charts = (model.chart1, model.chart2_at_infinity)
        want = [brute_zeros(field, chart) for chart in charts]
        assert [_affine_count(field, chart) for chart in charts] == want, q
        assert count_points(model, q) == sum(want) + q + 1, q


def test_fibre_count_matches_brute_force_on_the_ordinarity_models():
    for rid, model, _ordinary, _anchor in ordinarity_examples():
        for q in (2, 4, 8):
            field = FiniteField(q)
            cone = brute_zeros(field, model.polynomial) - 1  # both contain the cone point
            assert _affine_count(field, model.polynomial) == cone + 1, (rid, q)
            assert count_points(model, q) == cone // (q - 1), (rid, q)


# For odd q.  The fibre variable is the first one of least positive degree;
# the comments name the fibre kinds each polynomial reaches.
ODD_POLYS = [
    ("7", ("x", "y")),  # no variable of positive degree, nonzero
    ("0", ("x", "y")),  # no variable of positive degree, zero
    ("x*y - 1", ("x", "y")),  # degree 1; degree 0 at y = 0
    ("x*y", ("x", "y")),  # degree 1; every coefficient zero at y = 0
    ("y^2 - x^2", ("x", "y")),  # degree 2, discriminant 0 at x = 0, a square elsewhere
    ("y^2 + x", ("x", "y")),  # degree 2, discriminant -4x of either character
    ("x*y^2 + 2*y + x^2 + 1", ("x", "y")),  # degree 2; degree 1 at x = 0
    ("y^3 - x*y + x^2 + 1", ("y", "x")),  # fibre variable x, degree 2 in x
    ("x^3 + x*y^3 + y + 2", ("x", "y")),  # degree 3 in x; degree 3 at y = 0
    ("x^4 + y^5*x + y^4 + 1", ("x", "y")),  # degree 4
    ("y^2*t + x*y + t^2 - 3", ("x", "y", "t")),  # three variables, degree 1 in x
    ("x^3*t + y^3 + t^3 + x*y*t", ("x", "y", "t")),  # three variables, degree 3
]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_fibre_count_matches_brute_force_on_random_polynomials(q):
    field = FiniteField(q)
    rng = random.Random(q)
    polys = [parse_poly(text, names, modulus=field.p) for text, names in ODD_POLYS if q % 2]
    for _ in range(30):
        names = ("x", "y", "t")[: rng.randint(1, 3 if q <= 16 else 2)]
        terms = {
            tuple(rng.randrange(5) for _ in names): rng.randrange(field.p)
            for _ in range(rng.randint(1, 4))
        }
        polys.append(MultiPoly(names, terms, field.p))
    for poly in polys:
        if len(poly.variables) == 3 and q > 16:
            continue
        assert _affine_count(field, poly) == brute_zeros(field, poly), (q, str(poly))


# For characteristic 2, in the same form; the comments name the column
# branches each polynomial reaches, and the test checks that they are all met.
CHAR2_POLYS = [
    ("x^2 + x + 1", ("x",)),  # no root over F_2 (k = 1), trace 1 or 0 above
    ("x^2 + x + y^2", ("x", "y")),  # a = b = 1: trace 0 and trace 1
    ("x^2 + x*y + y^3 + 1", ("x", "y")),  # b = 0 at y = 0, c = 0 at y^3 = 1
    ("x^2 + y^3", ("x", "y")),  # no b column: b = 0 everywhere
    ("x^2*y^2 + x + y^2", ("x", "y")),  # a = 0 with b != 0 at y = 0
    ("x^2*y^2 + x*y^2 + y^3", ("x", "y")),  # every coefficient zero at y = 0
    ("x*y + y^2", ("x", "y")),  # degree 1; every coefficient zero at y = 0
    ("x^3 + x*y + y^4 + 1", ("x", "y")),  # degree 3
    ("x^3*y + x*y + y^5", ("x", "y")),  # degree 3; every coefficient zero at y = 0
    ("x^2*t + x*y + y^3 + t^3", ("x", "y", "t")),  # three variables: slabs of y, a = 0 at t = 0
]


def fibre_kinds(field, poly):
    """The column branches the fibres of poly reach, computed point by point."""
    i = min((max(e[v] for e in poly.terms), v) for v in range(len(poly.variables))
            if any(e[v] for e in poly.terms))[1]
    kinds = set()
    for point in itertools.product(field.elements(), repeat=len(poly.variables) - 1):
        cs = {}
        for exps, c in poly.terms.items():
            term = field.from_int(c)
            for j, x in zip([v for v in range(len(exps)) if v != i], point):
                term = field.mul(term, field.pow(x, exps[j]))
            cs[exps[i]] = field.add(cs.get(exps[i], 0), term)
        a, b, c = (cs.get(k, 0) for k in (2, 1, 0))
        if any(cs.get(k, 0) for k in cs if k >= 3):
            kinds.add("degree >= 3")
        elif not (a or b or c):
            kinds.add("all zero")
        elif not a:
            kinds.add("a = 0, b != 0" if b else "constant")
        elif not b:
            kinds.add("b = 0")
        elif not c:
            kinds.add("c = 0")
        elif field.k == 1:
            kinds.add("no root over F_2")
        else:
            z = field.mul(field.mul(a, c), field.pow(field.pow(b, 2), field.q - 2))
            kinds.add(f"trace {field.trace(z)}")
    return kinds


def test_fibre_count_matches_brute_force_in_characteristic_2():
    kinds = set()
    for q in (2, 4, 8, 16, 32):
        field = FiniteField(q)
        for text, names in CHAR2_POLYS:
            poly = parse_poly(text, names, modulus=2)
            assert _affine_count(field, poly) == brute_zeros(field, poly), (q, text)
            kinds |= fibre_kinds(field, poly)
    assert kinds >= {
        "all zero", "a = 0, b != 0", "b = 0", "c = 0", "no root over F_2",
        "trace 0", "trace 1", "degree >= 3",
    }


def test_fibre_count_over_no_variables():
    field = FiniteField(5)
    assert _affine_count(field, MultiPoly((), {(): 0}, 5)) == 1
    assert _affine_count(field, MultiPoly((), {(): 3}, 5)) == 0


def test_ex71_counts_up_to_q128():
    model = load_model(MODEL_PATH)
    assert [count_points(model, q) for q in (64, 128)] == [4273, 16641]


def test_count_work_guard_refuses_before_counting():
    model = load_model(MODEL_PATH)
    # 1024^2 * 4 fibre terms for chart1 plus 1024 * 3 for chart2
    with pytest.raises(ValueError, match=r"q=1024: counting points needs about 4197376 "):
        count_points(model, 1024)
    fermat = WeightedHypersurface(
        5,
        (1, 1, 1, 1),
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", ("x0", "x1", "x2", "x3"), modulus=5),
    )
    # every variable has degree 4: each fibre is evaluated at all q points
    with pytest.raises(ValueError, match=r"q=125: .* 976562500 field operations"):
        count_points(fermat, 125)


def test_fibre_degree_does_not_enter_the_work():
    # every variable of degree about 10^9: the fibres hold only the nonzero
    # coefficients, so the count costs what the guard estimates
    big = 10**9
    model = two_chart(
        f"y^{big} + x^{big + 1}*y + t^{big}*x + 1", f"x^{big}*y^{big} + y^{big - 1} + 1"
    )
    for q in (2, 4, 8):
        field = FiniteField(q)
        charts = (model.chart1, model.chart2_at_infinity)
        want = [brute_zeros(field, chart) for chart in charts]
        assert [_affine_count(field, chart) for chart in charts] == want, q
        assert count_points(model, q) == sum(want) + q + 1, q
    with pytest.raises(ValueError, match=r"q=1024: "):
        count_points(model, 1024)
    for q in (3, 9):
        field = FiniteField(q)
        poly = parse_poly(f"x^{big}*y^{big} - y^{big + 2} + x - 1", ("x", "y"), modulus=3)
        assert _affine_count(field, poly) == brute_zeros(field, poly), q


@pytest.mark.parametrize("text", ["a + b^2 + 1", "a + b^2"])
def test_count_refuses_a_polynomial_that_is_not_weighted_homogeneous(monkeypatch, text):
    """Its zeros are no union of orbits of the scaling action, so there is nothing to count."""
    model = WeightedHypersurface(3, (1, 1, 1, 1), parse_poly(text, ("a", "b", "c", "d"), modulus=3))

    def no_field(q):
        raise AssertionError("a field was built for a model that is refused")

    monkeypatch.setattr(height_module, "_field", no_field)
    for q in (3, 9):
        with pytest.raises(ValueError, match=r"not homogeneous for the given weights \(1, 1, 1, 1\)"):
            count_points(model, q)
    # the ordinarity test refuses it with the same message
    with pytest.raises(ValueError, match=r"^polynomial is not homogeneous for the given weights"):
        ordinary_test(model)


@pytest.mark.parametrize("q", [0, 1, 6, 9, -4])
def test_count_refuses_a_q_outside_the_characteristic(q):
    with pytest.raises(ValueError, match=f"q={q} is not a power of the characteristic 2"):
        count_points(load_model(MODEL_PATH), q)


def test_ordinarity_criterion():
    def quartic(p, text):
        return WeightedHypersurface(
            p, (1, 1, 1, 1), parse_poly(text, ("x0", "x1", "x2", "x3"), modulus=p)
        )

    assert ordinary_test(quartic(2, "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3"))
    assert not ordinary_test(quartic(2, "x0^4 + x1^4 + x2^4 + x3^4"))
    assert not ordinary_test(quartic(3, "x0^4 + x1^4 + x2^4 + x3^4"))
    with pytest.raises(ValueError):
        ordinary_test(quartic(2, "x0^3 + x1^3 + x2^3 + x3^3"))


def test_ordinarity_weighted_model():
    wp = WeightedHypersurface(
        2,
        (6, 4, 1, 1),
        parse_poly("y^2 + y*x*t*s + x^3 + t^7*s^5", ("y", "x", "t", "s"), modulus=2),
    )
    assert ordinary_test(wp)


def test_counts_at_one_q_share_one_field(monkeypatch):
    """count_points takes GF(q) from a small cache: built once per q, the counts unchanged."""
    built = []
    init = FiniteField.__init__

    def counted(self, q):
        built.append(q)
        init(self, q)

    monkeypatch.setattr(FiniteField, "__init__", counted)
    height_module._field.cache_clear()
    model = load_model(MODEL_PATH)
    assert [count_points(model, q) for q in (8, 8, 2, 8, 2)] == [45, 45, 9, 45, 9]
    assert built == [8, 2]
    assert height_module._field.cache_info().maxsize <= 16
    for _ in range(2):
        with pytest.raises(ValueError, match="q=6 is not a power of the characteristic 2"):
            count_points(model, 6)
        with pytest.raises(ValueError, match="not a prime power: 6"):
            height_module._field(6)
    assert built == [8, 2, 6, 6]  # a field that failed to build is not cached
