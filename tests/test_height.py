import itertools
import pathlib
from fractions import Fraction

import pytest

from rdpk3.chartring import RdpSpec, parse_rdp_key
from rdpk3.ffpoly import FiniteField, parse_poly
from rdpk3.height import (
    ALPHA_QUOTIENT_TABLE,
    ETALE_QUOTIENT_TABLE,
    INFINITE,
    NonOccurrenceError,
    WeightedHypersurface,
    compose_heights,
    count_points,
    counts_from_power_sums,
    etale_quotient_height,
    finite,
    greater_than,
    height_from_counts,
    height_from_rdp,
    height_gt_test,
    height_sequence,
    load_model,
    model_from_json,
    model_to_json,
    newton_elementary,
    ordinary_test,
    parse_sing_config,
    partial_resolution_coindex,
    picard_bound_ok,
    power_sums_from_counts,
    power_sums_from_elementary,
    quotient_height,
    rdp_realizable_on_k3,
    taut_realizable,
)

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


def test_partial_resolution_coindex_table():
    assert partial_resolution_coindex(2, "E8", 4, "E7") == 3
    assert partial_resolution_coindex(2, "E8", 3, "E7") == 2
    assert partial_resolution_coindex(2, "E8", 4, "D7") == 2
    assert partial_resolution_coindex(2, "E7", 3, "D6") == 2
    assert partial_resolution_coindex(2, "E7", 3, "E6") == 1
    assert partial_resolution_coindex(2, "E7", 1, "E6") == 0
    assert partial_resolution_coindex(2, "E6", 1, "D5") == 1
    assert partial_resolution_coindex(3, "E8", 2, "E7") == 1
    assert partial_resolution_coindex(3, "E7", 1, "E6") == 1
    assert partial_resolution_coindex(2, "D12", 5, "D11") == 4
    assert partial_resolution_coindex(2, "D13", 5, "D12") == 5
    assert partial_resolution_coindex(2, "D18", 8, "A17") == 0


def test_partial_resolution_rejects_non_subgraphs():
    with pytest.raises(ValueError):
        partial_resolution_coindex(2, "E6", 1, "E7")
    with pytest.raises(ValueError):
        partial_resolution_coindex(2, "D12", 5, "A12")


def test_parse_sing_config():
    assert parse_sing_config("2D4:0 + A2") == (("A", 2, 0), ("D", 4, 0), ("D", 4, 0))
    assert parse_sing_config("8A1") == (("A", 1, 0),) * 8
    assert parse_sing_config("D8:2") == (("D", 8, 2),)
    assert parse_sing_config("2 x E8:1, A2") == (("A", 2, 0), ("E", 8, 1), ("E", 8, 1))


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


def test_compose_heights():
    assert compose_heights(finite(1), finite(1)) == finite(1)
    assert compose_heights(finite(3), finite(2)) == finite(4)
    assert compose_heights(INFINITE, finite(5)) == INFINITE
    assert compose_heights(greater_than(2), finite(3)) == greater_than(4)
    assert compose_heights(INFINITE, INFINITE) == INFINITE


def test_dual_composition_exclusions():
    """The rank bound fails exactly on the (E8, E8) composition."""
    table = {"2D4:0": 2, "D8:0": 3, "E8:0": 4}
    failures = []
    for c1, h1 in table.items():
        for c2, h2 in table.items():
            h = compose_heights(finite(h1), finite(h2))
            back = parse_sing_config(c2.replace(":0", ""))
            if not picard_bound_ok(h, back):
                failures.append((c1, c2))
    assert failures == [("E8:0", "E8:0")]
    assert not picard_bound_ok(compose_heights(finite(2), finite(2)), "2E8")
    assert picard_bound_ok(compose_heights(finite(2), finite(2)), "2E6")


def test_two_chart_point_counts():
    model = load_model(MODEL_PATH)
    assert [count_points(model, q) for q in (2, 4, 8)] == [9, 25, 45]
    assert model_from_json(model_to_json(model)) == model


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
    es = [Fraction(x) for x in (3, -2, 5, 0, -1)]
    ps = power_sums_from_elementary(es)
    cts = counts_from_power_sums(ps, 3)
    assert all(c.denominator == 1 for c in cts)
    back = power_sums_from_counts([int(c) for c in cts], 3)
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
