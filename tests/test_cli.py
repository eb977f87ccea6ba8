import argparse
import json
import pathlib
import random
import time

import pytest

from rdpk3 import cli
from rdpk3.cli import _evaluation_work, main
from rdpk3.ffpoly import MultiPoly, parse_poly
from rdpk3.witt import SUPPORTED_RANGES, build_witt_table
from rdpk3.lattice import GramLattice, glue_from_json, signature

ROOT = pathlib.Path(__file__).resolve().parent.parent
EX71 = str(ROOT / "models" / "ex71.json")
A20GLUE = str(ROOT / "models" / "a20glue.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_witt_table_text(capsys):
    code, out, err = run(capsys, "witt", "table", "--p", "2", "--n", "2")
    assert code == 0
    assert "a0 + b0" in out


def test_witt_table_json(capsys):
    code, doc = run_json(capsys, "witt", "table", "--p", "3", "--n", "2")
    assert code == 0
    assert doc["schema"] == "rdpk3/witt-table/1"
    assert doc["p"] == 3
    assert len(doc["sum"]) == 2


def test_witt_table_unsupported_length(capsys):
    code, out, err = run(capsys, "witt", "table", "--p", "7", "--n", "3")
    assert code == 2
    assert "error:" in err


def test_witt_eval_add(capsys):
    code, out, err = run(
        capsys, "witt", "eval", "--p", "3", "--n", "2",
        "--op", "add", "--lhs", "(a,0)", "--rhs", "(b,0)",
    )
    assert code == 0
    assert "a + b" in out


def test_witt_eval_neg_rejects_rhs(capsys):
    code, out, err = run(
        capsys, "witt", "eval", "--p", "2", "--n", "2",
        "--op", "neg", "--lhs", "(a,0)", "--rhs", "(b,0)",
    )
    assert code == 2


def test_witt_eval_sub_json(capsys):
    code, doc = run_json(
        capsys, "witt", "eval", "--p", "5", "--n", "2",
        "--op", "sub", "--lhs", "(a+b,0)", "--rhs", "(b,0)",
    )
    assert code == 0
    assert doc["schema"] == "rdpk3/witt-eval/1"
    assert len(doc["result"]) == 2


def _sum_literal(names, n):
    return "(" + ",".join(["+".join(names)] * n) + ")"


@pytest.mark.parametrize("op", ["mul", "add", "sub"])
def test_witt_eval_refuses_an_expansion_over_the_work_guard(capsys, op):
    # 16 terms per component: mul ran 57 s into a MemoryError, add 20 s
    lhs = _sum_literal([f"a{i}" for i in range(16)], 4)
    rhs = _sum_literal([f"b{i}" for i in range(16)], 4)
    start = time.perf_counter()
    code, out, err = run(capsys, "witt", "eval", "--p", "2", "--n", "4", "--op", op, "--lhs", lhs, "--rhs", rhs)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"error: {op} in W_4 at p=2 needs about " in err
    assert "term operations, more than the guard 20000000" in err
    assert "Traceback" not in err


def test_witt_eval_bounds_the_parse_of_its_literals(capsys, monkeypatch):
    # 6,000 terms a side, one new variable per term: the parse alone took 27 s
    monkeypatch.setattr(cli, "_witt_literal", lambda *args: pytest.fail("the literals were parsed"))
    lhs = "(" + "+".join(f"a{i}" for i in range(6000)) + ")"
    rhs = "(" + "+".join(f"b{i}" for i in range(6000)) + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, "witt", "eval", "--p", "7", "--n", "1", "--op", "add", "--lhs", lhs, "--rhs", rhs)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: add in W_1 at p=7 reads about 12000 terms over 12000 variables, "
        "144000000 exponent entries, more than the guard 20000000\n"
    )


def test_witt_eval_answers_under_the_work_guard(capsys):
    lhs = _sum_literal([f"a{i}" for i in range(4)], 4)
    rhs = _sum_literal([f"b{i}" for i in range(4)], 4)
    code, doc = run_json(capsys, "witt", "eval", "--p", "2", "--n", "4", "--op", "mul", "--lhs", lhs, "--rhs", rhs)
    names = sorted(f"{v}{i}" for v in "ab" for i in range(4))
    a, b = (parse_poly(f"{v}0+{v}1+{v}2+{v}3", names, 2) for v in "ab")
    assert code == 0 and doc["result"][0] == str(a * b)


def test_the_work_estimate_bounds_every_evaluation(monkeypatch):
    """No result has more terms, and no evaluation more term operations, than estimated."""
    made = 0

    def counted(op, cost):
        def wrapper(x, y):
            nonlocal made
            made += cost(len(x.terms), len(y.terms) if isinstance(y, MultiPoly) else 1)
            return op(x, y)
        return wrapper

    monkeypatch.setattr(MultiPoly, "__mul__", counted(MultiPoly.__mul__, int.__mul__))
    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(MultiPoly, name, counted(getattr(MultiPoly, name), int.__add__))
    rng = random.Random(21)
    names = [f"x{i}" for i in range(4)]
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            table = build_witt_table(p, n)
            for _ in range(5):
                xs = [
                    parse_poly("+".join(rng.sample(names, rng.randint(1, 4))), names, p)
                    for _ in range(2 * n)
                ]
                for fn, args in ((table.add, xs), (table.mul, xs), (table.neg, xs[:n])):
                    work, bounds = _evaluation_work(fn, [len(x.terms) for x in args])
                    made = 0
                    results = fn(*args)
                    assert made <= work, (p, n)
                    assert all(len(r.terms) <= b for r, b in zip(results, bounds)), (p, n)


def test_chart_show_rdp(capsys):
    code, out, err = run(capsys, "chart", "show", "2:D12:3")
    assert code == 0
    assert "z^2 = x*y^6 + x^2*y + (x*y^3)*z" in out


def test_chart_show_quotient_json(capsys):
    code, doc = run_json(capsys, "chart", "show", "quot:2:alpha:D8")
    assert code == 0
    assert doc["schema"] == "rdpk3/chart/1"
    assert doc["group"] == "alpha"


def test_chart_show_bad_key(capsys):
    code, out, err = run(capsys, "chart", "show", "2:D12:9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("key", ["2:D99999999999:3", "2:D99999999:3"])
def test_chart_show_refuses_a_key_with_too_many_coindexes(capsys, key):
    # the catalog coindexes of D_N are 0..N/2 - 1, listed in the output
    start = time.perf_counter()
    code, out, err = run(capsys, "chart", "show", key)
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert f"error: catalog key {key!r} has maximal coindex" in err
    assert "over the coindex guard" in err
    assert out == ""


def test_chart_show_under_the_coindex_guard_is_unchanged(capsys):
    code, out, err = run(capsys, "chart", "show", "2:D21:3")
    assert code == 0
    assert out == (
        "chart for D21 with coindex 3, characteristic 2\n"
        "  relation: z^2 = x^2*y + (y^10 + x*y^7)*z\n"
        "  designated elements: x = x, y = y, z = z\n"
        "  coindex range: 0..9\n"
    )
    code, doc = run_json(capsys, "chart", "show", "2:D21:3")
    assert doc["catalog_coindexes"] == list(range(10))
    assert doc["max_coindex"] == 9


@pytest.mark.parametrize(
    "argv,named",
    [
        (("chart", "show", "2:E8:x"), "bad catalog key '2:E8:x': coindex 'x' is not an integer"),
        (("chart", "show", "x:E8"), "bad catalog key 'x:E8': prime 'x' is not an integer"),
        (("chart", "show", "quot:x:alpha:D4"),
         "bad catalog key 'quot:x:alpha:D4': prime 'x' is not an integer"),
        (("height", "from-rdp", "2:D10:q"), "bad catalog key '2:D10:q': coindex 'q' is not an integer"),
        (("localcoh", "frob", "--chart", "2:D12:x", "--n", "2", "--j", "1"),
         "bad catalog key '2:D12:x': coindex 'x' is not an integer"),
    ],
    ids=["chart-coindex", "chart-prime", "chart-quotient-prime", "height-coindex", "frob-coindex"],
)
def test_catalog_keys_name_a_field_that_is_not_an_integer(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert named in err
    assert "invalid literal" not in err
    assert out == ""


def test_localcoh_frob_d_family(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "1"
    )
    assert code == 0
    assert "frobenius:2:D" in out


def test_localcoh_frob_prints_the_reproduce_line(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "1"
    )
    assert code == 0
    _code, report, _err = run(capsys, "reproduce", "--only", "4.2")
    rid = "frobenius:2:D:N12:r03:n02:j01"
    [line] = [ln for ln in report.splitlines() if f" {rid}: " in ln]
    assert out == line + "\n"


def test_localcoh_frob_inadmissible_exponent(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "2"
    )
    assert code == 2
    assert "C1(2,2)" in err


def test_localcoh_frob_d_key_outside_char_2(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "3:D8:0", "--n", "1", "--j", "1"
    )
    assert code == 2
    assert "3:D8:0" in err
    assert out == ""


def test_localcoh_frob_zero_length(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "0", "--j", "1"
    )
    assert code == 2
    assert "length 0" in err


@pytest.mark.parametrize(
    "n,j,named",
    [
        ("20000", "1", "W_20000 at p=2 out of supported range 1..4"),
        (str(10**11), "1", f"W_{10**11} at p=2 out of supported range 1..4"),
        ("2", "9" * 300, "C1(2,99999"),
    ],
    ids=["n-20000", "n-1e11", "j-300-digits"],
)
def test_localcoh_frob_refuses_a_huge_length_or_exponent_quickly(capsys, n, j, named):
    # the threshold 2^(n-1) (2j - 1) + 1 was built before n was checked:
    # n = 20000 hit the int-to-string digit limit, n = 10^11 a MemoryError
    start = time.perf_counter()
    code, out, err = run(capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", n, "--j", j)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert named in err and len(err) < 300
    assert "Traceback" not in err and "Exceeds the limit" not in err


def test_localcoh_frob_zero_ideal_exponent(capsys):
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "0"
    )
    assert code == 2
    assert "j = 0" in err
    assert "power index" not in err


def test_localcoh_frob_requires_j_for_d(capsys):
    code, out, err = run(capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2")
    assert code == 2


def test_localcoh_frob_e8_pair(capsys):
    code, doc = run_json(
        capsys, "localcoh", "frob", "--chart", "2:E8:1", "--n", "1", "--j", "2"
    )
    assert code == 0
    assert doc["schema"] == "rdpk3/check/2"
    assert doc["status"] == "pass"


def test_localcoh_verify_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["localcoh", "verify", "--all"])
    assert exc.value.code == 2


def test_localcoh_frob_a_family_refused(capsys):
    code, out, err = run(capsys, "localcoh", "frob", "--chart", "3:A2:0", "--n", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (("3:D8", "--n", "1", "--j", "1"),
         "the D-family check is for characteristic 2 only, not '3:D8'"),
        (("2:D12:3", "--n", "2"), "the D-family check needs --j"),
        (("2:D12:3", "--n", "0", "--j", "1"), "length 0 out of range; need n >= 1"),
        (("2:D12:3", "--n", "2", "--j", "0"), "ideal exponent j = 0 out of range; need j >= 1"),
        (("2:D12:3", "--n", "9", "--j", "1"), "W_9 at p=2 out of supported range 1..4"),
        (("2:D12:3", "--n", "2", "--j", "2"), "floor(N/2) = 6 < C1(2,2) = 7"),
        (("2:D14:6", "--n", "2", "--j", "1"), "floor(N/2) - r = 1 < C1(1,1) = 2"),
        (("3:A2:0", "--n", "1"), "no torsion-class Frobenius data for the A2 chart"),
        (("2:E7:0", "--n", "1", "--j", "3"),
         "--j only applies to D-family charts (or --j 2 --n 1 on 2:E8)"),
        (("2:E8:1", "--n", "2", "--j", "2"),
         "--j only applies to D-family charts (or --j 2 --n 1 on 2:E8)"),
        (("2:E8:2", "--n", "1", "--j", "2"), "only coindexes 0 and 1 are covered here"),
        (("2:E7:0", "--n", "4"), "length 4 out of range 1..3"),
        (("2:E8:0", "--n", "0"), "length 0 out of range 1..3"),
        (("3:E8:2", "--n", "2"), "coindex 2 out of range 0..1"),
        (("5:E6", "--n", "1"), "(p, N) = (5, 6) is not in the family"),
    ],
    ids=["d-char-3-as-typed", "d-no-j", "d-n-0", "d-j-0", "d-n-unsupported", "d-c1-n",
         "d-c1-n-minus-1", "a-chart", "e-j-3", "e8-j-2-n-2", "e8-pair-r-2", "e-n-above-table",
         "e-n-0", "e-r-above-threshold", "e-not-in-family"],
)
def test_localcoh_frob_refusals_print_their_reason(capsys, argv, stderr):
    code, out, err = run(capsys, "localcoh", "frob", "--chart", *argv)
    assert (code, out, err) == (2, "", f"error: {stderr}\n")


@pytest.mark.parametrize(
    "argv,named,limit",
    [
        (("2:E8", "--n", "9" * 4_000), "length 999", 200),
        (("3:D" + "9" * 4_000, "--n", "1", "--j", "1"), "characteristic 2 only, not '3:D999", 200),
        # floor(N/2), j and C1(1, j): three echoes, each cut
        (("2:D" + "9" * 4_000 + ":0", "--n", "1", "--j", "9" * 4_000), "floor(N/2) = 4999", 400),
    ],
    ids=["e-length", "d-key-outside-char-2", "d-threshold"],
)
def test_localcoh_frob_refusals_cut_a_long_echo(capsys, argv, named, limit):
    code, out, err = run(capsys, "localcoh", "frob", "--chart", *argv)
    assert code == 2 and out == ""
    assert named in err and "characters)" in err and len(err) < limit


def test_height_from_rdp(capsys):
    code, doc = run_json(capsys, "height", "from-rdp", "2:D10:3")
    assert code == 0
    assert doc["schema"] == "rdpk3/height/1"
    assert doc["height"] == {"kind": "finite", "bound": 2}
    assert doc["realizable"] is True
    assert doc["non_occurrence"] == ""


def test_height_from_rdp_non_occurrence(capsys):
    code, doc = run_json(capsys, "height", "from-rdp", "2:E8:1")
    assert code == 0
    assert doc["height"] is None
    assert "does not occur" in doc["non_occurrence"]
    assert doc["realizable"] is False


def test_height_count_tower(capsys):
    code, doc = run_json(
        capsys, "height", "count", "--model", EX71, "--q", "2,4,8"
    )
    assert code == 0
    assert doc["schema"] == "rdpk3/count/1"
    assert doc["counts"] == [
        {"q": 2, "count": 9},
        {"q": 4, "count": 25},
        {"q": 8, "count": 45},
    ]
    assert doc["height"] == {"kind": "finite", "bound": 3}


def test_height_count_non_tower_skips_height(capsys):
    code, doc = run_json(capsys, "height", "count", "--model", EX71, "--q", "2,8")
    assert code == 0
    assert "height" not in doc or doc["height"] is None


def test_height_count_up_to_q128(capsys):
    code, doc = run_json(capsys, "height", "count", "--model", EX71, "--q", "2,4,8,16,32,64,128")
    assert code == 0
    assert [c["count"] for c in doc["counts"]] == [9, 25, 45, 289, 1089, 4273, 16641]
    assert doc["height"] == {"kind": "finite", "bound": 3}


def test_height_count_refuses_a_field_over_the_work_guard(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "height", "count", "--model", EX71, "--q", "1024")
    # the refusal comes from the estimate, before any fibre is counted
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "q=1024" in err and "4197376" in err
    assert "Traceback" not in err
    assert out == ""


def test_height_count_refuses_a_later_field_before_counting_any(capsys, monkeypatch):
    import rdpk3.height

    def no_counting(*_args):
        raise AssertionError("a field was counted before every q was checked")

    monkeypatch.setattr(rdpk3.height, "_affine_count", no_counting)
    code, out, err = run(capsys, "height", "count", "--model", EX71, "--q", "256,512")
    assert code == 2
    assert "q=512: counting points needs about 1050112 field operations" in err
    assert out == ""


def test_height_count_counts_each_distinct_field_once(capsys, monkeypatch):
    import rdpk3.cli

    counted = []
    count_points = rdpk3.cli.count_points

    def recorded(model, q):
        counted.append(q)
        return count_points(model, q)

    monkeypatch.setattr(rdpk3.cli, "count_points", recorded)
    start = time.perf_counter()
    code, doc = run_json(capsys, "height", "count", "--model", EX71, "--q", ",".join(["32"] * 3000))
    assert time.perf_counter() - start < 2
    assert code == 0 and counted == [32]
    assert doc["counts"] == [{"q": 32, "count": 1089}] * 3000
    # every entry is still listed, in the order given
    code, doc = run_json(capsys, "height", "count", "--model", EX71, "--q", "4,2,4,8,2")
    assert code == 0 and counted == [32, 4, 2, 8]
    assert [(c["q"], c["count"]) for c in doc["counts"]] == [(4, 25), (2, 9), (4, 25), (8, 45), (2, 9)]
    assert doc["height"] is None


@pytest.mark.parametrize("text", ["a + b^2 + 1", "a + b^2"])
def test_height_count_refuses_a_polynomial_that_is_not_weighted_homogeneous(capsys, tmp_path, text):
    doc = weighted_doc(characteristic=3, weights=[1, 1, 1, 1], variables=list("abcd"), polynomial=text)
    code, out, err = run(capsys, "height", "count", "--model", write_json(tmp_path, doc), "--q", "3,9")
    assert code == 2
    assert "not homogeneous for the given weights (1, 1, 1, 1)" in err
    assert "Traceback" not in err
    assert out == ""


def test_height_count_missing_model(capsys):
    code, out, err = run(
        capsys, "height", "count", "--model", "/nonexistent.json", "--q", "2"
    )
    assert code == 2



def ex71_doc():
    return json.loads(pathlib.Path(EX71).read_text(encoding="utf-8"))


def weighted_doc(**fields):
    doc = {
        "schema": "rdpk3/surface-model/1",
        "kind": "weighted-hypersurface",
        "characteristic": 2,
        "weights": [1, 1, 1],
        "variables": ["x", "y", "z"],
        "polynomial": "x^3 + y^3 + z^3",
    }
    doc.update(fields)
    return doc


def without(doc, key):
    doc.pop(key)
    return doc


# (id, model document, text the error must contain)
MODEL_DEFECTS = [
    ("no-chart1", lambda: without(ex71_doc(), "chart1"), "model needs a 'chart1' field"),
    (
        "no-chart2",
        lambda: without(ex71_doc(), "chart2_at_infinity"),
        "model needs a 'chart2_at_infinity' field",
    ),
    (
        "float-characteristic",
        lambda: {**ex71_doc(), "characteristic": 2.9},
        "'characteristic' must be an integer, got 2.9",
    ),
    ("chart1-string", lambda: {**ex71_doc(), "chart1": "y^2"}, "'chart1' must be an object"),
    (
        "chart1-no-polynomial",
        lambda: {**ex71_doc(), "chart1": {"variables": ["x", "y", "t"]}},
        "model chart1 needs a 'polynomial' field",
    ),
    (
        "float-weights",
        lambda: weighted_doc(weights=[1.5, 1, 1]),
        "'weights' must be a list of integers, got [1.5, 1, 1]",
    ),
    (
        "bool-characteristic",
        lambda: weighted_doc(characteristic=True),
        "'characteristic' must be an integer, got true",
    ),
    (
        "no-polynomial",
        lambda: without(weighted_doc(), "polynomial"),
        "model needs a 'polynomial' field",
    ),
    (
        "variables-string",
        lambda: weighted_doc(variables="xyz"),
        "'variables' must be a list of strings",
    ),
    ("not-an-object", lambda: [], "model must be a JSON object, got []"),
    (
        "repeated-variable",
        lambda: {**ex71_doc(), "chart1": {**ex71_doc()["chart1"], "variables": ["x", "x", "t"]}},
        "variable 'x' is listed twice",
    ),
]


@pytest.mark.parametrize(
    "make,named", [d[1:] for d in MODEL_DEFECTS], ids=[d[0] for d in MODEL_DEFECTS]
)
def test_height_count_rejects_malformed_model(capsys, tmp_path, make, named):
    path = write_json(tmp_path, make())
    code, out, err = run(capsys, "height", "count", "--model", path, "--q", "2")
    assert code == 2
    assert named in err
    assert "Traceback" not in err
    assert out == ""

def test_height_ordinary(capsys):
    code, doc = run_json(
        capsys, "height", "ordinary",
        "--weights", "1,1,1,1", "--p", "2",
        "--f", "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3",
    )
    assert code == 0
    assert doc["ordinary"] is True


@pytest.mark.parametrize("f, ordinary", [
    ("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", True),
    ("x0^4 + x1^4 + x2^4 + x3^4", False),
])
def test_height_ordinary_expands_the_power_once(capsys, monkeypatch, f, ordinary):
    """One ordinarity test per command: the verdict is read off the height."""
    from rdpk3 import height
    calls = []
    real = height.ordinary_test

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(height, "ordinary_test", counted)
    monkeypatch.setattr(cli, "ordinary_test", counted, raising=False)
    code, doc = run_json(capsys, "height", "ordinary", "--weights", "1,1,1,1", "--p", "3", "--f", f)
    assert code == 0
    assert len(calls) == 1
    assert doc["ordinary"] is ordinary
    assert doc["height"] == {"kind": "finite" if ordinary else "greater-than", "bound": 1}


def test_height_ordinary_counts_the_variables_before_the_parse(capsys):
    many = "+".join(f"a{i}" for i in range(4000))
    start = time.perf_counter()
    code, out, err = run(capsys, "height", "ordinary", "--p", "5", "--weights", "1,1,1,1", "--f", many)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "the polynomial has 4000 variables and --weights has 4 entries" in err
    code, out, err = run(
        capsys, "height", "ordinary", "--p", "5", "--weights", "1,1,1",
        "--vars", "x0,x1,x2,x3", "--f", "x0^4 + x1^4 + x2^4 + x3^4",
    )
    assert code == 2
    assert "the polynomial has 4 variables and --weights has 3 entries" in err


def test_height_ordinary_bounds_the_unknown_variables_message(capsys):
    many = "+".join(f"a{i}" for i in range(4000))
    code, out, err = run(
        capsys, "height", "ordinary", "--p", "2", "--weights", "1,1,1,1",
        "--vars", "x0,x1,x2,x3", "--f", many,
    )
    assert code == 2 and out == ""
    assert len(err.encode()) < 300
    assert "unknown variables ['a0', 'a1', 'a10'] and 3997 more in 'a0+a1+" in err
    assert f"({len(repr(many))} characters)" in err
    code, out, err = run(
        capsys, "height", "ordinary", "--p", "2", "--weights", "1,1,1,1",
        "--vars", "x0,x1,x2,x3", "--f", "x0^4+q",
    )
    assert code == 2
    assert err == "error: unknown variables ['q'] in 'x0^4+q'\n"


def test_height_quotient(capsys):
    code, doc = run_json(
        capsys, "height", "quotient", "--G", "alpha", "--p", "2", "--sing", "E8:0"
    )
    assert code == 0
    assert doc["height"] == {"kind": "finite", "bound": 4}
    code, doc = run_json(
        capsys, "height", "quotient", "--G", "etale", "--p", "2", "--sing", "E8:2"
    )
    assert code == 0
    assert doc["height"] == {"kind": "finite", "bound": 3}


@pytest.mark.parametrize(
    "sing,token",
    [("99999999999xD4:1", "'99999999999xD4:1'"), ("20xA1 + A2 + 2xD4:1", "'2xD4:1'")],
)
def test_height_quotient_refuses_more_points_than_a_k3_has(capsys, sing, token):
    start = time.perf_counter()
    code, out, err = run(capsys, "height", "quotient", "--G", "mu", "--p", "2", "--sing", sing)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"singularity token {token} takes the configuration over 21 points" in err
    assert out == ""


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--dynkin", "A100000", "root lattice A100000 has rank 100000"),
        ("--diagonal", ",".join(["2"] * 129), "diagonal lattice has rank 129"),
        ("--gram", json.dumps([[1]] * 200), "Gram matrix has rank 200"),
    ],
    ids=["dynkin", "diagonal", "gram"],
)
def test_lattice_input_over_the_rank_guard_is_refused(capsys, flag, value, named):
    code, out, err = run(capsys, "lattice", "disc", flag, value)
    assert code == 2
    assert f"{named}, over the rank guard 128" in err
    assert out == ""


def test_lattice_disc(capsys):
    code, doc = run_json(capsys, "lattice", "disc", "--dynkin", "A20")
    assert code == 0
    assert doc["schema"] == "rdpk3/lattice/1"
    assert doc["disc_orders"] == [21]
    assert doc["rank"] == 20


def test_lattice_disc_gram(capsys):
    code, doc = run_json(capsys, "lattice", "disc", "--gram", "[[2,5],[5,2]]")
    assert code == 0
    assert doc["det"] == -21
    assert doc["signature"] == [1, 1]


@pytest.mark.parametrize(
    "gram,named",
    [
        ("5", "got 5"),
        ("null", "got null"),
        ("[5]", "row 0 must be a list, got 5"),
        ("[[1.5]]", "entry [0][0] must be an integer, got 1.5"),
        ("[[true]]", "entry [0][0] must be an integer, got true"),
    ],
)
def test_lattice_disc_rejects_inexact_gram(capsys, gram, named):
    code, out, err = run(capsys, "lattice", "disc", "--gram", gram)
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_lattice_glue_rejects_inexact_gram(capsys, tmp_path):
    spec = json.loads(pathlib.Path(A20GLUE).read_text(encoding="utf-8"))
    spec["right"] = {"gram": [[2, 1], [1, 0.5]]}
    path = tmp_path / "glue.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, "lattice", "glue", "--spec", str(path))
    assert code == 2
    assert "entry [1][1] must be an integer, got 0.5" in err



def write_json(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def a20_spec():
    return json.loads(pathlib.Path(A20GLUE).read_text(encoding="utf-8"))


# (id, edit of the A20 glue spec, text the error must contain)
GLUE_SPEC_DEFECTS = [
    ("no-left", lambda s: s.pop("left"), "glue spec needs a 'left' field"),
    ("no-right", lambda s: s.pop("right"), "glue spec needs a 'right' field"),
    ("no-pairs", lambda s: s.pop("pairs"), "glue spec needs a 'pairs' field"),
    ("no-p", lambda s: s.pop("p"), "glue spec needs a 'p' field"),
    (
        "no-left-vector",
        lambda s: s["pairs"][0].pop("left_vector"),
        "pairs[0] needs a 'left_vector' field",
    ),
    (
        "no-right-vector",
        lambda s: s["pairs"][0].pop("right_vector"),
        "pairs[0] needs a 'right_vector' field",
    ),
    ("string-p", lambda s: s.update(p="3"), "'p' must be an integer, got \"3\""),
    ("float-p", lambda s: s.update(p=3.5), "'p' must be an integer, got 3.5"),
    ("zero-p", lambda s: s.update(p=0), "glue needs a prime p, got 0"),
    ("negative-p", lambda s: s.update(p=-3), "glue needs a prime p, got -3"),
    ("composite-p", lambda s: s.update(p=15), "glue needs a prime p, got 15"),
    ("prime-p-over-2^16", lambda s: s.update(p=65537), "glue needs a prime p, got 65537"),
    ("pairs-object", lambda s: s.update(pairs={}), "'pairs' must be a list, got {}"),
    (
        "pair-number",
        lambda s: s["pairs"].__setitem__(0, 5),
        "pairs[0] must be a JSON object, got 5",
    ),
    (
        "vector-string",
        lambda s: s["pairs"][0].update(left_vector="1/7"),
        "'left_vector' must be a list",
    ),
    ("left-list", lambda s: s.update(left=[2]), "'left' must be an object, got [2]"),
    ("left-empty", lambda s: s.update(left={}), "needs a dynkin, diagonal, or gram field"),
    ("dynkin-number", lambda s: s.update(left={"dynkin": 20}), "'dynkin' must be a string, got 20"),
    (
        "diagonal-float",
        lambda s: s.update(right={"diagonal": [2.7, -2]}),
        "'diagonal' must be a list of integers, got [2.7, -2]",
    ),
    (
        "diagonal-bool",
        lambda s: s.update(right={"diagonal": [True, -2]}),
        "'diagonal' must be a list of integers, got [true, -2]",
    ),
    ("diagonal-empty", lambda s: s.update(right={"diagonal": []}), "'diagonal' is empty"),
    ("gram-empty", lambda s: s.update(right={"gram": []}), "'gram' is empty"),
    (
        "vector-bool",
        lambda s: s["pairs"][0]["right_vector"].__setitem__(1, True),
        "pairs[0] field 'right_vector' entry 1 must be an integer or an \"a/b\" string, got true",
    ),
    (
        "vector-float",
        lambda s: s["pairs"][0]["left_vector"].__setitem__(0, 0.1),
        "pairs[0] field 'left_vector' entry 0 must be an integer or an \"a/b\" string, got 0.1",
    ),
    (
        "vector-decimal-string",
        lambda s: s["pairs"][0]["left_vector"].__setitem__(0, "0.5"),
        "pairs[0] field 'left_vector' entry 0 must be",
    ),
    (
        "vector-zero-denominator",
        lambda s: s["pairs"][0]["right_vector"].__setitem__(0, "4/0"),
        "pairs[0] field 'right_vector' entry 0 must be",
    ),
]


@pytest.mark.parametrize(
    "edit,named", [d[1:] for d in GLUE_SPEC_DEFECTS], ids=[d[0] for d in GLUE_SPEC_DEFECTS]
)
def test_lattice_glue_rejects_malformed_spec(capsys, tmp_path, edit, named):
    spec = a20_spec()
    edit(spec)
    code, out, err = run(capsys, "lattice", "glue", "--spec", write_json(tmp_path, spec))
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_lattice_glue_refuses_a_p_over_the_prime_bound_at_once(capsys, tmp_path):
    # trial division would spin on this 21-digit prime
    spec = a20_spec()
    spec["p"] = 100000000000000000039
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "glue", "--spec", write_json(tmp_path, spec))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "glue needs a prime p, got 100000000000000000039, not a prime below 2^16" in err
    assert "Traceback" not in err and out == ""


def test_lattice_glue_rejects_a_spec_that_is_not_an_object(capsys, tmp_path):
    code, out, err = run(capsys, "lattice", "glue", "--spec", write_json(tmp_path, [1, 2]))
    assert code == 2
    assert "glue spec must be a JSON object, got [1, 2]" in err


HUGE_LIST = [0] * 200_000
HUGE_LIST_CUT = f"… ({len(json.dumps(HUGE_LIST))} characters)"
# Python's int() refuses more than 4,300 digits
HUGE_DIGITS = "9" * 5_000
# stands in a document for the bare JSON integer HUGE_DIGITS, which json.dumps cannot write
HUGE_INT = "a 5,000-digit integer"


def _vector_entry(spec, text):
    spec["pairs"][0]["right_vector"][0] = text
    return spec


@pytest.mark.parametrize(
    "argv,make,field,cut",
    [
        (
            ("height", "count", "--model", "{path}", "--q", "2"),
            lambda: {**ex71_doc(), "characteristic": HUGE_LIST},
            "model field 'characteristic' must be an integer, got [0, 0, ",
            HUGE_LIST_CUT,
        ),
        (
            ("lattice", "glue", "--spec", "{path}"),
            lambda: {**a20_spec(), "p": HUGE_LIST},
            "glue spec field 'p' must be an integer, got [0, 0, ",
            HUGE_LIST_CUT,
        ),
        (
            ("lattice", "glue", "--spec", "{path}"),
            lambda: {**a20_spec(), "right": {"gram": [[HUGE_LIST]]}},
            "Gram entry [0][0] must be an integer, got [0, 0, ",
            HUGE_LIST_CUT,
        ),
        (
            ("lattice", "glue", "--spec", "{path}"),
            lambda: {**a20_spec(), "p": HUGE_INT},
            "an integer in glue spec ",
            "… (5000 characters)",
        ),
        (
            ("lattice", "glue", "--spec", "{path}"),
            lambda: _vector_entry(a20_spec(), HUGE_DIGITS + "/7"),
            "glue spec pairs[0] field 'right_vector' entry 0 has too many digits: 999",
            "… (5000 characters)",
        ),
        (
            ("height", "count", "--model", "{path}", "--q", "2"),
            lambda: {**ex71_doc(), "chart1": {"variables": ["x", "y", "t"],
                                              "polynomial": f"y^2 + {HUGE_DIGITS}*x^3 + t^5"}},
            "coefficient in term '999",
            "… (5000 characters)",
        ),
    ],
    ids=["model-field", "glue-field", "gram-entry", "glue-p-digits", "glue-entry-digits",
         "model-coefficient-digits"],
)
def test_a_huge_json_value_is_echoed_cut_short(capsys, tmp_path, argv, make, field, cut):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make()).replace(json.dumps(HUGE_INT), HUGE_DIGITS), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert "Traceback" not in err and "Exceeds the limit" not in err
    assert field in err
    assert cut in err
    assert len(err.encode("utf-8")) < 300
    assert out == ""


@pytest.mark.parametrize(
    "argv,named",
    [
        (("chart", "show", "x" * 50_000), "bad catalog key 'xxx"),
        (("chart", "show", "7" * 5_000 + ":E8:0"), "prime '777"),
        (("height", "from-rdp", "2:D" + "7" * 5_000 + ":0"), "bad singularity symbol 'D777"),
        (("localcoh", "frob", "--chart", "7" * 5_000 + ":E8", "--n", "1"), "prime '777"),
        (("height", "quotient", "--G", "mu", "--p", "2", "--sing", "x" * 50_000),
         "bad singularity token 'xxx"),
        (("height", "ordinary", "--p", "9" * 4_000, "--weights", "1,1,1,1",
          "--vars", "x0,x1,x2,x3", "--f", "x0^4+x1^4+x2^4+x3^4"),
         "modulus must be a prime below 2^16, got 999"),
        (("chart", "show", "2:E" + "9" * 4_000 + ":0"), "E_999"),
        (("chart", "show", "2:D12:" + "9" * 4_000), "coindex 999"),
        (("witt", "table", "--p", "9" * 4_000, "--n", "1"), "unsupported prime 999"),
        (("height", "count", "--model", EX71, "--q", "9" * 4_000), "q=999"),
        (("height", "quotient", "--G", "mu", "--p", "2", "--sing", "D" + "9" * 4_000),
         "mu_2 maximal quotient must have singular locus A1:0"),
        (("chart", "show", "quot:2:alpha:D" + "9" * 4_000), "needs D_(2^n), got D999"),
        # Python refuses int() past 4,300 digits, so these fail in the comma-separated parse
        (("lattice", "disc", "--diagonal", "2," + "9" * 5_000),
         "expected a comma-separated integer list, got '2,999"),
        (("height", "count", "--model", EX71, "--q", "2," + "9" * 5_000),
         "expected a comma-separated integer list, got '2,999"),
        (("height", "ordinary", "--p", "2", "--weights", "1,1,1," + "9" * 5_000,
          "--vars", "x0,x1,x2,x3", "--f", "x0^4+x1^4+x2^4+x3^4"),
         "expected a comma-separated integer list, got '1,1,1,999"),
        (("witt", "eval", "--p", "2", "--n", "1", "--op", "add", "--lhs", f"(a^{HUGE_DIGITS})",
          "--rhs", "(b)"), "bad exponent '999"),
        # and so these name the integer's term, token or input
        (("witt", "eval", "--p", "2", "--n", "1", "--op", "add", "--lhs", f"({HUGE_DIGITS}*a)",
          "--rhs", "(b)"), "coefficient in term '999"),
        (("height", "ordinary", "--p", "2", "--weights", "1,1,1,1", "--vars", "x0,x1,x2,x3",
          "--f", f"x0^4+x1^4+x2^4+x3^4+{HUGE_DIGITS}*x0*x1*x2*x3"), "coefficient in term '999"),
        (("height", "quotient", "--G", "alpha", "--p", "2", "--sing", f"{HUGE_DIGITS}xD4"),
         "singularity token '999"),
        (("height", "quotient", "--G", "alpha", "--p", "2", "--sing", f"D4:{HUGE_DIGITS}"),
         "singularity token 'D4:999"),
        (("lattice", "disc", "--gram", f"[[{HUGE_DIGITS}]]"),
         "an integer in --gram has too many digits: 999"),
    ],
    ids=["catalog-key", "key-prime", "symbol", "frob-chart", "sing-token", "modulus",
         "symbol-number", "coindex", "witt-prime", "field-size", "sing-locus", "quotient-symbol",
         "diagonal-list", "q-list", "weights-list", "exponent", "witt-coefficient",
         "ordinary-coefficient", "sing-multiplicity", "sing-coindex", "gram-digits"],
)
def test_a_huge_argument_is_echoed_cut_short(capsys, argv, named):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert named in err
    assert "Exceeds the limit" not in err
    assert "characters)" in err
    assert len(err.encode("utf-8")) < 300
    assert out == ""


@pytest.mark.parametrize(
    "argv,option",
    [
        (("localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "9" * 5_000), "--j"),
        (("--seed", "9" * 5_000, "reproduce"), "--seed"),
    ],
    ids=["j", "seed"],
)
def test_a_huge_integer_option_is_refused_with_a_cut_echo(capsys, argv, option):
    # Python refuses int() past 4,300 digits, and argparse would quote the whole token
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {option}: invalid integer '999" in err
    assert "… (5002 characters)" in err
    assert len(err.encode("utf-8")) < 300
    assert out == ""


def test_every_integer_option_shares_one_type():
    actions = []
    parsers = [cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.type is not None:
                actions.append(action)
    assert len(actions) == 9
    assert {action.type for action in actions} == {cli._int_option}


def test_lattice_diagonal_flag_rejects_non_integers(capsys):
    code, out, err = run(capsys, "lattice", "disc", "--diagonal", "2.5")
    assert code == 2
    assert "2.5" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("lattice", "disc", "--diagonal", "2,,-2"), "--diagonal '2,,-2': entry 2 is empty"),
        (("lattice", "overlattice", "--diagonal", ",-2,2"), "--diagonal ',-2,2': entry 1 is empty"),
        (("lattice", "disc", "--diagonal", "2,-2,"), "--diagonal '2,-2,': entry 3 is empty"),
        (("height", "count", "--model", EX71, "--q", "2,,4"), "--q '2,,4': entry 2 is empty"),
        (("height", "ordinary", "--p", "2", "--weights", "1, ,1,1", "--f", "x"), "--weights '1, ,1,1': entry 2 is empty"),
    ],
    ids=["diagonal-inner", "diagonal-leading", "diagonal-trailing", "q-inner", "weights-blank"],
)
def test_integer_lists_refuse_an_empty_entry(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert named in err
    assert out == ""


@pytest.mark.parametrize("command", ["disc", "overlattice"])
@pytest.mark.parametrize("flag,value", [("--diagonal", ","), ("--gram", "[]")])
def test_lattice_flags_refuse_an_empty_lattice(capsys, command, flag, value):
    code, out, err = run(capsys, "lattice", command, flag, value)
    assert code == 2
    assert f"{flag} gives an empty lattice" in err
    assert out == ""


def test_glue_vector_entries_read_integers_and_fractions():
    spec = a20_spec()
    spec["pairs"][0]["left_vector"][6] = 1
    spec["pairs"][0]["right_vector"] = ["4/7", "-3/7"]
    glued = glue_from_json(spec)
    assert glued.rank == 22
    assert glued.det == -9


def test_lattice_disc_needs_exactly_one_source(capsys):
    code, out, err = run(
        capsys, "lattice", "disc", "--dynkin", "A2", "--diagonal=2,-2"
    )
    assert code == 2


def test_lattice_glue(capsys):
    code, doc = run_json(capsys, "lattice", "glue", "--spec", A20GLUE)
    assert code == 0
    assert doc["rank"] == 22
    assert doc["det"] == -9
    assert doc["disc_orders"] == [3, 3]
    assert doc["even"] is True


def test_lattice_glue_of_a_large_cyclic_group(capsys, tmp_path):
    # D_L x D_T has order about 1.6e11; the glue is read off its one generator
    spec = {
        "schema": "rdpk3/glue-spec/1",
        "p": 2,
        "left": {"diagonal": [200002]},
        "right": {"diagonal": [-200002]},
        "pairs": [{"left_vector": ["1/100001"], "right_vector": ["1/100001"]}],
    }
    code, doc = run_json(capsys, "lattice", "glue", "--spec", write_json(tmp_path, spec))
    assert code == 0
    assert doc["det"] == -4
    assert doc["disc_orders"] == [2, 2]


def test_lattice_overlattice(capsys):
    code, doc = run_json(capsys, "lattice", "overlattice", "--diagonal=-2,2")
    assert code == 0
    assert doc["found"] is True
    code, doc = run_json(capsys, "lattice", "overlattice", "--dynkin", "A3", "--even-only")
    assert code == 0
    assert doc["found"] is False
    assert doc["even_only"] is True


def test_lattice_overlattice_answers_large_2_parts(capsys):
    # nine (2, -2): a 2-part of order 2^18, once refused by a guard on walking it
    code, doc = run_json(capsys, "lattice", "overlattice", "--diagonal=" + ",".join(["2,-2"] * 9))
    assert code == 0 and doc["found"] is True
    witness = GramLattice(doc["witness"])
    assert abs(witness.det) == 1 and witness.rank == 18
    # an even unimodular positive definite lattice of rank 8 is E8
    code, doc = run_json(capsys, "lattice", "overlattice", "--diagonal=2,2,2,2,2,2,2,2", "--even-only")
    assert code == 0 and doc["found"] is True
    witness = GramLattice(doc["witness"])
    assert witness.det == 1 and witness.is_even and signature(witness) == (8, 0)


def test_lattice_overlattice_refuses_a_prime_over_2_to_the_16(capsys):
    code, out, err = run(capsys, "lattice", "overlattice", "--diagonal=65537,-65537")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert "the part for the primes of 65537" in err


def test_reproduce_filtered(capsys):
    code, out, err = run(capsys, "reproduce", "--only", "glue")
    assert code == 0
    assert "all checks passed" in out


def test_reproduce_json(capsys):
    code, doc = run_json(capsys, "--seed", "3", "reproduce", "--only", "counts")
    assert code == 0
    assert doc["schema"] == "rdpk3/report/1"
    assert doc["ok"] is True
    assert doc["seed"] == 3


def test_reproduce_json_stdout_is_the_json_dumps_layout(capsys):
    code, out, _err = run(capsys, "--format", "json", "--seed", "7", "reproduce", "--only", "4.3,glue")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_reproduce_exits_1_when_an_etale_table_height_disagrees(capsys, monkeypatch):
    from rdpk3.height import ETALE_QUOTIENT_TABLE

    monkeypatch.setitem(ETALE_QUOTIENT_TABLE, (2, (("E", 8, 2),)), 1)
    code, out, err = run(capsys, "reproduce", "--only", "consistency")
    assert code == 1 and "Traceback" not in err
    assert "[FAIL] height:etale:p2:E8:2: cross-check failed (expected 1) [table height 1" in out
    assert "CHECKS FAILED: 30 passed, 1 failed, 0 skipped" in out


def test_reproduce_unknown_filter(capsys):
    code, out, err = run(capsys, "reproduce", "--only", "bogus")
    assert code == 2
    assert "known tokens" in err


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witt", "table", "--p", "2"])
    assert exc.value.code == 2


def test_localcoh_frob_failing_check_exits_1(capsys, monkeypatch):
    import rdpk3.cli as cli
    from rdpk3.reproduce import CheckRecord

    def failing(*args, **kwargs):
        return CheckRecord("frobenius:2:D:N12", "fail", "1", "0", "plumbing")

    monkeypatch.setattr(cli, "frobenius_check", failing)
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "1"
    )
    assert code == 1
    assert "FAIL" in out


NESTED = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize(
    "argv,named",
    [
        (("lattice", "disc", "--gram", NESTED), "--gram"),
        (("lattice", "glue", "--spec", "{path}"), "glue spec {path}"),
        (("height", "count", "--model", "{path}", "--q", "2"), "model file {path}"),
    ],
    ids=["gram", "glue-spec", "model"],
)
def test_json_nested_too_deeply_is_refused(capsys, tmp_path, argv, named):
    # json.loads recurses per level and raises RecursionError at this depth
    path = tmp_path / "nested.json"
    path.write_text(NESTED, encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert f"error: {named.format(path=path)} is nested too deeply to read" in err
    assert out == ""
