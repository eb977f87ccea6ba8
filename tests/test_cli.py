import json
import pathlib

import pytest

from rdpk3.cli import main

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


def test_height_count_missing_model(capsys):
    code, out, err = run(
        capsys, "height", "count", "--model", "/nonexistent.json", "--q", "2"
    )
    assert code == 2


def test_height_ordinary(capsys):
    code, doc = run_json(
        capsys, "height", "ordinary",
        "--weights", "1,1,1,1", "--p", "2",
        "--f", "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3",
    )
    assert code == 0
    assert doc["ordinary"] is True


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


def test_lattice_overlattice(capsys):
    code, doc = run_json(capsys, "lattice", "overlattice", "--diagonal=-2,2")
    assert code == 0
    assert doc["found"] is True
    code, doc = run_json(capsys, "lattice", "overlattice", "--dynkin", "A3", "--even-only")
    assert code == 0
    assert doc["found"] is False
    assert doc["even_only"] is True


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

    monkeypatch.setattr(cli, "d_frobenius_check", failing)
    code, out, err = run(
        capsys, "localcoh", "frob", "--chart", "2:D12:3", "--n", "2", "--j", "1"
    )
    assert code == 1
    assert "FAIL" in out
