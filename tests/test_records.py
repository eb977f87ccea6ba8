"""The package's small value classes, and what importing the package loads.

Each record class keeps the value semantics callers rely on: its
constructor and defaults, == over its compared fields, a hash for the
frozen ones, a repr that names every field, AttributeError on assignment
to a frozen one, and its validation messages.  Importing the command
line loads none of the standard library's introspection modules.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from rdpk3.chartring import QuotientCase, RdpSpec, quotient_case
from rdpk3.ffpoly import parse_poly
from rdpk3.height import HeightValue, TwoChart, Verdict, WeightedHypersurface
from rdpk3.lattice import DiscForm, disc_group, dynkin_gram
from rdpk3.reproduce import CheckRecord, RunReport

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CHART1 = parse_poly("y^2 + x^3 + t", ("x", "y", "t"), modulus=2)
CHART2 = parse_poly("y^2 + x^3", ("x", "y"), modulus=2)
QUARTIC = parse_poly("x0^4 + x1^4 + x2^4 + x3^4", modulus=3)
A3 = dynkin_gram("A3")

# (make, a different value, repr) for each frozen class
FROZEN = {
    "RdpSpec": (
        lambda: RdpSpec(2, "D", 12, 3),
        lambda: RdpSpec(p=2, family="D", N=12),
        "RdpSpec(p=2, family='D', N=12, r=3)",
    ),
    "HeightValue": (
        lambda: HeightValue("finite", 2),
        lambda: HeightValue("infinite"),
        "HeightValue(kind='finite', bound=2)",
    ),
    "Verdict": (
        lambda: Verdict(True, "rank 19"),
        lambda: Verdict(ok=False, reason="rank 19"),
        "Verdict(ok=True, reason='rank 19')",
    ),
    "TwoChart": (
        lambda: TwoChart(2, CHART1, CHART2),
        lambda: TwoChart(2, CHART1, CHART2 + 1),
        f"TwoChart(characteristic=2, chart1={CHART1!r}, chart2_at_infinity={CHART2!r})",
    ),
    "WeightedHypersurface": (
        lambda: WeightedHypersurface(3, (1, 1, 1, 1), QUARTIC),
        lambda: WeightedHypersurface(3, (1, 1, 1, 1), QUARTIC + 1),
        f"WeightedHypersurface(characteristic=3, weights=(1, 1, 1, 1), polynomial={QUARTIC!r})",
    ),
    "DiscForm": (
        lambda: DiscForm(A3, (4,), ((1, 2, 3),)),
        lambda: DiscForm(A3, (4,), ((3, 2, 1),)),
        f"DiscForm(lattice={A3!r}, orders=(4,), cols=((1, 2, 3),))",
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_compare_hash_and_print_by_their_fields(name):
    make, other, text = FROZEN[name]
    a, b, c = make(), make(), other()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != c and c != a and len({a, b, c}) == 2
    assert a != text
    assert repr(a) == text
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == make()


def test_a_quotient_case_compares_its_data_not_its_charts():
    case = quotient_case(2, "mu", "A1")
    charts = ("source", "target", "rmap", "eps", "predicted_gen")
    compared = ("case_id", "p", "group", "symbol", "n_expected")
    fields = {name: getattr(case, name) for name in compared + charts}
    other = quotient_case(3, "mu", "A2")
    swapped = QuotientCase(**{**fields, **{name: getattr(other, name) for name in charts}})
    assert swapped == case and hash(swapped) == hash(case)
    assert QuotientCase(**{**fields, "n_expected": 2}) != case
    assert repr(case).startswith("QuotientCase(case_id=1, p=2, group='mu', symbol='A1', source=ChartRing(")
    assert all(f" {name}=" in repr(case) for name in compared[1:] + charts)
    with pytest.raises(AttributeError, match="QuotientCase is immutable"):
        case.source = other.source


def test_a_disc_form_caches_its_pairings_and_stays_frozen():
    disc = disc_group(A3)
    assert disc == DiscForm(A3, (4,), ((1, 2, 3),))
    assert disc._exponent == 4 and disc._gen_pairings is disc._gen_pairings
    assert disc.q_value((1,)) == disc.q_value((5,))
    with pytest.raises(AttributeError, match="DiscForm is immutable"):
        disc.orders = (2,)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: RdpSpec(2, "E", 8, 5), "coindex 5 out of range 0..4 for E_8 in characteristic 2"),
        (lambda: RdpSpec(2, "E", 9), "E_9 is not a rational double point"),
        (lambda: RdpSpec(4, "E", 8), "modulus must be a prime below 2^16, got 4"),
        (lambda: HeightValue("finite", 11), "finite K3 height must be in 1..10, got 11"),
        (lambda: HeightValue("finite"), "finite K3 height must be in 1..10, got 0"),
        (lambda: HeightValue("tall"), "bad height kind 'tall'"),
        (lambda: HeightValue("greater-than", -1), "lower bound must be >= 0"),
        (lambda: HeightValue("infinite", 3), "infinite height carries no bound"),
        (lambda: TwoChart(3, CHART1, CHART2), "chart1 modulus disagrees with the characteristic"),
        (lambda: TwoChart(2, CHART1, CHART1), "chart2_at_infinity must have exactly two variables"),
        (lambda: WeightedHypersurface(3, (1, 1, 1), QUARTIC), "need one weight per variable"),
        (lambda: WeightedHypersurface(3, (1, 1, 0, 1), QUARTIC), "weights must be positive"),
        (lambda: CheckRecord("a", "maybe", "1", "1", "plumbing"), "bad status 'maybe'"),
        (lambda: CheckRecord("a", "pass", "1", "1", ""), "every record needs an anchor"),
    ],
)
def test_records_refuse_bad_fields(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value).startswith(message)


def test_check_records_and_reports_are_mutable_and_unhashable():
    rec = CheckRecord("a:b", "pass", "1", "1", "plumbing")
    assert rec == CheckRecord(check_id="a:b", status="pass", computed="1", expected="1", anchor="plumbing", note="")
    assert rec != CheckRecord("a:b", "pass", "1", "1", "plumbing", "why")
    assert repr(rec) == (
        "CheckRecord(check_id='a:b', status='pass', computed='1', expected='1', anchor='plumbing', note='')"
    )
    rec.note = "edited"
    assert rec.note == "edited"
    first, second = RunReport("reproduce", 0), RunReport(command="reproduce", seed=0)
    assert first == second and first.records == [] and first.records is not second.records
    assert first.wall_time == 0.0
    records = [rec]
    report = RunReport("reproduce", 7, records=records, wall_time=0.5)
    assert report.records is records and report != first
    assert repr(first) == "RunReport(command='reproduce', seed=0, records=[], wall_time=0.0)"
    for value in (rec, first):
        with pytest.raises(TypeError):
            hash(value)


INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_cli_loads_no_introspection_modules():
    """A command pays for what it imports: rdpk3.cli loads none of INTROSPECTION.

    Only modules new to the fresh interpreter count, so a site that
    loads one of them first does not fail the test.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rdpk3.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    loaded = set(proc.stdout.split())
    assert "rdpk3.cli" in loaded and "rdpk3.reproduce" in loaded
    assert not loaded & INTROSPECTION, sorted(loaded & INTROSPECTION)
