import json
import random

import pytest

from rdpk3 import height as height_module
from rdpk3 import reproduce
from rdpk3.chartring import chart_from_key, parse_rdp_key, rdp_chart
from rdpk3.ffpoly import FpScalar
from rdpk3.height import ETALE_QUOTIENT_TABLE
from rdpk3.witt import SUPPORTED_RANGES
from rdpk3.reproduce import (
    CANONICITY_CHART_KEYS,
    _below,
    _random_elem,
    CHECK_GROUPS,
    CheckRecord,
    RunReport,
    canonicity_trials,
    check_ghost_grid,
    check_glue,
    check_height_consistency,
    check_ordinarity,
    check_overlattice,
    check_point_counts,
    check_projection_rule,
    check_property_suites,
    check_witt_identities,
    known_only_tokens,
    projection_trials,
    reproduce_all,
    witt_axiom_trials,
)


def test_check_record_validation():
    rec = CheckRecord("a:b", "pass", "1", "1", "plumbing")
    assert rec.line() == "[ok  ] a:b: 1"
    with pytest.raises(ValueError):
        CheckRecord("a:b", "maybe", "1", "1", "plumbing")
    with pytest.raises(ValueError):
        CheckRecord("a:b", "pass", "1", "1", "")


def test_check_record_lines_and_json():
    fail = CheckRecord("x:y", "fail", "2", "3", "plumbing", note="why")
    assert fail.line() == "[FAIL] x:y: 2 (expected 3) [why]"
    doc = fail.as_json()
    assert doc["id"] == "x:y"
    assert doc["status"] == "fail"
    skip = CheckRecord("x:z", "skip", "-", "-", "plumbing")
    assert skip.line().startswith("[skip]")


def test_run_report_counters():
    recs = [
        CheckRecord("a", "pass", "1", "1", "plumbing"),
        CheckRecord("b", "fail", "2", "3", "plumbing"),
        CheckRecord("c", "skip", "-", "-", "plumbing"),
    ]
    rep = RunReport(command="reproduce", seed=0, records=recs, wall_time=0.5)
    assert (rep.n_pass, rep.n_fail, rep.n_skip) == (1, 1, 1)
    assert not rep.ok
    doc = rep.as_json()
    assert doc["schema"] == "rdpk3/report/1"
    assert doc["n_fail"] == 1
    assert len(doc["records"]) == 3
    text = rep.render_text()
    assert "CHECKS FAILED: 1 passed, 1 failed, 1 skipped" in text
    good = RunReport(command="reproduce", seed=0, records=recs[:1])
    assert good.ok
    assert "all checks passed" in good.render_text()


def as_dumps(report):
    return json.dumps(report.as_json(), indent=2, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 7])
def test_json_text_is_the_json_dumps_text_of_the_full_report(seed):
    report = reproduce_all(seed=seed)
    assert report.json_text() == as_dumps(report)


def test_json_text_is_the_json_dumps_text_of_a_filtered_and_an_empty_report():
    report = reproduce_all(only="4.3,glue", seed=2)
    assert report.command == "reproduce --only 4.3,glue --seed 2" and report.records
    assert report.json_text() == as_dumps(report)
    for wall_time in (0.0, 12.3456, 0):
        empty = RunReport(command="reproduce", seed=0, wall_time=wall_time)
        assert empty.json_text() == as_dumps(empty) and '"records": []' in empty.json_text()


def test_json_text_escapes_strings_as_json_dumps_does():
    odd = 'é → 𝔽 "quoted" back\\slash\nline\ttab\x01\x7f'
    recs = [
        CheckRecord("a:é", "pass", "1", "1", "plumbing"),
        CheckRecord(f"b:{odd}", "fail", odd, "𝔽_2 → W_2", odd, note=odd),
    ]
    report = RunReport(command=f"reproduce --only {odd}", seed=-5, records=recs, wall_time=1e-4)
    text = report.json_text()
    assert text == as_dumps(report)
    assert text.isascii() and "\\ud835\\udd3d" in text and '"ok": false' in text
    assert json.loads(text)["records"][1]["note"] == odd


def test_an_etale_table_height_that_disagrees_fails_its_record_alone(monkeypatch):
    """The cross-check's RuntimeError becomes a failed record; the group runs on."""
    before = check_height_consistency()
    assert all(r.status == "pass" for r in before)
    monkeypatch.setitem(ETALE_QUOTIENT_TABLE, (2, (("D", 8, 2),)), 5)
    after = check_height_consistency()
    assert [r.check_id for r in after] == [r.check_id for r in before]
    failed = [r for r in after if r.status == "fail"]
    assert [r.check_id for r in failed] == ["height:etale:p2:D8:2"]
    assert failed[0].expected == "5"
    assert failed[0].note == "table height 5 disagrees with forced height 2 for 2:D8:2"
    assert [r for r in after if r not in failed] == [r for r in before if r.check_id != failed[0].check_id]


def test_an_etale_member_the_height_table_refuses_fails_its_record_alone(monkeypatch):
    """A member height_from_rdp refuses is a disagreement too, not an error out of the run."""
    refused = "2:D4:1"
    original = height_module.height_from_rdp

    def refusing(spec):
        if str(spec) == refused:
            raise height_module.NonOccurrenceError(f"{spec} does not occur on any K3 surface")
        return original(spec)

    monkeypatch.setattr(height_module, "height_from_rdp", refusing)
    report = reproduce_all(only="consistency")
    failed = [r for r in report.records if r.status == "fail"]
    assert [r.check_id for r in failed] == ["height:etale:p2:D4:1+D4:1"]
    assert failed[0].note == f"table height 1 disagrees: {refused} does not occur on any K3 surface"
    assert report.n_pass == len(report.records) - 1


def test_a_sweep_that_gives_fewer_records_fails_a_count_record(monkeypatch):
    """A rule that admits less adds one failing <group>:count record; it cannot shrink the report silently."""
    monkeypatch.setattr(reproduce, "LENGTH_CAP", 2)
    recs = reproduce.d_frobenius_sweep()
    [count] = [rec for rec in recs if rec.check_id == "frobenius:2:D:count"]
    assert count.status == "fail" and count.anchor == "plumbing"
    assert count.computed == f"{len(recs) - 1} records" and len(recs) - 1 < 622
    assert count.expected == "622 records"
    # each Frobenius group names itself and its golden count
    monkeypatch.setattr(reproduce, "_refusal", lambda *args: "refused")
    sweeps = {gid: fn for gid, fn, _seeded, _aliases in CHECK_GROUPS if gid.startswith("frobenius:")}
    assert sweeps.keys() == {"frobenius:2:D", "frobenius:2:E8:j2", "frobenius:E"}
    for (gid, fn), want in zip(sweeps.items(), (622, 2, 34)):
        assert [(rec.check_id, rec.status, rec.computed, rec.expected) for rec in fn()] == [
            (f"{gid}:count", "fail", "0 records", f"{want} records")
        ]


def test_ghost_grid_records():
    recs = check_ghost_grid()
    assert len(recs) == 9
    assert all(r.status == "pass" for r in recs)
    ids = {r.check_id for r in recs}
    assert "witt:ghost:p2:n4" in ids
    assert "witt:ghost:p7:n1" in ids


def test_identity_records():
    recs = check_witt_identities()
    assert len(recs) == 6
    assert all(r.status == "pass" for r in recs)
    by_id = {r.check_id: r for r in recs}
    assert "witt:identity:p5:len2:teichmuller" in by_id
    # the anchors carry the formulas being checked
    assert "a b (a + b) (a^2 + a b + b^2)" in by_id["witt:identity:p5:len2:teichmuller"].anchor


def test_projection_records():
    recs = check_projection_rule()
    assert len(recs) == 8
    assert all(r.status == "pass" for r in recs)
    assert any(r.check_id == "witt:projection:p2:n1:m3" for r in recs)


def test_point_count_records():
    recs = check_point_counts()
    assert all(r.status == "pass" for r in recs)
    by_id = {r.check_id: r for r in recs}
    assert by_id["count:elliptic:q2"].computed == "9"
    assert by_id["count:elliptic:q4"].computed == "25"
    assert by_id["count:elliptic:q8"].computed == "45"
    assert by_id["count:elliptic:height"].computed == "3"


def test_glue_records():
    recs = check_glue()
    assert len(recs) == 5
    assert all(r.status == "pass" for r in recs)
    ids = sorted(r.check_id for r in recs)
    assert ids == [
        "glue:a20:disc",
        "glue:a20:even",
        "glue:a20:index",
        "glue:a20:l2t2",
        "glue:a20:signature",
    ]


def test_ordinarity_records():
    recs = check_ordinarity()
    assert len(recs) == 2
    assert all(r.status == "pass" for r in recs)


def test_overlattice_records():
    recs = check_overlattice()
    assert all(r.status == "pass" for r in recs)
    ids = {r.check_id for r in recs}
    assert "overlattice:neg4+7+d7" in ids
    assert "overlattice:control-hyperbolic" in ids


def test_property_trials_zero_failures():
    rng = random.Random("unit:canonicity")
    ring = chart_from_key("2:E7:3")
    assert canonicity_trials(ring, 30, rng) == 0
    rng = random.Random("unit:axioms")
    assert witt_axiom_trials(3, 2, 50, rng) == 0
    rng = random.Random("unit:projection")
    assert projection_trials(40, rng) == 0


def _parent_axiom_draws(p, n, trials, rng):
    """The inputs the axiom trials drew when they built fresh FpScalars, in order.

    ("vec", p, residues) is a Witt vector; the Teichmuller lift of a is
    the vector (a, 0, ..., 0).
    """

    def rv(length=n):
        return ("vec", p, tuple(FpScalar(p, rng.randrange(p)).value for _ in range(length)))

    def lift(a):
        return ("vec", p, (a.value,) + (0,) * (n - 1))

    drawn = [("vec", p, (FpScalar(p, 0).value,) * n), lift(FpScalar(p, 1))]
    for _ in range(trials):
        drawn += [rv(), rv(), rv()]
        a = FpScalar(p, rng.randrange(p))
        b = FpScalar(p, rng.randrange(p))
        drawn += [lift(a), lift(b), lift(FpScalar(p, a.value * b.value % p))]
        if n >= 2:
            drawn += [rv(n - 1), rv(n - 1)]
    return drawn


def _parent_projection_draws(trials, rng):
    """The vectors the projection trials drew when they built fresh FpScalars, in order."""
    drawn = []
    eligible = [p for p, nmax in SUPPORTED_RANGES.items() if nmax >= 2]
    for _ in range(trials):
        p = rng.choice(eligible)
        total = rng.randint(2, SUPPORTED_RANGES[p])
        m = rng.randint(1, total - 1)
        n = total - m
        for length in (n, total):
            drawn.append(("vec", p, tuple(FpScalar(p, rng.randrange(p)).value for _ in range(length))))
    return drawn


class _RecordedElements:
    """A Cayley table's elements that log each element taken from them, in order."""

    def __init__(self, elems, log):
        self.elems, self.log = elems, log

    def __len__(self):
        return len(self.elems)

    def __getitem__(self, i):
        x = self.elems[i]
        self.log.append(("vec", x.p, tuple(c.value for c in x.components)))
        return x


@pytest.mark.parametrize("seed", [0, 7, 2026])
def test_witt_trials_draw_the_vectors_they_drew_from_fresh_scalars(seed, monkeypatch):
    """Taking Cayley table elements changed no input of the Witt trials.

    The trials take every input, the Teichmuller lifts included, from the
    element lists of reproduce._cayley, which log here what is taken.
    """
    drawn = []
    cayley = reproduce._cayley

    def recorded_cayley(p, n):
        elems, *ops = cayley(p, n)
        return (_RecordedElements(elems, drawn), *ops)

    monkeypatch.setattr(reproduce, "_cayley", recorded_cayley)
    for p, nmax in SUPPORTED_RANGES.items():
        for n in range(1, nmax + 1):
            drawn.clear()
            key = f"{seed}:axioms:{p}:{n}"
            assert witt_axiom_trials(p, n, 20, random.Random(key)) == 0
            assert drawn == _parent_axiom_draws(p, n, 20, random.Random(key)), (p, n)
    drawn.clear()
    assert projection_trials(50, random.Random(f"{seed}:projection")) == 0
    assert drawn == _parent_projection_draws(50, random.Random(f"{seed}:projection"))


def test_below_draws_as_randrange():
    """_below(rng.getrandbits, n) is Random.randrange(n): the same values and the same generator state."""
    for n in range(1, 71):
        mine, theirs = random.Random(n), random.Random(n)
        for _ in range(50):
            assert _below(mine.getrandbits, n) == theirs.randrange(n), n
        assert mine.getstate() == theirs.getstate(), n


def _parent_random_elem(ring, rng, region="any"):
    """The oracle: randint/randrange draws, one checked monomial per term, summed by +."""
    total = ring.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = rng.randrange(1, ring.p)
        k = rng.randrange(ring.wdeg)
        if region == "xi":
            i, j = rng.randint(-2, 2), rng.randint(0, 2)
        elif region == "eta":
            i, j = rng.randint(0, 2), rng.randint(-2, -1)
        else:
            i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        total = total + ring.monomial(coeff, i, j, k)
    return total


@pytest.mark.parametrize("key", CANONICITY_CHART_KEYS)
def test_random_elem_draws_as_the_monomial_builder(key):
    """Each draw equals the oracle's, term order included, and leaves the generator where it left it."""
    ring = rdp_chart(parse_rdp_key(key))
    for region in ("any", "xi", "eta"):
        mine, theirs = random.Random(f"{key}:{region}"), random.Random(f"{key}:{region}")
        for _ in range(200):
            got, want = _random_elem(ring, mine, region), _parent_random_elem(ring, theirs, region)
            assert list(got.terms.items()) == list(want.terms.items()), (key, region)
            assert got == want
        assert mine.getstate() == theirs.getstate(), (key, region)


def test_witt_trials_build_no_vector_per_draw(monkeypatch):
    """The trials take table elements: WittVec() runs as often for 50 trials as for 5, that is never."""
    built = []
    init = reproduce.WittVec.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(reproduce.WittVec, "__init__", counted)
    counts = []
    for trials in (5, 50):
        built.clear()
        assert witt_axiom_trials(2, 4, trials, random.Random(trials)) == 0
        assert projection_trials(trials, random.Random(trials)) == 0
        counts.append(len(built))
    assert counts == [0, 0]


def test_property_suite_records_and_determinism():
    rep1 = check_property_suites(7, canonicity_count=5, axiom_count=10, projection_count=10)
    rep2 = check_property_suites(7, canonicity_count=5, axiom_count=10, projection_count=10)
    assert [r.as_json() for r in rep1] == [r.as_json() for r in rep2]
    assert len(rep1) == len(CANONICITY_CHART_KEYS) + 9 + 1
    assert all(r.status == "pass" for r in rep1)


def test_reproduce_filtering():
    rep = reproduce_all(only="4.3,glue")
    ids = {r.check_id for r in rep.records}
    assert any(i.startswith("frobenius:2:E8:j2") for i in ids)
    assert any(i.startswith("glue:a20") for i in ids)
    assert not any(i.startswith("witt:") for i in ids)
    assert rep.ok
    assert rep.command == "reproduce --only 4.3,glue"


def test_reproduce_alias_prefixes():
    rep = reproduce_all(only="prop4.3")
    assert all(r.check_id.startswith("frobenius:2:E8:j2") for r in rep.records)
    rep2 = reproduce_all(only="lemma6.3")
    assert all(r.check_id.startswith("overlattice") for r in rep2.records)


def test_reproduce_rejects_unknown_token():
    with pytest.raises(ValueError) as err:
        reproduce_all(only="nonsense")
    assert "known tokens" in str(err.value)
    with pytest.raises(ValueError):
        reproduce_all(only=" , ")


def test_known_tokens_cover_groups():
    toks = known_only_tokens()
    for gid, _fn, _seeded, aliases in CHECK_GROUPS:
        assert gid in toks
        for a in aliases:
            assert a in toks


def test_records_sorted_and_json_serializable():
    rep = reproduce_all(only="ghost")
    ids = [r.check_id for r in rep.records]
    assert ids == sorted(ids)
    json.dumps(rep.as_json())
