"""End-to-end acceptance checks with explicit wall-clock budgets.

Each test covers one headline computation of the package, asserts the
exact expected outcome, enforces a time bound, and prints one pass or
fail line.  The module also runs standalone: python3 tests/test_acceptance.py
"""

import time

from rdpk3.reproduce import (
    check_ghost_grid,
    check_glue,
    check_height_consistency,
    check_overlattice,
    check_point_counts,
    check_projection_rule,
    check_property_suites,
    check_witt_identities,
    d_frobenius_sweep,
    e8_pair_sweep,
    e_frobenius_sweep,
    quotient_pullback_sweep,
)


def _announce(name, ok, detail, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {detail} in {elapsed:.2f}s (bound {bound:g}s)"
    print(line)
    return line


def _run(name, fn, bound, expect_count=None):
    t0 = time.perf_counter()
    recs = fn()
    elapsed = time.perf_counter() - t0
    failed = [r for r in recs if r.status != "pass"]
    ok = not failed and elapsed < bound
    if expect_count is not None:
        ok = ok and len(recs) == expect_count
    detail = f"{len(recs)} checks, {len(failed)} failed"
    line = _announce(name, ok, detail, elapsed, bound)
    assert not failed, line + "\n" + "\n".join(r.line() for r in failed[:10])
    if expect_count is not None:
        assert len(recs) == expect_count, line
    assert elapsed < bound, line
    return recs


def test_ghost_compatibility_grid():
    """Structure polynomials match the ghost maps over the integers."""
    _run("ghost compatibility grid", check_ghost_grid, 10.0, expect_count=9)


def test_subtraction_identities_symbolic():
    recs = _run("subtraction identities", check_witt_identities, 5.0, expect_count=6)
    by_id = {r.check_id: r for r in recs}
    p5 = by_id["witt:identity:p5:len2:teichmuller"]
    assert p5.anchor == r"$(0, a b (a + b) (a^2 + a b + b^2))$"


def test_projection_formula_symbolic():
    """V^m(x) y = V^m(x F^m(R^m y)) on generic polynomial vectors.

    Not one of the numbered budget lines on its own; it rides along with
    the identity budget and guards the sweep tests below.
    """
    _run("projection formula grid", check_projection_rule, 5.0, expect_count=8)


def test_d_family_frobenius_sweep():
    recs = _run("D-family Frobenius sweep", d_frobenius_sweep, 120.0)
    assert len(recs) == 622
    # both prediction branches are exercised
    zero_cases = [r for r in recs if r.computed.startswith("(0")]
    assert zero_cases and len(zero_cases) < len(recs)


def test_e8_frobenius_pair():
    recs = _run("E8 index-two torsion pair", e8_pair_sweep, 1.0, expect_count=2)
    ids = {r.check_id for r in recs}
    assert any("r00" in i for i in ids) and any("r01" in i for i in ids)


def test_e_family_frobenius_rows():
    recs = _run("E-family Frobenius rows", e_frobenius_sweep, 30.0)
    assert len(recs) == 34
    assert all("except precisely for" in r.anchor for r in recs)


def test_quotient_pullback_cases():
    recs = _run("quotient pullback cases", quotient_pullback_sweep, 10.0, expect_count=10)
    assert all(r"V^{n-1}(e')" in r.anchor for r in recs)


def test_elliptic_point_counts_and_height():
    recs = _run("elliptic surface point counts", check_point_counts, 5.0, expect_count=4)
    by_id = {r.check_id: r for r in recs}
    assert by_id["count:elliptic:q2"].computed == "9"
    assert by_id["count:elliptic:q4"].computed == "25"
    assert by_id["count:elliptic:q8"].computed == "45"
    assert "45" in by_id["count:elliptic:q8"].anchor
    assert by_id["count:elliptic:height"].computed == "3"


def test_height_table_consistency():
    recs = _run("height table consistency", check_height_consistency, 1.0)
    ids = {r.check_id for r in recs}
    assert "height:non-occurrence" in ids
    etale = [i for i in ids if i.startswith("height:etale:")]
    assert len(etale) == 5
    per_space = [i for i in ids if i.startswith("height:table:")]
    assert len(per_space) == 25


def test_a20_gluing():
    recs = _run("rank-20 gluing computation", check_glue, 5.0, expect_count=5)
    by_id = {r.check_id: r for r in recs}
    assert by_id["glue:a20:signature"].computed == "(1, 21)"
    assert by_id["glue:a20:disc"].computed == "Z/3+Z/3"
    assert by_id["glue:a20:l2t2"].computed == "l^2 + t^2 = -4"


def test_overlattice_search():
    recs = _run("unimodular overlattice search", check_overlattice, 30.0)
    by_id = {r.check_id: r for r in recs}
    assert len(by_id) == len(recs)
    assert by_id["overlattice:neg4+7+d7"].computed == "no unimodular overlattice"
    assert by_id["overlattice:control-hyperbolic"].computed == "overlattice found"


def test_property_suites():
    """Randomized canonicity, ring axiom, and projection suites at full scale."""
    recs = _run(
        "property suites",
        lambda: check_property_suites(
            0, canonicity_count=1000, axiom_count=1000, projection_count=500
        ),
        300.0,
        expect_count=20,
    )
    kinds = {r.check_id.split(":")[1] for r in recs}
    assert kinds == {"canonicity", "witt-axioms", "projection"}


if __name__ == "__main__":
    import sys

    failures = 0
    for fn in (
        test_ghost_compatibility_grid,
        test_subtraction_identities_symbolic,
        test_projection_formula_symbolic,
        test_d_family_frobenius_sweep,
        test_e8_frobenius_pair,
        test_e_family_frobenius_rows,
        test_quotient_pullback_cases,
        test_elliptic_point_counts_and_height,
        test_height_table_consistency,
        test_a20_gluing,
        test_overlattice_search,
        test_property_suites,
    ):
        try:
            fn()
        except AssertionError as err:
            failures += 1
            print(f"FAILED {fn.__name__}: {err}")
    sys.exit(1 if failures else 0)
