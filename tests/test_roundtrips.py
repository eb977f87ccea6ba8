"""Property-based round trips of the printed forms: parse(str(x)) == x.

The lattice and glue-spec documents go through json.dumps and
json.loads and must come back as the lattices they describe.

Runs only where hypothesis is installed (the ``test`` extra); examples
are derandomized and no example database is written.
"""

import json
import pathlib
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rdpk3.chartring import RdpSpec, parse_rdp_key, rmax  # noqa: E402
from rdpk3.ffpoly import MultiPoly, parse_poly  # noqa: E402
from rdpk3.lattice import (  # noqa: E402
    GLUE_SCHEMA,
    GramLattice,
    _inertia,
    diagonal_gram,
    dynkin_gram,
    glue,
    glue_from_json,
    lattice_from_json,
)
from rdpk3.reproduce import a20_glue_data  # noqa: E402

A20_SPEC = pathlib.Path(__file__).resolve().parent.parent / "models" / "a20glue.json"

SETTINGS = hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)

NAMES = ("x", "y", "z", "w", "t1", "u_2")


@st.composite
def polys(draw):
    variables = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True)))
    modulus = draw(st.sampled_from([None, 2, 3, 5, 7, 65521]))
    exps = st.tuples(*[st.integers(0, 6)] * len(variables))
    terms = draw(st.dictionaries(exps, st.integers(-50, 50), max_size=6))
    return MultiPoly(variables, terms, modulus)


@SETTINGS
@hypothesis.given(polys())
def test_parse_poly_inverts_str(f):
    assert parse_poly(str(f), f.variables, f.modulus) == f


@st.composite
def rdp_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    family = draw(st.sampled_from("ADE"))
    N = draw(st.integers(6, 8) if family == "E" else st.integers(4 if family == "D" else 1, 40))
    r = draw(st.integers(0, rmax(p, family, N)))
    return RdpSpec(p, family, N, r)


@SETTINGS
@hypothesis.given(rdp_specs())
def test_parse_rdp_key_inverts_str(spec):
    assert parse_rdp_key(str(spec)) == spec


def _through_json(doc):
    return json.loads(json.dumps(doc))


@st.composite
def grams(draw):
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-30, 30))
    hypothesis.assume(_inertia(rows)[0] != 0)
    return rows


@SETTINGS
@hypothesis.given(grams())
def test_gram_document_round_trips(rows):
    assert lattice_from_json(_through_json({"gram": rows})) == GramLattice(rows)


@SETTINGS
@hypothesis.given(st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=4))
def test_diagonal_document_round_trips(entries):
    assert lattice_from_json(_through_json({"diagonal": entries})) == diagonal_gram(entries)


@st.composite
def dynkin_symbols(draw):
    family = draw(st.sampled_from("ADE"))
    N = draw(st.sampled_from((6, 7, 8)) if family == "E" else st.integers(4 if family == "D" else 1, 24))
    return family, N


@SETTINGS
@hypothesis.given(dynkin_symbols())
def test_dynkin_document_round_trips(symbol):
    family, N = symbol
    assert lattice_from_json(_through_json({"dynkin": f"{family}{N}"})) == dynkin_gram(symbol)


def _rational(draw, x):
    """x as a JSON integer when it is one, else as some "a/b" spelling of it."""
    if x.denominator == 1 and draw(st.booleans()):
        return x.numerator
    k = draw(st.integers(1, 5))
    return f"{x.numerator * k}/{x.denominator * k}"


@st.composite
def a20_glue_specs(draw):
    L, T, l_vec, t_vec = a20_glue_data()
    left = draw(st.sampled_from([{"dynkin": "A20"}, {"gram": [list(row) for row in L.gram]}]))
    return {
        "schema": GLUE_SCHEMA,
        "p": 3,
        "left": left,
        "right": {"gram": [list(row) for row in T.gram]},
        "pairs": [{
            "left_vector": [_rational(draw, x) for x in l_vec],
            "right_vector": [_rational(draw, x) for x in t_vec],
        }],
    }


@hypothesis.settings(SETTINGS, max_examples=20)
@hypothesis.given(a20_glue_specs())
def test_a20_glue_spec_round_trips(doc):
    L, T, l_vec, t_vec = a20_glue_data()
    glued = glue_from_json(_through_json(doc))
    assert glued == glue(L, T, 3, [(l_vec, t_vec)])
    assert glued == glue_from_json(json.loads(A20_SPEC.read_text(encoding="utf-8")))
