"""Property-based round trips of the printed forms: parse(str(x)) == x.

Runs only where hypothesis is installed (the ``test`` extra); examples
are derandomized and no example database is written.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rdpk3.chartring import RdpSpec, parse_rdp_key, rmax  # noqa: E402
from rdpk3.ffpoly import MultiPoly, parse_poly  # noqa: E402

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
