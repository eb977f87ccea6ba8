"""Property-based Witt ring axioms over chart-ring and polynomial components.

W_n(A) is a commutative ring for every F_p-algebra A, whatever elements
stand in the components.  Runs only where hypothesis is installed (the
``test`` extra); examples are derandomized and no example database is
written.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from rdpk3.chartring import ChartElem, chart_from_key  # noqa: E402
from rdpk3.ffpoly import MultiPoly  # noqa: E402
from rdpk3.witt import WittVec, teichmuller  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)

CHARTS = {key: chart_from_key(key) for key in ("2:D9:2", "3:E8:2")}
POLY_VARS = ("s", "t")
# the algebra (chart key, or prime of F_p[s, t]) and the longest length drawn
ALGEBRAS = (("2:D9:2", 3), ("3:E8:2", 2), (2, 3), (3, 2))


@st.composite
def components(draw, algebra):
    """A 1- or 2-term element of the algebra."""
    if algebra in CHARTS:
        ring = CHARTS[algebra]
        key = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, ring.wdeg - 1))
        terms = draw(st.dictionaries(key, st.integers(1, ring.p - 1), min_size=1, max_size=2))
        return ChartElem(ring, terms)
    key = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = draw(st.dictionaries(key, st.integers(1, algebra - 1), min_size=1, max_size=2))
    return MultiPoly(POLY_VARS, terms, algebra)


@st.composite
def witt_cases(draw):
    algebra, nmax = draw(st.sampled_from(ALGEBRAS))
    p = CHARTS[algebra].p if algebra in CHARTS else algebra
    n = draw(st.integers(1, nmax))
    vecs = [WittVec(p, [draw(components(algebra)) for _ in range(n)]) for _ in range(3)]
    return (*vecs, draw(components(algebra)), draw(components(algebra)))


@SETTINGS
@hypothesis.given(witt_cases())
def test_witt_ring_axioms(case):
    x, y, z, a, b = case
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == WittVec(x.p, [c.ring_zero() for c in x.components])
    assert teichmuller(a, x.n) * teichmuller(b, x.n) == teichmuller(a * b, x.n)
