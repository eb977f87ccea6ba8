"""Heights of K3 surfaces and of quotient maps between them.

The height of the formal Brauer group of a K3 surface is either a
finite integer in 1..10 or infinity (the supersingular case).  This
module collects the finite, exactly checkable pieces of that story:

  * which coindexed rational double points force which heights
    (`height_from_rdp`), and the resulting realizability criteria for
    a single rational double point on some K3 surface
    (`rdp_realizable_on_k3`, `taut_realizable`);
  * the Picard-rank bound on the singular locus (`picard_bound_ok`);
  * point counting over small finite fields for two flavours of
    surface model (`count_points`), and the integrality test on
    Newton-transformed point counts that pins the height exactly
    (`height_gt_test`, `height_from_counts`);
  * the Fedder-style ordinarity test for hypersurfaces in weighted
    projective 3-space (`ordinary_test`);
  * height tables for quotients of K3 surfaces by infinitesimal group
    schemes and by etale group schemes (`quotient_height`,
    `etale_quotient_height`).

Everything is exact: integer and Fraction arithmetic only.
"""

import functools
import itertools
import re
from fractions import Fraction
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple, Union

from .chartring import RdpSpec, parse_symbol, rmax
from .ffpoly import FiniteField, FrozenRecord, MultiPoly, _cut, is_prime, json_document, json_field, parse_poly


# ---------------------------------------------------------------------------
# height values


class HeightValue(FrozenRecord):
    """A height: finite n, infinite, or only bounded below ("> n").

    The third kind records a strict lower bound when the data at hand
    determines no more than that.
    """

    __slots__ = ("kind", "bound")  # kind: "finite" | "greater-than" | "infinite"
    _key = attrgetter(*__slots__)

    def __init__(self, kind: str, bound: int = 0):
        if kind not in ("finite", "greater-than", "infinite"):
            raise ValueError(f"bad height kind {kind!r}")
        if kind == "finite" and not (1 <= bound <= 10):
            raise ValueError(f"finite K3 height must be in 1..10, got {bound}")
        if kind == "greater-than" and bound < 0:
            raise ValueError("lower bound must be >= 0")
        if kind == "infinite" and bound:
            raise ValueError("infinite height carries no bound")
        self._fill(kind, bound)

    def __str__(self):
        if self.kind == "finite":
            return str(self.bound)
        if self.kind == "greater-than":
            return f">{self.bound}"
        return "infinity"

    def as_json(self) -> dict:
        return {"kind": self.kind, "bound": self.bound}


def finite(h: int) -> HeightValue:
    return HeightValue("finite", h)


def greater_than(l: int) -> HeightValue:
    return HeightValue("greater-than", l)


INFINITE = HeightValue("infinite")


# ---------------------------------------------------------------------------
# coindex versus height for a rational double point on a K3 surface


class NonOccurrenceError(ValueError):
    """Raised for a coindexed rational double point that no K3 carries."""


def height_sequence(p: int, family: str, N: int) -> Tuple[int, ...]:
    """Coindexes (r_1, r_2, ...) realized at heights 1, 2, ... on K3s.

    The sequence is a strictly decreasing subsequence of
    (rmax, ..., 2, 1).  A K3 surface of finite height h carrying the
    singularity has coindex r_h; height > len(sequence) (in particular
    infinite height) forces coindex 0.  Empty for taut types.

    For D_N in characteristic 2 (write m = floor(N/2)) the realized
    coindexes are m-1, m-2, m-4, those that are >= 1; for E_8 in
    characteristic 2 they are 4, 3, 2; in every other case the whole
    range rmax, ..., 1 occurs.
    """
    bound = rmax(p, family, N)
    if bound == 0:
        return ()
    if p == 2 and family == "D":
        m = N // 2
        return tuple(r for r in (m - 1, m - 2, m - 4) if r >= 1)
    if p == 2 and family == "E" and N == 8:
        return (4, 3, 2)
    return tuple(range(bound, 0, -1))


def height_from_rdp(spec: RdpSpec) -> HeightValue:
    """Height of a K3 surface forced by one coindexed singularity.

    Positive coindex r pins the height to the position of r in
    height_sequence; coindex 0 only bounds the height below by the
    sequence length.  Raises NonOccurrenceError when r > 0 is not in
    the sequence (no K3 surface has such a singularity at all).
    """
    seq = height_sequence(spec.p, spec.family, spec.N)
    if spec.r == 0:
        return greater_than(len(seq))
    if spec.r not in seq:
        raise NonOccurrenceError(
            f"{spec} does not occur on any K3 surface: coindex {spec.r} "
            f"is outside the realized sequence {seq}"
        )
    return finite(seq.index(spec.r) + 1)


# ---------------------------------------------------------------------------
# realizability of a single rational double point on a K3 surface


class Verdict(FrozenRecord):
    """A boolean answer together with the reason for it."""

    __slots__ = ("ok", "reason")
    _key = attrgetter(*__slots__)

    def __init__(self, ok: bool, reason: str):
        self._fill(ok, reason)

    def __bool__(self):
        return self.ok


def taut_realizable(p: int, family: str, N: int) -> bool:
    """Whether some K3 surface in characteristic p has this taut RDP.

    Requires the type to be taut in characteristic p (use
    rdp_realizable_on_k3 otherwise).  Types of rank at most 19 always
    occur.  At rank 20 and 21 only A_20 and A_21 can occur, the former
    exactly when p divides 21 or 21 is a quadratic non-residue mod p
    (equivalently p is +-2, +-8, +-10 mod 21), the latter only for
    p = 11 (a supersingular surface with a full rank-22 Picard
    lattice).  Rank 22 and beyond exceeds the Picard rank.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if rmax(p, family, N) != 0:
        raise ValueError(
            f"{family}_{N} is not taut in characteristic {p}; "
            "use rdp_realizable_on_k3"
        )
    if N <= 19:
        return True
    if (family, N) == ("A", 20):
        return p in (3, 7) or p % 21 in (2, 8, 10, 11, 13, 19)
    if (family, N) == ("A", 21):
        return p == 11
    return False


def rdp_realizable_on_k3(spec: RdpSpec) -> Verdict:
    """Whether some K3 surface carries this coindexed singularity.

    For non-taut types the answer combines the coindex-occurrence
    check, one lattice-theoretic exclusion (D_19 with coindex 8 in
    characteristic 2), and the Picard-rank bound N < 22 - 2h (with h
    the forced height; N < 22 when the coindex is 0).  Taut types
    defer to the rank-20/21 tables of taut_realizable.
    """
    p, family, N, r = spec.p, spec.family, spec.N, spec.r
    if rmax(p, family, N) == 0:
        ok = taut_realizable(p, family, N)
        return Verdict(ok, f"taut type, table lookup for rank {N}")
    try:
        h = height_from_rdp(spec)
    except NonOccurrenceError as exc:
        return Verdict(False, str(exc))
    if (p, family, N, r) == (2, "D", 19, 8):
        return Verdict(
            False,
            "lattice obstruction: the orthogonal complement needed for "
            "D_19 with coindex 8 admits no unimodular overlattice",
        )
    ok = picard_bound_ok(h, [(family, N, r)])
    if r > 0:
        return Verdict(ok, f"height {h.bound} forces rank bound {N} < {22 - 2 * h.bound}")
    return Verdict(ok, f"coindex 0, rank bound {N} < 22")


# ---------------------------------------------------------------------------
# singularity configurations


SING_TOKEN = re.compile(r"^(?:(\d+)\s*[x*]?\s*)?([ADEade])\s*(\d+)(?::(\d+))?$")

# The exceptional curves of the singular points of a K3 surface span a
# negative-definite lattice in NS, of rank at most 21, so a K3 surface
# has at most 21 singular points.
_MAX_SING_POINTS = 21


def parse_sing_config(text: str) -> Tuple[Tuple[str, int, int], ...]:
    """Parse "2D4:0 + A2" into (("A",2,0), ("D",4,0), ("D",4,0)).

    Tokens are separated by "+" or ",".  Each token is an optional
    multiplicity, a family letter, the rank, and an optional ":r"
    coindex (default 0).  The result is sorted, with multiplicities
    expanded.
    """
    items: List[Tuple[str, int, int]] = []
    for token in re.split(r"[+,]", text):
        token = token.strip()
        if not token:
            continue
        m = SING_TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad singularity token {_cut(repr(token))}")
        count = int(m.group(1)) if m.group(1) else 1
        if len(items) + count > _MAX_SING_POINTS:
            raise ValueError(
                f"singularity token {_cut(repr(token))} takes the configuration over "
                f"{_MAX_SING_POINTS} points, more than a K3 surface can have"
            )
        family = m.group(2).upper()
        N = int(m.group(3))
        r = int(m.group(4)) if m.group(4) else 0
        parse_symbol(f"{family}{N}")
        items.extend([(family, N, r)] * count)
    return tuple(sorted(items))


def _as_config(config) -> Tuple[Tuple[str, int, int], ...]:
    if isinstance(config, str):
        return parse_sing_config(config)
    return tuple(sorted(tuple(item) for item in config))


def sing_config_str(config) -> str:
    parts = [f"{fam}{N}:{r}" for (fam, N, r) in _as_config(config)]
    return " + ".join(parts) if parts else "(smooth)"


def picard_bound_ok(h: HeightValue, config) -> bool:
    """Rank bound on the singular locus of one K3 surface.

    The ranks N_i of the rational double points must satisfy
    sum N_i < 22 - 2h for finite height h and sum N_i < 22 for
    infinite height.  A bare lower bound "> l" only guarantees the
    weaker supersingular-safe inequality sum N_i < 22.
    """
    total = sum(N for (_, N, _) in _as_config(config))
    if h.kind == "finite":
        return total < 22 - 2 * h.bound
    return total < 22


# ---------------------------------------------------------------------------
# quotient height tables


MU_PRIMES = (2, 3, 5, 7)

# maximal quotients by the infinitesimal additive group scheme:
# characteristic and singular locus of the quotient -> height of the map
ALPHA_QUOTIENT_TABLE = {
    (2, (("D", 4, 0), ("D", 4, 0))): 2,
    (3, (("E", 6, 0), ("E", 6, 0))): 2,
    (5, (("E", 8, 0), ("E", 8, 0))): 2,
    (2, (("D", 8, 0),)): 3,
    (2, (("E", 8, 0),)): 4,
}

# etale quotients (Z/p actions): the coindexes jump by the map height
ETALE_QUOTIENT_TABLE = {
    (2, (("D", 4, 1), ("D", 4, 1))): 1,
    (3, (("E", 6, 1), ("E", 6, 1))): 1,
    (5, (("E", 8, 1), ("E", 8, 1))): 1,
    (2, (("D", 8, 2),)): 2,
    (2, (("E", 8, 2),)): 3,
}


def quotient_height(group: str, p: int, config) -> HeightValue:
    """Height of a maximal quotient map by mu_p or alpha_p.

    The singular locus of the quotient surface determines the height:
    mu_p quotients have 24/(p+1) points of type A_{p-1} and height 1;
    alpha_p quotients run through a five-row table with heights 2..4.
    Raises for configurations outside the tables.
    """
    cfg = _as_config(config)
    name = group.lower().lstrip("_ ")
    if name.startswith("mu"):
        if p not in MU_PRIMES:
            raise ValueError(f"no mu_p quotient table entry for p={_cut(str(p))}")
        expected = tuple([("A", p - 1, 0)] * (24 // (p + 1)))
        if cfg != expected:
            raise ValueError(
                f"mu_{p} maximal quotient must have singular locus "
                f"{sing_config_str(expected)}, got {_cut(sing_config_str(cfg))}"
            )
        return finite(1)
    if name.startswith("alpha"):
        h = ALPHA_QUOTIENT_TABLE.get((p, cfg))
        if h is None:
            raise ValueError(
                f"no alpha_{_cut(str(p))} maximal quotient with singular locus "
                f"{_cut(sing_config_str(cfg))}"
            )
        return finite(h)
    raise ValueError(f"unknown group scheme {group!r}; expected mu or alpha")


def etale_quotient_height(p: int, config) -> HeightValue:
    """Height of a quotient map by Z/p, read off the singular locus.

    Cross-checked on every call: each positive-coindex member of the
    configuration must force the same height via height_from_rdp.
    """
    cfg = _as_config(config)
    h = ETALE_QUOTIENT_TABLE.get((p, cfg))
    if h is None:
        raise ValueError(
            f"no etale quotient table entry for p={_cut(str(p))}, "
            f"singular locus {_cut(sing_config_str(cfg))}"
        )
    for family, N, r in cfg:
        if r > 0:
            forced = height_from_rdp(RdpSpec(p, family, N, r))
            if forced != finite(h):
                raise RuntimeError(
                    f"table height {h} disagrees with forced height "
                    f"{forced} for {p}:{family}{N}:{r}"
                )
    return finite(h)


# ---------------------------------------------------------------------------
# surface models and point counting


MODEL_SCHEMA = "rdpk3/surface-model/1"


class TwoChart(FrozenRecord):
    """An elliptic surface glued from two affine Weierstrass charts.

    chart1 lives in three variables (fiber coordinates and the base
    parameter); chart2_at_infinity is the affine fiber equation over
    the one base point the first chart misses.  Rational points over
    F_q decompose as: solutions of chart1 in F_q^3, solutions of
    chart2_at_infinity in F_q^2, plus one point at infinity on each of
    the q+1 fibers (the zero section).
    """

    __slots__ = ("characteristic", "chart1", "chart2_at_infinity")
    _key = attrgetter(*__slots__)

    def __init__(self, characteristic: int, chart1: MultiPoly, chart2_at_infinity: MultiPoly):
        if chart1.modulus != characteristic:
            raise ValueError("chart1 modulus disagrees with the characteristic")
        if chart2_at_infinity.modulus != characteristic:
            raise ValueError("chart2 modulus disagrees with the characteristic")
        if len(chart1.variables) != 3:
            raise ValueError("chart1 must have exactly three variables")
        if len(chart2_at_infinity.variables) != 2:
            raise ValueError("chart2_at_infinity must have exactly two variables")
        self._fill(characteristic, chart1, chart2_at_infinity)


class WeightedHypersurface(FrozenRecord):
    """A hypersurface in a weighted projective space over F_p."""

    __slots__ = ("characteristic", "weights", "polynomial")
    _key = attrgetter(*__slots__)

    def __init__(self, characteristic: int, weights: Tuple[int, ...], polynomial: MultiPoly):
        if polynomial.modulus != characteristic:
            raise ValueError("polynomial modulus disagrees with the characteristic")
        if len(weights) != len(polynomial.variables):
            raise ValueError("need one weight per variable")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        self._fill(characteristic, weights, polynomial)


SurfaceModel = Union[TwoChart, WeightedHypersurface]


def model_from_json(doc) -> SurfaceModel:
    what = "model"
    schema = json_field(doc, "schema", "a string", what)
    if schema != MODEL_SCHEMA:
        raise ValueError(f"expected schema {MODEL_SCHEMA!r}, got {schema!r}")
    p = json_field(doc, "characteristic", "an integer", what)

    def poly(part, where):
        text = json_field(part, "polynomial", "a string", where)
        variables = json_field(part, "variables", "a list of strings", where)
        return parse_poly(text, tuple(variables), modulus=p)

    kind = doc.get("kind")
    if kind == "two-chart":
        return TwoChart(p, *(
            poly(json_field(doc, name, "an object", what), f"{what} {name}")
            for name in ("chart1", "chart2_at_infinity")
        ))
    if kind == "weighted-hypersurface":
        weights = json_field(doc, "weights", "a list of integers", what)
        return WeightedHypersurface(p, tuple(weights), poly(doc, what))
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> SurfaceModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json_document(fh.read(), f"model file {path}"))


# Most field operations one count_points call may spend: fibres times
# coefficient terms, times q for fibres of degree 3 or more.
COUNT_WORK_GUARD = 2**20


def _fibre_variable(poly: MultiPoly) -> Tuple[int, int]:
    """(index, degree) of the variable of least positive degree; (-1, 0) for a constant."""
    degrees = [max((e[i] for e in poly.terms), default=0) for i in range(len(poly.variables))]
    positive = [(d, i) for i, d in enumerate(degrees) if d]
    if not positive:
        return -1, 0
    d, i = min(positive)
    return i, d


def _count_work(poly: MultiPoly, q: int) -> int:
    i, d = _fibre_variable(poly)
    if i < 0:
        return 1
    return q ** (len(poly.variables) - 1) * len(poly.terms) * (q if d >= 3 else 1)


def _root_counter(field: FiniteField, ks: Sequence[int]):
    """A function of coefficient columns, one per k in ks, to the roots in GF(q) of their fibres.

    The fibre at position j is sum_k cols[k][j] y^k, and the function
    sums its root counts over the positions.  A leading coefficient that
    vanishes at a position lowers the degree there.
    """
    q = field.q
    if max(ks) >= 3:
        # y by y, from one table of the powers y^k per y: the degree costs nothing
        at_y = [[field.pow(y, k) for k in ks] for y in field.elements()]
        return lambda cols: sum(
            functools.reduce(field.add, map(field.mul, cs, ys), 0) == 0
            for cs in zip(*cols) for ys in at_y
        )
    if field.p == 2:
        log, order = field._log, q - 1
        # y = (b/a) z turns the fibre into z^2 + z = ac/b^2 (Artin-Schreier):
        # two roots or none as its trace is 0 or 1
        art = [2 - 2 * field.trace(z) for z in field._exp]

        def quadratic(a, b, c):
            # b = 0: squaring is a bijection of GF(2^k); c = 0: y (a y + b) = 0
            return 1 if not b else 2 if not c else art[(log[a] + log[c] - 2 * log[b]) % order]
    else:
        chi = [field.quadratic_character(x) for x in field.elements()]
        four = field.from_int(4)

        def quadratic(a, b, c):
            return 1 + chi[field.add(field.mul(b, b), field.neg(field.mul(four, field.mul(a, c))))]

    slots = [ks.index(k) if k in ks else -1 for k in (2, 1, 0)]

    def count(cols):
        a_col, b_col, c_col = (cols[s] if s >= 0 else itertools.repeat(0) for s in slots)
        return sum(
            quadratic(a, b, c) if a else 1 if b else 0 if c else q
            for a, b, c in zip(a_col, b_col, c_col)
        )
    return count


def _affine_count(field: FiniteField, poly: MultiPoly) -> int:
    """Zeros of poly in GF(q)^n, from the columns of its coefficients in the least-degree variable."""
    n = len(poly.variables)
    i, _d = _fibre_variable(poly)
    if i < 0:
        return field.q**n if field.evaluate_poly(poly, (0,) * n) == 0 else 0
    rest = poly.variables[:i] + poly.variables[i + 1:]
    split: Dict[int, dict] = {}
    for exps, c in poly.terms.items():
        split.setdefault(exps[i], {})[exps[:i] + exps[i + 1:]] = c
    ks = tuple(split)
    coefficients = [MultiPoly(rest, split[k], poly.modulus) for k in ks]
    # one slab of the first other variable at a time: no column holds more than q^(n-2) values
    slabs = field.slabs(coefficients) if n >= 3 else [field.grid(coefficients)]
    return sum(map(_root_counter(field, ks), slabs))


def _weight_map(model: WeightedHypersurface) -> Dict[str, int]:
    """The weight of each variable, refusing a polynomial not homogeneous for the weights."""
    poly = model.polynomial
    wmap = dict(zip(poly.variables, model.weights))
    if not poly.is_homogeneous(wmap):
        raise ValueError(f"polynomial is not homogeneous for the given weights {model.weights}")
    return wmap


def _counted_polys(model: SurfaceModel, q: int) -> Tuple[MultiPoly, ...]:
    """The affine polynomials count_points(model, q) counts the zeros of.

    Refuses a q that is not a power of the characteristic, a weighted
    polynomial that is not weighted-homogeneous, whose zeros are no
    union of orbits, and a count that would take more than
    COUNT_WORK_GUARD field operations.
    """
    p = model.characteristic
    power = p
    while power < q:
        power *= p
    if power != q:
        raise ValueError(f"q={_cut(str(q))} is not a power of the characteristic {p}")
    if isinstance(model, TwoChart):
        polys = (model.chart1, model.chart2_at_infinity)
    else:
        _weight_map(model)
        polys = (model.polynomial,)
    work = sum(_count_work(poly, q) for poly in polys)
    if work > COUNT_WORK_GUARD:
        raise ValueError(
            f"q={q}: counting points needs about {work} field operations, "
            f"more than the guard {COUNT_WORK_GUARD}"
        )
    return polys


# GF(q) is not changed once built; its log tables grow with q, so only a few are kept.
_field = functools.lru_cache(maxsize=8)(FiniteField)


def count_points(model: SurfaceModel, q: int) -> int:
    """Number of F_q-rational points of the surface model.

    TwoChart: affine solutions of both charts plus the q+1 points of
    the zero section.  WeightedHypersurface: nonzero cone solutions
    divided by q - 1, since each rational point of the coarse space is
    one orbit of the weighted scaling action with exactly q - 1
    rational points (Hilbert 90), whatever the weights share with q - 1.
    Affine solutions are counted fibre by fibre; a model whose count
    would take more than COUNT_WORK_GUARD field operations is refused.
    """
    polys = _counted_polys(model, q)
    field = _field(q)
    total = sum(_affine_count(field, poly) for poly in polys)
    if isinstance(model, TwoChart):
        return total + q + 1
    poly = model.polynomial
    if field.evaluate_poly(poly, (0,) * len(model.weights)) == 0:
        total -= 1  # the cone point itself
    if total % (q - 1) != 0:
        raise RuntimeError("cone count is not a multiple of q - 1; enumeration bug")
    return total // (q - 1)


# ---------------------------------------------------------------------------
# the height test on point counts


def power_sums_from_counts(counts: Sequence[int], q: int) -> List[Fraction]:
    """a(m) = (#Y(F_{q^m}) - 1 - q^{2m}) / q^m, exactly."""
    return [
        Fraction(counts[m - 1] - 1 - q ** (2 * m), q**m)
        for m in range(1, len(counts) + 1)
    ]


def newton_elementary(psums: Sequence[Fraction]) -> List[Fraction]:
    """Elementary symmetric functions from power sums, exactly.

    Solves p_j = sum_{i=1}^{j-1} (-1)^{i-1} e_i p_{j-i} + (-1)^{j-1} j e_j
    for e_j, one j at a time.
    """
    es: List[Fraction] = []
    for j in range(1, len(psums) + 1):
        acc = Fraction(psums[j - 1])
        for i in range(1, j):
            acc -= (-1) ** (i - 1) * es[i - 1] * psums[j - i - 1]
        es.append((-1) ** (j - 1) * acc / j)
    return es


def height_gt_test(counts: Sequence[int], q: int) -> Tuple[List[bool], List[Fraction]]:
    """Integrality verdicts ("height > n") and the s-values behind them.

    Returns (verdicts, s) where s = newton_elementary of the a(m) and
    verdicts[n-1] says whether s(1), ..., s(n) are all integers, which
    holds exactly when the height exceeds n.
    """
    s = newton_elementary(power_sums_from_counts(counts, q))
    verdicts: List[bool] = []
    all_integral = True
    for val in s:
        all_integral = all_integral and val.denominator == 1
        verdicts.append(all_integral)
    return verdicts, s


def height_from_counts(counts: Sequence[int], q: int) -> HeightValue:
    """Exact height when the counts reach far enough, else a bound.

    The height equals the first n with s(n) nonintegral; if every
    tested s(n) is integral the counts only certify
    height > len(counts).
    """
    verdicts, _ = height_gt_test(counts, q)
    for n, ok in enumerate(verdicts, start=1):
        if not ok:
            return finite(n)
    return greater_than(len(counts))


# ---------------------------------------------------------------------------
# ordinarity


def ordinary_test(model: WeightedHypersurface) -> bool:
    """Whether the K3 hypersurface is ordinary (height exactly 1).

    For f of weighted degree equal to the sum of the four weights,
    the surface is ordinary iff the coefficient of
    (x0 x1 x2 x3)^{p-1} in f^{p-1} is nonzero.
    """
    if len(model.weights) != 4:
        raise ValueError("ordinarity test expects four homogeneous coordinates")
    poly = model.polynomial
    wmap = _weight_map(model)
    degree = poly.weighted_degree(wmap)
    if degree != sum(model.weights):
        raise ValueError(
            f"weighted degree {degree} differs from the weight sum "
            f"{sum(model.weights)}; the criterion does not apply"
        )
    p = model.characteristic
    power = poly ** (p - 1)
    target = (p - 1,) * 4
    return power.coefficient_of(target) != 0


def height_from_ordinary(model: WeightedHypersurface) -> HeightValue:
    return finite(1) if ordinary_test(model) else greater_than(1)
