"""One-command reproduction of the library's closed-form computations.

Every check is deterministic: either a symbolic identity over a
polynomial ring, an exhaustive sweep over a finite parameter grid, or
a randomized property suite driven by a fixed seed.  Each check yields
``CheckRecord`` rows; ``reproduce_all`` collects them into a
``RunReport`` whose ``ok`` flag is the conjunction of all rows.

The cohomology drivers check the closed-form Frobenius and pullback
computations on the singularity catalog: the D_N family in
characteristic 2 on the ideals (x, y^j, z), the E_8 coindex-1 class in
characteristic 2 on (x, y^2, z), the E_6/E_7/E_8 classes at the
threshold coindex, and the quotient-map pullbacks.  Each instance is
one record.  The hypotheses of all three Frobenius families are stated
once, in ``_refusal``; ``frobenius_check``, the one entry point that
``rdpk3 localcoh frob`` prints, and the sweeps read it.  Every record
comes from one chain, which computes each class once, at its longest
admissible length, and reads the shorter lengths off it by R.

Records carry an ``anchor``: a TeX fragment of the formula or phrase
the check pins down, or the literal tag "plumbing" for rows that only
exercise infrastructure.
"""

import random
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .ffpoly import MultiPoly, Record, _cut, parse_poly
from .witt import (
    SUPPORTED_RANGES,
    WittVec,
    _cayley,
    check_supported,
    ghost_compatibility_ok,
    restriction,
    subtraction_components,
    verschiebung,
    witt_add,
    witt_frobenius,
    witt_mul,
    witt_neg,
    witt_sub,
)
from .chartring import (
    ALL_QUOTIENT_KEYS,
    ChartElem,
    ChartRing,
    RdpSpec,
    parse_rdp_key,
    quotient_case_from_key,
    rdp_chart,
    rmax,
)
from .localcoh import (
    IdealSpec,
    class_of,
    frobenius_class,
    is_torsion,
    pullback_class,
    r_class,
    torsion_length,
)
from .localcoh import reduce as reduce_class
from .height import (
    ETALE_QUOTIENT_TABLE,
    LENGTH_CAP,
    NonOccurrenceError,
    TwoChart,
    WeightedHypersurface,
    c_one,
    count_points,
    etale_quotient_height,
    finite,
    height_from_counts,
    height_from_rdp,
    height_sequence,
    ordinary_test,
    sing_config_str,
)
from .lattice import (
    GramLattice,
    diagonal_gram,
    disc_group,
    dynkin_gram,
    glue,
    signature,
    unimodular_overlattice_exists,
)

REPORT_SCHEMA = "rdpk3/report/1"

PLUMBING = "plumbing"

# TeX fragments of the statements the checks certify.
ANCHOR_GHOST = r"$w_N = \sum_i p^i t_i^{p^{N-i}}$"
ANCHOR_SUB_2N = r"$S_i \equiv t_1 t_2^{2^i-1} \pmod{t_1^2}$"
ANCHOR_SUB_23 = r"$(a + c)^3 b + (a + c) b^3 + (a^2 + 3 a c + c^2) b^2$"
ANCHOR_SUB_24A = r"$a b (a^6 + a^5 b + a^3 b^3 + a b^5 + b^6)$"
ANCHOR_SUB_24B = (
    r"$(c_0, c_1, c_2 + d_2, c_3) - (0, 0, d_2, 0) = (c_0, c_1, c_2, c_3 + c_2 d_2)$"
)
ANCHOR_SUB_32 = r"$(a + b, 0) - (a, 0) - (b, 0) = (0, a b (a + b))$"
ANCHOR_SUB_52 = r"$(0, a b (a + b) (a^2 + a b + b^2))$"
ANCHOR_PROJECTION = r"$V^m(x) \cdot y = V^m(x \cdot F^m(R^m(y)))$"
ANCHOR_D_FAMILY = r"$F(e) = 0$ (if $a \geq 0$); $F(e) = V^{n-1}(e')$ (if $a < 0$)"
ANCHOR_E8_PAIR = r"$F(e) = \lambda [y \varepsilon]$"
ANCHOR_E_FAMILY = r"except precisely for $\eta \omega$"
ANCHOR_QUOTIENT = r"$\pi^*(e) = V^{n-1}(e')$"
ANCHOR_MAIN_TABLE = (
    r"$\height(Y)$ determines $r$, and if $r > 0$ then $r$ determines $\height(Y)$"
)
ANCHOR_COUNT = {
    2: r"$\# X(\bF_2) = 1 + 2^2 + 2 \cdot 2$",
    4: r"$\# X(\bF_4) = 1 + 4^2 + 4 \cdot 2$",
    8: r"$\# X(\bF_8) = 45$",
}
ANCHOR_COUNT_HEIGHT = r"$\height(X) = 3$"
ANCHOR_ORDINARY_TXY = r"the coefficient of $t x y$ is nonzero"
ANCHOR_ORDINARY = (
    r"the coefficient of $(x_0 x_1 x_2 x_3)^{p-1}$ in $f^{p-1}$ is nonzero"
)
ANCHOR_GLUE_EVEN = (
    r"$\Lambda$ is an even overlattice of $L \oplus T$ of sign $(+1,-21)$"
)
ANCHOR_GLUE_DISC = r"$\Lambda^*/\Lambda \cong (\bZ/p\bZ)^2$"
ANCHOR_GLUE_L2T2 = r"$= -4 \in 2 \bZ$"
ANCHOR_GLUE_INDEX = (
    r"They generate the prime-to-$3$ parts of $L^*/L$ and $T^*/T$ respectively."
)
ANCHOR_OVERLATTICE = "does not admit a unimodular overlattice of finite index"


class CheckRecord(Record):
    """One reproduced computation: id, outcome, and its source anchor."""

    __slots__ = ("check_id", "status", "computed", "expected", "anchor", "note")
    _key = attrgetter(*__slots__)

    def __init__(self, check_id: str, status: str, computed: str, expected: str, anchor: str,
                 note: str = ""):
        if status not in ("pass", "fail", "skip"):
            raise ValueError(f"bad status {status!r}")
        if not anchor:
            raise ValueError("every record needs an anchor (or 'plumbing')")
        self.check_id, self.status, self.computed = check_id, status, computed
        self.expected, self.anchor, self.note = expected, anchor, note

    def line(self) -> str:
        mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}[self.status]
        out = f"[{mark}] {self.check_id}: {self.computed}"
        if self.status == "fail":
            out += f" (expected {self.expected})"
        if self.note:
            out += f" [{self.note}]"
        return out

    def as_json(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "anchor": self.anchor,
            "note": self.note,
        }


class RunReport(Record):
    """The assembled outcome of a reproduction run; records defaults to a new empty list."""

    __slots__ = ("command", "seed", "records", "wall_time")
    _key = attrgetter(*__slots__)

    def __init__(self, command: str, seed: int, records: Optional[List[CheckRecord]] = None,
                 wall_time: float = 0.0):
        self.command, self.seed, self.wall_time = command, seed, wall_time
        self.records = [] if records is None else records

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.status == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def n_skip(self) -> int:
        return sum(1 for r in self.records if r.status == "skip")

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def as_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "wall_time": round(self.wall_time, 3),
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "n_skip": self.n_skip,
            "ok": self.ok,
            "records": [r.as_json() for r in self.records],
        }

    def json_text(self) -> str:
        """The --format json text: json.dumps(self.as_json(), indent=2, sort_keys=True), byte for byte.

        With indent set, json.dumps walks the document in pure Python;
        this writes the same layout directly (keys sorted, two spaces per
        level, no final newline), with every string through the C encoder
        json.dumps itself uses for it.
        """
        enc = encode_basestring_ascii
        doc = self.as_json()
        records = ",\n".join(
            f'    {{\n      "anchor": {enc(r["anchor"])},\n      "computed": {enc(r["computed"])},\n'
            f'      "expected": {enc(r["expected"])},\n      "id": {enc(r["id"])},\n'
            f'      "note": {enc(r["note"])},\n      "status": {enc(r["status"])}\n    }}'
            for r in doc["records"]
        )
        records = f"[\n{records}\n  ]" if records else "[]"
        return (
            f'{{\n  "command": {enc(doc["command"])},\n  "n_fail": {doc["n_fail"]},\n'
            f'  "n_pass": {doc["n_pass"]},\n  "n_skip": {doc["n_skip"]},\n'
            f'  "ok": {"true" if doc["ok"] else "false"},\n  "records": {records},\n'
            f'  "schema": {enc(doc["schema"])},\n  "seed": {doc["seed"]},\n'
            f'  "wall_time": {doc["wall_time"]!r}\n}}'
        )

    def render_text(self) -> str:
        lines = [r.line() for r in self.records]
        verdict = "all checks passed" if self.ok else "CHECKS FAILED"
        lines.append(
            f"{verdict}: {self.n_pass} passed, {self.n_fail} failed, "
            f"{self.n_skip} skipped in {self.wall_time:.2f}s"
        )
        return "\n".join(lines)


def _record(check_id, ok, computed, expected, anchor, note=""):
    return CheckRecord(
        check_id=check_id,
        status="pass" if ok else "fail",
        computed=str(computed),
        expected=str(expected),
        anchor=anchor,
        note=note,
    )


def _class_record(rid, got, n, gen, anchor, problems, tail=()):
    """got against V^(n-1)[gen] up to a unit c in 1..p-1, or the zero class if gen is None.

    Compared on components, with no class built: got passes when it has n
    of them, the first n - 1 zero and the last c gen (c = 1 first, with no
    product), and the caller found no problems.  The note names c when it
    is not 1, then the problems, then the caller's tail.
    """
    *head, last = got.components
    want = got.ring.zero() if gen is None else gen
    unit = None
    if got.n == n and not any(c.terms for c in head):
        unit = next((c for c in range(1, 2 if gen is None else got.ring.p)
                     if last == (want if c == 1 else want * c)), None)
    notes = ([f"unit {unit}"] if unit not in (None, 1) else []) + problems + list(tail)
    expected = "(" + "0, " * (n - 1) + f"{want})"
    return _record(rid, unit is not None and not problems, got, expected, anchor, "; ".join(notes))


# ---------------------------------------------------------------------------
# Witt-vector identities


def check_ghost_grid() -> List[CheckRecord]:
    """Structure polynomials agree with the ghost maps over the integers."""
    recs = []
    for p in sorted(SUPPORTED_RANGES):
        for n in range(1, SUPPORTED_RANGES[p] + 1):
            ok = ghost_compatibility_ok(p, n)
            recs.append(
                _record(
                    f"witt:ghost:p{p}:n{n}",
                    ok,
                    "ghost-compatible" if ok else "ghost mismatch",
                    "ghost-compatible",
                    ANCHOR_GHOST,
                )
            )
    return recs


def _gens(p: int, names: Sequence[str]) -> list:
    names = tuple(names)
    return [MultiPoly.gen(names, nm, p) for nm in names]


# (p, n, components 1..n-1 of [a+b] - [a] - [b], anchor); component 0 is 0.
TEICHMULLER_DEFECTS = (
    (2, 4, lambda a, b: (
        a * b,
        a * b * (a ** 2 + a * b + b ** 2),
        a * b * (a ** 6 + a ** 5 * b + a ** 3 * b ** 3 + a * b ** 5 + b ** 6),
    ), ANCHOR_SUB_24A),
    (3, 2, lambda a, b: (a * b * (a + b),), ANCHOR_SUB_32),
    (5, 2, lambda a, b: (a * b * (a + b) * (a ** 2 + a * b + b ** 2),), ANCHOR_SUB_52),
)


def check_witt_identities() -> List[CheckRecord]:
    """The five truncated-Witt subtraction identities, symbolically."""
    recs = []

    # (1) p = 2, any length: (t1+t2, 0, ...) - (t2, 0, ...) componentwise.
    comps = subtraction_components(2, 4)
    t1, t2 = _gens(2, ("t1", "t2"))
    idx_t1 = 0
    bad = []
    for i, s in enumerate(comps):
        degree_ok = s.is_homogeneous() and s.total_degree() == 2 ** i
        diff = s - t1 * t2 ** (2 ** i - 1)
        congruence_ok = all(e[idx_t1] >= 2 for e in diff.terms)
        if not (degree_ok and congruence_ok):
            bad.append(i)
    recs.append(
        _record(
            "witt:identity:p2:len4:prefix",
            not bad,
            "S_i homogeneous of degree 2^i, = t1 t2^(2^i - 1) mod t1^2 "
            "for i = 0..3" if not bad else f"violated at i = {bad}",
            "holds for every component",
            ANCHOR_SUB_2N,
        )
    )

    # (2) p = 2, length 3, three-term first entry.
    a, b, c = _gens(2, ("a", "b", "c"))
    z = a.ring_zero()
    got = witt_sub(WittVec(2, (a + b + c, z, z)), WittVec(2, (b, b * c, z)))
    third = (a + c) ** 3 * b + (a + c) * b ** 3 + (a * a + 3 * a * c + c * c) * b * b
    want = WittVec(2, (a + c, a * b, third))
    recs.append(
        _record(
            "witt:identity:p2:len3:carry",
            got == want,
            str(got),
            str(want),
            ANCHOR_SUB_23,
        )
    )

    # (3b) p = 2, length 4: clearing one middle coordinate.
    c0, c1, c2, c3, d2 = _gens(2, ("c0", "c1", "c2", "c3", "d2"))
    z = c0.ring_zero()
    got = witt_sub(WittVec(2, (c0, c1, c2 + d2, c3)), WittVec(2, (z, z, d2, z)))
    want = WittVec(2, (c0, c1, c2, c3 + c2 * d2))
    recs.append(
        _record(
            "witt:identity:p2:len4:middle",
            got == want,
            str(got),
            str(want),
            ANCHOR_SUB_24B,
        )
    )

    # (3a), (4), (5): the sum of two Teichmuller lifts minus both.
    for p, n, defect, anchor in TEICHMULLER_DEFECTS:
        a, b = _gens(p, ("a", "b"))
        z = a.ring_zero()
        lifts = [WittVec(p, (t,) + (z,) * (n - 1)) for t in (a + b, a, b)]
        got = witt_sub(witt_sub(lifts[0], lifts[1]), lifts[2])
        want = WittVec(p, (z,) + defect(a, b))
        rid = f"witt:identity:p{p}:len{n}:teichmuller"
        recs.append(_record(rid, got == want, str(got), str(want), anchor))
    return recs


def _projection_sides(x: WittVec, y: WittVec, m: int) -> Tuple[WittVec, WittVec]:
    """V^m(x) y and V^m(x F^m(R^m y)), for x of length len(y) - m."""
    lhs = witt_mul(verschiebung(x, m), y)
    ry = restriction(y, m)
    for _ in range(m):
        ry = witt_frobenius(ry)
    return lhs, verschiebung(witt_mul(x, ry), m)


def check_projection_rule() -> List[CheckRecord]:
    """V^m(x) y = V^m(x F^m(R^m y)) on generic polynomial vectors.

    Verified on a generic point of the universal polynomial ring, which
    proves the identity for every algebra over the prime field.
    """
    recs = []
    for p in sorted(SUPPORTED_RANGES):
        for total in range(2, SUPPORTED_RANGES[p] + 1):
            for m in range(1, total):
                n = total - m
                names = tuple(f"x{i}" for i in range(n)) + tuple(
                    f"y{i}" for i in range(total)
                )
                gens = _gens(p, names)
                x, y = WittVec(p, tuple(gens[:n])), WittVec(p, tuple(gens[n:]))
                lhs, rhs = _projection_sides(x, y, m)
                recs.append(
                    _record(
                        f"witt:projection:p{p}:n{n}:m{m}",
                        lhs == rhs,
                        "both sides agree" if lhs == rhs else str(lhs),
                        str(rhs),
                        ANCHOR_PROJECTION,
                    )
                )
    return recs


# ---------------------------------------------------------------------------
# Frobenius and pullback sweeps on chart cohomology


class HypothesisError(ValueError):
    """A verification driver was invoked outside its admissible range."""


def _refusal(spec: RdpSpec, n: int, j: Optional[int], key: str = "") -> str:
    """Why the length-n Frobenius record of spec (ideal exponent j) is outside its family's hypotheses, or "".

    The one statement of every family's hypotheses, read by the single
    check and by the sweeps:
    - D_N^r in characteristic 2, with j: n >= 1, j >= 1, floor(N/2) >= C1(n, j),
      and for n >= 2 also floor(N/2) - r >= C1(n-1, j) (C1 grows with n, so
      n - 1 is in if n is);
    - the E_8 pair in characteristic 2: j = 2, n = 1, r <= 1;
    - E_N^r with no j: 1 <= n <= len(seq) and r <= seq[n - 1] = rmax + 1 - n,
      seq = height_sequence(p, "E", N); c_one (C1) and the cap on n are rdpk3.height's too.
    key is the catalog key as typed, echoed (or else spec) when a D key is
    not in characteristic 2.
    """
    p, N, r = spec.p, spec.N, spec.r
    if spec.family == "D":
        if p != 2:
            return f"the D-family check is for characteristic 2 only, not {_cut(repr(str(key or spec)))}"
        if j is None:
            return "the D-family check needs --j"
        if n < 1:
            return f"length {_cut(n)} out of range; need n >= 1"
        if j < 1:
            return f"ideal exponent j = {_cut(j)} out of range; need j >= 1"
        check_supported(2, n)
        m = N // 2
        if m < c_one(n, j):
            return f"floor(N/2) = {_cut(m)} < C1({n},{_cut(j)}) = {_cut(c_one(n, j))}"
        if n >= 2 and m - r < c_one(n - 1, j):
            return f"floor(N/2) - r = {_cut(m - r)} < C1({n - 1},{_cut(j)}) = {_cut(c_one(n - 1, j))}"
        return ""
    if spec.family != "E":
        return f"no torsion-class Frobenius data for the {_cut(spec.symbol)} chart"
    if j is not None:
        if (p, N, j, n) != (2, 8, 2, 1):
            return "--j only applies to D-family charts (or --j 2 --n 1 on 2:E8)"
        return "" if r <= 1 else "only coindexes 0 and 1 are covered here"
    seq = height_sequence(p, "E", N)
    if not seq:
        return f"(p, N) = ({p}, {N}) is not in the family"
    if not (1 <= n <= len(seq)):
        return f"length {_cut(n)} out of range 1..{len(seq)}"
    if r > seq[n - 1]:
        return f"coindex {r} out of range 0..{seq[n - 1]}"
    return ""


def _chain(spec: RdpSpec, n_max: int, j: Optional[int], unified: bool) -> List[CheckRecord]:
    """The records of lengths 1..n_max of one admitted (spec, j), read by R off one class e = [(eps, 0, ..., 0)].

    e, F(e) and the torsion of e are computed once, at length n_max, with
    eps = x^-1 y^-j z (j = 1 when j is None) on the D_N or E_N chart
    (unified picks the D equation at r = 0).  The ideal is (x, y^j, z),
    or (x, y, z) when j is None.  By family, a record's id and predicted
    generator (None for F(e) = 0) are:
    - D_N^r: [x^-1 y^a z] when a = floor(N/2) - r - C1(n, j) < 0, a noted;
    - the E_8 pair: [x^-1 y^-1 z] at r = 1; e must not be (x, y, z)-torsion;
    - E_N^r: eps exactly at the threshold coindex.
    A record notes R^(n_max - n) e not being (eps, 0, ..) or not ideal-torsion.
    """
    p, family, N, r = spec.p, spec.family, spec.N, spec.r
    ring = rdp_chart(spec, unified=unified)
    eps = ring.monomial(1, -1, -(j or 1), 1)
    ideal = IdealSpec.maximal(ring) if j is None else IdealSpec.coordinate_power(ring, j)
    pair = family == "E" and j is not None
    anchor = ANCHOR_D_FAMILY if family == "D" else ANCHOR_E8_PAIR if pair else ANCHOR_E_FAMILY
    e = class_of(eps, n_max)
    fe = frobenius_class(e)
    torsion = torsion_length(e, ideal, fe)
    more = ["e unexpectedly torsion for (x, y, z)"] if pair and is_torsion(e, IdealSpec.maximal(ring)) else []
    base = (eps,) + (ring.zero(),) * (n_max - 1)
    recs = []
    for n in range(1, n_max + 1):
        problems = [] if e.components[:n] == base[:n] else ["base class is not (eps, 0, ..)"]
        if n > torsion:
            problems.append(f"e not torsion for {ideal}")
        tail = ()
        if family == "D":
            a = N // 2 - r - c_one(n, j)
            rid = f"frobenius:2:D:N{N:02d}:r{r:02d}:n{n:02d}:j{j:02d}" + (":variant=unified" if unified else "")
            gen, tail = ring.monomial(1, -1, a, 1) if a < 0 else None, (f"a={a}",)
        elif pair:
            rid, gen = f"frobenius:2:E8:j2:r{r:02d}", ring.monomial(1, -1, -1, 1) if r == 1 else None
        else:
            rid = f"frobenius:E:p{p:02d}:N{N:02d}:n{n:02d}:r{r:02d}"
            gen = eps if r == height_sequence(p, "E", N)[n - 1] else None
        recs.append(_class_record(rid, r_class(fe, n), n, gen, anchor, problems + more, tail))
    return recs


def frobenius_check(key: str, n: int, j: Optional[int] = None, unified: bool = False) -> CheckRecord:
    """The length-n Frobenius record of the chart with catalog key key (like "2:D12:3"), as the sweeps make it.

    Outside the family's hypotheses this raises HypothesisError with
    _refusal's reason; otherwise it is the sweep's chain at n_max = n,
    whose last record reads nothing off a longer class.
    """
    spec = parse_rdp_key(key)
    if reason := _refusal(spec, n, j, key):
        raise HypothesisError(reason)
    return _chain(spec, n, j, unified)[-1]


def _sweep(gid: str, want: int, instances) -> List[CheckRecord]:
    """One chain per (spec, j, unified) that _refusal admits, at the longest admitted length up to LENGTH_CAP.

    Admission only shrinks as n grows, so the chain's shorter lengths are
    admitted too.  The D grid stops at the cap; no E rule reaches past it.
    A grid that gives other than want records, its group's count in the
    golden report, adds one failing record gid:count: a rule that admits
    less cannot shrink the report silently.
    """
    recs = []
    for spec, j, unified in instances:
        n_max = next((n for n in range(LENGTH_CAP, 0, -1) if not _refusal(spec, n, j)), 0)
        if n_max:
            recs += _chain(spec, n_max, j, unified)
    if len(recs) != want:
        recs.append(_record(f"{gid}:count", False, f"{len(recs)} records", f"{want} records", PLUMBING))
    return recs


def d_frobenius_sweep() -> List[CheckRecord]:
    """All admissible (N, r, n, j) on the D rows of _coindexed_spaces, n <= LENGTH_CAP, j <= 4; both equations at r = 0."""
    return _sweep("frobenius:2:D", 622, ((spec, j, unified)
                                         for p, family, N in _coindexed_spaces() if family == "D"
                                         for r in range(rmax(p, family, N) + 1) for spec in [RdpSpec(p, family, N, r)]
                                         for j in range(1, 5) for unified in ((False, True) if r == 0 else (False,))))


def e8_pair_sweep() -> List[CheckRecord]:
    """The E_8 pair at every admissible coindex."""
    return _sweep("frobenius:2:E8:j2", 2, ((RdpSpec(2, "E", 8, r), 2, False) for r in range(rmax(2, "E", 8) + 1)))


def e_frobenius_sweep() -> List[CheckRecord]:
    """All admissible (p, N, n, r) instances of the E threshold family, over the E rows of _coindexed_spaces."""
    return _sweep("frobenius:E", 34, ((RdpSpec(p, family, N, r), None, False)
                                      for p, family, N in _coindexed_spaces() if family == "E"
                                      for r in range(rmax(p, family, N) + 1)))


def quotient_pullback_check(key: str) -> CheckRecord:
    """Pullback of the torsion generator along one quotient-map chart.

    The class e = [(eps, 0, ..., 0)] downstairs pulls back to
    V^(n-1) of a generator of the cover's length-1 cohomology,
    up to a unit.
    """
    case = quotient_case_from_key(key)
    n = case.n_expected
    e = class_of(case.eps, n)
    problems = []
    if not is_torsion(e, IdealSpec.maximal(case.source)):
        problems.append("e not coordinate-ideal torsion downstairs")
    if case.predicted_gen.is_zero():
        problems.append("predicted generator vanished")
    return _class_record(f"quotient-pullback:case{case.case_id:02d}:key={key}:n{n:02d}",
                         pullback_class(case.rmap, e), n, case.predicted_gen, ANCHOR_QUOTIENT, problems)


def quotient_pullback_sweep() -> List[CheckRecord]:
    return [quotient_pullback_check(key) for key in ALL_QUOTIENT_KEYS]


# ---------------------------------------------------------------------------
# Height-table consistency


def _coindexed_spaces() -> List[Tuple[int, str, int]]:
    """The non-taut (rmax > 0) D_N and E_N of rank N <= 21 in the supported characteristics, by p, then D before E."""
    types = [("D", N) for N in range(4, 22)] + [("E", N) for N in (6, 7, 8)]
    return [(p, family, N) for p in sorted(SUPPORTED_RANGES) for family, N in types if rmax(p, family, N)]


def check_height_consistency() -> List[CheckRecord]:
    """The coindex-to-height table is injective and matches the quotients."""
    recs = []
    for p, family, N in _coindexed_spaces():
        seq = height_sequence(p, family, N)
        got, want = [], []
        for idx, r in enumerate(seq):
            want.append(f"r{r}->h{idx + 1}")
            hv = height_from_rdp(RdpSpec(p, family, N, r))
            got.append(f"r{r}->h{hv}")
        want.append(f"r0->h>{len(seq)}")
        hv0 = height_from_rdp(RdpSpec(p, family, N, 0))
        got.append(f"r0->h{hv0}")
        injective = len(set(got)) == len(got)
        ok = got == want and injective
        recs.append(
            _record(
                f"height:table:p{p}:{family}{N:02d}",
                ok,
                " ".join(got),
                " ".join(want),
                ANCHOR_MAIN_TABLE,
            )
        )

    # Positive coindexes with no realizing surface, found by exhaustion.
    raised = set()
    for p, family, N in _coindexed_spaces():
        for r in range(1, rmax(p, family, N) + 1):
            try:
                height_from_rdp(RdpSpec(p, family, N, r))
            except NonOccurrenceError:
                raised.add((p, family, N, r))
    expected = {
        (2, "D", N, r)
        for N in range(4, 22)
        for r in range(1, N // 2)
        if (N // 2) - r not in (1, 2, 4)
    }
    expected.add((2, "E", 8, 1))
    extra = sorted(raised - expected)
    missing = sorted(expected - raised)
    note = ""
    if extra:
        note += f"unexpected: {extra} "
    if missing:
        note += f"missing: {missing}"
    recs.append(
        _record(
            "height:non-occurrence",
            raised == expected,
            f"{len(raised)} excluded coindex classes",
            f"{len(expected)} excluded coindex classes",
            ANCHOR_MAIN_TABLE,
            note.strip(),
        )
    )

    # Quotients by the constant group scheme, against the same table.  A
    # disagreement of its cross-check with height_from_rdp fails the record.
    for (p, cfg), h in sorted(ETALE_QUOTIENT_TABLE.items()):
        rid = f"height:etale:p{p}:" + sing_config_str(cfg).replace(" + ", "+")
        try:
            hv = etale_quotient_height(p, cfg)
        except RuntimeError as exc:
            recs.append(_record(rid, False, "cross-check failed", h, ANCHOR_MAIN_TABLE, str(exc)))
            continue
        recs.append(_record(rid, hv == finite(h), hv, h, ANCHOR_MAIN_TABLE))
    return recs


# ---------------------------------------------------------------------------
# Point counts, ordinarity


def elliptic_height3_model() -> TwoChart:
    """The height-3 elliptic surface used by the counting checks."""
    chart1 = parse_poly("y^2 + y*x*t^2 + x^3 + t^5", ("x", "y", "t"), modulus=2)
    chart2 = parse_poly("y^2 + y*x + x^3", ("x", "y"), modulus=2)
    return TwoChart(2, chart1, chart2)


def check_point_counts() -> List[CheckRecord]:
    model = elliptic_height3_model()
    counts = []
    recs = []
    for q, want in ((2, 9), (4, 25), (8, 45)):
        got = count_points(model, q)
        counts.append(got)
        recs.append(
            _record(
                f"count:elliptic:q{q}",
                got == want,
                got,
                want,
                ANCHOR_COUNT[q],
            )
        )
    hv = height_from_counts(counts, 2)
    recs.append(
        _record(
            "count:elliptic:height",
            hv == finite(3),
            str(hv),
            "3",
            ANCHOR_COUNT_HEIGHT,
        )
    )
    return recs


def ordinarity_examples() -> List[Tuple[str, WeightedHypersurface, bool, str]]:
    """(id, model, expected-ordinarity, anchor) rows for the classic pair."""
    names = ("y", "x", "t", "s")
    schuett = parse_poly(
        "y^2 + y*x*t*s + y*t^6 + x^3 + x^2*t^4 + x^2*t^3*s + x^2*t^2*s^2"
        " + x*t^8 + t^12",
        names,
        modulus=2,
    )
    high = parse_poly("y^2 + y*x*t^2 + x^3 + t^5*s^7", names, modulus=2)
    return [
        (
            "ordinary:p6411:txy",
            WeightedHypersurface(2, (6, 4, 1, 1), schuett),
            True,
            ANCHOR_ORDINARY_TXY,
        ),
        (
            "ordinary:p6411:height3",
            WeightedHypersurface(2, (6, 4, 1, 1), high),
            False,
            ANCHOR_ORDINARY,
        ),
    ]


def check_ordinarity() -> List[CheckRecord]:
    recs = []
    for rid, model, want, anchor in ordinarity_examples():
        got = ordinary_test(model)
        recs.append(
            _record(
                rid,
                got == want,
                "ordinary (height 1)" if got else "not ordinary (height > 1)",
                "ordinary" if want else "not ordinary",
                anchor,
            )
        )
    return recs


# ---------------------------------------------------------------------------
# Lattice gluing and overlattice search


def a20_glue_data():
    """The rank-20 chain lattice, its rank-2 partner, and the glue vectors."""
    L = dynkin_gram("A20")
    T = GramLattice([[2, 5], [5, 2]])
    l_vec = [Fraction(i, 7) for i in range(1, 21)]
    t_vec = [Fraction(4, 7), Fraction(4, 7)]
    return L, T, l_vec, t_vec


def check_glue() -> List[CheckRecord]:
    L, T, l_vec, t_vec = a20_glue_data()
    glued = glue(L, T, 3, [(l_vec, t_vec)])
    recs = [
        _record(
            "glue:a20:even",
            glued.is_even,
            "even" if glued.is_even else "odd",
            "even",
            ANCHOR_GLUE_EVEN,
        )
    ]
    sig = signature(glued)
    recs.append(
        _record("glue:a20:signature", sig == (1, 21), sig, (1, 21), ANCHOR_GLUE_EVEN)
    )
    orders = disc_group(glued).orders
    recs.append(
        _record(
            "glue:a20:disc",
            tuple(orders) == (3, 3),
            f"Z/{'+Z/'.join(str(d) for d in orders)}",
            "Z/3+Z/3",
            ANCHOR_GLUE_DISC,
        )
    )
    val = L.dot(l_vec, l_vec) + T.dot(t_vec, t_vec)
    both = val == Fraction(-4) and val % 2 == 0
    recs.append(
        _record(
            "glue:a20:l2t2",
            both,
            f"l^2 + t^2 = {val}",
            "-4, an even integer",
            ANCHOR_GLUE_L2T2,
        )
    )
    index_sq, rem = divmod(abs(L.det) * abs(T.det), abs(glued.det))
    index_ok = rem == 0 and index_sq == 49
    recs.append(
        _record(
            "glue:a20:index",
            index_ok,
            f"index^2 = {abs(L.det) * abs(T.det)} / {abs(glued.det)}",
            "49 (the glue group has order 7)",
            ANCHOR_GLUE_INDEX,
        )
    )
    return recs


def overlattice_instances():
    """(id, lattice, expect-overlattice) rows for the search checks.

    The neg4 and split rows are L1 + <d0> + [[2, 1], [1, (d0 + 1)/2]] with
    L1 = <-4> or <2, -2>, for d0 = 7, 15, 23; neg4+7+d7 is the headline row.
    """
    return [
        (f"overlattice:{tag}+{d0}+d{d0}",
         diagonal_gram(l1 + [d0]).direct_sum(GramLattice([[2, 1], [1, (d0 + 1) // 2]])), False)
        for d0 in (7, 15, 23) for tag, l1 in (("neg4", [-4]), ("split", [2, -2]))
    ] + [
        ("overlattice:control-hyperbolic", diagonal_gram([-2, 2]), True),
        ("overlattice:neg16+7+d7", diagonal_gram([-16, 7]).direct_sum(GramLattice([[2, 1], [1, 4]])), False),
    ]


def check_overlattice() -> List[CheckRecord]:
    recs = []
    for rid, lat, want in overlattice_instances():
        found, witness = unimodular_overlattice_exists(lat)
        ok = found == want and (witness is None or abs(witness.det) == 1)
        anchor = PLUMBING if want else ANCHOR_OVERLATTICE
        recs.append(
            _record(
                rid,
                ok,
                "overlattice found" if found else "no unimodular overlattice",
                "one exists" if want else "none exists",
                anchor,
            )
        )
    return recs


# ---------------------------------------------------------------------------
# Randomized property suites (fixed seed, reusable by the test suite)


CANONICITY_CHART_KEYS = (
    "2:D4:1",
    "2:D9:2",
    "2:D12:0",
    "2:E6:1",
    "2:E7:3",
    "2:E8:4",
    "3:E6:1",
    "3:E7:1",
    "3:E8:2",
    "5:E8:1",
)


def _below(bits, n: int) -> int:
    """A draw from range(n), n >= 1, by the getrandbits loop Random.randrange(n) runs; bits is rng.getrandbits."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_elem(ring: ChartRing, rng: random.Random, region: str = "any"):
    """A small random ring element; region picks the splitting part.

    One to three terms coeff * u^i v^j w^k, each number drawn by _below
    as rng.randint or rng.randrange would draw it, summed in one term dict.
    """
    bits = rng.getrandbits
    terms = {}
    for _ in range(1 + _below(bits, 3)):
        coeff = 1 + _below(bits, ring.p - 1)
        k = _below(bits, ring.wdeg)
        if region == "xi":
            i, j = _below(bits, 5) - 2, _below(bits, 3)
        elif region == "eta":
            i, j = _below(bits, 3), _below(bits, 2) - 2
        else:
            i, j = _below(bits, 5) - 2, _below(bits, 5) - 2
        terms[i, j, k] = terms.get((i, j, k), 0) + coeff
    return ChartElem(ring, terms)


def canonicity_trials(ring: ChartRing, trials: int, rng: random.Random) -> int:
    """Random reduction cross-checks on one chart; returns failure count.

    Each trial reduces a random vector with both clearing orders,
    checks idempotence, and re-reduces after adding one vector from
    each localized subring.
    """
    failures = 0
    max_n = min(3, SUPPORTED_RANGES[ring.p])
    for t in range(trials):
        n = (t % max_n) + 1
        comps = [_random_elem(ring, rng) for _ in range(n)]
        first = reduce_class(comps, ("xi", "eta"))
        second = reduce_class(comps, ("eta", "xi"))
        if first != second:
            failures += 1
            continue
        if reduce_class(list(first.components)) != first:
            failures += 1
            continue
        shifted = WittVec(ring.p, tuple(comps))
        for region in ("xi", "eta"):
            extra = [_random_elem(ring, rng, region) for _ in range(n)]
            shifted = witt_add(shifted, WittVec(ring.p, tuple(extra)))
        if reduce_class(shifted) != first:
            failures += 1
    return failures


def _draw(rng: random.Random, p: int, elems) -> WittVec:
    """elems[d_0 + d_1 p + ...] for digits d_k = rng.randrange(p), drawn in order.

    elems are the Cayley table elements of some W_n(F_p), so this is
    WittVec(p, (d_0, ..., d_{n-1})) in F_p labels, taken instead of built.
    Each digit is drawn by _below, as Random.randrange(p) draws it.
    """
    bits = rng.getrandbits
    ix, weight, size = 0, 1, len(elems)
    while weight < size:
        ix += _below(bits, p) * weight
        weight *= p
    return elems[ix]


def witt_axiom_trials(p: int, n: int, trials: int, rng: random.Random) -> int:
    """Random commutative-ring and shift axioms in one truncation, on Cayley table elements ([a] has index a)."""
    elems = _cayley(p, n)[0]
    shorter = _cayley(p, n - 1)[0] if n >= 2 else None
    zero, one = elems[0], elems[1]
    bits = rng.getrandbits
    failures = 0
    for _ in range(trials):
        x, y, z = _draw(rng, p, elems), _draw(rng, p, elems), _draw(rng, p, elems)
        checks = [
            witt_add(x, y) == witt_add(y, x),
            witt_add(witt_add(x, y), z) == witt_add(x, witt_add(y, z)),
            witt_add(x, zero) == x,
            witt_add(x, witt_neg(x)) == zero,
            witt_mul(x, y) == witt_mul(y, x),
            witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z)),
            witt_mul(one, x) == x,
            witt_mul(x, witt_add(y, z))
            == witt_add(witt_mul(x, y), witt_mul(x, z)),
        ]
        a = _below(bits, p)
        b = _below(bits, p)
        checks.append(witt_mul(elems[a], elems[b]) == elems[a * b % p])
        if n >= 2:
            u, v = _draw(rng, p, shorter), _draw(rng, p, shorter)
            checks.append(
                verschiebung(witt_add(u, v))
                == witt_add(verschiebung(u), verschiebung(v))
            )
            px = zero
            for _ in range(p):
                px = witt_add(px, x)
            checks.append(
                px == verschiebung(witt_frobenius(restriction(x)))
            )
        if not all(checks):
            failures += 1
    return failures


def projection_trials(trials: int, rng: random.Random) -> int:
    """Random instances of the V-twisted multiplication rule."""
    failures = 0
    eligible = [p for p, nmax in SUPPORTED_RANGES.items() if nmax >= 2]
    bits = rng.getrandbits
    for _ in range(trials):
        # rng.choice(eligible), rng.randint(2, SUPPORTED_RANGES[p]), rng.randint(1, total - 1)
        p = eligible[_below(bits, len(eligible))]
        total = 2 + _below(bits, SUPPORTED_RANGES[p] - 1)
        m = 1 + _below(bits, total - 1)
        n = total - m
        x = _draw(rng, p, _cayley(p, n)[0])
        y = _draw(rng, p, _cayley(p, total)[0])
        lhs, rhs = _projection_sides(x, y, m)
        if lhs != rhs:
            failures += 1
    return failures


def check_property_suites(
    seed: int,
    canonicity_count: int = 25,
    axiom_count: int = 100,
    projection_count: int = 100,
) -> List[CheckRecord]:
    """Seeded spot runs of the three randomized suites."""
    recs = []
    for key in CANONICITY_CHART_KEYS:
        ring = rdp_chart(parse_rdp_key(key))
        rng = random.Random(f"{seed}:canonicity:{key}")
        bad = canonicity_trials(ring, canonicity_count, rng)
        recs.append(
            _record(
                f"property:canonicity:{key}",
                bad == 0,
                f"{canonicity_count} trials, {bad} failures",
                "0 failures",
                PLUMBING,
            )
        )
    for p in sorted(SUPPORTED_RANGES):
        for n in range(1, SUPPORTED_RANGES[p] + 1):
            rng = random.Random(f"{seed}:axioms:{p}:{n}")
            bad = witt_axiom_trials(p, n, axiom_count, rng)
            recs.append(
                _record(
                    f"property:witt-axioms:p{p}:n{n}",
                    bad == 0,
                    f"{axiom_count} trials, {bad} failures",
                    "0 failures",
                    PLUMBING,
                )
            )
    rng = random.Random(f"{seed}:projection")
    bad = projection_trials(projection_count, rng)
    recs.append(
        _record(
            "property:projection",
            bad == 0,
            f"{projection_count} trials, {bad} failures",
            "0 failures",
            ANCHOR_PROJECTION,
        )
    )
    return recs


# ---------------------------------------------------------------------------
# Driver


# (group id, runner, needs-seed, aliases accepted by --only)
CHECK_GROUPS: Tuple[Tuple[str, Callable, bool, Tuple[str, ...]], ...] = (
    ("witt:ghost", check_ghost_grid, False, ("ghost",)),
    ("witt:identity", check_witt_identities, False, ("identities", "2.2")),
    ("witt:projection", check_projection_rule, False, ("projection", "2.1")),
    ("frobenius:2:D", d_frobenius_sweep, False, ("4.2",)),
    ("frobenius:2:E8:j2", e8_pair_sweep, False, ("4.3",)),
    ("frobenius:E", e_frobenius_sweep, False, ("4.4",)),
    ("quotient-pullback", quotient_pullback_sweep, False, ("4.6", "quotient")),
    ("height:consistency", check_height_consistency, False, ("consistency", "heights", "main")),
    ("count:elliptic", check_point_counts, False, ("counts", "7.1")),
    ("ordinary", check_ordinarity, False, ("ordinarity",)),
    ("glue:a20", check_glue, False, ("glue", "6.4")),
    ("overlattice", check_overlattice, False, ("6.3",)),
    ("property", check_property_suites, True, ("properties",)),
)


def known_only_tokens() -> List[str]:
    return sorted(tok for gid, _fn, _seeded, aliases in CHECK_GROUPS for tok in (gid,) + aliases)


def _normalize_token(token: str) -> str:
    tok = token.strip().lower()
    if tok.startswith("prop") and len(tok) > 4 and tok[4].isdigit():
        tok = tok[4:]
    if tok.startswith("lemma") and len(tok) > 5 and tok[5].isdigit():
        tok = tok[5:]
    return tok


def _select_groups(only: Optional[str]):
    if only is None:
        return list(CHECK_GROUPS)
    chosen = []
    tokens = [_normalize_token(t) for t in only.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty --only filter")
    for gid, fn, seeded, aliases in CHECK_GROUPS:
        names = (gid.lower(),) + tuple(a.lower() for a in aliases)
        for tok in tokens:
            if tok in names or any(name.startswith(tok) for name in names):
                chosen.append((gid, fn, seeded, aliases))
                break
    if not chosen:
        raise ValueError(
            f"no check group matches {only!r}; known tokens: "
            + ", ".join(known_only_tokens())
        )
    return chosen


def reproduce_all(only: Optional[str] = None, seed: int = 0) -> RunReport:
    """Run the reproduction checks (optionally filtered) into one report."""
    start = time.perf_counter()
    records: List[CheckRecord] = []
    for _gid, fn, seeded, _aliases in _select_groups(only):
        records.extend(fn(seed) if seeded else fn())
    records.sort(key=lambda r: r.check_id)
    return RunReport(
        command="reproduce" + (f" --only {only}" if only else "")
        + (f" --seed {seed}" if seed else ""),
        seed=seed,
        records=records,
        wall_time=time.perf_counter() - start,
    )
