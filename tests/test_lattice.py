import itertools
import json
import math
import pathlib
import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from rdpk3.lattice import (
    DiscForm,
    GramLattice,
    diagonal_gram,
    disc_group,
    dynkin_gram,
    glue,
    glue_from_json,
    lattice_from_json,
    signature,
    smith_diagonal,
    unimodular_overlattice_exists,
)
import rdpk3.lattice as lattice_module
from rdpk3.lattice import (
    _RANK_GUARD,
    _extend_subgroup,
    _inertia,
    _overlattice,
    _pair,
    _quotient_gram,
    _span_basis,
)
from rdpk3.reproduce import a20_glue_data, overlattice_instances

HYPERBOLIC_PLANE = GramLattice([[0, 1], [1, 0]])
GLUE_PATH = pathlib.Path(__file__).resolve().parent.parent / "models" / "a20glue.json"


def b_value(disc, x, y):
    """The bilinear pairing of a discriminant form in Q/Z, represented in [0, 1)."""
    e = disc._exponent
    return Fraction(disc._raw_dot(x, y) % e, e)


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
        for j in range(len(m))
    )


def test_det_and_smith_against_cofactors():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        d = cofactor_det(rows)
        sym = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if cofactor_det(sym):
            assert GramLattice(sym).det == cofactor_det(sym), sym
        else:
            with pytest.raises(ValueError, match="degenerate lattice"):
                GramLattice(sym)
        diag, v = smith_diagonal(rows)
        # U M V = diag(d): M times column i of V is d_i times an integer
        # vector, and with |det V| = 1 and prod(d) = |det M| the columns
        # over the d_i generate M^{-1} Z^n / Z^n
        for i, di in enumerate(diag):
            image = [sum(r[j] * v[j][i] for j in range(n)) for r in rows]
            assert all(x % di == 0 for x in image) if di else not any(image), rows
        assert abs(cofactor_det(v)) == 1
        assert math.prod(diag) == abs(d)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0 or b == 0


def test_dynkin_determinants():
    assert abs(dynkin_gram("A20").det) == 21
    assert abs(dynkin_gram("A2").det) == 3
    assert dynkin_gram("A2").gram == ((-2, 1), (1, -2))
    for N in (4, 5, 9, 19, 20):
        assert abs(dynkin_gram(f"D{N}").det) == 4, N
    assert abs(dynkin_gram("E6").det) == 3
    assert abs(dynkin_gram("E7").det) == 2
    assert abs(dynkin_gram("E8").det) == 1
    with pytest.raises(ValueError):
        dynkin_gram("F4")


def test_signatures():
    assert signature(dynkin_gram("E8")) == (0, 8)
    assert signature(GramLattice([[2, 5], [5, 2]])) == (1, 1)
    assert signature(HYPERBOLIC_PLANE) == (1, 1)
    assert signature(diagonal_gram([-4, 7])) == (1, 1)


def fraction_inertia(rows):
    """The oracle: (det, positive, negative index) by congruence diagonalization over Fractions.

    det is the product of the pivots; when the trailing block is zero the
    matrix is degenerate, det is 0 and the indices are those found so far.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            # symmetric matrix with zero diagonal: fold a nonzero
            # off-diagonal entry onto the diagonal
            found = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0), None
            )
            if found is None:
                return 0, pos, neg
            i, j = found
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for r in range(n):
                a[r][k], a[r][piv] = a[r][piv], a[r][k]
        d = a[k][k]
        det *= d
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for c in range(n):
                    a[i][c] -= f * a[k][c]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
            a[j][k] = Fraction(0)
    return det, pos, neg


def congruent(rows, rng, steps):
    """P rows P^T for a random unimodular P: elementary row-and-column additions and swaps."""
    m = [list(row) for row in rows]
    n = len(m)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
            for row in m:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += c * row[j]
    return m


def seeded_symmetric_matrices():
    """2,400 seeded symmetric matrices of rank 1..6, by kind: random, zero
    diagonal, hyperbolic blocks with a unimodular change of basis, and
    degenerate (a zero block under a unimodular change of basis)."""
    rng = random.Random(18)
    for k in range(2400):
        n = 1 + k % 6
        kind = ("random", "zero-diagonal", "hyperbolic", "degenerate")[k // 6 % 4]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
        if kind == "zero-diagonal":
            for i in range(n):
                rows[i][i] = 0
        elif kind == "hyperbolic":
            rows = [[0] * n for _ in range(n)]
            for i in range(0, n - 1, 2):
                rows[i][i + 1] = rows[i + 1][i] = rng.choice((-3, -1, 1, 2))
            if n % 2:
                rows[n - 1][n - 1] = rng.choice((-2, 2))
            rows = congruent(rows, rng, 2 * n) if k % 12 >= 6 else rows
        elif kind == "degenerate":
            for i in rng.sample(range(n), rng.randrange(1, n + 1)):
                for j in range(n):
                    rows[i][j] = rows[j][i] = 0
            rows = congruent(rows, rng, 2 * n)
        yield kind, rows


def test_inertia_agrees_with_the_fraction_oracle_and_the_cofactor_det():
    kinds = dict.fromkeys(("random", "zero-diagonal", "hyperbolic", "degenerate"), 0)
    singular = 0
    rng = random.Random(81)
    for kind, rows in seeded_symmetric_matrices():
        got = _inertia(rows)
        assert got == fraction_inertia(rows), rows
        assert got[0] == cofactor_det(rows), rows
        # Sylvester's law of inertia, and det(P)^2 = 1
        assert _inertia(congruent(rows, rng, 6)) == got, rows
        kinds[kind] += 1
        singular += got[0] == 0
        if kind == "degenerate":
            assert got[0] == 0 and got[1] + got[2] < len(rows), rows
        elif kind == "hyperbolic":
            assert got[0] != 0 and got[2] >= len(rows) // 2, rows
    assert kinds == dict.fromkeys(kinds, 600)
    assert 600 < singular < 1200, singular


def full_quotient_gram(m, rows, num, den):
    """num R m R^T / den over every ordered pair of rows, or None: the oracle."""
    out = []
    for x in rows:
        out_row = []
        for y in rows:
            val, rem = divmod(num * _pair(m, x, y), den)
            if rem:
                return None
            out_row.append(val)
        out.append(tuple(out_row))
    return tuple(out)


def rebuilt_direct_sum(a, b):
    """The block-diagonal Gram of a and b built and checked by GramLattice: the oracle."""
    n, m = a.rank, b.rank
    return GramLattice([list(row) + [0] * m for row in a.gram] + [[0] * n + list(row) for row in b.gram])


def test_quotient_gram_mirrors_one_triangle_as_the_full_product_does():
    rng = random.Random(20)
    kinds = {"integral": 0, "none": 0}
    for k, (_kind, m) in enumerate(seeded_symmetric_matrices()):
        if k % 4:
            continue
        n = len(m)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        num, den = rng.choice(((1, 1), (1, 2), (3, 4), (1, 9), (2, 3)))
        got = _quotient_gram(m, rows, num, den)
        assert got == full_quotient_gram(m, rows, num, den), (m, rows, num, den)
        kinds["none" if got is None else "integral"] += 1
    assert min(kinds.values()) > 100, kinds
    assert _quotient_gram([[2, 2], [2, 4]], [[1, 0], [0, 1]], 1, 2) == ((1, 1), (1, 2))
    # an integral diagonal does not make the off-diagonal pairing integral
    assert _quotient_gram([[2, 1], [1, 2]], [[1, 0], [0, 1]], 1, 2) is None


def pairwise_quotient_gram(m, rows, num, den):
    """The quotient Gram as it was formed pair by pair, each pair by a dense x^T m y: the oracle."""
    out = [[0] * len(rows) for _ in rows]
    for i, x in enumerate(rows):
        for j in range(i + 1):
            pairing = sum(a * b * m[r][c] for r, a in enumerate(x) for c, b in enumerate(rows[j]))
            val, rem = divmod(num * pairing, den)
            if rem:
                return None
            out[i][j] = out[j][i] = val
    return tuple(map(tuple, out))


def test_quotient_gram_pairs_row_images_as_the_pairwise_form_does():
    """Rows taken once to x^T m, then one dot product per pair: dense, sparse and zero rows."""
    rng = random.Random(25)
    kinds = {"integral": 0, "none": 0}
    for k, (_kind, m) in enumerate(seeded_symmetric_matrices()):
        if k % 3:
            continue
        n = len(m)
        density = rng.choice((0.2, 0.5, 1.0))
        rows = [
            [rng.randrange(-5, 6) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randrange(1, n + 3))
        ]
        num, den = rng.choice(((1, 1), (1, 2), (3, 4), (1, 9), (2, 3), (5, 25)))
        got = _quotient_gram(m, rows, num, den)
        assert got == pairwise_quotient_gram(m, rows, num, den), (m, rows, num, den)
        kinds["none" if got is None else "integral"] += 1
    assert min(kinds.values()) > 100, kinds
    # the first non-integral entry may be the last pair formed, or an off-diagonal one
    assert _quotient_gram([[2, 0], [0, 3]], [[1, 0], [0, 1]], 1, 2) is None
    assert _quotient_gram([[4, 1], [1, 4]], [[1, 0], [0, 1]], 1, 2) is None
    assert _quotient_gram([[4, 2], [2, 4]], [[1, 0], [0, 1]], 1, 2) == ((2, 1), (1, 2))
    assert _quotient_gram([[4, 2], [2, 4]], [], 1, 2) == ()
    # a rank-40 diagonal span of unit rows, as the overlattice search of diagonal_gram([3] * n) forms
    m = [[3 * (i == j) for j in range(40)] for i in range(40)]
    rows = [[(i == j) + 2 * (j == (i + 7) % 40) for j in range(40)] for i in range(40)]
    for num, den in ((1, 1), (1, 3), (2, 9)):
        assert _quotient_gram(m, rows, num, den) == pairwise_quotient_gram(m, rows, num, den)


def test_direct_sum_takes_det_as_the_product_of_the_blocks():
    rng = random.Random(21)
    lattices = [GramLattice(rows) for _kind, rows in seeded_symmetric_matrices() if _inertia(rows)[0]]
    lattices = lattices[:200] + [dynkin_gram("E8"), HYPERBOLIC_PLANE, diagonal_gram([6])]
    for _ in range(300):
        a, b = rng.choice(lattices), rng.choice(lattices)
        got, want = a.direct_sum(b), rebuilt_direct_sum(a, b)
        assert (got.gram, got.rank, got.det) == (want.gram, want.rank, want.det)
        assert got == want and hash(got) == hash(want)
    with pytest.raises(AttributeError):
        got.det = 1


def test_inertia_of_the_empty_and_the_zero_matrix():
    assert _inertia([]) == (1, 0, 0)
    assert _inertia([[0, 0], [0, 0]]) == (0, 0, 0)
    assert _inertia([[0, 3], [3, 0]]) == (-9, 1, 1)


def test_signature_of_a_dense_rank_64_gram_is_fast_and_agrees_with_the_oracle():
    rng = random.Random(64)
    n = 64
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * rng.randrange(-25, 26)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randrange(-50, 51)
    L = GramLattice(rows)
    start = time.perf_counter()
    sig = signature(L)
    # elimination over Fractions took about 0.8 s here
    assert time.perf_counter() - start < 0.2
    assert (L.det, *sig) == fraction_inertia(rows)
    assert sum(sig) == n


def test_the_integer_paths_construct_no_fraction(monkeypatch):
    L, T, l_vec, t_vec = a20_glue_data()
    ambient = L.direct_sum(T)
    rows = [list(row) for row in ambient.gram]
    disc = disc_group(dynkin_gram("D4").direct_sum(diagonal_gram([6])))
    disc._gen_pairings  # the table is built once, outside the count
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lattice_module, "Fraction", counted)
    GramLattice(rows)
    assert signature(ambient) == (1, 21)
    _overlattice(ambient, _span_basis(ambient.rank, [l_vec + t_vec]))
    for x in disc.elements():
        for y in disc.elements():
            disc._raw_dot(x, y)
    assert made == []
    # the count sees a construction at an edge: dot hands a Fraction out
    assert L.dot(l_vec, l_vec) == Fraction(-60, 7) and len(made) == 1


def test_in_dual_is_integral_pairing_with_every_row():
    a2 = dynkin_gram("A2")
    assert a2.in_dual([Fraction(1, 3), Fraction(2, 3)])
    assert not a2.in_dual([Fraction(1, 3), Fraction(1, 3)])
    assert diagonal_gram([2, 2]).in_dual([Fraction(1, 2), 0])
    assert not diagonal_gram([2, 2]).in_dual([0, Fraction(1, 4)])
    with pytest.raises(ValueError, match="glue vectors must pair integrally with the lattices"):
        glue(a2, negated(a2), 2, [([Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)])])


@pytest.mark.parametrize("vec", [[1, 2, 3], [1]], ids=["long", "short"])
def test_dot_and_in_dual_refuse_a_vector_whose_length_is_not_the_rank(vec):
    L = diagonal_gram([2, 2])
    named = f"vector has length {len(vec)}, but the lattice has rank 2"
    with pytest.raises(ValueError, match=named):
        L.dot(vec, vec)
    with pytest.raises(ValueError, match=named):
        L.dot([1, 1], vec)
    with pytest.raises(ValueError, match=named):
        L.in_dual(vec)


def test_evenness_and_rank():
    assert dynkin_gram("E8").is_even
    assert HYPERBOLIC_PLANE.is_even
    assert not diagonal_gram([-4, 7]).is_even
    assert dynkin_gram("D5").rank == 5


def test_disc_group_orders():
    assert disc_group(dynkin_gram("A20")).orders == (21,)
    assert disc_group(GramLattice([[2, 5], [5, 2]])).orders == (21,)
    assert disc_group(HYPERBOLIC_PLANE).orders == ()
    assert disc_group(diagonal_gram([-4])).orders == (4,)
    assert disc_group(dynkin_gram("D4")).orders == (2, 2)


def test_disc_group_quadratic_values():
    d4 = disc_group(diagonal_gram([-4]))
    assert d4.q_value((1,)) == Fraction(7, 4)
    da2 = disc_group(dynkin_gram("A2"))
    assert da2.orders == (3,)
    assert da2.q_value((1,)) == Fraction(4, 3)
    assert da2.q_value((2,)) == Fraction(4, 3)


def fracs(text):
    return tuple(Fraction(x) for x in text.split())


A20_GEN = " ".join(f"{i}/21" for i in range(1, 21))
A20_L, A20_T, _, _ = a20_glue_data()
# disc_group's generators are one choice among many; these pin it:
# lattice, orders, generators (lattice-basis coordinates), q on each generator
PINNED_DISC_FORMS = {
    "A2": (dynkin_gram("A2"), (3,), ["1/3 2/3"], ["4/3"]),
    "A3": (dynkin_gram("A3"), (4,), ["1/4 1/2 3/4"], ["5/4"]),
    "D4": (dynkin_gram("D4"), (2, 2), ["0 0 -1/2 1/2", "1/2 1 1/2 1"], ["1", "1"]),
    "D5": (dynkin_gram("D5"), (4,), ["-1/2 -1 -3/2 -3/4 -5/4"], ["3/4"]),
    "E6": (dynkin_gram("E6"), (3,), ["-2/3 -4/3 -2 -5/3 -4/3 -1"], ["2/3"]),
    "E7": (dynkin_gram("E7"), (2,), ["-1 -2 -3 -5/2 -2 -3/2 -3/2"], ["1/2"]),
    "A20": (dynkin_gram("A20"), (21,), [A20_GEN], ["22/21"]),
    "[[2,5],[5,2]]": (GramLattice([[2, 5], [5, 2]]), (21,), ["5/21 -2/21"], ["40/21"]),
    "A20+T": (
        A20_L.direct_sum(A20_T),
        (21, 21),
        [A20_GEN + " 0 0", "0 " * 20 + "5/21 -2/21"],
        ["22/21", "40/21"],
    ),
}


@pytest.mark.parametrize("name", list(PINNED_DISC_FORMS))
def test_disc_group_pinned_generators(name):
    lat, orders, gens, q_values = PINNED_DISC_FORMS[name]
    D = disc_group(lat)
    assert D.orders == orders
    assert D.gens == tuple(fracs(g) for g in gens)
    units = [tuple(int(i == j) for j in range(len(orders))) for i in range(len(orders))]
    assert [D.q_value(u) for u in units] == [Fraction(q) for q in q_values]


def test_disc_form_refuses_generators_off_their_orders():
    # 1/4 has order 4 in L*/L for L = (4), not the listed 2
    D = DiscForm(diagonal_gram([4]), (2,), ((Fraction(1, 4),),))
    with pytest.raises(ValueError, match="gens are not classes of the listed orders"):
        b_value(D, (1,), (1,))


def test_disc_form_polarization():
    """q(x+y) - q(x) - q(y) = 2 b(x,y) mod 2Z on a spread of lattices."""
    rng = random.Random(7)
    for lat in (
        dynkin_gram("A5"),
        dynkin_gram("D6"),
        dynkin_gram("E7"),
        GramLattice([[2, 5], [5, 2]]),
        diagonal_gram([-4, 2, -2]),
    ):
        D = disc_group(lat)
        assert math.prod(D.orders) == abs(lat.det)
        for g in D.gens:
            assert lat.in_dual(g)
        elems = list(D.elements())
        sample = elems if len(elems) <= 30 else rng.sample(elems, 30)
        for x in sample:
            for y in sample[:8]:
                lhs = (D.q_value(D.add(x, y)) - D.q_value(x) - D.q_value(y)) % 2
                assert lhs == (2 * b_value(D, x, y)) % 2


def test_disc_q_value_representative_independent():
    lat = dynkin_gram("A5")
    D = disc_group(lat)
    for x in list(D.elements())[:5]:
        v = list(D.vector(x))
        v[0] += 1
        assert lat.dot(v, v) % 2 == D.q_value(x)


def test_order7_glue_vectors():
    l_vec = [Fraction(i, 7) for i in range(1, 21)]
    a20 = dynkin_gram("A20")
    assert a20.in_dual(l_vec)
    assert a20.dot(l_vec, l_vec) == Fraction(-60, 7)
    t_lat = GramLattice([[2, 5], [5, 2]])
    t_vec = [Fraction(4, 7), Fraction(4, 7)]
    assert t_lat.in_dual(t_vec)
    assert t_lat.dot(t_vec, t_vec) == Fraction(32, 7)
    assert a20.dot(l_vec, l_vec) + t_lat.dot(t_vec, t_vec) == -4


def test_glue_a20_with_rank2_partner():
    a20 = dynkin_gram("A20")
    t_lat = GramLattice([[2, 5], [5, 2]])
    l_vec = [Fraction(i, 7) for i in range(1, 21)]
    t_vec = [Fraction(4, 7), Fraction(4, 7)]
    lam = glue(a20, t_lat, 3, [(l_vec, t_vec)])
    assert lam.rank == 22
    assert lam.is_even
    assert signature(lam) == (1, 21)
    assert abs(lam.det) == 9
    assert disc_group(lam).orders == (3, 3)


def test_glue_from_json_matches():
    a20 = dynkin_gram("A20")
    t_lat = GramLattice([[2, 5], [5, 2]])
    l_vec = [Fraction(i, 7) for i in range(1, 21)]
    t_vec = [Fraction(4, 7), Fraction(4, 7)]
    with open(GLUE_PATH) as fh:
        doc = json.load(fh)
    assert glue_from_json(doc) == glue(a20, t_lat, 3, [(l_vec, t_vec)])


def test_trivial_glue_is_direct_sum():
    a2 = dynkin_gram("A2")
    s = glue(a2, HYPERBOLIC_PLANE, 3, [])
    assert s == a2.direct_sum(HYPERBOLIC_PLANE)


def test_glue_order2_classes_gives_unimodular():
    h = glue(
        diagonal_gram([-2]),
        diagonal_gram([2]),
        3,
        [([Fraction(1, 2)], [Fraction(1, 2)])],
    )
    assert abs(h.det) == 1
    assert h.is_even
    assert signature(h) == (1, 1)


def test_glue_rejects_bad_input():
    # q values add to -1, not 0 mod 2Z: no even overlattice
    with pytest.raises(ValueError, match="anti-isometry"):
        glue(
            diagonal_gram([-2]),
            diagonal_gram([-2]),
            3,
            [([Fraction(1, 2)], [Fraction(1, 2)])],
        )
    # q vanishes on both glue vectors of U(2) + U(2) but not on their sum
    u2 = GramLattice([[0, 2], [2, 0]])
    e, f = [Fraction(1, 2), 0], [0, Fraction(1, 2)]
    with pytest.raises(ValueError, match="anti-isometry"):
        glue(u2, u2, 3, [(e, e), (f, e)])
    # prime-to-5 parts are all of Z/21; one order-7 pair cannot cover them
    a20 = dynkin_gram("A20")
    t_lat = GramLattice([[2, 5], [5, 2]])
    l_vec = [Fraction(i, 7) for i in range(1, 21)]
    t_vec = [Fraction(4, 7), Fraction(4, 7)]
    with pytest.raises(ValueError, match=r"does not cover the prime-to-p part of L\*/L"):
        glue(a20, t_lat, 5, [(l_vec, t_vec)])
    # A2 is covered, but only one Z/3 of the (Z/3)^2 of -A2 + -A2
    a2 = dynkin_gram("A2")
    two_neg_a2 = negated(a2).direct_sum(negated(a2))
    third = [Fraction(1, 3), Fraction(2, 3)]
    with pytest.raises(ValueError, match=r"does not cover the prime-to-p part of T\*/T"):
        glue(a2, two_neg_a2, 2, [(third, third + [0, 0])])
    # the glue class of order 2 is not prime to p = 2
    with pytest.raises(ValueError, match="glued classes must have order coprime to p"):
        glue(diagonal_gram([-2]), diagonal_gram([2]), 2, [([Fraction(1, 2)], [Fraction(1, 2)])])
    # the class (0, t) of order 3 projects to zero in L*/L: not injective
    with pytest.raises(ValueError, match="glue classes do not form the graph of a bijection"):
        glue(a2, negated(a2).direct_sum(a2), 2, [([0, 0], third + third)])


@pytest.mark.parametrize("p", [0, -3, 1, 4, 21])
def test_glue_refuses_a_p_that_is_not_prime(p):
    # gcd(order, 0) and gcd(order, -3) would read 0 and -3 as primes
    with pytest.raises(ValueError, match=f"glue needs a prime p, got {p}"):
        glue(dynkin_gram("A2"), HYPERBOLIC_PLANE, p, [])


def random_glue_cases():
    """20 seeded (L, -L, pairs, D_L): rank-2 even L glued to -L along all of D_L."""
    rng = random.Random(9)

    def random_even_lattice(n):
        while True:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 2 * rng.randrange(-3, 4)
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randrange(-2, 3)
            if cofactor_det(rows) != 0:
                return GramLattice(rows)

    done = 0
    while done < 20:
        L = random_even_lattice(2)
        D = disc_group(L)
        if any(d % 97 == 0 for d in D.orders):
            continue
        Lneg = GramLattice([[-x for x in row] for row in L.gram])
        pairs = [
            (D.vector(e), D.vector(e))
            for e in [
                tuple(1 if i == k else 0 for i in range(len(D.orders)))
                for k in range(len(D.orders))
            ]
        ]
        yield L, Lneg, pairs, D
        done += 1


def test_glue_determinant_bookkeeping():
    """det(glued) * index^2 = det(L) * det(T) on random even pieces."""
    for L, Lneg, pairs, D in random_glue_cases():
        lam = glue(L, Lneg, 97, pairs)
        assert abs(lam.det) * math.prod(D.orders) ** 2 == abs(L.det) * abs(Lneg.det)


# The overlattice builder's output on a Hermite basis, entry for entry:
# L + T + Z(l + t), on the basis spanned by the one glue vector.
A20_GLUED_GRAM = [
    [-4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -3, 4, 4],
    [0, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0],
    [-3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 0, 0],
    [4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 5],
    [4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2],
]


def test_glue_a20_gram_rows():
    L, T, l_vec, t_vec = a20_glue_data()
    glued = glue(L, T, 3, [(l_vec, t_vec)])
    assert [list(row) for row in glued.gram] == A20_GLUED_GRAM
    assert glued.det == -9 and glued.is_even
    assert signature(glued) == (1, 21)
    assert disc_group(glued).orders == (3, 3)


def test_glue_of_a_large_cyclic_group_works_on_its_generator():
    d = 100_001
    glued = glue(
        diagonal_gram([2 * d]), diagonal_gram([-2 * d]), 2, [([Fraction(1, d)], [Fraction(1, d)])]
    )
    assert glued.gram == ((0, -2), (-2, -2 * d))


@pytest.mark.parametrize(
    "lattice,even_only,witness",
    [
        (diagonal_gram([-2, 2]), False, [[0, 1], [1, 2]]),
        (diagonal_gram([-2, 2]), True, [[0, 1], [1, 2]]),
        (dynkin_gram("A3"), False, [[-3, 0, -2], [0, -2, 1], [-2, 1, -2]]),
    ],
)
def test_overlattice_witness_grams(lattice, even_only, witness):
    found, got = unimodular_overlattice_exists(lattice, even_only=even_only)
    assert found and [list(row) for row in got.gram] == witness


def test_unimodular_overlattice_positive_controls():
    ok, witness = unimodular_overlattice_exists(diagonal_gram([-2, 2]))
    assert ok and witness is not None and abs(witness.det) == 1
    ok_even, w_even = unimodular_overlattice_exists(diagonal_gram([-2, 2]), even_only=True)
    assert ok_even and w_even.is_even and abs(w_even.det) == 1
    ok, w = unimodular_overlattice_exists(dynkin_gram("E8"))
    assert ok and w == dynkin_gram("E8")


def test_unimodular_overlattice_parity_split():
    # the index-2 overlattice of A3 is odd; there is no even one
    ok_odd, w_odd = unimodular_overlattice_exists(dynkin_gram("A3"))
    assert ok_odd and abs(w_odd.det) == 1 and not w_odd.is_even
    ok_even, _ = unimodular_overlattice_exists(dynkin_gram("A3"), even_only=True)
    assert not ok_even


def test_unimodular_overlattice_needs_square_disc():
    assert unimodular_overlattice_exists(dynkin_gram("A2")) == (False, None)


def test_no_overlattice_for_desk_instance():
    desk = diagonal_gram([-4, 7]).direct_sum(GramLattice([[2, 1], [1, 4]]))
    assert abs(desk.det) == 196
    found, _ = unimodular_overlattice_exists(desk)
    assert not found


def test_no_overlattice_across_instance_family():
    by_d0 = {
        7: GramLattice([[2, 1], [1, 4]]),
        15: GramLattice([[2, 1], [1, 8]]),
        23: GramLattice([[2, 1], [1, 12]]),
    }
    for d0, l3 in by_d0.items():
        assert cofactor_det(l3.gram) == d0
        for l1 in (diagonal_gram([-4]), diagonal_gram([2, -2])):
            inst = l1.direct_sum(diagonal_gram([d0])).direct_sum(l3)
            found, _ = unimodular_overlattice_exists(inst)
            assert not found, (d0, l1)
    inst = diagonal_gram([-16, 7]).direct_sum(GramLattice([[2, 1], [1, 4]]))
    found, _ = unimodular_overlattice_exists(inst)
    assert not found


def test_overlattice_stable_under_unimodular_summand():
    base = diagonal_gram([-2, 2])
    bigger = base.direct_sum(HYPERBOLIC_PLANE)
    ok, w = unimodular_overlattice_exists(bigger)
    assert ok and abs(w.det) == 1


def negated(L):
    return GramLattice([[-x for x in row] for row in L.gram])


def sweep_lattices():
    """Sums of two or three small blocks with a square determinant in (1, 144]."""
    blocks = [diagonal_gram([a]) for a in (-4, -3, -2, 2, 3, 6)]
    for n in (1, 2, 3):
        blocks += [dynkin_gram(("A", n)), negated(dynkin_gram(("A", n)))]
    blocks += [GramLattice([[2, 1], [1, k]]) for k in (2, 3, 5)]  # det 3, 5, 9
    out = []
    for r in (2, 3):
        for combo in itertools.combinations_with_replacement(blocks, r):
            L = combo[0]
            for b in combo[1:]:
                L = L.direct_sum(b)
            d = abs(L.det)
            if 1 < d <= 144 and isqrt(d) ** 2 == d:
                out.append(L)
    return out


def order_of(disc, elem):
    out = 1
    for a, d in zip(elem, disc.orders):
        out = math.lcm(out, d // math.gcd(a, d))
    return out


def isotropic_subgroups_of_order(disc, m, even_only):
    """Every isotropic subgroup of order m, by exhaustive depth-first search.

    The oracle for the one-pass search.  Subgroups of isotropic subgroups
    are isotropic, so growing by one element at a time, inside isotropic
    subgroups of order dividing m, reaches every target.
    """
    trivial = frozenset([(0,) * len(disc.orders)])
    seen = {trivial}
    frontier = [trivial]
    elements = [
        e
        for e in disc.elements()
        if order_of(disc, e) > 1
        and m % order_of(disc, e) == 0
        and b_value(disc, e, e) == 0
        and not (even_only and disc.q_value(e) != 0)
    ]
    while frontier:
        sub = frontier.pop()
        if len(sub) == m:
            yield sub
            continue
        for e in elements:
            if e in sub or any(b_value(disc, e, s) for s in sub):
                continue
            new = _extend_subgroup(disc, sub, e)
            if m % len(new) == 0 and new not in seen:
                seen.add(new)
                frontier.append(new)


def assert_search_agrees_with_the_oracle(L, even_only):
    m = isqrt(abs(L.det))
    whole = next(isotropic_subgroups_of_order(disc_group(L), m, even_only), None)
    found, witness = unimodular_overlattice_exists(L, even_only)
    assert found == (whole is not None), (L, even_only)
    if found:
        assert abs(witness.det) == 1, (L, even_only)
        assert witness.is_even or not even_only, L
    return found


def test_per_prime_search_agrees_with_the_whole_group_search():
    mixed = 0
    for L in sweep_lattices():
        m = isqrt(abs(L.det))
        mixed += sum(m % p == 0 for p in (2, 3, 5)) > 1
        for even_only in (False, True) if L.is_even else (False,):
            assert_search_agrees_with_the_oracle(L, even_only)
    assert mixed >= 50


def random_square_det_lattice(rng, n, even, max_det):
    """A random symmetric Gram of rank n with |det| a square in (1, max_det]."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2 * rng.randrange(-8, 9) if even else rng.randrange(-16, 17)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randrange(-6, 7)
        d = abs(cofactor_det(rows))
        if 1 < d <= max_det and isqrt(d) ** 2 == d:
            return GramLattice(rows)


def seeded_random_lattices():
    """400 seeded lattices of rank 1..4, even and odd, with |det| a square up to 2000."""
    rng = random.Random(11)
    for k in range(400):
        yield random_square_det_lattice(rng, 1 + k % 4, k // 4 % 2 == 0, 2000)


def test_one_pass_search_agrees_with_the_exhaustive_search_on_random_lattices():
    counts = {False: 0, True: 0}
    for L in seeded_random_lattices():
        for even_only in (False, True) if L.is_even else (False,):
            counts[assert_search_agrees_with_the_oracle(L, even_only)] += 1
    # both verdicts occur often
    assert min(counts.values()) >= 100, counts


def test_overlattice_mixing_the_primes_two_and_three():
    L = diagonal_gram([-2, 2]).direct_sum(dynkin_gram("A2")).direct_sum(negated(dynkin_gram("A2")))
    assert abs(L.det) == 36
    for even_only in (False, True):
        found, witness = unimodular_overlattice_exists(L, even_only)
        assert found and abs(witness.det) == 1 and witness.rank == 6


def test_overlattice_guard_bounds_the_largest_p_part():
    # |D| = 30030^2 is about 9e8; its odd parts are split, and its 2-part has order 4
    found, witness = unimodular_overlattice_exists(diagonal_gram([30030, -30030]))
    assert found and abs(witness.det) == 1
    # a 2-part of order 2^16 is under the guard; the pass stops at (1, 1), of order 256
    found, witness = unimodular_overlattice_exists(diagonal_gram([256, -256]))
    assert found and abs(witness.det) == 1
    # the guard bounds the walked 2-part only: an odd part of order 100489 is answered
    found, witness = unimodular_overlattice_exists(diagonal_gram([317, -317]))
    assert found and abs(witness.det) == 1
    with pytest.raises(ValueError, match="2-part of the discriminant group has order 262144"):
        unimodular_overlattice_exists(diagonal_gram([512, -512]))


def greedy_maximal_isotropic(part, even_only):
    """The oracle for odd parts: the one-pass greedy search the package once ran on every p-part."""
    size = math.prod(part.orders)
    exponent = part._exponent
    self_modulus = 2 * exponent if even_only else exponent
    sub = frozenset([(0,) * len(part.orders)])
    gens = []
    for e in part.elements():
        if len(sub) ** 2 == size:
            break
        if e in sub or part._raw_dot(e, e) % self_modulus:
            continue
        if any(part._raw_dot(e, g) % exponent for g in gens):
            continue
        sub = _extend_subgroup(part, sub, e)
        gens.append(e)
    return sub


def odd_part_lattices():
    """260 seeded lattices with |det| a square and an odd p-part of order up to 10^5.

    Each is a diagonal lattice under a unimodular change of basis, so the
    Smith generators mix its summands.  The entries +-u p^k, k in 1..3
    and u in 1..12 prime to p, make a p-part of exponent p, p^2 or p^3
    with units u; one more entry, the squarefree part of the product of
    the u, makes |det| a square and adds small parts at the primes of u.
    The order cap is most often small, as the oracle walks every element
    of a part with no unimodular overlattice.
    """
    rng = random.Random(23)
    out = []
    while len(out) < 260:
        cap = rng.choices((10**2, 10**3, 10**4, 10**5), (8, 6, 3, 1))[0]
        p = rng.choice([q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 307) if q * q <= cap])
        r = rng.randrange(2, 5)
        ks = [rng.choice((1, 1, 2, 3)) for _ in range(r)]
        if sum(ks) % 2:
            ks[-1] += 1 if ks[-1] < 3 else -1
        if p ** sum(ks) > cap:
            continue
        us = [rng.choice([u for u in range(1, 13) if u % p]) for _ in range(r)]
        diag = [rng.choice((-1, 1)) * u * p**k for u, k in zip(us, ks)]
        free = math.prod(us)
        for q in (2, 3, 5, 7, 11):
            while free % (q * q) == 0:
                free //= q * q
        if free > 1:
            diag.append(rng.choice((-1, 1)) * free)
        n = len(diag)
        rows = [[x if i == j else 0 for j, x in enumerate(diag)] for i in range(n)]
        out.append((p, GramLattice(congruent(rows, rng, 2 * n))))
    return out


def test_jordan_split_agrees_with_the_greedy_pass_on_odd_parts():
    verdicts = {False: 0, True: 0}
    for p, L in odd_part_lattices():
        disc = disc_group(L)
        want = True
        # the primes of |det| are p and those of the units
        for q in sorted({2, 3, 5, 7, 11, p}):
            part = disc.p_part(q)
            if not part.orders:
                continue
            ok = len(greedy_maximal_isotropic(part, False)) ** 2 == math.prod(part.orders)
            if q == p:
                assert (lattice_module._odd_lagrangian(part, p) is not None) == ok, (p, L)
                verdicts[ok] += 1
            want = want and ok
        found, witness = unimodular_overlattice_exists(L)
        assert found == want, L
        if found:
            assert abs(witness.det) == 1, L
    assert min(verdicts.values()) >= 100, verdicts


def test_the_greedy_pass_runs_on_the_2_part_only(monkeypatch):
    seen = []
    greedy = lattice_module._maximal_isotropic

    def recording(part, even_only):
        seen.append(min(q for q in range(2, part.orders[0] + 1) if part.orders[0] % q == 0))
        return greedy(part, even_only)

    monkeypatch.setattr(lattice_module, "_maximal_isotropic", recording)
    for _p, L in odd_part_lattices()[:100]:
        unimodular_overlattice_exists(L)
    for L in sweep_lattices():
        unimodular_overlattice_exists(L)
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 257, 10007, 65521])
def test_square_roots_mod_p(p):
    # 2^s exactly divides p - 1 for s = 1, 2, 2, 4, 5, 8, 1, 4
    rng = random.Random(p)
    squares = {x * x % p for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(50)]}
    for a in squares:
        assert lattice_module._is_square(a, p)
        r = lattice_module._sqrt_mod(a, p)
        assert r * r % p == a, (a, p)
    if p < 300:
        assert {a for a in range(p) if lattice_module._is_square(a, p)} == {x * x % p for x in range(p)}


@pytest.mark.parametrize(
    "entries,want", [([311, 311], False), ([317, -317], True), ([-10007, 10007], True)]
)
def test_large_odd_parts_are_decided_at_once(entries, want):
    start = time.perf_counter()
    found, witness = unimodular_overlattice_exists(diagonal_gram(entries))
    assert time.perf_counter() - start < 0.1
    assert found == want
    assert abs(witness.det) == 1 if want else witness is None


def test_p_part_scales_the_smith_generators():
    # Z/6 (from diag(6)) splits into Z/2 generated by 3g and Z/3 generated by 2g
    disc = disc_group(diagonal_gram([6]))
    assert disc.orders == (6,) and disc.gens == ((Fraction(1, 6),),)
    two, three = disc.p_part(2), disc.p_part(3)
    assert (two.orders, two.gens) == ((2,), ((Fraction(1, 2),),))
    assert (three.orders, three.gens) == ((3,), ((Fraction(1, 3),),))
    assert disc.p_part(5).orders == ()
    a3 = disc_group(dynkin_gram("A3"))
    assert a3.p_part(2) == a3


@pytest.mark.parametrize(
    "build,arg,named",
    [
        (dynkin_gram, "A" + "9" * 12, "root lattice A999999999999 has rank 999999999999"),
        (dynkin_gram, ("D", _RANK_GUARD + 1), f"root lattice D129 has rank {_RANK_GUARD + 1}"),
        (diagonal_gram, range(10**12), "diagonal lattice has rank 1000000000000"),
        (lattice_from_json, {"gram": [[1]] * 10**4}, "Gram matrix has rank 10000"),
    ],
    ids=["dynkin-symbol", "dynkin-pair", "diagonal", "gram"],
)
def test_rank_guard_refuses_before_building_any_row(build, arg, named):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=named):
            build(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rows of the smallest refused lattice, rank 129, take over 130 KiB
    assert peak < 16 * 1024, peak


def test_rank_guard_admits_rank_128():
    assert dynkin_gram(("A", _RANK_GUARD)).rank == _RANK_GUARD
    assert diagonal_gram([2] * _RANK_GUARD).rank == _RANK_GUARD


def test_lattice_from_json_forms():
    assert lattice_from_json({"dynkin": "D7"}) == dynkin_gram("D7")
    assert lattice_from_json({"diagonal": [-4, 7]}) == diagonal_gram([-4, 7])
    assert lattice_from_json({"gram": [[0, 1], [1, 0]]}) == HYPERBOLIC_PLANE
    with pytest.raises(ValueError):
        lattice_from_json({"rows": [[2]]})


@pytest.mark.parametrize("entries", [[2.7, -2], [True, -2], [2.0, -2], "2,-2", None])
def test_lattice_from_json_refuses_inexact_diagonal(entries):
    with pytest.raises(ValueError, match="'diagonal' must be a list of integers"):
        lattice_from_json({"diagonal": entries})


@pytest.mark.parametrize("doc", [[2], "A2", None])
def test_lattice_from_json_needs_an_object(doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        lattice_from_json(doc)


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_p_part_needs_a_prime(p):
    disc = disc_group(diagonal_gram([12]))
    with pytest.raises(ValueError, match=f"p-part needs a prime p, got {p}"):
        disc.p_part(p)


@pytest.mark.parametrize("p", [65537, 100000000000000000039])
def test_p_part_refuses_a_large_prime_at_once(p):
    """A prime at or above 2^16 is refused without trial division."""
    disc = disc_group(diagonal_gram([6]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"got {p}, not a prime below 2\\^16"):
        disc.p_part(p)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "make,where,got",
    [
        (lambda: GramLattice([[2.7]]), r"\[0\]\[0\]", "2.7"),
        (lambda: GramLattice([[2, 1], [1, True]]), r"\[1\]\[1\]", "True"),
        (lambda: diagonal_gram([2, Fraction(5, 2)]), r"\[1\]\[1\]", r"Fraction\(5, 2\)"),
        (lambda: GramLattice([[2, 1.0], [1, 2]]), r"\[0\]\[1\]", "1.0"),
    ],
    ids=["float", "bool", "fraction", "integral-float"],
)
def test_gram_lattice_refuses_entries_that_are_not_ints(make, where, got):
    with pytest.raises(ValueError, match=f"Gram entry {where} must be an integer, got {got}"):
        make()


def fraction_dot(gram, x, y):
    """x.y for Fraction vectors, one product per pair of nonzero entries."""
    acc = Fraction(0)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    acc += a * gram[i][j] * b
    return acc


def fraction_overlattice_gram(ambient, span):
    """The oracle: the overlattice Gram over Fractions, one Fraction dot per entry."""
    scale, rows = span
    basis = [[Fraction(x, scale) for x in row] for row in rows]
    gram = [[fraction_dot(ambient.gram, b, c) for c in basis] for b in basis]
    assert all(x.denominator == 1 for row in gram for x in row)
    return tuple(tuple(int(x) for x in row) for row in gram)


@pytest.fixture
def checked_overlattices(monkeypatch):
    """Every overlattice glue and the search build, checked against the oracle as it is built."""
    built = []

    def checked(ambient, span):
        got = _overlattice(ambient, span)
        assert got.gram == fraction_overlattice_gram(ambient, span)
        built.append(got)
        return got

    monkeypatch.setattr(lattice_module, "_overlattice", checked)
    return built


def test_integer_gram_agrees_with_the_fraction_gram_on_every_glue(checked_overlattices):
    L, T, l_vec, t_vec = a20_glue_data()
    glue(L, T, 3, [(l_vec, t_vec)])
    with open(GLUE_PATH) as fh:
        glue_from_json(json.load(fh))
    glue(dynkin_gram("A2"), HYPERBOLIC_PLANE, 3, [])
    glue(diagonal_gram([-2]), diagonal_gram([2]), 3, [([Fraction(1, 2)], [Fraction(1, 2)])])
    d = 100_001
    glue(diagonal_gram([2 * d]), diagonal_gram([-2 * d]), 2, [([Fraction(1, d)], [Fraction(1, d)])])
    for L, Lneg, pairs, _D in random_glue_cases():
        glue(L, Lneg, 97, pairs)
    assert len(checked_overlattices) == 25


def test_integer_gram_agrees_with_the_fraction_gram_on_every_witness(checked_overlattices):
    pinned = [lat for _rid, lat, _want in overlattice_instances()]
    pinned += [
        diagonal_gram([-2, 2]),
        dynkin_gram("A3"),
        diagonal_gram([-2, 2]).direct_sum(HYPERBOLIC_PLANE),
        diagonal_gram([-2, 2]).direct_sum(dynkin_gram("A2")).direct_sum(negated(dynkin_gram("A2"))),
        diagonal_gram([30030, -30030]),
        diagonal_gram([256, -256]),
    ]
    found = 0
    for L in pinned + sweep_lattices() + list(seeded_random_lattices()):
        for even_only in (False, True) if L.is_even else (False,):
            found += unimodular_overlattice_exists(L, even_only)[0]
    # the search builds one overlattice for each witness it returns
    assert found == len(checked_overlattices) > 300


def test_a_span_that_is_not_integral_is_refused():
    # Z + Z/2 under the form 2x^2 has the basis 1/2, of square 1/2
    with pytest.raises(RuntimeError, match="overlattice is not integral"):
        _overlattice(diagonal_gram([2]), _span_basis(1, [[Fraction(1, 2)]]))
    with pytest.raises(RuntimeError, match="overlattice is not integral"):
        _overlattice(dynkin_gram("A2"), _span_basis(2, [[Fraction(1, 3), Fraction(1, 3)]]))
