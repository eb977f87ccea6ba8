import itertools
import json
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from rdpk3.lattice import (
    DiscForm,
    GramLattice,
    det_int,
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
from rdpk3.lattice import _RANK_GUARD, _extend_subgroup
from rdpk3.reproduce import a20_glue_data

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
        d = det_int(rows)
        assert d == cofactor_det(rows), rows
        diag, v = smith_diagonal(rows)
        # U M V = diag(d): M times column i of V is d_i times an integer
        # vector, and with |det V| = 1 and prod(d) = |det M| the columns
        # over the d_i generate M^{-1} Z^n / Z^n
        for i, di in enumerate(diag):
            image = [sum(r[j] * v[j][i] for j in range(n)) for r in rows]
            assert all(x % di == 0 for x in image) if di else not any(image), rows
        assert abs(det_int(v)) == 1
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
    # the class (0, t) of order 3 projects to zero in L*/L: not injective
    with pytest.raises(ValueError, match="glue classes do not form the graph of a bijection"):
        glue(a2, negated(a2).direct_sum(a2), 2, [([0, 0], third + third)])


@pytest.mark.parametrize("p", [0, -3, 1, 4, 21])
def test_glue_refuses_a_p_that_is_not_prime(p):
    # gcd(order, 0) and gcd(order, -3) would read 0 and -3 as primes
    with pytest.raises(ValueError, match=f"glue needs a prime p, got {p}"):
        glue(dynkin_gram("A2"), HYPERBOLIC_PLANE, p, [])


def test_glue_determinant_bookkeeping():
    """det(glued) * index^2 = det(L) * det(T) on random even pieces."""
    rng = random.Random(9)

    def random_even_lattice(n):
        while True:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 2 * rng.randrange(-3, 4)
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randrange(-2, 3)
            if det_int(rows) != 0:
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
        lam = glue(L, Lneg, 97, pairs)
        assert abs(lam.det) * math.prod(D.orders) ** 2 == abs(L.det) * abs(Lneg.det)
        done += 1


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
        assert det_int(l3.gram) == d0
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
        d = abs(det_int(rows))
        if 1 < d <= max_det and isqrt(d) ** 2 == d:
            return GramLattice(rows)


def test_one_pass_search_agrees_with_the_exhaustive_search_on_random_lattices():
    rng = random.Random(11)
    counts = {False: 0, True: 0}
    for k in range(400):
        L = random_square_det_lattice(rng, 1 + k % 4, k // 4 % 2 == 0, 2000)
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
    # |D| = 30030^2 is about 9e8, but its largest p-part (p = 13) has order 169
    found, witness = unimodular_overlattice_exists(diagonal_gram([30030, -30030]))
    assert found and abs(witness.det) == 1
    # a 2-part of order 2^16 is under the guard; the pass stops at (1, 1), of order 256
    found, witness = unimodular_overlattice_exists(diagonal_gram([256, -256]))
    assert found and abs(witness.det) == 1
    with pytest.raises(ValueError, match="317-part of the discriminant group has order 100489"):
        unimodular_overlattice_exists(diagonal_gram([317, -317]))
    with pytest.raises(ValueError, match="2-part of the discriminant group has order 262144"):
        unimodular_overlattice_exists(diagonal_gram([512, -512]))


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
